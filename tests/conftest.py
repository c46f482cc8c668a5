"""Shared fixtures and helpers for the test suite."""

import numpy as np

from trackgraph.mpn import GraphTensors, backward, focal_loss, forward, init_params


def shares_a_window(plan, origin, fa, fb):
    """Brute force: some window of the plan holds both frames."""
    return any(s <= min(fa, fb) and max(fa, fb) < s + plan.window
               for s in plan.starts(origin))


def gated_pair_score(dets, plan, origin, i, j, oracle=False):
    """One pair's similarity, gated by brute force and computed here.

    (1 + cosine) / 2 clipped to [0, 1], or identity equality for the
    oracle; pairs in one frame or in no common window score 0.
    """
    a, b = dets.detections[i], dets.detections[j]
    if a.frame == b.frame or not shares_a_window(plan, origin, a.frame, b.frame):
        return 0.0
    if oracle:
        return float(a.gt_id == b.gt_id)
    cos = a.embedding @ b.embedding / (np.linalg.norm(a.embedding) * np.linalg.norm(b.embedding))
    return float(np.clip((1.0 + cos) / 2.0, 0.0, 1.0))


def random_graph_tensors(rng, n_nodes=5, n_edges=6, dim=3):
    """Random DAG tensors with synthetic (non-geometric) edge descriptors."""
    frames = np.sort(rng.integers(0, 50, size=n_nodes))
    frames = frames + np.arange(n_nodes)  # force strictly increasing
    pairs = set()
    while len(pairs) < n_edges:
        a, b = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
        pairs.add((a, b))
    pairs = sorted(pairs)
    u = np.asarray([p[0] for p in pairs])
    v = np.asarray([p[1] for p in pairs])
    feats = rng.normal(size=(len(pairs), 6))
    node_feat = rng.normal(size=(n_nodes, dim))
    spans = np.stack([frames, frames], axis=1)
    return GraphTensors(u, v, feats, node_feat, spans)


def _kink_margin(g, params):
    """Smallest |pre-activation| over every hidden rectifier in the pass."""
    from trackgraph.mpn import _forward

    _, scores, cache = _forward(g, params, keep_cache=True)
    proj_cache, enc_cache, steps_cache, clf_cache = cache
    margin = np.inf
    stacks = [enc_cache, clf_cache]
    for step in steps_cache:
        stacks.extend(step)
    for acts, pres in stacks:
        for z in pres[:-1]:
            if z.size:
                margin = min(margin, float(np.abs(z).min()))
    return margin, scores


def draw_audit_case(rng, n_nodes=5, n_edges=6, margin=0.01, **dims):
    """Draw a (graph, params, labels) triple safe for 1e-3 step audits.

    Central differences through a rectifier only measure the true
    gradient when the perturbation does not cross a kink, so redraw
    until every hidden pre-activation clears the margin and the scores
    stay away from the loss clamp. The margin keeps the instrument
    valid; it does not touch the gradients under test.
    """
    args = dict(embed_dim=3, node_dim=4, edge_dim=3, hidden=5, steps=2)
    args.update(dims)
    while True:
        g = random_graph_tensors(rng, n_nodes=n_nodes, n_edges=n_edges,
                                 dim=args["embed_dim"])
        params = init_params(int(rng.integers(2**31)), **args)
        m, scores = _kink_margin(g, params)
        if m > margin and np.all((scores > 0.01) & (scores < 0.99)):
            labels = rng.integers(0, 2, size=g.n_edges)
            return g, params, labels


def gradient_audit_errors(g, params, labels, gamma=1.0, eps=1e-3):
    """Per-parameter relative error of analytic vs central-difference grads."""
    _, _, grads = backward(g, params, labels, gamma)
    errs = []
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        flat_p = p_arr.reshape(-1)
        flat_g = g_arr.reshape(-1)
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + eps
            up = focal_loss(forward(g, params)[1], labels, gamma)
            flat_p[k] = keep - eps
            dn = focal_loss(forward(g, params)[1], labels, gamma)
            flat_p[k] = keep
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(flat_g[k]), 1e-6)
            errs.append(abs(fd - flat_g[k]) / denom)
    return np.asarray(errs)
