"""Shared fixtures and helpers for the test suite."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.core import (
    BoundingBox,
    Detection,
    NumericError,
    TrackGraph,
    Tracklet,
    ValidationError,
    box_fault,
    box_rows,
)
from trackgraph.ingest import DetectionSet
from trackgraph.mpn import (
    EmbeddingState,
    GraphTensors,
    _as_tensors,
    _incidence,
    _mlp_rest,
    _pair_blocks,
    _sigmoid,
    backward,
    focal_grad,
    focal_loss,
    forward,
    init_params,
    mlp_forward,
    zero_params_like,
)


def iou(a, b):
    """Intersection over union of two BoundingBoxes, one float at a time:
    the reference core.iou_corners, iou_matrix and iou_rows equal bit for
    bit, as they take the same operations in the same order."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    # rounding can nudge the ratio past 1 for near-identical boxes
    return min(1.0, inter / (a.w * a.h + b.w * b.h - inter))


def assert_links(links, u, v):
    """links are two int64 arrays holding exactly u and v, in order."""
    assert len(links) == 2
    for got, want in zip(links, (u, v)):
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64), strict=True)


def owner_tracks(owner):
    """The member lists owner stands for: tracklet t's detection indices,
    ascending, at position t."""
    owner = np.asarray(owner, dtype=np.int64)
    order = np.argsort(owner, kind="stable")
    return [t.tolist() for t in np.split(order, np.cumsum(np.bincount(owner))[:-1])]


def id_partition(dets, ids):
    """The groups one id per detection stands for, as (frame, index) sets."""
    assert np.asarray(ids).shape == (len(dets),)
    groups = {}
    for i, (f, g) in enumerate(zip(dets.frames.tolist(), ids.tolist())):
        groups.setdefault(g, set()).add((f, i))
    return {frozenset(v) for v in groups.values()}


def members_of(node):
    """A record node's member detections: a detection is its own."""
    return (node,) if isinstance(node, Detection) else node.detections


def graph_of(nodes, u, v):
    """A TrackGraph over record nodes, as the pipeline builds one.

    The set is DetectionSet.build over every member record, each record
    once. Detections in frame order make a part graph, node i being
    detection i; any other node list makes a trajectory graph whose node
    i holds the members of nodes[i], a detection as a one-member group.
    """
    records = list({id(d): d for node in nodes for d in members_of(node)}.values())
    dets = DetectionSet.build(records)
    index = {id(d): i for i, d in enumerate(dets.detections)}
    members = [index[id(d)] for node in nodes for d in members_of(node)]
    if all(isinstance(node, Detection) for node in nodes) and members == sorted(members):
        return TrackGraph(dets, u, v)
    offsets = np.cumsum([0] + [len(members_of(node)) for node in nodes])
    return TrackGraph(dets, u, v, (offsets, members))


def window_starts(plan, origin=0):
    """A plan's window start frames, listed one by one.

    Windows start every step frames from origin; the last one reaches
    the clip end. The brute-force reference for WindowPlan.window_end.
    """
    out = []
    s = 0
    while True:
        out.append(origin + s)
        if s + plan.window >= plan.clip_len:
            break
        s += plan.step
    return out


def shares_a_window(plan, origin, fa, fb):
    """Brute force: some window of the plan holds both frames."""
    return any(s <= min(fa, fb) and max(fa, fb) < s + plan.window
               for s in window_starts(plan, origin))


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
    u = np.asarray([p[0] for p in pairs], dtype=np.int64)
    v = np.asarray([p[1] for p in pairs], dtype=np.int64)
    feats = rng.normal(size=(len(pairs), 6))
    node_feat = rng.normal(size=(n_nodes, dim))
    spans = np.stack([frames, frames], axis=1)
    return GraphTensors(u, v, feats, node_feat, spans)


# ------------------------------------------------ message-passing reference
#
# The network written the direct way: every pair MLP reads its
# concatenated (m x 2 d_v + 2 d_e) input, each MLP keeps its
# pre-activations, and messages are summed with np.add.at. mpn.forward
# and mpn.backward must agree with it to rounding.


def reference_graph_tensors(graph):
    """mpn.graph_tensors computed from the graph's node records, in one
    pass over all edges.

    Node features are each node's np.mean over its members' embeddings
    (a detection's own embedding); boxes are the first and last member's;
    every descriptor column is one full-length array. The blocked,
    column-reading graph_tensors must match it bit for bit.
    """
    node_feat = np.stack([
        node.embedding if isinstance(node, Detection)
        else np.mean([d.embedding for d in node.detections], axis=0)
        for node in graph.nodes
    ])
    u, v, spans = graph.u, graph.v, graph.spans
    bu = box_rows(members_of(node)[-1].box for node in graph.nodes)[u]
    bv = box_rows(members_of(node)[0].box for node in graph.nodes)[v]
    denom = bu[:, 3] + bv[:, 3]
    diff = node_feat[u] - node_feat[v]
    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]))[:, 0, 0]
    feats = np.column_stack(
        [
            2.0 * (bv[:, 0] - bu[:, 0]) / denom,
            2.0 * (bv[:, 1] - bu[:, 1]) / denom,
            np.log(bv[:, 2] / bu[:, 2]),
            np.log(bv[:, 3] / bu[:, 3]),
            (spans[v, 0] - spans[u, 1]).astype(np.float64),
            dist,
        ]
    )
    return GraphTensors(u, v, feats, node_feat, spans)


def reference_edge_labels(graph):
    """mpn.edge_labels read from the graph's node records, node by node.

    Every (identity, frame) a member shows is one sorted key; an edge is
    positive when both endpoints are pure in one identity and no key of
    it falls strictly between u's last frame and v's first frame.
    """
    number = {}  # gt id -> dense number
    member_id, member_frame = [], []
    pure = np.full(len(graph.nodes), -1, dtype=np.int64)  # number, or -1
    for k, node in enumerate(graph.nodes):
        ids = set()
        for d in members_of(node):
            ids.add(d.gt_id)
            if d.gt_id is not None:
                member_id.append(number.setdefault(d.gt_id, len(number)))
                member_frame.append(d.frame)
        if len(ids) == 1 and None not in ids:
            pure[k] = number[ids.pop()]
    frames, rank = np.unique(np.asarray(member_frame, dtype=np.int64), return_inverse=True)
    keys = np.unique(np.asarray(member_id, dtype=np.int64) * frames.size + rank)
    pos = np.searchsorted(keys, pure[:, None] * frames.size
                          + np.searchsorted(frames, graph.spans))
    u, v = graph.u, graph.v
    positive = (pure[u] >= 0) & (pure[u] == pure[v]) & (pos[v, 0] <= pos[u, 1] + 1)
    return positive.astype(np.int64)


def reference_handcrafted_scores(g):
    """mpn.handcrafted_scores of GraphTensors g in one pass over all edges."""
    dx, dy, lw, lh, dt, de = (g.feats[:, i] for i in range(6))
    drift = np.hypot(dx, dy) / np.maximum(dt, 1.0)
    logit = (
        5.0
        - 8.0 * drift
        - 4.0 * (np.abs(lw) + np.abs(lh))
        - 4.5 * de
        - 0.15 * (dt - 1.0)
    )
    return _sigmoid(logit)


def reference_one_pass_forward(g, params, keep_cache):
    """mpn._forward with the edge encoder and every pair MLP run over all
    edges at once.

    Each pair MLP gathers (h @ W_a)[a] as a fresh full-length array and
    makes a new full-length output per layer. The blocked _forward must
    match it bit for bit: scores, final states and the whole cache.
    """
    d_v, d_e = params.node_dim, params.edge_dim
    u, v = g.u, g.v
    to_u, to_v = _incidence(u, g.n_nodes), _incidence(v, g.n_nodes)
    h, proj_cache = mlp_forward(params.node_proj, g.node_feat)
    e0, enc_cache = mlp_forward(params.edge_encoder, g.feats)
    pairs = (
        (params.edge_mlp, u, v),
        (params.past_mlp, u, v),
        (params.future_mlp, v, u),
    )
    fixed = []
    scratch = {}
    for mlp, _, _ in pairs:
        w_init = _pair_blocks(mlp.weights[0], d_v, d_e)[2]
        fixed.append(e0 @ w_init + mlp.biases[0])
        scratch.setdefault(w_init.shape[1], np.empty((g.n_edges, w_init.shape[1])))

    def pair_forward(k, core, hidden):
        mlp, a, c = pairs[k]
        w_a, w_core, _, w_c = _pair_blocks(mlp.weights[0], d_v, d_e)
        buf = scratch[w_a.shape[1]]
        z = (h @ w_a)[a]
        z += np.take(h @ w_c, c, axis=0, out=buf, mode="clip")
        z += np.matmul(core, w_core, out=buf)
        z += fixed[k]
        return _mlp_rest(mlp, z, hidden)

    core = e0
    steps_cache = []
    for _ in range(params.steps):
        edge_hidden, past_hidden, fut_hidden = [], [], []
        core_new = pair_forward(0, core, edge_hidden)
        past_sum = to_v @ pair_forward(1, core_new, past_hidden)
        fut_sum = to_u @ pair_forward(2, core_new, fut_hidden)
        h_new, node_cache = mlp_forward(params.node_mlp, np.hstack([past_sum, fut_sum]))
        if keep_cache:
            steps_cache.append((h, core, core_new, edge_hidden, past_hidden, fut_hidden,
                                node_cache))
        h, core = h_new, core_new
    ebar = np.hstack([core, e0])
    scores, clf_cache = mlp_forward(params.classifier_mlp, ebar)
    scores = scores.ravel()
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(scores))):
        raise NumericError("message passing produced non-finite values")
    state = EmbeddingState(node=h, edge=ebar, step=params.steps)
    cache = None
    if keep_cache:
        cache = (to_u, to_v, e0, proj_cache, enc_cache, steps_cache, clf_cache)
    return state, scores, cache


def reference_mlp_forward(p, x):
    """Returns (output, (per-layer inputs, per-layer pre-activations))."""
    acts = [x]
    pres = []
    last = len(p.weights) - 1
    for l, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = acts[-1] @ w + b
        pres.append(z)
        if l < last:
            acts.append(np.maximum(z, 0.0))
        elif p.output == "logistic":
            acts.append(_sigmoid(z))
        else:
            acts.append(z)
    return acts[-1], (acts, pres)


def reference_mlp_backward(p, cache, dout):
    """Returns (d_input, (dweights, dbiases)) for a cached forward pass."""
    acts, pres = cache
    last = len(p.weights) - 1
    dws = [None] * len(p.weights)
    dbs = [None] * len(p.biases)
    d = dout
    for l in range(last, -1, -1):
        if l == last:
            if p.output == "logistic":
                s = acts[-1]
                dz = d * s * (1.0 - s)
            else:
                dz = d
        else:
            dz = d * (pres[l] > 0)
        dws[l] = acts[l].T @ dz
        dbs[l] = dz.sum(axis=0)
        d = dz @ p.weights[l].T
    return d, (dws, dbs)


def reference_forward(g, params, keep_cache=False):
    """(state, scores, cache) of the concatenating network."""
    d_v = params.node_dim
    u, v = g.u, g.v
    h, proj_cache = reference_mlp_forward(params.node_proj, g.node_feat)
    e0, enc_cache = reference_mlp_forward(params.edge_encoder, g.feats)
    ebar = np.hstack([e0, e0])
    steps_cache = []
    for _ in range(params.steps):
        edge_in = np.hstack([h[u], ebar, h[v]])
        core, edge_cache = reference_mlp_forward(params.edge_mlp, edge_in)
        ebar_new = np.hstack([core, e0])
        past_in = np.hstack([h[u], ebar_new, h[v]])
        m_past, past_cache = reference_mlp_forward(params.past_mlp, past_in)
        fut_in = np.hstack([h[v], ebar_new, h[u]])
        m_fut, fut_cache = reference_mlp_forward(params.future_mlp, fut_in)
        past_sum = np.zeros((g.n_nodes, d_v))
        fut_sum = np.zeros((g.n_nodes, d_v))
        np.add.at(past_sum, v, m_past)
        np.add.at(fut_sum, u, m_fut)
        h_new, node_cache = reference_mlp_forward(
            params.node_mlp, np.hstack([past_sum, fut_sum]))
        if keep_cache:
            steps_cache.append((edge_cache, past_cache, fut_cache, node_cache))
        h, ebar = h_new, ebar_new
    scores, clf_cache = reference_mlp_forward(params.classifier_mlp, ebar)
    state = EmbeddingState(node=h, edge=ebar, step=params.steps)
    cache = (proj_cache, enc_cache, steps_cache, clf_cache) if keep_cache else None
    return state, scores.ravel(), cache


def reference_backward(graph, params, labels, gamma=1.0):
    """(loss, scores, gradients) of the concatenating network."""
    g = _as_tensors(graph)
    labels = np.asarray(labels)
    _, scores, cache = reference_forward(g, params, keep_cache=True)
    proj_cache, enc_cache, steps_cache, clf_cache = cache
    loss = focal_loss(scores, labels, gamma)

    grads = zero_params_like(params)
    d_v, d_e = params.node_dim, params.edge_dim
    u, v = g.u, g.v
    n, m = g.n_nodes, g.n_edges

    def add_mlp_grads(target, delta):
        dws, dbs = delta
        for w, dw in zip(target.weights, dws):
            w += dw
        for b, db in zip(target.biases, dbs):
            b += db

    dscores = focal_grad(scores, labels, gamma)
    debar_carry, clf_delta = reference_mlp_backward(
        params.classifier_mlp, clf_cache, dscores[:, None])
    add_mlp_grads(grads.classifier_mlp, clf_delta)

    dh = np.zeros((n, d_v))
    de0 = np.zeros((m, d_e))
    lo, hi = d_v, d_v + 2 * d_e
    for s in range(params.steps - 1, -1, -1):
        edge_cache, past_cache, fut_cache, node_cache = steps_cache[s]
        dnode_in, node_delta = reference_mlp_backward(params.node_mlp, node_cache, dh)
        add_mlp_grads(grads.node_mlp, node_delta)
        dm_past = dnode_in[:, :d_v][v]
        dm_fut = dnode_in[:, d_v:][u]
        dpast_in, past_delta = reference_mlp_backward(params.past_mlp, past_cache, dm_past)
        add_mlp_grads(grads.past_mlp, past_delta)
        dfut_in, fut_delta = reference_mlp_backward(params.future_mlp, fut_cache, dm_fut)
        add_mlp_grads(grads.future_mlp, fut_delta)

        dh_prev = np.zeros((n, d_v))
        np.add.at(dh_prev, u, dpast_in[:, :d_v])
        np.add.at(dh_prev, v, dpast_in[:, hi:])
        np.add.at(dh_prev, v, dfut_in[:, :d_v])
        np.add.at(dh_prev, u, dfut_in[:, hi:])

        debar = debar_carry + dpast_in[:, lo:hi] + dfut_in[:, lo:hi]
        dcore = debar[:, :d_e]
        de0 += debar[:, d_e:]

        dedge_in, edge_delta = reference_mlp_backward(params.edge_mlp, edge_cache, dcore)
        add_mlp_grads(grads.edge_mlp, edge_delta)
        np.add.at(dh_prev, u, dedge_in[:, :d_v])
        np.add.at(dh_prev, v, dedge_in[:, hi:])
        debar_carry = dedge_in[:, lo:hi]
        dh = dh_prev

    de0 += debar_carry[:, :d_e] + debar_carry[:, d_e:]
    _, enc_delta = reference_mlp_backward(params.edge_encoder, enc_cache, de0)
    add_mlp_grads(grads.edge_encoder, enc_delta)
    _, proj_delta = reference_mlp_backward(params.node_proj, proj_cache, dh)
    add_mlp_grads(grads.node_proj, proj_delta)
    return loss, scores, grads


def _kink_margin(g, params):
    """Smallest |pre-activation| over every hidden rectifier in the pass."""
    _, scores, cache = reference_forward(g, params, keep_cache=True)
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


# ------------------------------------------------------- stitching reference
#
# stitch written the frame-keyed way: every track's whole history becomes
# a frame -> detection dict, each scored pair builds both dicts again, a
# merge rebuilds and re-sorts the whole track, and every member of every
# track is checked against the detections already placed.
# stitcher.stitch must return the same tracks on its input contract.


def reference_assignments(track):
    """frame -> chosen input detection index, interpolated members skipped."""
    return {d.frame: i for i, d in zip(track.det_indices, track.detections) if i >= 0}


def reference_track_iou(a, b):
    """Same-detection frames over the union of (frame, detection) choices."""
    aa, bb = reference_assignments(a), reference_assignments(b)
    inter = sum(1 for f, i in aa.items() if bb.get(f) == i)
    union = len(aa) + len(bb) - inter
    return inter / union if union else 0.0


def reference_merge(a, b):
    by_frame = {d.frame: (i, d) for i, d in zip(a.det_indices, a.detections)}
    by_frame.update({d.frame: (i, d) for i, d in zip(b.det_indices, b.detections)})
    return Tracklet.from_members(a.id, list(by_frame.values()))


def reference_stitch(tracks_a, tracks_b):
    if not tracks_a or not tracks_b:
        return list(tracks_a) + list(tracks_b)
    holders = {}
    for j, tb in enumerate(tracks_b):
        for choice in reference_assignments(tb).items():
            holders.setdefault(choice, []).append(j)
    cost = np.full((len(tracks_a), len(tracks_b)), 1e6)
    for r, ta in enumerate(tracks_a):
        shared = {j for choice in reference_assignments(ta).items()
                  for j in holders.get(choice, ())}
        for j in shared:
            cost[r, j] = 1.0 - reference_track_iou(ta, tracks_b[j])
    rows, cols = linear_sum_assignment(cost)
    pair = {r: c for r, c in zip(rows, cols) if cost[r, c] < 1.5}
    left = [reference_merge(ta, tracks_b[pair[i]]) if i in pair else ta
            for i, ta in enumerate(tracks_a)]
    used_b = set(pair.values())
    right = [tb for j, tb in enumerate(tracks_b) if j not in used_b]
    next_id = max(t.id for t in left) + 1
    out, placed = [], set()
    for k, t in enumerate(left + right):
        members = [(i, d) for i, d in zip(t.det_indices, t.detections)
                   if i < 0 or i not in placed]
        placed.update(i for i, _ in members)
        if not members:
            continue
        if k < len(left):
            out.append(t if len(members) == len(t) else
                       Tracklet.from_members(t.id, members))
        else:
            out.append(Tracklet.from_members(next_id, members))
            next_id += 1
    return out


def record_row(d):
    """A Detection record's values, comparable with ==."""
    return (d.frame, (d.box.x, d.box.y, d.box.w, d.box.h), d.confidence,
            d.embedding.tolist(), d.gt_id)


def track_rows(tracks):
    """Tracks' ids, detection indices and member records' values."""
    return [(t.id, t.det_indices, [record_row(d) for d in t.detections]) for t in tracks]


# ----------------------------------------------------------- output reference
#
# Gap interpolation and MOT writing done one record at a time:
# stitcher.interpolate_gaps and ingest.write_mot must give the same
# tracks and bytes.


def reference_interpolate(track):
    """Fill each gap with records on the segment between its endpoints."""
    dets = track.detections
    if all(b.frame - a.frame == 1 for a, b in zip(dets, dets[1:])):
        return track
    members = [(track.det_indices[0], dets[0])]
    for lo, hi, i in zip(dets, dets[1:], track.det_indices[1:]):
        gap = hi.frame - lo.frame
        if gap > 1:
            conf = min(lo.confidence, hi.confidence)
            emb = 0.5 * (lo.embedding + hi.embedding)
            if not np.all(np.isfinite(emb)):
                raise ValidationError("embedding must be finite")
            a, b = lo.box, hi.box
            for k in range(1, gap):
                w = k / gap
                x, y = a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)
                bw, bh = a.w + w * (b.w - a.w), a.h + w * (b.h - a.h)
                if (fault := box_fault(x, y, bw, bh)) is not None:
                    raise ValidationError(fault)
                members.append((-1, Detection(lo.frame + k, BoundingBox(x, y, bw, bh),
                                              conf, emb)))
        members.append((i, hi))
    return Tracklet.from_members(track.id, members)


def reference_run_clipped(dets, clips):
    """run_clipped's tracks made the record way. clips holds one (offset,
    ids) pair per tracked clip: ids[i] groups the set's record offset + i.
    Each clip's groups become tracklets at the video's indices, folded by
    reference_stitch, then filled by reference_interpolate."""
    records, merged = dets.detections, []
    for offset, ids in clips:
        groups = {}
        for i, g in enumerate(np.asarray(ids).tolist(), start=offset):
            groups.setdefault(g, []).append((i, records[i]))
        tracks = [Tracklet.from_members(g, groups[g]) for g in sorted(groups)]
        merged = reference_stitch(merged, tracks) if merged else tracks
    return [reference_interpolate(t) for t in merged]


def reference_mot_row(tid, d):
    """The MOT line of record d under id tid."""
    b = d.box
    values = ",".join(repr(float(v)) for v in (b.x, b.y, b.w, b.h, d.confidence))
    return f"{d.frame + 1},{tid},{values},-1,-1,-1\n"


def reference_write_mot(tracks):
    """MOT text of tracks, one formatted row per member record."""
    rows = sorted(((d.frame, t.id, d) for t in tracks for d in t.detections),
                  key=lambda r: (r[0], r[1]))
    return "".join(reference_mot_row(tid, d) for _, tid, d in rows)


# -------------------------------------------------------- rounding reference
#
# Identity assignment written the per-edge way: every edge is a
# (u, v, score) tuple, candidates sort by a key on the tuple, and ids
# are renumbered through a dict. solver.greedy_round and
# solver.connected_components_ids must return the same labels and ids.
# exact_round is the exhaustive optimum that greedy rounding is measured
# against on small problems; is_feasible and rounding_objective score a
# labelling of a solver.RoundingProblem.

EXACT_EDGE_CAP = 20


def edge_tuples(problem):
    """A RoundingProblem's edges as (u, v, score) tuples."""
    return list(zip(problem.u.tolist(), problem.v.tolist(), problem.scores.tolist()))


def reference_candidate_order(edges, eps):
    """Edges above the threshold, strongest first, endpoint tie-break."""
    idx = [k for k, (_, _, s) in enumerate(edges) if s > eps]
    idx.sort(key=lambda k: (-edges[k][2], edges[k][0], edges[k][1]))
    return idx


def reference_greedy_round(n_nodes, edges, eps=0.5):
    """Accept edges strongest-first while both degree budgets are free."""
    labels = np.zeros(len(edges), dtype=np.int64)
    out_used = np.zeros(n_nodes, dtype=bool)
    in_used = np.zeros(n_nodes, dtype=bool)
    for k in reference_candidate_order(edges, eps):
        u, v, _ = edges[k]
        if not out_used[u] and not in_used[v]:
            labels[k] = 1
            out_used[u] = True
            in_used[v] = True
    return labels


def reference_relabel(ids):
    """Consecutive ids in order of first appearance."""
    mapping = {}
    return np.asarray([mapping.setdefault(g, len(mapping)) for g in ids],
                      dtype=np.int64)


def reference_components_ids(spans, edges):
    """Merge along (u, v, score) edges strongest-first, refusing overlaps."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    n = spans.shape[0]
    parent = list(range(n))
    frames = [set(range(int(s), int(e) + 1)) for s, e in spans]

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    order = sorted(range(len(edges)),
                   key=lambda k: (-edges[k][2], edges[k][0], edges[k][1]))
    for k in order:
        u, v, _ = edges[k]
        ra, rb = find(int(u)), find(int(v))
        if ra == rb or not frames[ra].isdisjoint(frames[rb]):
            continue
        parent[rb] = ra
        frames[ra] |= frames[rb]
        frames[rb] = set()
    return reference_relabel([find(i) for i in range(n)])


def exact_round(problem, eps=0.5):
    """Exhaustive optimum of the rounding objective; ties pick fewer ones.

    Only edges above the threshold may be labeled 1, mirroring the
    greedy candidate rule so the two are comparable. Minimizes
    sum of (1 - 2 * score) over the chosen edges, which is the variable
    part of ||labels - scores||^2. Capped at EXACT_EDGE_CAP edges.
    """
    if problem.n_edges > EXACT_EDGE_CAP:
        raise ValidationError(
            f"exhaustive rounding handles at most {EXACT_EDGE_CAP} edges, "
            f"got {problem.n_edges}"
        )
    edges = edge_tuples(problem)
    cand = [k for k, (_, _, s) in enumerate(edges) if s > eps]  # storage order
    costs = [1.0 - 2.0 * edges[k][2] for k in cand]
    # best possible remaining improvement from position i onward
    neg_suffix = [0.0] * (len(cand) + 1)
    for i in range(len(cand) - 1, -1, -1):
        neg_suffix[i] = neg_suffix[i + 1] + min(costs[i], 0.0)

    best_cost = np.inf
    best = None
    labels = np.zeros(problem.n_edges, dtype=np.int64)
    out_used = np.zeros(problem.n_nodes, dtype=bool)
    in_used = np.zeros(problem.n_nodes, dtype=bool)

    def walk(i, cost):
        nonlocal best_cost, best
        if cost + neg_suffix[i] >= best_cost:
            return
        if i == len(cand):
            best_cost = cost
            best = labels.copy()
            return
        k = cand[i]
        u, v, _ = edges[k]
        walk(i + 1, cost)  # zero branch first keeps ties lexicographic
        if not out_used[u] and not in_used[v]:
            labels[k] = 1
            out_used[u] = True
            in_used[v] = True
            walk(i + 1, cost + costs[i])
            labels[k] = 0
            out_used[u] = False
            in_used[v] = False

    walk(0, 0.0)
    assert best is not None  # the all-zero leaf always completes
    return best


def rounding_objective(problem, labels):
    """Squared distance between the binary labels and the scores."""
    if labels.shape != (problem.n_edges,):
        raise ValidationError("labels do not align with the problem")
    diff = labels.astype(np.float64) - problem.scores
    return float(np.dot(diff, diff))


def is_feasible(problem, labels):
    """Degree check: at most one positive edge out of and into any node."""
    if labels.shape != (problem.n_edges,):
        return False
    out_deg = np.zeros(problem.n_nodes, dtype=np.int64)
    in_deg = np.zeros(problem.n_nodes, dtype=np.int64)
    for u, v, y in zip(problem.u.tolist(), problem.v.tolist(), labels.tolist()):
        if y:
            out_deg[u] += 1
            in_deg[v] += 1
    return bool(out_deg.max(initial=0) <= 1 and in_deg.max(initial=0) <= 1)


# ------------------------------------------------------ evaluation reference
#
# metrics.match_frames and metrics.idf1 as record loops with scalar iou
# calls; both expect every detection labelled and no id twice in a frame.


def _rows_by_frame(dets):
    rows = {}
    for d in dets.detections:
        rows.setdefault(d.frame, []).append((d.gt_id, d.box))
    return rows


def reference_match_frames(pred, gt, iou_gate=0.5):
    """(tp, fp, fn, ids, gt_count) of metrics.match_frames."""
    pred_rows = _rows_by_frame(pred)
    gt_rows = _rows_by_frame(gt)
    tp = fp = fn = switches = 0
    prev = {}
    last_pid = {}
    for t in sorted(set(pred_rows) | set(gt_rows)):
        gts = gt_rows.get(t, [])
        prs = pred_rows.get(t, [])
        free_g = set(range(len(gts)))
        free_p = set(range(len(prs)))
        matches = {}
        pid_col = {pid: j for j, (pid, _) in enumerate(prs)}
        for gi, (gid, gbox) in enumerate(gts):
            j = pid_col.get(prev.get(gid))
            if j is not None and j in free_p and iou(gbox, prs[j][1]) >= iou_gate:
                matches[gi] = j
                free_g.discard(gi)
                free_p.discard(j)
        if free_g and free_p:
            g_idx, p_idx = sorted(free_g), sorted(free_p)
            cost = np.asarray(
                [[1.0 - iou(gts[g][1], prs[p][1]) for p in p_idx] for g in g_idx]
            )
            for r, c in zip(*linear_sum_assignment(cost)):
                if 1.0 - cost[r, c] >= iou_gate:
                    matches[g_idx[r]] = p_idx[c]
        prev = {}
        for gi, j in matches.items():
            gid, pid = gts[gi][0], prs[j][0]
            tp += 1
            if gid in last_pid and last_pid[gid] != pid:
                switches += 1
            last_pid[gid] = pid
            prev[gid] = pid
        fn += len(gts) - len(matches)
        fp += len(prs) - len(matches)
    return tp, fp, fn, switches, len(gt)


def reference_idf1(pred, gt, iou_gate=0.5):
    """metrics.idf1: gated frames counted per (gt id, pred id) pair."""
    if len(pred) == 0 and len(gt) == 0:
        return 1.0
    if len(pred) == 0 or len(gt) == 0:
        return 0.0
    gt_tracks = {}
    for d in gt.detections:
        gt_tracks.setdefault(d.gt_id, {})[d.frame] = d.box
    pred_tracks = {}
    for d in pred.detections:
        pred_tracks.setdefault(d.gt_id, {})[d.frame] = d.box
    gids, pids = sorted(gt_tracks), sorted(pred_tracks)
    overlap = np.zeros((len(gids), len(pids)))
    for a, g in enumerate(gids):
        frames = gt_tracks[g]
        for b, p in enumerate(pids):
            other = pred_tracks[p]
            overlap[a, b] = sum(
                1 for f, box in frames.items()
                if f in other and iou(box, other[f]) >= iou_gate
            )
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = float(overlap[rows, cols].sum())
    return 2.0 * idtp / (len(pred) + len(gt))
