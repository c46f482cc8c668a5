import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trackgraph.core import (
    BoundingBox,
    Detection,
    NumericError,
    TrackGraph,
    Tracklet,
    ValidationError,
)
from trackgraph import mpn
from trackgraph.cli import _labelled_graphs
from trackgraph.config import RunConfig
from trackgraph.ingest import DetectionSet, ScenarioSpec, synthesize
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import aggregate, build_traj_graph
from trackgraph.mpn import (
    EDGE_BLOCK,
    MLP_BLOCK,
    GraphTensors,
    MlpParams,
    MpnParams,
    TrainSchedule,
    _forward,
    _incidence,
    backward,
    edge_labels,
    focal_grad,
    focal_loss,
    forward,
    graph_tensors,
    handcrafted_reach,
    handcrafted_scores,
    init_params,
    load_params,
    mlp_forward,
    mlp_init,
    oracle_scores,
    save_params,
    train,
    zero_params_like,
)


def det(frame, box, emb, gt_id=None):
    return Detection(
        frame=frame,
        box=box,
        confidence=1.0,
        embedding=np.asarray(emb, dtype=np.float64),
        gt_id=gt_id,
    )


def det_node(frame, box=None, emb=(1.0, 0.0), gt_id=None):
    box = box or BoundingBox(0.0, 0.0, 2.0, 2.0)
    return det(frame, box, emb, gt_id)


# ------------------------------------------------------------ edge features


def reference_features(u, v):
    """Scalar descriptor of one forward edge u -> v, straight from its definition."""
    bu = members_of(u)[-1].box
    bv = members_of(v)[0].box
    feature_u, feature_v = (np.mean([d.embedding for d in members_of(node)], axis=0)
                            for node in (u, v))
    denom = bu.h + bv.h
    return np.asarray(
        [
            2.0 * (bv.x - bu.x) / denom,
            2.0 * (bv.y - bu.y) / denom,
            np.log(bv.w / bu.w),
            np.log(bv.h / bu.h),
            float(v.span[0] - u.span[1]),
            float(np.linalg.norm(feature_u - feature_v)),
        ]
    )


def edge_features(u, v):
    """Descriptor of the edge u -> v of a two-node graph (u is node 0)."""
    return graph_tensors(graph_of((u, v), [0], [1])).feats[0]


def test_edge_features_derived_case():
    # u: box (0,0,2,2) at t=3, f=(1,0); v: box (1,2,4,4) at t=5, f=(0,1)
    # offsets 2*1/(2+4)=1/3 and 2*2/6=2/3, ratios ln2, gap 2, dist sqrt2
    u = det_node(3, BoundingBox(0, 0, 2, 2), (1.0, 0.0))
    v = det_node(5, BoundingBox(1, 2, 4, 4), (0.0, 1.0))
    f = edge_features(u, v)
    expect = [1 / 3, 2 / 3, math.log(2), math.log(2), 2.0, math.sqrt(2)]
    assert np.allclose(f, expect, rtol=1e-12, atol=0)


def test_edge_features_identical_stationary():
    u = det_node(0, BoundingBox(5, 5, 3, 3), (1.0, 0.0))
    v = det_node(1, BoundingBox(5, 5, 3, 3), (1.0, 0.0))
    assert np.allclose(edge_features(u, v), [0, 0, 0, 0, 1, 0])


def test_edge_features_scale_invariant_geometry():
    u1 = det_node(0, BoundingBox(0, 0, 2, 2), (1.0, 0.0))
    v1 = det_node(1, BoundingBox(1, 2, 4, 4), (1.0, 0.0))
    u2 = det_node(0, BoundingBox(0, 0, 20, 20), (1.0, 0.0))
    v2 = det_node(1, BoundingBox(10, 20, 40, 40), (1.0, 0.0))
    assert np.allclose(edge_features(u1, v1), edge_features(u2, v2))


def test_edge_features_tracklet_uses_boundary_boxes():
    d0 = det(0, BoundingBox(0, 0, 2, 2), (1.0, 0.0))
    d1 = det(1, BoundingBox(4, 0, 2, 2), (1.0, 0.0))
    tr = Tracklet.from_members(0, [(0, d0), (1, d1)])
    v = det_node(3, BoundingBox(4, 0, 2, 2), (1.0, 0.0))
    f = edge_features(tr, v)
    assert f[0] == pytest.approx(0.0)  # last box of the tracklet already at x=4
    assert f[4] == pytest.approx(2.0)  # frames 1 -> 3


def test_edge_features_reject_non_forward_pair():
    # no descriptor exists for a pair that does not move forward in
    # time: the graph holding it is refused before any is computed
    u = det_node(5)
    v = det_node(5)
    for a, b in ((0, 1), (0, 0)):
        with pytest.raises(ValidationError):
            graph_of((u, v), [a], [b])


@st.composite
def forward_graphs(draw):
    """Random detection and tracklet nodes, linked by every forward pair."""
    dim = draw(st.integers(1, 4))
    coord = st.floats(-100.0, 100.0)
    extent = st.floats(0.5, 60.0)
    vector = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)

    def detection(frame):
        box = BoundingBox(draw(coord), draw(coord), draw(extent), draw(extent))
        return det(frame, box, draw(vector))

    nodes = []
    for index in range(draw(st.integers(2, 6))):
        start = draw(st.integers(0, 12))
        if draw(st.booleans()):
            nodes.append(detection(start))
        else:
            steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            frames = np.cumsum([start] + steps).tolist()
            members = [(k, detection(f)) for k, f in enumerate(frames)]
            tracklet = Tracklet.from_members(index, members)
            nodes.append(tracklet)
    pairs = [
        (a, b)
        for a, na in enumerate(nodes)
        for b, nb in enumerate(nodes)
        if na.span[1] < nb.span[0]
    ]
    return graph_of(tuple(nodes), [a for a, _ in pairs], [b for _, b in pairs])


@settings(max_examples=150, deadline=None)
@given(graph=forward_graphs())
def test_graph_tensors_match_scalar_reference(graph):
    g = graph_tensors(graph)
    assert g.feats.shape == (graph.n_edges, 6)
    for k, (a, b) in enumerate(zip(graph.u, graph.v)):
        want = reference_features(graph.nodes[a], graph.nodes[b])
        np.testing.assert_allclose(g.feats[k], want, rtol=1e-12, atol=0)


def bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_blocked_edges_equal_one_pass_reference():
    # 131 tracklets of 1-3 members with increasing disjoint spans, every
    # pair linked: 8,515 edges, two full blocks and more, the last block
    # partial
    rng = np.random.default_rng(5)
    nodes = []
    for k in range(131):
        members = []
        for f in range(4 * k, 4 * k + rng.integers(1, 4)):
            box = BoundingBox(*rng.uniform(-50, 50, 2), *rng.uniform(1, 80, 2))
            members.append((f, det(f, box, rng.normal(size=16))))
        nodes.append(Tracklet.from_members(k, members))
    graph = graph_of(tuple(nodes), *np.triu_indices(len(nodes), 1))
    assert graph.n_edges >= 2 * EDGE_BLOCK + 1 and graph.n_edges % EDGE_BLOCK
    got, want = graph_tensors(graph), reference_graph_tensors(graph)
    assert bit_equal(got.feats, want.feats)
    assert bit_equal(got.node_feat, want.node_feat)
    assert bit_equal(handcrafted_scores(got), reference_handcrafted_scores(want))
    assert bit_equal(handcrafted_scores(graph), reference_handcrafted_scores(want))


@settings(max_examples=100, deadline=None)
@given(
    width=st.sampled_from([1, 2, 16]),
    sizes=st.lists(st.integers(1, 130), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    signed_zero=st.booleans(),
)
@example(width=1, sizes=[130], seed=0, signed_zero=False)
@example(width=2, sizes=[3, 1], seed=0, signed_zero=True)
def test_node_features_are_member_means_bit_for_bit(width, sizes, seed, signed_zero):
    # np.mean sums the rows of a (k, D) array one by one, but a 1-d
    # embedding's k values pairwise once k passes 8
    rng = np.random.default_rng(seed)
    nodes = []
    for k, size in enumerate(sizes):
        emb = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(size, width))
        if signed_zero:
            emb[:, 0] = -0.0
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        members = [(f, det(f, box, emb[f])) for f in range(size)]
        nodes.append(Tracklet.from_members(k, members))
    node_feat = graph_tensors(graph_of(tuple(nodes), [], [])).node_feat
    want = np.stack([np.mean([d.embedding for d in n.detections], axis=0) for n in nodes])
    assert bit_equal(node_feat, want)


@st.composite
def column_graphs(draw):
    """A graph drawn over the columns of a detection set, as the pipeline
    makes one: a part graph, or a trajectory graph whose groups (some of
    them past 8 members, and not covering every detection) come in any
    order; embeddings of D = 16 or D = 1, ids missing on some members,
    and a random share of the forward node pairs as edges."""
    dim = draw(st.sampled_from([1, 16]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.sort(rng.integers(0, draw(st.sampled_from([1, 5, 20, 80])), size=n))
    boxes = np.column_stack([rng.uniform(-50, 50, (n, 2)), rng.uniform(0.5, 80, (n, 2))])
    emb = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, dim))
    gt_ids = rng.choice([-1, 0, 0, 0, 1, 1, 10**12], size=n)
    dets = DetectionSet(frames, boxes, np.ones(n), gt_ids, int(frames[-1]) + 1, emb)
    if draw(st.booleans()):
        graph = TrackGraph(dets, [], [])
    else:
        # each detection joins one of a few groups, or a new one where its
        # drawn group already holds its frame; some detections join none
        groups, latest = [], {}
        for i, label in enumerate(rng.integers(0, draw(st.integers(1, 4)), size=n).tolist()):
            if rng.random() < 0.1:
                continue
            if label not in latest or frames[groups[latest[label]][-1]] == frames[i]:
                latest[label] = len(groups)
                groups.append([])
            groups[latest[label]].append(i)
        if not groups:
            groups = [[0]]
        groups = [groups[k] for k in rng.permutation(len(groups))]
        offsets = np.cumsum([0] + [len(g) for g in groups])
        graph = TrackGraph(dets, [], [], (offsets, np.concatenate(groups)))
    sp = graph.spans
    a, b = np.nonzero(sp[:, 1][:, None] < sp[:, 0][None, :])
    keep = rng.random(a.size) < draw(st.sampled_from([0.3, 1.0]))
    return TrackGraph(dets, a[keep], b[keep], graph.groups)


@settings(max_examples=200, deadline=None)
@given(graph=column_graphs())
def test_graph_tensors_from_the_columns_equal_the_record_reference(graph):
    got, want = graph_tensors(graph), reference_graph_tensors(graph)
    assert bit_equal(got.feats, want.feats)
    assert bit_equal(got.node_feat, want.node_feat)
    assert got.spans is graph.spans


@pytest.fixture(scope="module")
def weak_traj_graph():
    """The first trajectory graph of the weak-appearance scene: every
    span-disjoint pair of about 400 pass-1 fragments."""
    dets = synthesize(ScenarioSpec(10, 160, seed=60, embedding_noise_sigma=0.2,
                                   miss_rate=0.1))
    graph, _ = ClipTracker().build_graph(dets)
    ids = aggregate(graph, None, traj_passes=0, score_fn=handcrafted_scores)
    return build_traj_graph(graph.dets, ids)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_arrays_stay_within_their_storage_bound(weak_traj_graph):
    # only the outputs grow with the edge count; every temporary is one
    # block's worth
    mb = 2**20
    g, peak = traced_peak(graph_tensors, weak_traj_graph)
    assert peak <= g.feats.nbytes + 4 * mb
    scores, peak = traced_peak(handcrafted_scores, g)
    assert peak <= scores.nbytes + 2 * mb


def test_forward_stays_within_its_storage_bound(weak_traj_graph):
    # at the checkpoint's dims, inference keeps per edge: the initial
    # encoding, the old and new edge state, the three pair MLPs'
    # first-layer shares of the initial encoding, one message array and
    # the scores; every other temporary is one block's worth or node-sized
    d_v, d_e, hidden = 16, 8, 32
    params = init_params(0, embed_dim=16, node_dim=d_v, edge_dim=d_e, hidden=hidden,
                         steps=4)
    g = graph_tensors(weak_traj_graph)
    floats_per_edge = d_e + 2 * d_e + 3 * hidden + d_v + 1
    (_, scores), peak = traced_peak(forward, g, params)
    assert scores.shape == (g.n_edges,) == (75_644,)
    assert peak <= g.n_edges * floats_per_edge * 8 + 4 * 2**20


# ----------------------------------------------------------- node features


from conftest import (
    draw_audit_case,
    gradient_audit_errors,
    graph_of,
    members_of,
    random_graph_tensors,
    reference_backward,
    reference_edge_labels,
    reference_forward,
    reference_graph_tensors,
    reference_handcrafted_scores,
    reference_one_pass_forward,
)


def small_params(seed=0, **kw):
    args = dict(embed_dim=3, node_dim=4, edge_dim=3, hidden=5, steps=2)
    args.update(kw)
    return init_params(seed, **args)


def random_tensors(rng, n_nodes=5, n_edges=6, dim=3):
    return random_graph_tensors(rng, n_nodes=n_nodes, n_edges=n_edges, dim=dim)


def test_node_features_zero_projection_gives_zero():
    params = small_params()
    for arr in params.node_proj.weights + params.node_proj.biases:
        arr[...] = 0.0
    g = random_tensors(np.random.default_rng(0))
    h0, _ = mlp_forward(params.node_proj, g.node_feat)
    assert np.all(h0 == 0.0)


def test_node_features_known_affine():
    params = init_params(0, embed_dim=2, node_dim=2, edge_dim=3, hidden=4, steps=1)
    params.node_proj.weights[0][...] = np.asarray([[1.0, 2.0], [3.0, 4.0]])
    params.node_proj.biases[0][...] = np.asarray([0.5, -0.5])
    # the step-0 node states are the projected appearance vectors
    h0, _ = mlp_forward(params.node_proj, np.asarray([[1.0, 1.0], [2.0, 0.0]]))
    assert np.allclose(h0, [[4.5, 5.5], [2.5, 3.5]])


# ----------------------------------------------------------------- forward


def test_forward_zero_params_scores_half():
    params = zero_params_like(small_params())
    g = random_tensors(np.random.default_rng(1))
    edge, scores = forward(g, params)
    assert np.all(edge == 0.0)
    assert np.all(scores == 0.5)


def single_layer(w, b, output="linear"):
    return MlpParams([np.asarray(w, dtype=float)], [np.asarray(b, dtype=float)], output)


def scalar_trace_params():
    return MpnParams(
        node_proj=single_layer([[2.0]], [0.1]),
        edge_encoder=single_layer([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]], [-0.2]),
        edge_mlp=single_layer([[0.5], [-0.25], [0.25], [1.0]], [0.05]),
        past_mlp=single_layer([[1.0], [0.5], [-0.5], [0.25]], [0.0]),
        future_mlp=single_layer([[-1.0], [0.25], [0.5], [0.1]], [0.1]),
        node_mlp=single_layer([[0.3], [0.6]], [-0.1]),
        classifier_mlp=single_layer([[2.0], [-1.0]], [0.4], output="logistic"),
        embed_dim=1,
        node_dim=1,
        edge_dim=1,
        steps=2,
    )


def test_forward_scalar_trace_matches_hand_computation():
    # one edge, two steps, every component a single affine layer: every
    # intermediate below is recomputed from first principles, and the
    # node update between the steps shows in the second edge state
    g = GraphTensors(
        u=np.asarray([0]),
        v=np.asarray([1]),
        feats=np.asarray([[0.0, 0.0, 0.0, 0.0, 1.0, 1.5]]),
        node_feat=np.asarray([[1.0], [-0.5]]),
        spans=np.asarray([[0, 0], [1, 1]]),
    )
    edge, scores = forward(g, scalar_trace_params())

    h_u = 2.0 * 1.0 + 0.1  # 2.1
    h_v = 2.0 * -0.5 + 0.1  # -0.9
    e0 = 0.5 * 1.0 + 0.6 * 1.5 - 0.2  # 1.2
    core = 0.5 * h_u - 0.25 * e0 + 0.25 * e0 + 1.0 * h_v + 0.05  # 0.2
    m_past = 1.0 * h_u + 0.5 * core - 0.5 * e0 + 0.25 * h_v  # 1.375
    m_fut = -1.0 * h_v + 0.25 * core + 0.5 * e0 + 0.1 * h_u + 0.1  # 1.86
    h1_u = 0.3 * 0.0 + 0.6 * m_fut - 0.1  # future sum only
    h1_v = 0.3 * m_past + 0.6 * 0.0 - 0.1  # past sum only
    core2 = 0.5 * h1_u - 0.25 * core + 0.25 * e0 + 1.0 * h1_v + 0.05
    logit = 2.0 * core2 - 1.0 * e0 + 0.4
    expect_score = 1.0 / (1.0 + math.exp(-logit))

    assert core == pytest.approx(0.2, abs=1e-12)
    assert core2 == pytest.approx(1.1205, abs=1e-12)
    assert edge[0, 0] == pytest.approx(core2, abs=1e-12)
    assert edge[0, 1] == pytest.approx(e0, abs=1e-12)
    assert scores[0] == pytest.approx(expect_score, abs=1e-12)


def test_forward_message_direction():
    # past messages land on the later node, future messages on the
    # earlier: the second edge update reads h[u] - h[v]
    params = scalar_trace_params()
    params.edge_mlp = single_layer([[1.0], [0.0], [0.0], [-1.0]], [0.0])
    params.past_mlp = single_layer([[0.0], [0.0], [0.0], [0.0]], [1.0])
    params.future_mlp = single_layer([[0.0], [0.0], [0.0], [0.0]], [2.0])
    params.node_mlp = single_layer([[1.0], [1.0]], [0.0])
    g = GraphTensors(
        u=np.asarray([0]),
        v=np.asarray([1]),
        feats=np.zeros((1, 6)) + [0, 0, 0, 0, 1, 0],
        node_feat=np.asarray([[1.0], [1.0]]),
        spans=np.asarray([[0, 0], [1, 1]]),
    )
    edge, scores = forward(g, params)
    # earlier node: future sum 2; later node: past sum 1
    assert edge[0, 0] == pytest.approx(2.0 - 1.0)
    e0 = 0.5 * 1.0 - 0.2
    assert scores[0] == pytest.approx(1.0 / (1.0 + math.exp(-(2.0 * 1.0 - e0 + 0.4))))


def test_forward_initial_encoding_survives_every_step():
    params = small_params(steps=4)
    g = random_tensors(np.random.default_rng(2), n_nodes=6, n_edges=8)
    e0, _ = mlp_forward(params.edge_encoder, g.feats)
    edge, _ = forward(g, params)
    assert np.allclose(edge[:, params.edge_dim :], e0, rtol=0, atol=0)


def test_forward_invariant_to_node_relabelling():
    rng = np.random.default_rng(3)
    g = random_tensors(rng, n_nodes=7, n_edges=10)
    params = small_params(seed=5)
    _, scores = forward(g, params)
    perm = rng.permutation(g.n_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.n_nodes)
    g2 = GraphTensors(
        u=perm[g.u],
        v=perm[g.v],
        feats=g.feats,
        node_feat=g.node_feat[inv],
        spans=g.spans[inv],
    )
    _, scores2 = forward(g2, params)
    assert np.allclose(scores, scores2, rtol=1e-9, atol=1e-12)


def test_forward_empty_edges():
    g = GraphTensors(
        u=np.empty(0, dtype=np.int64),
        v=np.empty(0, dtype=np.int64),
        feats=np.empty((0, 6)),
        node_feat=np.ones((3, 3)),
        spans=np.asarray([[0, 0], [1, 1], [2, 2]]),
    )
    edge, scores = forward(g, small_params())
    assert scores.shape == (0,)
    assert edge.shape == (0, 6)


def test_no_node_update_follows_the_last_edge_update():
    # with one step, the node, past and future MLPs feed nothing a score
    # reads: NaN node weights change no score, and training sends them,
    # and the message MLPs, exactly zero gradient
    params = small_params(steps=1)
    g = random_tensors(np.random.default_rng(7), n_nodes=6, n_edges=9)
    labels = np.random.default_rng(8).integers(0, 2, size=g.n_edges)
    broken = copy.deepcopy(params)
    for w in broken.node_mlp.weights:
        w[...] = np.nan
    _, scores = forward(g, params)
    _, got = forward(g, broken)
    assert np.all(np.isfinite(got))
    assert bit_equal(got, scores)
    loss, scores, _ = backward(g, params, labels)
    got_loss, got, grads = backward(g, broken, labels)
    assert got_loss == loss
    assert bit_equal(got, scores)
    for mlp in (grads.node_mlp, grads.past_mlp, grads.future_mlp):
        assert all(np.all(a == 0.0) for a in mlp.weights + mlp.biases)
    # with two steps, one node update runs, and its NaN reaches the scores
    broken.steps = 2
    with pytest.raises(NumericError):
        forward(g, broken)
    with pytest.raises(NumericError):
        backward(g, broken, labels)


# -------------------------------------------------------------- focal loss


def test_focal_closed_form_at_half():
    # gamma=1, score 0.5, positive label: 0.5 * ln 2
    got = focal_loss(np.asarray([0.5]), np.asarray([1]), gamma=1.0)
    assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-9)


def test_focal_vanishes_on_confident_correct():
    assert focal_loss(np.asarray([1.0]), np.asarray([1]), 1.0) == pytest.approx(
        0.0, abs=1e-6
    )
    assert focal_loss(np.asarray([0.0]), np.asarray([0]), 1.0) == pytest.approx(
        0.0, abs=1e-6
    )


def test_focal_gamma_zero_equals_bce():
    rng = np.random.default_rng(11)
    scores = rng.uniform(0.01, 0.99, size=100)
    labels = rng.integers(0, 2, size=100)
    got = focal_loss(scores, labels, gamma=0.0)
    p = np.clip(scores, 1e-7, 1 - 1e-7)
    bce = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
    assert got == pytest.approx(bce, abs=1e-12)


def test_focal_empty_is_zero():
    assert focal_loss(np.zeros(0), np.zeros(0)) == 0.0


def test_focal_grad_matches_finite_difference():
    rng = np.random.default_rng(13)
    scores = rng.uniform(0.05, 0.95, size=20)
    labels = rng.integers(0, 2, size=20)
    for gamma in (0.0, 1.0, 2.0):
        grad = focal_grad(scores, labels, gamma)
        eps = 1e-6
        for k in range(scores.size):
            up, dn = scores.copy(), scores.copy()
            up[k] += eps
            dn[k] -= eps
            fd = (focal_loss(up, labels, gamma) - focal_loss(dn, labels, gamma)) / (
                2 * eps
            )
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------- backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(20240915)
    for _ in range(3):
        g, params, labels = draw_audit_case(rng)
        errs = gradient_audit_errors(g, params, labels)
        assert errs.max() < 1e-4


def test_backward_zero_config_classifier_bias_grad_zero():
    # all scores 0.5 with balanced labels: the focal pulls cancel exactly
    params = zero_params_like(small_params())
    g = random_tensors(np.random.default_rng(9), n_nodes=4, n_edges=2)
    labels = np.asarray([0, 1])
    loss, scores, grads = backward(g, params, labels)
    assert np.all(scores == 0.5)
    assert grads.classifier_mlp.biases[-1][0] == 0.0


def test_backward_empty_edges_zero_loss():
    g = GraphTensors(
        u=np.empty(0, dtype=np.int64),
        v=np.empty(0, dtype=np.int64),
        feats=np.empty((0, 6)),
        node_feat=np.ones((2, 3)),
        spans=np.asarray([[0, 0], [1, 1]]),
    )
    loss, scores, grads = backward(g, small_params(), np.zeros(0, dtype=np.int64))
    assert loss == 0.0
    assert all(np.all(a == 0.0) for a in grads.arrays())


# ------------------------------------------------- against the reference


def assert_rel_close(got, want, rel=1e-12, scale=None):
    """|got - want| <= rel * scale, by default the larger magnitude of the
    two arrays."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= rel * scale


def assert_matches_reference(g, params, labels, gamma=1.0):
    loss, scores, grads = backward(g, params, labels, gamma)
    ref_loss, ref_scores, ref_grads = reference_backward(g, params, labels, gamma)
    assert_rel_close(scores, ref_scores)
    assert_rel_close(loss, ref_loss)
    # a gradient entry is a sum of products of activations and the deltas
    # that flow back through the whole network; cancellation can leave it
    # orders of magnitude below those products, while its rounding error
    # follows the products, so every array is held to the tree's largest
    # gradient rather than to its own
    got_grads, want_grads = grads.arrays(), ref_grads.arrays()
    tree = max(np.abs(a).max(initial=0.0) for a in got_grads + want_grads)
    for got, want in zip(got_grads, want_grads):
        assert_rel_close(got, want, scale=tree)
    edge, _ = forward(g, params)
    ref_edge, _, _ = reference_forward(g, params)
    assert_rel_close(edge, ref_edge)


def layered_params(seed, depth, embed_dim, node_dim, edge_dim, hidden, steps):
    """init_params with `depth` layers in every MLP (checkpoints allow any)."""
    rng = np.random.default_rng(seed)
    pair_in = 2 * node_dim + 2 * edge_dim

    def stack(d_in, d_out, output="linear"):
        return mlp_init(rng, [d_in] + [hidden] * (depth - 1) + [d_out], output)

    return MpnParams(
        node_proj=stack(embed_dim, node_dim),
        edge_encoder=stack(6, edge_dim),
        edge_mlp=stack(pair_in, edge_dim),
        past_mlp=stack(pair_in, node_dim),
        future_mlp=stack(pair_in, node_dim),
        node_mlp=stack(2 * node_dim, node_dim),
        classifier_mlp=stack(2 * edge_dim, 1, output="logistic"),
        embed_dim=embed_dim,
        node_dim=node_dim,
        edge_dim=edge_dim,
        steps=steps,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 9),
    edge_share=st.floats(0.0, 1.0),
    depth=st.integers(1, 3),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4),
                   st.integers(1, 6), st.integers(1, 3)),
    gamma=st.sampled_from([0.0, 1.0, 2.0]),
)
# two gradient arrays whose largest entries are about 1.4e-8 differ from
# the reference by 6.7e-20 and 4.8e-20: over 1e-12 of their own largest
# entry, far under 1e-12 of the tree's largest gradient, 0.398
@example(seed=12879434, n_nodes=7, edge_share=0.28125, depth=2, dims=(1, 5, 4, 2, 3),
         gamma=2.0)
def test_backward_matches_concatenating_reference(seed, n_nodes, edge_share, depth,
                                                  dims, gamma):
    rng = np.random.default_rng(seed)
    embed_dim, node_dim, edge_dim, hidden, steps = dims
    n_edges = round(edge_share * n_nodes * (n_nodes - 1) / 2)
    g = random_graph_tensors(rng, n_nodes=n_nodes, n_edges=n_edges, dim=embed_dim)
    params = layered_params(seed, depth, embed_dim, node_dim, edge_dim, hidden, steps)
    labels = rng.integers(0, 2, size=n_edges)
    assert_matches_reference(g, params, labels, gamma)


def cache_arrays_in_order(cache):
    """The ndarrays of a forward cache, depth first in tuple and list order."""
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, (tuple, list)):
        return [a for item in cache for a in cache_arrays_in_order(item)]
    return []


def blocked_test_graph(n_edges, seed=0, embed_dim=16):
    """GraphTensors with n_edges forward pairs of 90 nodes, random descriptors."""
    rng = np.random.default_rng(seed)
    u, v = (ends[:n_edges] for ends in np.triu_indices(90, 1))
    assert u.size == n_edges
    frames = np.arange(90)
    return GraphTensors(u, v, rng.normal(size=(n_edges, 6)),
                        rng.normal(size=(90, embed_dim)), np.stack([frames, frames], 1))


@pytest.mark.parametrize("depth", [1, 2, 3])
# two full blocks and a partial one; and a one-edge remainder, which
# takes one edge from the block before it
@pytest.mark.parametrize("n_edges", [2 * MLP_BLOCK + 700, 2 * MLP_BLOCK + 1])
def test_blocked_forward_equals_one_pass_reference(depth, n_edges, monkeypatch):
    g = blocked_test_graph(n_edges)
    params = layered_params(depth, depth, embed_dim=16, node_dim=8, edge_dim=4,
                            hidden=16, steps=2)
    for keep_cache in (False, True):
        edge, scores, cache = _forward(g, params, keep_cache)
        ref_edge, ref_scores, ref_cache = reference_one_pass_forward(g, params, keep_cache)
        assert bit_equal(scores, ref_scores)
        assert bit_equal(edge, ref_edge)
    got, want = cache_arrays_in_order(cache), cache_arrays_in_order(ref_cache)
    assert len(got) == len(want) > 0
    assert all(bit_equal(a, b) for a, b in zip(got, want))
    labels = np.random.default_rng(depth).integers(0, 2, size=n_edges)
    loss, _, grads = backward(g, params, labels)
    monkeypatch.setattr(mpn, "_forward", reference_one_pass_forward)
    ref_loss, _, ref_grads = backward(g, params, labels)
    assert loss == ref_loss
    assert all(bit_equal(a, b) for a, b in zip(grads.arrays(), ref_grads.arrays()))


# the two noisy calibration clips and model of acceptance criterion 6
CALIBRATION_SPECS = (
    ScenarioSpec(n_objects=10, n_frames=120, seed=70, embedding_noise_sigma=0.1,
                 miss_rate=0.05, occlusions=((1, 30, 6), (3, 70, 8))),
    ScenarioSpec(n_objects=10, n_frames=120, seed=71, embedding_noise_sigma=0.1,
                 miss_rate=0.05, occlusions=((2, 50, 10),)),
)
CALIBRATION_CONFIG = RunConfig(node_dim=16, edge_dim=8, hidden_dim=32, steps=4)


@pytest.fixture(scope="module")
def calibration():
    """(primary graphs, secondary graphs, initial params) of criterion 6."""
    primary, secondary = [], []
    for spec in CALIBRATION_SPECS:
        p, s = _labelled_graphs(synthesize(spec), CALIBRATION_CONFIG)
        primary += p
        secondary += s
    cfg = CALIBRATION_CONFIG
    params = init_params(0, 16, cfg.node_dim, cfg.edge_dim, cfg.hidden_dim, cfg.steps)
    return primary, secondary, params


def test_calibration_graphs_match_reference(calibration):
    primary, _, params = calibration
    assert len(primary) == 2
    for g, labels in primary:
        assert_matches_reference(g, params, labels, gamma=0.0)


def test_calibration_training_matches_reference(calibration, monkeypatch):
    primary, secondary, params = calibration
    schedule = TrainSchedule(20, 0.01, 1e-4, gamma=0.0, unfreeze_second_at=10)
    got = train(primary, secondary, params, schedule)
    monkeypatch.setattr(mpn, "backward", reference_backward)
    want = train(primary, secondary, params, schedule)
    assert [it for it, _ in got.history] == list(range(20))
    assert_rel_close([loss for _, loss in got.history],
                     [loss for _, loss in want.history])
    for a, b in zip(got.params.arrays(), want.params.arrays()):
        assert_rel_close(a, b)


# ------------------------------------------------------ incidence products


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), ends=st.lists(st.integers(0, 7), max_size=40),
       cols=st.integers(1, 3), data=st.data())
@example(n=4, ends=[], cols=2, data=None)  # no edge
@example(n=6, ends=[2, 2, 2, 5], cols=1, data=None)  # repeats, bare nodes
def test_incidence_product_equals_add_at_bit_for_bit(n, ends, cols, data):
    ends = np.asarray([e % n for e in ends], dtype=np.int64)
    shape = (ends.size, cols)
    if data is None:
        x = np.random.default_rng(ends.size).normal(size=shape) * 1e3
    else:
        x = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    want = np.zeros((n, cols))
    np.add.at(want, ends, x)
    got = _incidence(ends, n) @ x
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------ backward cache


def cached_arrays(cache):
    """Every distinct ndarray a cache holds, walked through tuples and lists."""
    found, stack = {}, [cache]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found[id(item)] = item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return list(found.values())


def edge_floats(forward_fn, g, params):
    """Floats held in the edge-sized arrays of a kept forward pass."""
    _, _, cache = forward_fn(g, params, keep_cache=True)
    return sum(a.size for a in cached_arrays(cache) if a.ndim == 2 and a.shape[0] == g.n_edges)


@pytest.mark.parametrize("dims, ours, concatenating", [
    (dict(embed_dim=3, node_dim=4, edge_dim=3, hidden=5), 18, 83),
    # the checkpoint defaults: node 32, edge 16, hidden 64
    (dict(embed_dim=16, node_dim=32, edge_dim=16, hidden=64), 208, 752),
])
def test_cache_floats_per_edge_per_step(dims, ours, concatenating):
    # one more step keeps the new edge state and three hidden
    # activations: edge_dim + 3 * hidden floats per edge
    g = random_graph_tensors(np.random.default_rng(4), n_nodes=7, n_edges=15,
                             dim=dims["embed_dim"])

    def per_step(forward_fn):
        two = edge_floats(forward_fn, g, init_params(0, steps=2, **dims))
        three = edge_floats(forward_fn, g, init_params(0, steps=3, **dims))
        return (three - two) / g.n_edges

    assert per_step(_forward) == ours
    assert per_step(reference_forward) == concatenating


def test_cache_keeps_no_pair_input_or_pre_activation():
    # widths: pair input 14, hidden 5, node 4, edge 3, node-MLP input 8
    dims = dict(embed_dim=3, node_dim=4, edge_dim=3, hidden=5, steps=3)
    pair_in = 2 * dims["node_dim"] + 2 * dims["edge_dim"]
    g = random_graph_tensors(np.random.default_rng(5), n_nodes=7, n_edges=15, dim=3)
    params = init_params(1, **dims)

    def offending(forward_fn):
        _, _, cache = forward_fn(g, params, keep_cache=True)
        wide = [a for a in cached_arrays(cache) if a.shape[-1] == pair_in]
        # a rectifier's input has negative entries, its output none
        pre = [a for a in cached_arrays(cache)
               if a.shape[-1] == dims["hidden"] and np.any(a < 0)]
        return wide, pre

    wide, pre = offending(_forward)
    assert wide == [] and pre == []
    # the check can fail: the concatenating pass keeps both
    wide, pre = offending(reference_forward)
    assert wide and pre


# ------------------------------------------------------------------ labels


def build_label_graph():
    b = BoundingBox(0.0, 0.0, 2.0, 2.0)
    d_a0 = det(0, b, (1.0, 0.0), gt_id=7)
    d_a1 = det(1, b, (1.0, 0.0), gt_id=7)
    d_a3 = det(3, b, (1.0, 0.0), gt_id=7)
    d_b0 = det(0, b, (0.0, 1.0), gt_id=8)
    d_b1 = det(1, b, (0.0, 1.0), gt_id=8)
    d_n0 = det(0, b, (0.5, 0.5), gt_id=None)
    pure = Tracklet.from_members(0, [(0, d_a0), (1, d_a1)])
    mixed = Tracklet.from_members(1, [(3, d_b0), (1, d_a1)])
    nodes = (d_a0, d_a1, d_a3, d_b0, d_b1, d_n0, pure, mixed)
    pairs = (
        (0, 1),  # consecutive id 7 -> 1
        (1, 2),  # gap, nothing between -> 1
        (0, 2),  # skips frame 1 member -> 0
        (3, 2),  # cross identity -> 0
        (3, 4),  # consecutive id 8 -> 1
        (5, 2),  # unlabelled endpoint -> 0
        (6, 2),  # pure tracklet to next det -> 1
        (7, 2),  # mixed tracklet -> 0
    )
    return graph_of(nodes, [a for a, _ in pairs], [b for _, b in pairs])


def test_edge_labels_consecutive_same_identity():
    g = build_label_graph()
    assert edge_labels(g).tolist() == [1, 1, 0, 0, 1, 0, 1, 0]


def test_oracle_scores_are_labels():
    g = build_label_graph()
    assert np.array_equal(oracle_scores(g), edge_labels(g).astype(float))


def per_edge_labels(graph):
    """One edge at a time: count the identity's frames strictly between."""
    id_frames = {}
    for node in graph.nodes:
        for d in members_of(node):
            if d.gt_id is not None:
                id_frames.setdefault(d.gt_id, set()).add(d.frame)
    sorted_frames = {g: np.asarray(sorted(fs)) for g, fs in id_frames.items()}

    def purity(node):
        ids = {d.gt_id for d in members_of(node)}
        if len(ids) != 1 or None in ids:
            return None
        return (ids.pop(), *node.span)

    pure = [purity(node) for node in graph.nodes]
    labels = np.zeros(graph.n_edges, dtype=np.int64)
    for k, (a, b) in enumerate(zip(graph.u.tolist(), graph.v.tolist())):
        pu, pv = pure[a], pure[b]
        if pu is None or pv is None or pu[0] != pv[0]:
            continue
        frames = sorted_frames[pu[0]]
        if np.count_nonzero((frames > pu[2]) & (frames < pv[1])) == 0:
            labels[k] = 1
    return labels


@st.composite
def labelled_graphs(draw):
    """Detections and tracklets with pure, mixed and missing identities."""
    ids = st.sampled_from([None, 0, 1, 2, 10**12])
    base = draw(st.sampled_from([0, 10**15]))
    nodes = []
    for index in range(draw(st.integers(0, 8))):
        start = base + draw(st.integers(0, 12))
        if draw(st.booleans()):
            nodes.append(det_node(start, gt_id=draw(ids)))
            continue
        steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        frames = np.cumsum([start] + steps).tolist()
        own = draw(ids)
        mixed = draw(st.booleans())
        members = [(k, det_node(f, gt_id=draw(ids) if mixed else own))
                   for k, f in enumerate(frames)]
        nodes.append(Tracklet.from_members(index, members))
    pairs = [(a, b) for a, na in enumerate(nodes) for b, nb in enumerate(nodes)
             if na.span[1] < nb.span[0]]
    kept = [p for p in pairs if draw(st.booleans())]
    return graph_of(tuple(nodes), [a for a, _ in kept], [b for _, b in kept])


@settings(max_examples=300, deadline=None)
@given(graph=labelled_graphs())
def test_edge_labels_match_per_edge_reference(graph):
    got = edge_labels(graph)
    assert got.dtype == np.int64
    assert np.array_equal(got, per_edge_labels(graph))


@settings(max_examples=300, deadline=None)
@given(graph=st.one_of(labelled_graphs(), column_graphs()))
def test_edge_labels_from_the_columns_match_the_record_loop(graph):
    # the column version reads gt_ids[members]; the record loop reads
    # each node's members one by one, ids missing on some of them
    got = edge_labels(graph)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_edge_labels(graph))


# ------------------------------------------------------- handcrafted scores


def test_handcrafted_separates_obvious_cases():
    feats = np.asarray(
        [
            [0.07, 0.07, 0.0, 0.0, 1.0, 0.14],  # same object, adjacent frame
            [0.7, 0.7, 0.0, 0.0, 10.0, 0.14],  # same object across a gap
            [0.5, 0.5, 0.0, 0.0, 1.0, 1.41],  # different object nearby
            [8.0, 4.0, 0.3, 0.3, 1.0, 1.41],  # different object far away
        ]
    )
    g = GraphTensors(
        u=np.asarray([0, 0, 0, 0]),
        v=np.asarray([1, 2, 3, 4]),
        feats=feats,
        node_feat=np.ones((5, 2)),
        spans=np.stack([np.arange(5), np.arange(5)], axis=1),
    )
    s = handcrafted_scores(g)
    assert s[0] > 0.9
    assert s[1] > 0.5
    assert s[2] < 0.5
    assert s[3] < 0.05


def descriptor_tensors(feats) -> GraphTensors:
    """Edges 0 -> 1, 0 -> 2, ... carrying the given descriptor rows."""
    feats = np.asarray(feats, dtype=np.float64).reshape(-1, 6)
    m = feats.shape[0]
    return GraphTensors(u=np.zeros(m, dtype=np.int64), v=np.arange(1, m + 1),
                        feats=feats, node_feat=np.ones((m + 1, 2)),
                        spans=np.stack([np.arange(m + 1)] * 2, axis=1))


def best_case(gap):
    """The highest-scoring descriptor at a gap: no drift, size change or
    appearance distance."""
    return [0.0, 0.0, 0.0, 0.0, float(gap), 0.0]


def test_handcrafted_reach_is_the_last_gap_a_best_case_edge_passes():
    # logit 5 - 0.15 (gap - 1) stays positive up to gap 34
    assert handcrafted_reach(0.5) == 34
    for eps in (0.3, 0.5, 0.9, 1e-300):
        reach = handcrafted_reach(eps)
        at, past = handcrafted_scores(descriptor_tensors([best_case(reach),
                                                          best_case(reach + 1)]))
        assert at > eps >= past
    # sigmoid(5) < 0.999999: no gap passes
    assert handcrafted_reach(1.0) == handcrafted_reach(0.999999) == 0
    for eps in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValidationError, match="eps"):
            handcrafted_reach(eps)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(eps=st.sampled_from([0.3, 0.5, 0.9]),
       rows=st.lists(st.tuples(_finite(-5, 5), _finite(-5, 5), _finite(-2, 2),
                               _finite(-2, 2), st.integers(1, 300), _finite(0, 3)),
                     min_size=1, max_size=16))
@example(eps=0.5, rows=[(0.0, 0.0, 0.0, 0.0, 1, 0.0)])
@example(eps=0.9, rows=[(-0.0, 0.0, -0.0, 0.0, 1, 0.0)])
def test_no_edge_beyond_the_handcrafted_reach_scores_above_eps(eps, rows):
    # rows hold gaps past the reach: 1 is the first gap beyond it
    feats = np.asarray(rows, dtype=np.float64)
    feats[:, 4] += handcrafted_reach(eps)
    assert np.all(handcrafted_scores(descriptor_tensors(feats)) <= eps)


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = small_params(seed=3)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_params(p1, params)
    loaded = load_params(p1)
    save_params(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.steps == params.steps
    assert loaded.embed_dim == params.embed_dim
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a.astype("<f4").astype(np.float64), b)


def test_checkpoint_round_trip_odd_float_count(tmp_path):
    # default dims give a payload that is not 8-byte aligned, so the
    # header parse must not sweep the whole remainder as integers
    params = init_params(0)
    n_floats = sum(a.size for a in params.arrays())
    assert n_floats % 2 == 1
    p = tmp_path / "full.ckpt"
    save_params(p, params)
    loaded = load_params(p)
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a.astype("<f4").astype(np.float64), b)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(Exception):
        load_params(p)


def test_checkpoint_rejects_truncation(tmp_path):
    params = small_params(seed=4)
    p = tmp_path / "t.ckpt"
    save_params(p, params)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 12])
    with pytest.raises(Exception):
        load_params(p)


# ---------------------------------------------------------------- training


def separable_toy(seed=0, n=14):
    rng = np.random.default_rng(seed)
    u, v, feats, labels = [], [], [], []
    for i in range(n - 1):
        u.append(i)
        v.append(i + 1)
        feats.append([0.05, 0.05, 0.0, 0.0, 1.0, 0.1] + rng.normal(0, 0.02, 6))
        labels.append(1)
    for i in range(n - 2):
        u.append(i)
        v.append(i + 2)
        feats.append([1.3, 1.1, 0.0, 0.0, 2.0, 1.4] + rng.normal(0, 0.02, 6))
        labels.append(0)
    g = GraphTensors(
        u=np.asarray(u),
        v=np.asarray(v),
        feats=np.asarray(feats),
        node_feat=rng.normal(size=(n, 3)),
        spans=np.stack([np.arange(n), np.arange(n)], axis=1),
    )
    return g, np.asarray(labels)


def test_training_drives_separable_loss_down():
    g, labels = separable_toy()
    params = small_params(seed=1)
    sched = TrainSchedule(iterations=2000, learning_rate=0.3, weight_decay=1e-4,
                          unfreeze_second_at=10**9)
    result = train([(g, labels)], [], params, sched)
    losses = [l for _, l in result.history]
    assert min(losses) < 0.05
    assert losses[-1] < 0.05


def test_training_zero_rate_keeps_params():
    g, labels = separable_toy()
    params = small_params(seed=2)
    before = [a.copy() for a in params.arrays()]
    result = train([(g, labels)], [], params, TrainSchedule(iterations=5, learning_rate=0.0))
    for a, b in zip(result.params.arrays(), before):
        assert np.array_equal(a, b)


def test_training_deterministic():
    g, labels = separable_toy()
    r1 = train([(g, labels)], [], small_params(seed=3), TrainSchedule(iterations=50, learning_rate=0.1))
    r2 = train([(g, labels)], [], small_params(seed=3), TrainSchedule(iterations=50, learning_rate=0.1))
    assert r1.history == r2.history
    for a, b in zip(r1.params.arrays(), r2.params.arrays()):
        assert np.array_equal(a, b)


def test_training_second_pass_joins_late():
    g, labels = separable_toy()
    g2, labels2 = separable_toy(seed=9)
    labels2 = 1 - labels2  # different loss surface
    sched = TrainSchedule(iterations=4, learning_rate=0.0, unfreeze_second_at=2)
    result = train([(g, labels)], [(g2, labels2)], small_params(seed=4), sched)
    l1 = result.history[0][1]
    l_joint = result.history[2][1]
    assert result.history[1][1] == pytest.approx(l1)
    assert l_joint != pytest.approx(l1)


def test_training_diverged_raises():
    g, labels = separable_toy()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Exception, match="diverged|finite"):
            train([(g, labels)], [], small_params(seed=5), TrainSchedule(iterations=200, learning_rate=1e6))
