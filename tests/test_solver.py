import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import (
    edge_tuples,
    exact_round,
    graph_of,
    is_feasible,
    reference_components_ids,
    reference_greedy_round,
    reference_relabel,
    rounding_objective,
)
from trackgraph.affinity import WindowPlan, accumulate_affinity, cosine_scorer, oracle_scorer
from trackgraph.builder import BuilderConfig, associate_frames, build_part_graph
from trackgraph.config import RunConfig
from trackgraph.core import (
    BoundingBox,
    Detection,
    NodeKind,
    Tracklet,
    ValidationError,
)
from trackgraph.ingest import DetectionSet, ScenarioSpec, synthesize
from trackgraph.mpn import handcrafted_scores, oracle_scores
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import (
    RoundingProblem,
    aggregate,
    build_traj_graph,
    connected_components_ids,
    greedy_round,
    path_ids,
    span_disjoint_edges,
)


def columns(edges):
    """(u, v, scores) lists from (u, v, score) tuples."""
    return tuple(map(list, zip(*edges))) if edges else ([], [], [])


def prob(n, *edges):
    return RoundingProblem(n, *columns(edges))


def det(frame, x, gt):
    vecs = {1: (1.0, 0.0), 2: (0.0, 1.0), 3: (-1.0, 0.0)}
    return Detection(
        frame=frame,
        box=BoundingBox(x, 0.0, 2.0, 2.0),
        confidence=1.0,
        embedding=np.asarray(vecs[gt], dtype=np.float64),
        gt_id=gt,
    )


def part_graph(rows, clip_len, cfg=None, scorer=oracle_scorer, window=None, step=None):
    dets = DetectionSet.build(rows)
    plan = WindowPlan(clip_len=clip_len, window=window or clip_len, step=step or window or clip_len)
    aff = accumulate_affinity(dets, plan, scorer)
    cfg = cfg or BuilderConfig(top_k=1)
    owner, links = associate_frames(dets, aff, cfg)
    return dets, build_part_graph(links, dets), owner


# ----------------------------------------------------------------- problem


def test_problem_validation():
    prob(2, (0, 1, 0.5))
    with pytest.raises(ValidationError):
        prob(2, (0, 1, 1.2))
    with pytest.raises(ValidationError):
        prob(2, (0, 0, 0.5))
    with pytest.raises(ValidationError):
        prob(2, (0, 2, 0.5))
    with pytest.raises(ValidationError):
        prob(2, (0, 1, float("nan")))
    with pytest.raises(ValidationError, match="align"):
        RoundingProblem(2, [0], [1], [0.5, 0.5])


# ------------------------------------------------------------------ greedy


def test_greedy_single_strong_edge():
    lab = greedy_round(prob(2, (0, 1, 0.9)), 0.5)
    assert lab.tolist() == [1]


def test_greedy_threshold_is_strict():
    assert greedy_round(prob(2, (0, 1, 0.5)), 0.5).tolist() == [0]
    assert greedy_round(prob(2, (0, 1, 0.500001)), 0.5).tolist() == [1]


def test_greedy_out_degree_budget():
    lab = greedy_round(prob(3, (0, 1, 0.9), (0, 2, 0.8)), 0.5)
    assert lab.tolist() == [1, 0]


def test_greedy_in_degree_budget():
    lab = greedy_round(prob(3, (0, 2, 0.8), (1, 2, 0.9)), 0.5)
    assert lab.tolist() == [0, 1]


def test_greedy_equal_scores_break_by_endpoints():
    lab = greedy_round(prob(3, (0, 2, 0.8), (0, 1, 0.8)), 0.5)
    assert lab.tolist() == [0, 1]  # (0,1) sorts before (0,2)


def test_greedy_parallel_chains_all_accepted():
    lab = greedy_round(prob(4, (0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)), 0.5)
    assert lab.tolist() == [1, 1, 1]


@st.composite
def rounding_problems(draw):
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1])
    # coarse scores make equal-score ties common
    score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                      st.floats(0.0, 1.0))
    edges = draw(st.lists(st.tuples(pairs, score), max_size=16))
    return prob(n, *((u, v, s) for (u, v), s in edges))


@settings(max_examples=60, deadline=None)
@given(p=rounding_problems(), eps=st.sampled_from([0.0, 0.3, 0.5, 0.9]))
def test_greedy_feasibility_on_random_problems(p, eps):
    lab = greedy_round(p, eps)
    assert is_feasible(p, lab)
    out_used = {u for u, y in zip(p.u, lab) if y}
    in_used = {v for v, y in zip(p.v, lab) if y}
    for u, v, s, y in zip(p.u, p.v, p.scores, lab):
        if y:
            assert s > eps
        elif s > eps:
            # a rejected candidate was blocked by a taken budget
            assert u in out_used or v in in_used


# ------------------------------------------------------------------- exact


def test_exact_single_edge_cases():
    assert exact_round(prob(2, (0, 1, 0.4)), 0.3).tolist() == [0]
    assert exact_round(prob(2, (0, 1, 0.6)), 0.3).tolist() == [1]


def test_exact_empty_problem():
    lab = exact_round(prob(3), 0.5)
    assert lab.shape == (0,)
    assert rounding_objective(prob(3), lab) == 0.0


def test_exact_rejects_large_instances():
    edges = [(i, i + 1, 0.9) for i in range(21)]
    with pytest.raises(ValidationError):
        exact_round(prob(22, *edges), 0.5)


def test_exact_zero_cost_ties_prefer_zero_labels():
    lab = exact_round(prob(4, (0, 1, 0.5), (2, 3, 0.5)), 0.3)
    assert lab.tolist() == [0, 0]


def test_exact_beats_greedy_on_blocking_chain():
    # the 0.95 edge blocks two 0.74 edges that together cost less
    p = prob(4, (0, 2, 0.95), (0, 1, 0.74), (3, 2, 0.74))
    g = greedy_round(p, 0.5)
    e = exact_round(p, 0.5)
    assert g.tolist() == [1, 0, 0]
    assert e.tolist() == [0, 1, 1]
    assert rounding_objective(p, g) == pytest.approx(0.95**2 * 0 + 0.05**2 + 2 * 0.74**2)
    assert rounding_objective(p, e) == pytest.approx(0.95**2 + 2 * 0.26**2)
    assert rounding_objective(p, e) < rounding_objective(p, g)


def random_problem(rng, n_nodes=6, n_edges=10):
    edges = []
    seen = set()
    while len(edges) < n_edges:
        u, v = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, float(rng.uniform())))
    return prob(n_nodes, *edges)


def margins_exceed(p, eps, gap):
    cands = [(u, v, s) for u, v, s in zip(p.u, p.v, p.scores) if s > eps]
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            ui, vi, si = cands[i]
            uj, vj, sj = cands[j]
            if (ui == uj or vi == vj) and abs(si - sj) <= gap:
                return False
    return True


def test_exact_never_worse_and_matches_on_clear_margins():
    rng = np.random.default_rng(23)
    checked_margin = 0
    for _ in range(40):
        p = random_problem(rng)
        g = greedy_round(p, 0.5)
        e = exact_round(p, 0.5)
        assert is_feasible(p, e)
        og, oe = rounding_objective(p, g), rounding_objective(p, e)
        assert oe <= og + 1e-12
        if margins_exceed(p, 0.5, 0.2):
            checked_margin += 1
            assert oe == pytest.approx(og)
    assert checked_margin >= 5  # the margin regime actually occurs


# -------------------------------------------------------------- components


def spans(*pairs):
    return np.asarray(pairs, dtype=np.int64)


def test_components_chain_merges_to_one_id():
    ids = connected_components_ids(
        spans((0, 1), (2, 3), (4, 5)),
        *columns([(0, 1, 0.9), (1, 2, 0.8)]),
    )
    assert ids.tolist() == [0, 0, 0]


def test_components_refuse_overlap():
    ids = connected_components_ids(spans((0, 3), (2, 5)), [0], [1], [0.9])
    assert ids.tolist() == [0, 1]


def test_components_ordered_merge_trace():
    # strongest merge wins, the conflicting 0.85 is refused, 0.8 still lands
    sp = spans((0, 1), (2, 3), (4, 5), (3, 4))
    edges = [(0, 1, 0.9), (1, 3, 0.85), (1, 2, 0.8)]
    ids = connected_components_ids(sp, *columns(edges))
    assert ids.tolist() == [0, 0, 0, 1]


def test_components_no_edges_all_singletons():
    ids = connected_components_ids(spans((0, 0), (1, 1)), [], [], [])
    assert ids.tolist() == [0, 1]


def test_components_equal_scores_merge_in_endpoint_order():
    # both merges are compatible, order only affects determinism
    sp = spans((0, 0), (1, 1), (2, 2))
    ids = connected_components_ids(sp, [1, 0], [2, 1], [0.8, 0.8])
    assert ids.tolist() == [0, 0, 0]


@st.composite
def component_cases(draw):
    """Spans that often overlap, and coarse-scored edges in any direction."""
    n = draw(st.integers(1, 8))
    starts = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    score = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    edges = draw(st.lists(st.tuples(pairs, score), max_size=16))
    sp = spans(*((a, a + d) for a, d in zip(starts, lengths)))
    return sp, [(u, v, s) for (u, v), s in edges]


@settings(max_examples=100, deadline=None)
@given(p=rounding_problems(), eps=st.sampled_from([0.0, 0.3, 0.5, 0.9]),
       case=component_cases())
def test_array_assignment_matches_the_tuple_reference(p, eps, case):
    # duplicate and backward edges and equal scores are all drawn
    assert (greedy_round(p, eps).tolist()
            == reference_greedy_round(p.n_nodes, edge_tuples(p), eps).tolist())
    sp, edges = case
    assert (connected_components_ids(sp, *columns(edges)).tolist()
            == reference_components_ids(sp, edges).tolist())


@st.composite
def forward_detection_graphs(draw):
    """Detection frames and distinct forward edges with coarse scores."""
    frames = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    n = len(frames)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=30))
    forward = sorted((a, b) for a, b in pairs if frames[a] < frames[b])
    scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                           min_size=len(forward), max_size=len(forward)))
    return frames, [(a, b, s) for (a, b), s in zip(forward, scores)]


@settings(max_examples=150, deadline=None)
@given(graph=forward_detection_graphs(), eps=st.sampled_from([0.0, 0.3, 0.5]))
def test_pass_one_components_never_refuse_a_merge(graph, eps):
    # greedy positives have in- and out-degree <= 1 on forward edges, so
    # they form vertex-disjoint time-ordered paths: grouping along them
    # is plain weak connectivity, with no merge refused
    frames, edges = graph
    n = len(frames)
    p = prob(n, *edges)
    pos = greedy_round(p, eps).astype(bool)
    assert is_feasible(p, pos.astype(np.int64))
    sp = spans(*((f, f) for f in frames))
    ids = connected_components_ids(sp, p.u[pos], p.v[pos], p.scores[pos])
    adjacency = coo_matrix((np.ones(int(pos.sum())), (p.u[pos], p.v[pos])),
                           shape=(n, n))
    _, weak = connected_components(adjacency, directed=True, connection="weak")
    assert ids.tolist() == reference_relabel(weak.tolist()).tolist()
    assert path_ids(n, p.u[pos], p.v[pos]).tolist() == ids.tolist()


@st.composite
def degree_bounded_paths(draw):
    """One-frame nodes and forward edges with at most one edge out of and
    one into each node, scored, in any order."""
    frames = draw(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    n = len(frames)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=60))
    out_used, in_used, edges = set(), set(), []
    for a, b in pairs:
        if frames[a] < frames[b] and a not in out_used and b not in in_used:
            out_used.add(a)
            in_used.add(b)
            edges.append((a, b, draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))))
    return frames, edges


@settings(max_examples=300, deadline=None)
@given(case=degree_bounded_paths())
def test_pass_one_path_ids_match_the_components_reference(case):
    # any rounding that keeps both degree budgets leaves paths whose
    # frames strictly increase, so labelling them refuses no merge
    frames, edges = case
    sp = spans(*((f, f) for f in frames))
    u, v, _ = columns(edges)
    got = path_ids(len(frames), np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == reference_components_ids(sp, edges).tolist()


# -------------------------------------------------------------- traj graph


def test_build_traj_graph_groups_and_gates():
    rows = [det(0, 0.0, 1), det(1, 0.0, 1), det(0, 50.0, 2), det(1, 50.0, 2)]
    dets = DetectionSet.build(rows)  # stable-sorted by frame
    ids = np.asarray([0, 1, 0, 1])
    tg = build_traj_graph(dets, ids)
    assert tg.dets is dets and tg.n_nodes == 2
    # node p groups the detections of the p-th smallest id, in index order
    assert [m.tolist() for m in tg.groups] == [[0, 2, 4], [0, 2, 1, 3]]
    assert [n.kind for n in tg.nodes] == [NodeKind.TRAJ, NodeKind.TRAJ]
    assert [n.detections for n in tg.nodes] == [
        dets.detections[::2], dets.detections[1::2]]
    assert tg.n_edges == 0  # spans overlap, gate closed
    with pytest.raises(ValidationError, match="align"):
        build_traj_graph(dets, ids[:3])
    # an id's members are taken in index order, which must be frame order
    with pytest.raises(ValidationError, match="0 then 0"):
        build_traj_graph(dets, np.asarray([0, 0, 1, 2]))
    rows2 = [det(0, 0.0, 1), det(1, 0.0, 1), det(3, 50.0, 2), det(4, 50.0, 2)]
    dets2 = DetectionSet.build(rows2)
    tg2 = build_traj_graph(dets2, np.asarray([0, 0, 1, 1]))
    assert (tg2.u.tolist(), tg2.v.tolist()) == ([0], [1])
    # three mutually disjoint spans connect completely, earlier span first
    rows3 = rows2 + [det(6, 90.0, 3), det(7, 90.0, 3)]
    dets3 = DetectionSet.build(rows3)
    tg3 = build_traj_graph(dets3, np.asarray([0, 0, 1, 1, 2, 2]))
    assert list(zip(tg3.u.tolist(), tg3.v.tolist())) == [(0, 1), (0, 2), (1, 2)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 4)), max_size=8),
       st.one_of(st.none(), st.integers(0, 25)))
def test_span_disjoint_edges_match_a_double_loop(spans, max_gap):
    nodes = [
        Tracklet.from_members(k, [(f, det(f, 0.0, 1)) for f in range(a, a + n + 1)])
        for k, (a, n) in enumerate(spans)
    ]
    reach = float("inf") if max_gap is None else max_gap
    expected = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            (si, ei), (sj, ej) = nodes[i].span, nodes[j].span
            if ei < sj and sj - ei <= reach:
                expected.append((i, j))
            elif ej < si and si - ej <= reach:
                expected.append((j, i))
    u, v = span_disjoint_edges(np.asarray([n.span for n in nodes]).reshape(-1, 2), max_gap)
    assert list(zip(u.tolist(), v.tolist())) == expected


def test_span_disjoint_edges_memory_follows_the_edges_kept():
    # 5,000 one-frame fragments, two a frame: within a gap of 3 each has
    # at most 6 successors, so about 30,000 edges; the node pairs number
    # 12.5 M, and a pass over them would hold hundreds of MB
    frames = np.arange(5000) // 2
    tracemalloc.start()
    try:
        u, v = span_disjoint_edges(np.stack([frames, frames], axis=1), max_gap=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.size == 6 * 5000 - 24
    assert peak <= 256 * (u.size + frames.size)


# --------------------------------------------------------------- aggregate


def fragmented_fixture():
    rows = (
        [det(f, 0.0, 1) for f in (0, 1, 2)]
        + [det(f, 70.0, 2) for f in (20, 21, 22)]
        + [det(f, 10.0, 1) for f in (40, 41, 42)]
    )
    return part_graph(rows, clip_len=43, window=32, step=16)


def test_aggregate_bridges_long_gap_with_traj_pass():
    dets, graph, owner = fragmented_fixture()
    # the step tracker cannot cross the gap
    assert owner.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    ids = aggregate(graph, None, eps=0.5, score_fn=oracle_scores)
    gt = [d.gt_id for d in dets.detections]
    assert len(set(ids.tolist())) == 2
    for a in range(len(gt)):
        for b in range(len(gt)):
            assert (ids[a] == ids[b]) == (gt[a] == gt[b])


def test_aggregate_strict_threshold_disables_merging():
    dets, graph, _ = fragmented_fixture()
    ids = aggregate(graph, None, eps=1.0, score_fn=oracle_scores)
    # oracle scores are exactly 1.0 and the threshold is strict
    assert ids.tolist() == list(range(len(dets)))


def test_aggregate_more_traj_passes_idempotent():
    _, graph, _ = fragmented_fixture()
    one = aggregate(graph, None, eps=0.5, score_fn=oracle_scores, traj_passes=1)
    three = aggregate(graph, None, eps=0.5, score_fn=oracle_scores, traj_passes=3)
    assert one.tolist() == three.tolist()


def test_aggregate_refuses_a_trajectory_node():
    rows = [det(0, 0.0, 1), det(1, 0.0, 1), det(2, 0.0, 1)]
    # a trajectory graph is refused, even one whose groups hold one
    # detection each, as a part graph's nodes do
    for traj in ((Tracklet.from_members(0, [(0, rows[0]), (1, rows[1])]), rows[2]),
                 tuple(Tracklet.from_members(k, [(k, d)]) for k, d in enumerate(rows))):
        graph = graph_of(traj, [0], [1])
        assert graph.groups is not None
        with pytest.raises(ValidationError, match="detection nodes only"):
            aggregate(graph, None, eps=0.5, score_fn=oracle_scores)
    # the part graph over the same detections is accepted
    part = graph_of(rows, [0], [1])
    assert part.groups is None
    assert aggregate(part, None, eps=0.5, score_fn=oracle_scores).tolist() == [0, 0, 0]


def test_aggregate_single_detection():
    _, graph, _ = part_graph([det(0, 0.0, 1)], clip_len=1)
    ids = aggregate(graph, None, eps=0.5, score_fn=oracle_scores)
    assert ids.tolist() == [0]


def test_aggregate_recovers_clean_partition():
    spec = ScenarioSpec(n_objects=3, n_frames=8, seed=2, miss_rate=0.0,
                        embedding_noise_sigma=0.0)
    dets = synthesize(spec)
    plan = WindowPlan(clip_len=8, window=8, step=8)
    aff = accumulate_affinity(dets, plan, cosine_scorer)
    cfg = BuilderConfig()
    _, links = associate_frames(dets, aff, cfg)
    graph = build_part_graph(links, dets)
    ids = aggregate(graph, None, eps=0.5, score_fn=oracle_scores)
    gt = [d.gt_id for d in dets.detections]
    pred_parts = {}
    for i, g in enumerate(ids.tolist()):
        pred_parts.setdefault(g, set()).add(i)
    gt_parts = {}
    for i, g in enumerate(gt):
        gt_parts.setdefault(g, set()).add(i)
    assert sorted(pred_parts.values(), key=min) == sorted(gt_parts.values(), key=min)


@settings(max_examples=25, deadline=None)
@given(
    objects=st.integers(1, 4),
    frames=st.integers(2, 24),
    seed=st.integers(0, 10_000),
    miss_rate=st.sampled_from([0.0, 0.1, 0.2]),
    sigma=st.sampled_from([0.0, 0.1, 0.8]),
    window=st.sampled_from([4, 8, 16]),
    scorer=st.sampled_from(["handcrafted", "oracle", "random"]),
    traj_passes=st.integers(0, 2),
)
@example(objects=4, frames=24, seed=11, miss_rate=0.1, sigma=0.1, window=16,
         scorer="handcrafted", traj_passes=1)
def test_aggregate_partition_invariants_on_noisy_scenario(
        objects, frames, seed, miss_rate, sigma, window, scorer, traj_passes):
    spec = ScenarioSpec(n_objects=objects, n_frames=frames, seed=seed,
                        miss_rate=miss_rate, embedding_noise_sigma=sigma)
    dets = synthesize(spec)
    assume(len(dets) > 0)
    mode = "oracle" if scorer == "oracle" else "handcrafted"
    graph, _ = ClipTracker(RunConfig(window=window, step=window // 2),
                           score_mode=mode).build_graph(dets)
    # random scores fragment pass 1 and then propose merges of fragments
    # that overlap in time, which only the overlap refusal turns down
    rng = np.random.default_rng(seed)
    score_fn = {
        "handcrafted": handcrafted_scores,
        "oracle": oracle_scores,
        "random": lambda g: rng.uniform(size=g.n_edges),
    }[scorer]
    ids = aggregate(graph, None, eps=0.5, traj_passes=traj_passes,
                    score_fn=score_fn).tolist()
    assert len(ids) == len(dets)
    seen = set()
    for g in ids:  # ids count up from 0 in order of first appearance
        assert g <= len(seen)
        seen.add(g)
    by_id = {}
    for g, d in zip(ids, dets.detections):
        by_id.setdefault(g, []).append(d.frame)
    for frames_of in by_id.values():
        assert len(frames_of) == len(set(frames_of))  # one detection per frame per id


def test_aggregate_invariant_to_storage_order():
    def build(reverse):
        rows = []
        for f in range(6):
            frame_rows = [det(f, 0.0 + 4.0 * f, 1), det(f, 90.0 - 4.0 * f, 2)]
            rows.extend(reversed(frame_rows) if reverse else frame_rows)
        dets = DetectionSet.build(rows)
        plan = WindowPlan(clip_len=6, window=6, step=6)
        aff = accumulate_affinity(dets, plan, oracle_scorer)
        cfg = BuilderConfig(top_k=1)
        _, links = associate_frames(dets, aff, cfg)
        graph = build_part_graph(links, dets)
        ids = aggregate(graph, None, eps=0.5, score_fn=oracle_scores)
        parts = {}
        for i, g in enumerate(ids.tolist()):
            parts.setdefault(g, set()).add((dets.detections[i].frame,
                                            dets.detections[i].gt_id))
        return {frozenset(v) for v in parts.values()}

    assert build(False) == build(True)
