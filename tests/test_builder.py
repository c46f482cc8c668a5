import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import assert_links, gated_pair_score, iou, owner_tracks, shares_a_window
from trackgraph.affinity import WindowPlan, accumulate_affinity, cosine_scorer, oracle_scorer
from trackgraph.builder import (
    BuilderConfig,
    associate_frames,
    build_part_graph,
    dump_graph,
    edge_coverage,
    fully_connected_edge_count,
)
from trackgraph.config import RunConfig
from trackgraph.core import (
    BoundingBox,
    Detection,
    Edge,
    EdgeKind,
    ValidationError,
)
from trackgraph.ingest import DetectionSet, ScenarioSpec, synthesize
from trackgraph.mpn import graph_tensors
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import build_traj_graph, tracklet_ids


def det(frame, x, gt, y=0.0, emb=None):
    if emb is None:
        # a fixed unit vector per identity keeps cosine similarities 0/1
        vecs = {1: (1.0, 0.0), 2: (0.0, 1.0), 3: (-1.0, 0.0), 4: (0.0, -1.0)}
        emb = vecs[gt]
    return Detection(
        frame=frame,
        box=BoundingBox(x, y, 2.0, 2.0),
        confidence=1.0,
        embedding=np.asarray(emb, dtype=np.float64),
        gt_id=gt,
    )


def make_set(dets):
    return DetectionSet.build(dets)


def oracle_affinity(dets, clip_len, window=None, step=None):
    window = window or clip_len
    step = step or window
    plan = WindowPlan(clip_len=clip_len, window=window, step=step)
    return accumulate_affinity(dets, plan, oracle_scorer)


def track_ids(owner, dets):
    return [tuple(dets.detections[i].gt_id for i in t) for t in owner_tracks(owner)]


# ----------------------------------------------------------------- config


def test_config_validation():
    BuilderConfig()
    with pytest.raises(ValidationError):
        BuilderConfig(top_k=0)
    with pytest.raises(ValidationError):
        BuilderConfig(new_track_threshold=0.0)
    with pytest.raises(ValidationError):
        BuilderConfig(new_track_threshold=1.0)
    with pytest.raises(ValidationError):
        BuilderConfig(lookback=0)


# ------------------------------------------------------------ association


def test_single_object_two_frames_one_link():
    dets = make_set([det(0, 0.0, 1), det(1, 1.0, 1)])
    aff = oracle_affinity(dets, clip_len=2)
    owner, links = associate_frames(dets, aff, BuilderConfig(top_k=1))
    assert owner.tolist() == [0, 0]
    assert_links(links, [0], [1])


def test_crossing_objects_keep_identities():
    rows = []
    xa = [0.0, 6.0, 12.0, 18.0]
    xb = [19.0, 13.0, 7.0, 1.0]
    for f in range(4):
        rows.append(det(f, xa[f], 1))
        rows.append(det(f, xb[f], 2))
    dets = make_set(rows)
    aff = oracle_affinity(dets, clip_len=4)
    owner, _ = associate_frames(dets, aff, BuilderConfig(top_k=1))
    assert sorted(track_ids(owner, dets)) == [(1, 1, 1, 1), (2, 2, 2, 2)]


def test_unrelated_detection_starts_new_track_without_links():
    dets = make_set([det(0, 0.0, 1), det(1, 500.0, 2)])
    aff = oracle_affinity(dets, clip_len=2)
    owner, links = associate_frames(dets, aff, BuilderConfig())
    assert owner.tolist() == [0, 1]
    assert_links(links, [], [])


def test_threshold_gates_acceptance():
    # cosine similarity lands at (1 - 0.39) / 2 = 0.305
    a = det(0, 0.0, 1, emb=(1.0, 0.0))
    b = det(1, 500.0, 1, emb=(-0.39, np.sqrt(1 - 0.39**2)))
    dets = make_set([a, b])
    plan = WindowPlan(clip_len=2, window=2, step=1)
    aff = accumulate_affinity(dets, plan, cosine_scorer)
    accept, _ = associate_frames(dets, aff, BuilderConfig(new_track_threshold=0.3))
    reject, _ = associate_frames(dets, aff, BuilderConfig(new_track_threshold=0.31))
    assert accept.tolist() == [0, 0]
    assert reject.tolist() == [0, 1]


def test_track_outside_lookbook_is_not_extended():
    dets = make_set([det(0, 0.0, 1), det(1, 1.0, 1), det(40, 2.0, 1)])
    plan = WindowPlan(clip_len=41, window=32, step=16)
    aff = accumulate_affinity(dets, plan, oracle_scorer)
    owner, _ = associate_frames(dets, aff, BuilderConfig(lookback=32))
    assert owner.tolist() == [0, 0, 1]


def test_oracle_reproduces_ground_truth_partition():
    spec = ScenarioSpec(n_objects=3, n_frames=8, seed=2, miss_rate=0.0,
                        embedding_noise_sigma=0.0)
    dets = synthesize(spec)
    aff = oracle_affinity(dets, clip_len=8)
    owner, _ = associate_frames(dets, aff, BuilderConfig())
    assert owner.shape == (len(dets),) and owner.dtype == np.int64
    assert owner.max() + 1 == 3
    for ids in track_ids(owner, dets):
        assert len(set(ids)) == 1


def test_detdet_bound_and_dag_on_noisy_scenario():
    spec = ScenarioSpec(n_objects=4, n_frames=24, seed=5, miss_rate=0.1,
                        embedding_noise_sigma=0.05)
    dets = synthesize(spec)
    plan = WindowPlan(clip_len=24, window=16, step=8)
    aff = accumulate_affinity(dets, plan, cosine_scorer)
    cfg = BuilderConfig(top_k=2)
    _, links = associate_frames(dets, aff, cfg)
    assert len(links[0]) == len(links[1]) <= len(dets) * (cfg.top_k + 1)
    graph = build_part_graph(links, dets)
    for u, v in zip(graph.u, graph.v):  # forward in time, already enforced on build
        assert graph.nodes[u].span[1] < graph.nodes[v].span[0]


def records(graph, kind):
    """The Edge records the graph's endpoint arrays stand for."""
    return tuple(Edge(u, v, kind) for u, v in zip(graph.u.tolist(), graph.v.tolist()))


def assert_forward_dag(graph):
    """Endpoints in range, (u, v) unique, every frame gap >= 1."""
    g = graph_tensors(graph)
    n = len(graph.nodes)
    assert np.all((0 <= g.u) & (g.u < n) & (0 <= g.v) & (g.v < n))
    keys = set(zip(graph.u.tolist(), graph.v.tolist()))
    assert len(keys) == graph.n_edges
    assert np.all(g.feats[:, 4] >= 1.0)
    assert np.array_equal(g.feats[:, 4], g.spans[g.v, 0] - g.spans[g.u, 1])


@settings(max_examples=30, deadline=None)
@given(
    objects=st.integers(1, 4),
    frames=st.integers(2, 30),
    seed=st.integers(0, 10_000),
    miss_rate=st.sampled_from([0.0, 0.1, 0.3]),
    sigma=st.sampled_from([0.0, 0.2, 0.6]),
    window=st.integers(2, 12),
)
def test_built_edges_point_forward_in_time(objects, frames, seed, miss_rate,
                                           sigma, window):
    spec = ScenarioSpec(n_objects=objects, n_frames=frames, seed=seed,
                        miss_rate=miss_rate, embedding_noise_sigma=sigma)
    dets = synthesize(spec)
    assume(len(dets) > 0)
    tracker = ClipTracker(RunConfig(window=window, step=max(1, window // 2)))
    part, owner = tracker.build_graph(dets)
    tracks = owner_tracks(owner)
    assert_forward_dag(part)
    # node i is detection i, and every edge is an association link
    assert len(part.nodes) == len(dets)
    for node, d in zip(part.nodes, dets.detections):
        assert node is d
    assert part.edges == records(part, EdgeKind.DET_DET)
    # each detection sits in one tracklet, members in frame order, and
    # the tracklets are numbered in the order they start
    assert owner.shape == (len(dets),) and owner.dtype == np.int64
    assert all(t for t in tracks)
    assert [t[0] for t in tracks] == sorted(t[0] for t in tracks)
    for t in tracks:
        frames_of = [dets.detections[i].frame for i in t]
        assert frames_of == sorted(set(frames_of))
    # a singleton keeps its own index; a longer tracklet shares one id,
    # the detection count plus its rank among the longer tracklets
    ids = tracklet_ids(owner)
    expect = np.arange(len(dets))
    for rank, t in enumerate(t for t in tracks if len(t) >= 2):
        expect[t] = len(dets) + rank
    assert ids.dtype == np.int64 and ids.tolist() == expect.tolist()
    assert len(set(ids.tolist())) == len(tracks)
    for t in tracks:
        group = set(ids[t].tolist())
        assert len(group) == 1
        if len(t) == 1:
            assert group == {t[0]}
    # the builder's tracklets, and every detection on its own
    for ids in (ids, np.arange(len(dets))):
        traj = build_traj_graph(dets, ids)
        assert_forward_dag(traj)
        assert traj.edges == records(traj, EdgeKind.TRAJ_TRAJ)


def reference_associate_frames(dets, plan, cfg, oracle=False):
    """Frame-by-frame association that rescans every track's members.

    Per frame: each active track's in-window members are filtered from
    all its members and gated one by one by brute force, and every
    last-box overlap comes from a scalar iou call. Each track's
    appearance row is computed on its own. With cosine scores it uses
    the per-track-sum formula: (gated count + gated unit-vector sum .
    detection) / 2 over its member count, the sum taken in member order.
    With oracle scores it counts the gated members of the detection's
    identity, pair by pair, over its member count.
    """
    emb = np.stack([d.embedding for d in dets.detections])
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    by_frame = {}
    for i, d in enumerate(dets.detections):
        by_frame.setdefault(d.frame, []).append(i)
    tracks, link_u, link_v = [], [], []
    frames = sorted(by_frame)
    first = frames[0]
    for t in frames:
        idxs = np.asarray(by_frame[t])
        if t == first:
            tracks.extend([(int(j), dets.detections[int(j)])] for j in idxs)
            continue
        lo = max(first, t - cfg.lookback)
        active = [k for k, mem in enumerate(tracks) if lo <= mem[-1][1].frame < t]
        taken = set()
        if active:
            n_d = len(idxs)
            m_bar = np.zeros((len(active), n_d))
            m_hat = np.zeros_like(m_bar)
            for r, k in enumerate(active):
                m = [(i, d) for i, d in tracks[k] if lo <= d.frame < t]
                if oracle:
                    row = np.asarray([sum(gated_pair_score(dets, plan, 0, i, int(j), True)
                                          for i, _ in m) for j in idxs])
                else:
                    gated = [i for i, d in m if shares_a_window(plan, 0, d.frame, t)]
                    summed = np.zeros((1, unit.shape[1]))
                    for i in gated:
                        summed[0] += unit[i]
                    dots = np.einsum("ik,jk->ij", summed, unit[idxs])[0]
                    row = (len(gated) + dots) / 2.0
                m_bar[r] = np.clip(row / len(m), 0.0, 1.0)
                for c, j in enumerate(idxs):
                    m_hat[r, c] = iou(tracks[k][-1][1].box, dets.detections[j].box)
            cost = -np.maximum(m_bar, m_hat)
            for r, c in zip(*linear_sum_assignment(cost)):
                if -cost[r, c] < cfg.new_track_threshold:
                    continue
                track = tracks[active[r]]
                order = np.argsort(-m_bar[r], kind="stable")[: cfg.top_k]
                targets = {int(idxs[c])} | {int(idxs[c2]) for c2 in order}
                for v in sorted(targets):
                    link_u.append(track[-1][0])
                    link_v.append(v)
                track.append((int(idxs[c]), dets.detections[int(idxs[c])]))
                taken.add(int(c))
        tracks.extend([(int(j), dets.detections[int(j)])]
                      for c, j in enumerate(idxs) if c not in taken)
    return [[i for i, _ in mem] for mem in tracks], (link_u, link_v)


# the window plan against the lookback: "wide" windows of twice the
# lookback keep every lookback member gated; "pipeline" windows no
# longer than the lookback, at half-window steps, drop gated members
# while they are still in the lookback, as ClipTracker's plans do;
# "tiled" windows step by their own length
PLAN_SHAPES = ("wide", "pipeline", "tiled")


@settings(max_examples=80, deadline=None)
# at sigma 0 a track's entries for frame 3's two detections tie in exact
# arithmetic; its per-track sums round them 0.7085129070501915 and ...917,
# so a pairwise-mean reference would pick the other detection
@example(objects=2, frames=9, seed=1, miss_rate=0.3, sigma=0.0, lookback=2, top_k=1,
         shape="wide", window=1, oracle=False)
@given(
    objects=st.integers(1, 6),
    frames=st.integers(2, 40),
    seed=st.integers(0, 10_000),
    miss_rate=st.sampled_from([0.0, 0.1, 0.3]),
    sigma=st.sampled_from([0.0, 0.3, 0.8]),
    lookback=st.integers(1, 12),
    # up to more candidates than a frame has detections
    top_k=st.integers(1, 8),
    shape=st.sampled_from(PLAN_SHAPES),
    window=st.integers(1, 12),
    oracle=st.booleans(),
)
def test_associate_frames_matches_rescanning_reference(objects, frames, seed,
                                                       miss_rate, sigma,
                                                       lookback, top_k, shape,
                                                       window, oracle):
    # a lookback below the track lengths cuts members out of the window
    spec = ScenarioSpec(n_objects=objects, n_frames=frames, seed=seed,
                        miss_rate=miss_rate, embedding_noise_sigma=sigma,
                        speed=12.0)
    dets = synthesize(spec)
    assume(len(dets) > 0)
    if shape == "wide":
        window = min(2 * lookback, frames)
        step = max(1, window // 2)
    else:
        window = min(window, lookback, frames)
        step = max(1, window // 2) if shape == "pipeline" else window
    plan = WindowPlan(clip_len=frames, window=window, step=step)
    aff = accumulate_affinity(dets, plan, oracle_scorer if oracle else cosine_scorer)
    cfg = BuilderConfig(top_k=top_k, lookback=lookback)
    owner, links = associate_frames(dets, aff, cfg)
    ref_tracks, ref_links = reference_associate_frames(dets, plan, cfg, oracle)
    assert owner_tracks(owner) == ref_tracks
    assert_links(links, *ref_links)


def test_empty_set_round_trips():
    dets = DetectionSet.build([])
    aff = oracle_affinity(dets, clip_len=1)
    owner, links = associate_frames(dets, aff, BuilderConfig())
    np.testing.assert_array_equal(owner, np.empty(0, dtype=np.int64), strict=True)
    assert_links(links, [], [])
    graph = build_part_graph(links, dets)
    assert graph.nodes == () and graph.n_edges == 0
    assert dump_graph(graph) == ""


def test_association_memory_follows_the_links_on_a_crowded_clip():
    # about 140 detections a frame: association may hold a few words per
    # link slot, n * (top_k + 1) of them, plus one frame's (tracks x
    # detections) blocks, with about as many tracks as detections; a row
    # per match as wide as its frame would take several times more
    spec = ScenarioSpec(n_objects=150, n_frames=48, seed=3,
                        embedding_noise_sigma=0.1, miss_rate=0.05)
    dets = synthesize(spec)
    aff = accumulate_affinity(dets, WindowPlan(48, 32, 16), cosine_scorer)
    cfg = BuilderConfig()
    width = int(np.bincount(dets.frames).max())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, links = associate_frames(dets, aff, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert width > 100 and len(links[0]) > len(dets)
    assert peak <= 128 * len(dets) * (cfg.top_k + 1) + 128 * width**2


def test_a_top_k_past_every_frame_costs_the_widest_frame():
    # no frame offers more candidates than it holds detections, so a
    # top_k whose candidate table no address space could hold links and
    # groups as the widest frame's width does
    spec = ScenarioSpec(n_objects=10, n_frames=30, seed=60,
                        embedding_noise_sigma=0.2, miss_rate=0.1)
    dets = synthesize(spec)
    aff = accumulate_affinity(dets, WindowPlan(30, 16, 8), cosine_scorer)
    width = int(np.bincount(dets.frames).max())
    owner, links = associate_frames(dets, aff, BuilderConfig(top_k=width))
    huge_owner, huge_links = associate_frames(dets, aff, BuilderConfig(top_k=10**15))
    np.testing.assert_array_equal(huge_owner, owner, strict=True)
    assert_links(huge_links, *links)
    assert len(links[0]) > len(dets)


# -------------------------------------------------------------- part graph


def disjoint_pair_fixture():
    rows = [det(f, 0.0, 1) for f in (0, 1, 2)] + [det(f, 50.0, 2) for f in (4, 5, 6)]
    dets = make_set(rows)
    aff = oracle_affinity(dets, clip_len=7)
    _, links = associate_frames(dets, aff, BuilderConfig(top_k=1))
    return dets, build_part_graph(links, dets)


# ---------------------------------------------------------------- coverage


def test_coverage_full_on_clean_tracks():
    dets, graph = disjoint_pair_fixture()
    assert edge_coverage(graph, dets) == 1.0


def test_coverage_zero_without_edges():
    dets = make_set([det(0, 0.0, 1), det(1, 0.0, 1)])
    graph = build_part_graph(([], []), dets)
    assert graph.n_edges == 0
    assert edge_coverage(graph, dets) == 0.0


def test_coverage_requires_ground_truth():
    d = Detection(frame=0, box=BoundingBox(0, 0, 2, 2), confidence=1.0,
                  embedding=np.asarray([1.0, 0.0]), gt_id=None)
    dets = DetectionSet.build([d])
    graph = build_part_graph(([], []), dets)
    with pytest.raises(ValidationError):
        edge_coverage(graph, dets)


# ------------------------------------------------------- reference counts


def test_fully_connected_count_closed_form():
    dets = make_set([det(0, 0.0, 1), det(0, 10.0, 2), det(1, 0.0, 1),
                     det(1, 10.0, 2), det(2, 0.0, 1)])
    # N=5, per-frame sizes 2,2,1: (25 - 9) / 2 = 8
    assert fully_connected_edge_count(dets) == 8
    brute = sum(
        1
        for i in range(len(dets))
        for j in range(i + 1, len(dets))
        if dets.detections[i].frame != dets.detections[j].frame
    )
    assert brute == 8


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=12),
       data=st.data())
def test_graph_counts_equal_brute_force(rows, data):
    dets = make_set([det(f, 10.0 * k, g) for k, (f, g) in enumerate(rows)])
    n = len(dets)
    cross = [(i, j) for i in range(n) for j in range(i + 1, n)
             if dets.detections[i].frame != dets.detections[j].frame]
    assert fully_connected_edge_count(dets) == len(cross)
    edges = data.draw(st.lists(st.sampled_from(cross), unique=True)) if cross else []
    graph = build_part_graph(([u for u, _ in edges], [v for _, v in edges]), dets)
    by_id = {}
    for i, d in enumerate(dets.detections):
        by_id.setdefault(d.gt_id, []).append(i)
    pairs = [p for idxs in by_id.values() for p in zip(idxs, idxs[1:])]
    if n:
        expect = sum(p in edges for p in pairs) / len(pairs) if pairs else 1.0
        assert edge_coverage(graph, dets) == expect


def test_part_graph_stays_below_fully_connected():
    spec = ScenarioSpec(n_objects=5, n_frames=32, seed=9, miss_rate=0.05,
                        embedding_noise_sigma=0.05)
    dets = synthesize(spec)
    plan = WindowPlan(clip_len=32, window=16, step=8)
    aff = accumulate_affinity(dets, plan, cosine_scorer)
    _, links = associate_frames(dets, aff, BuilderConfig())
    graph = build_part_graph(links, dets)
    assert graph.n_edges < fully_connected_edge_count(dets)


# -------------------------------------------------------------- text dump


def test_dump_graph_lists_nodes_then_edges():
    dets, graph = disjoint_pair_fixture()
    lines = dump_graph(graph).strip().split("\n")
    assert len(lines) == len(graph.nodes) + graph.n_edges == 6 + 4
    assert lines[0].startswith("node 0 det frame=0")
    assert all(line.startswith(f"node {i} det ") for i, line in enumerate(lines[:6]))
    assert lines[6].startswith("edge 0 1 det-det f=")
    assert all(line.startswith("edge ") and line.endswith(" score=none")
               for line in lines[6:])
