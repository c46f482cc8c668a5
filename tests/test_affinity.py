import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_links, gated_pair_score, iou, shares_a_window, window_starts
from trackgraph.affinity import (
    TrackSums,
    WindowPlan,
    accumulate_affinity,
    cosine_scorer,
    oracle_scorer,
    step_cost,
)
from trackgraph.builder import BuilderConfig, associate_frames
from trackgraph.core import BoundingBox, Detection, ValidationError, box_corners, box_rows
from trackgraph.ingest import DetectionSet, ScenarioSpec, synthesize


def det(frame, emb, gt_id=None, x=0.0):
    return Detection(
        frame=frame,
        box=BoundingBox(x, 0.0, 10.0, 10.0),
        confidence=1.0,
        embedding=np.asarray(emb, dtype=np.float64),
        gt_id=gt_id,
    )


def simple_set(frames, gt=None):
    gt = gt or [None] * len(frames)
    dets = [det(f, [1.0, 0.0], g) for f, g in zip(frames, gt)]
    return DetectionSet.build(dets)


def constant_scorer(value):
    """Every pair scores value: zero vectors, offset value, divisor 1."""
    return lambda ds: (np.zeros((len(ds), 1)), value, 1.0)


def gated_sums(aff, owner, frame):
    """TrackSums of detections 0 .. len(owner) - 1, detection i in track
    owner[i], as association keeps them on reaching frame.

    The detections join their tracks one by one, and the gate rises
    before each frame, and before frame, as association raises it.
    """
    owner = np.asarray(owner, dtype=np.int64)
    sums = TrackSums(aff, int(owner.max(initial=-1)) + 1)
    frames = aff.frames[: owner.size]
    for t in np.unique(frames).tolist() + [frame]:
        s = int(np.searchsorted(frames, t))
        g = int(np.searchsorted(aff.window_end, t, side="right"))
        if g > sums.lo:
            sums.drop(owner, g, s)
        for i in range(s, int(np.searchsorted(frames, t, side="right"))):
            sums.add(owner[i: i + 1], np.asarray([i]))
    return sums


def pair_matrix(aff, frames):
    """(n, n) affinity of every pair, read one frame at a time.

    Every earlier detection is a track of its own, gated as association
    gates it, and each frame's detections are the columns of the
    tracks' means; same-frame pairs read 0.
    """
    frames = np.asarray(frames)
    out = np.zeros((frames.size, frames.size))
    for t in np.unique(frames):
        cols = np.flatnonzero(frames == t)
        rows = np.arange(cols[0])
        if rows.size:
            sums = gated_sums(aff, rows, t)
            out[np.ix_(rows, cols)] = sums.means(rows, np.ones(rows.size), cols)
    return out + out.T


# ------------------------------------------------------------ window plan


def test_window_starts_cover_clip():
    # 64 frames with window 32 and step 16 -> starts 0, 16, 32
    assert window_starts(WindowPlan(64, 32, 16)) == [0, 16, 32]


def test_window_starts_single_window_when_clip_fits():
    assert window_starts(WindowPlan(32, 32, 16)) == [0]
    assert window_starts(WindowPlan(10, 10, 5)) == [0]


def test_window_starts_cover_ragged_tail():
    # smallest start multiple of step with start + window >= clip
    assert window_starts(WindowPlan(70, 32, 16)) == [0, 16, 32, 48]


def test_window_starts_with_origin():
    assert window_starts(WindowPlan(64, 32, 16), origin=100) == [100, 116, 132]


def test_window_plan_validation():
    with pytest.raises(ValidationError):
        WindowPlan(64, 16, 32)  # step > window
    with pytest.raises(ValidationError):
        WindowPlan(8, 16, 4)  # window > clip
    with pytest.raises(ValidationError):
        WindowPlan(64, 32, 0)


def test_window_end_is_furthest_end_of_any_window_holding_the_frame():
    plan = WindowPlan(70, 32, 16)  # starts 0, 16, 32, 48
    frames = np.asarray([0, 15, 16, 47, 48, 69])
    assert plan.window_end(frames).tolist() == [32, 32, 48, 64, 80, 80]
    assert plan.window_end(frames + 100, origin=100).tolist() == [132, 132, 148,
                                                                  164, 180, 180]


@st.composite
def plans_and_frames(draw):
    clip_len = draw(st.integers(1, 60))
    window = draw(st.integers(1, clip_len))
    step = draw(st.integers(1, window))
    origin = draw(st.integers(0, 50))
    frames = draw(st.lists(st.integers(origin, origin + clip_len - 1), max_size=25))
    return WindowPlan(clip_len, window, step), origin, sorted(frames)


@settings(max_examples=300, deadline=None)
@given(case=plans_and_frames())
def test_window_gate_and_pair_count_match_brute_force(case):
    plan, origin, frames = case
    clip = np.arange(origin, origin + plan.clip_len)
    # the closed-form window count against the listed starts
    assert plan.window_end(clip, origin).tolist() == [
        max(s for s in window_starts(plan, origin) if s <= f) + plan.window for f in clip]
    ds = simple_set(frames)
    aff = accumulate_affinity(ds, plan, constant_scorer(0.5), origin=origin)
    n = len(frames)
    expect = np.asarray(
        [[fa != fb and shares_a_window(plan, origin, fa, fb) for fb in frames]
         for fa in frames],
        dtype=bool,
    ).reshape(n, n)
    assert np.array_equal(pair_matrix(aff, frames), np.where(expect, 0.5, 0.0))
    assert len(aff) == int(np.triu(expect, k=1).sum())


# --------------------------------------------------------------- scorers


def scored(scorer, embs, gt=None):
    """Dense matrix of a scorer: (offset + vector dot products) / divisor."""
    gt = gt if gt is not None else [None] * len(embs)
    ds = DetectionSet.build([det(f, e, g) for f, (e, g) in enumerate(zip(embs, gt))])
    vectors, offset, divisor = scorer(ds)
    return (offset + vectors @ vectors.T) / divisor


def test_cosine_scorer_reference_points():
    s = scored(cosine_scorer, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert s[0, 1] == pytest.approx(1.0)  # identical
    assert s[0, 2] == pytest.approx(0.5)  # orthogonal
    assert s[0, 3] == pytest.approx(0.0)  # opposite


def test_cosine_scorer_scale_invariant():
    s1 = scored(cosine_scorer, [[2.0, 0.0], [0.0, 3.0]])
    s2 = scored(cosine_scorer, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(s1, s2)


def test_cosine_scorer_rejects_zero_vector():
    with pytest.raises(ValidationError):
        scored(cosine_scorer, [[0.0, 0.0], [1.0, 0.0]])


def test_oracle_scorer_is_identity_indicator():
    s = scored(oracle_scorer, np.eye(3), gt=[5, 7, 5])
    assert s[0, 2] == 1.0 and s[2, 0] == 1.0
    assert s[0, 1] == 0.0 and s[1, 2] == 0.0


def test_oracle_scorer_needs_identities():
    with pytest.raises(ValidationError):
        scored(oracle_scorer, np.eye(2), gt=[1, None])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([1, 2, 3, 16]),
       n_tracks=st.integers(1, 4), n_members=st.integers(0, 40),
       scale=st.sampled_from([1.0, 1e-160]), window=st.integers(1, 14))
# 1-d embeddings this small normalise to values near but not at +-1, so
# one track's sum depends on the order of addition
@example(seed=0, dim=1, n_tracks=1, n_members=30, scale=1e-160, window=14)
@example(seed=0, dim=1, n_tracks=1, n_members=30, scale=1e-160, window=6)
def test_cosine_track_sums_add_members_in_the_given_order(seed, dim, n_tracks, n_members,
                                                          scale, window):
    # a track's unit vectors are summed one by one in member order, as
    # np.add.at sums the gated ones from zero, whether they joined match
    # by match or were summed again after the gate dropped a member
    rng = np.random.default_rng(seed)
    shape = (n_members + 3, dim)
    emb = scale * rng.uniform(1.0, 9.0, shape) * rng.choice([-1, 1], shape)
    frames = [f // 3 for f in range(n_members)] + [n_members // 3 + 1] * 3
    ds = DetectionSet.build([det(f, e) for f, e in zip(frames, emb)])
    window = min(window, frames[-1] + 1)
    plan = WindowPlan(frames[-1] + 1, window, max(1, window // 2))
    aff = accumulate_affinity(ds, plan, cosine_scorer)
    owner = rng.integers(n_tracks, size=n_members)
    sums = gated_sums(aff, owner, frames[-1])
    unit = ds.embeddings() / np.linalg.norm(ds.embeddings(), axis=1)[:, None]
    gated = np.flatnonzero(aff.window_end[:n_members] > frames[-1])
    summed = np.zeros((int(owner.max(initial=-1)) + 1, dim))
    np.add.at(summed, owner[gated], unit[gated])
    assert np.array_equal(sums.sums, summed)
    count = np.bincount(owner[gated], minlength=summed.shape[0])
    assert np.array_equal(sums.members, count)
    # a track's means: (gated count + sum . unit vector) / 2 over its members
    tracks = np.flatnonzero(np.bincount(owner, minlength=summed.shape[0]))
    cols = np.arange(n_members, n_members + 3)
    sizes = np.bincount(owner)[tracks]
    expect = (count[tracks, None] + np.einsum("ik,jk->ij", summed[tracks], unit[cols])) / 2.0
    expect = np.clip(expect / sizes[:, None], 0.0, 1.0)
    assert np.array_equal(sums.means(tracks, sizes, cols), expect)


# ------------------------------------------------------------ track rows


def test_single_window_scores_stored_verbatim():
    ds = simple_set([0, 1, 2])
    plan = WindowPlan(clip_len=8, window=8, step=4)
    aff = accumulate_affinity(ds, plan, constant_scorer(0.7))
    assert len(aff) == 3  # pairs (0,1), (0,2), (1,2)
    sums = gated_sums(aff, [0, 1], 2)
    assert sums.means(np.arange(2), np.ones(2), np.asarray([2])).tolist() == [[0.7], [0.7]]
    sums = gated_sums(aff, [0], 1)
    assert sums.means(np.arange(1), np.ones(1), np.asarray([1])).tolist() == [[0.7]]


def test_same_frame_pairs_never_stored():
    ds = simple_set([0, 0, 1])
    plan = WindowPlan(clip_len=4, window=4, step=2)
    aff = accumulate_affinity(ds, plan, constant_scorer(1.0))
    assert len(aff) == 2
    assert pair_matrix(aff, [0, 0, 1]).tolist() == [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]


def window_averaged(ds, plan, origin):
    """Reference: score every window as a dense block, average per pair.

    Reproduces the windowed (sum, count) accumulation the pair gate
    replaced: cosine blocks over each window's detections, cross-frame
    upper-triangle pairs only.
    """
    frames = np.asarray([d.frame for d in ds.detections])
    emb = ds.embeddings()
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    sums, counts = {}, {}
    for start in window_starts(plan, origin):
        idx = np.flatnonzero((frames >= start) & (frames < start + plan.window))
        block = np.clip((1.0 + unit[idx] @ unit[idx].T) / 2.0, 0.0, 1.0)
        for a in range(idx.size):
            for b in range(a + 1, idx.size):
                if frames[idx[a]] != frames[idx[b]]:
                    key = (int(idx[a]), int(idx[b]))
                    sums[key] = sums.get(key, 0.0) + block[a, b]
                    counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


@pytest.mark.parametrize("step,start", [(16, 0), (8, 0), (5, 40)])
def test_lookup_matches_window_averaging_reference(step, start):
    spec = ScenarioSpec(n_objects=4, n_frames=120, seed=21, embedding_noise_sigma=0.1)
    ds = DetectionSet.build(
        [d for d in synthesize(spec).detections if start <= d.frame < start + 80],
        n_frames=start + 80,
    )
    plan = WindowPlan(clip_len=80, window=32, step=step)
    aff = accumulate_affinity(ds, plan, cosine_scorer, origin=start)
    ref = window_averaged(ds, plan, start)
    vals = pair_matrix(aff, [d.frame for d in ds.detections])
    expect = np.zeros_like(vals)
    for (a, b), v in ref.items():
        expect[a, b] = expect[b, a] = v
    assert len(aff) == len(ref)
    assert np.max(np.abs(vals - expect)) <= 1e-15
    assert np.array_equal(vals == 0.0, expect == 0.0)


def test_oracle_affinity_nonzero_iff_same_identity():
    spec = ScenarioSpec(n_objects=3, n_frames=40, seed=4)
    ds = synthesize(spec)
    plan = WindowPlan(clip_len=40, window=16, step=8)
    aff = accumulate_affinity(ds, plan, oracle_scorer)
    gt = np.asarray([d.gt_id for d in ds.detections])
    frames = np.asarray([d.frame for d in ds.detections])
    vals = pair_matrix(aff, frames)
    shared = np.asarray(
        [[fa != fb and shares_a_window(plan, 0, fa, fb) for fb in frames]
         for fa in frames]
    )
    assert shared.any()
    assert np.array_equal(vals, (shared & (gt[:, None] == gt)).astype(float))


def test_empty_set_gives_empty_matrix():
    ds = DetectionSet.build([])
    aff = accumulate_affinity(ds, WindowPlan(8, 8, 4), cosine_scorer)
    assert len(aff) == 0
    assert aff.vectors.shape == (0, 0)
    none = np.asarray([], dtype=np.int64)
    assert TrackSums(aff, 0).means(none, none, none).shape == (0, 0)


def test_detections_outside_clip_rejected():
    ds = simple_set([0, 100])
    with pytest.raises(ValidationError):
        accumulate_affinity(ds, WindowPlan(clip_len=50, window=32, step=16), cosine_scorer)


# ----------------------------------------------------------- cost matrix


def clip_set(frames, embs, plan, boxes=None):
    """Detections with the given frames, embeddings and boxes, and their
    cosine affinity."""
    boxes = boxes or [BoundingBox(30.0 * k, 0.0, 10.0, 10.0) for k in range(len(frames))]
    ds = DetectionSet.build([
        Detection(f, b, 1.0, np.asarray(e, dtype=np.float64), None)
        for f, e, b in zip(frames, embs, boxes)
    ])
    return ds, accumulate_affinity(ds, plan, cosine_scorer)


def clip_affinity(frames, embs, plan):
    """Cosine affinity of detections with the given frames and embeddings."""
    return clip_set(frames, embs, plan)[1]


def track_means(aff, members_in_window, frame_dets):
    """TrackSums means of tracks owning the given members, on frame_dets.

    Track r owns list r; every other earlier detection is a track of
    its own, which is not scored.
    """
    n = int(frame_dets[0])
    owner = np.full(n, -1)
    for r, mem in enumerate(members_in_window):
        owner[mem] = r
    spare = owner < 0
    owner[spare] = len(members_in_window) + np.arange(int(spare.sum()))
    sums = gated_sums(aff, owner, int(aff.frames[frame_dets[0]]))
    sizes = np.asarray([len(m) for m in members_in_window])
    return sums.means(np.arange(len(members_in_window)), sizes, frame_dets)


def corners(boxes):
    return box_corners(box_rows(boxes))


# cosines 0.2 and 1 to the last detection score 0.6 and 1.0
MEAN_08 = ([0, 1, 2], [[0.2, np.sqrt(0.96)], [1.0, 0.0], [1.0, 0.0]])


def test_appearance_matrix_means_member_similarities():
    # members 0 and 1 score 0.6 and 1.0 against detection 2 -> mean 0.8
    aff = clip_affinity(*MEAN_08, WindowPlan(8, 8, 4))
    m = track_means(aff, [[0, 1]], np.asarray([2]))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(0.8)


def test_appearance_matrix_missing_pairs_count_as_zero():
    # windows start at 0, 2 and 4: member 1 (frame 3, cosine 0.8) shares
    # one with frame 5, member 0 (frame 1, cosine 1) does not
    aff = clip_affinity([1, 3, 5], [[1.0, 0.0], [0.8, 0.6], [1.0, 0.0]],
                        WindowPlan(8, 4, 2))
    m = track_means(aff, [[0, 1]], np.asarray([2]))
    assert m[0, 0] == pytest.approx(0.45)


def test_step_cost_takes_max_of_appearance_and_iou():
    # appearance mean 0.8 vs iou 0 -> cost -0.8
    aff = clip_affinity(*MEAN_08, WindowPlan(8, 8, 4))
    big = BoundingBox(0.0, 0.0, 10.0, 10.0)
    near = BoundingBox(0.0, 30.0, 10.0, 10.0)  # iou 0 with big
    m_bar = track_means(aff, [[0, 1]], np.asarray([2]))
    C = step_cost(m_bar, corners([big]), corners([near]))
    assert m_bar[0, 0] == pytest.approx(0.8)
    assert C[0, 0] == pytest.approx(-0.8)


def test_step_cost_prefers_iou_when_appearance_weak():
    # opposite embeddings score 0
    aff = clip_affinity([0, 1], [[1.0, 0.0], [-1.0, 0.0]], WindowPlan(2, 2, 1))
    b = BoundingBox(0.0, 0.0, 10.0, 10.0)
    C = step_cost(track_means(aff, [[0]], np.asarray([1])), corners([b]), corners([b]))
    # stationary identical box, no appearance signal: cost -1 via iou
    assert C[0, 0] == pytest.approx(-1.0)


def test_step_cost_entries_bounded():
    rng = np.random.default_rng(5)
    aff = clip_affinity([0, 1, 2, 3] + [4] * 5, rng.normal(size=(9, 4)), WindowPlan(5, 5, 5))
    boxes = [BoundingBox(rng.uniform(0, 50), rng.uniform(0, 50), 5, 5) for _ in range(3)]
    fboxes = [BoundingBox(rng.uniform(0, 50), rng.uniform(0, 50), 5, 5) for _ in range(5)]
    m_bar = track_means(aff, [[0], [1, 2], [3]], np.arange(4, 9))
    C = step_cost(m_bar, corners(boxes), corners(fboxes))
    assert np.all(C <= 0.0) and np.all(C >= -1.0)


def test_step_cost_rejects_empty_member_window():
    # a track with no member left in the lookback gets no cost row, so a
    # detection that it would match perfectly starts a track of its own
    b = BoundingBox(0.0, 0.0, 10.0, 10.0)
    ds, aff = clip_set([0, 3], [[1.0, 0.0], [1.0, 0.0]], WindowPlan(4, 4, 2), [b, b])
    owner, links = associate_frames(ds, aff, BuilderConfig(lookback=3))
    assert owner.tolist() == [0, 0]
    assert_links(links, [0], [1])
    owner, links = associate_frames(ds, aff, BuilderConfig(lookback=2))
    assert owner.tolist() == [0, 1]
    assert_links(links, [], [])


def brute_force_rows(members_in_window, frame_dets, dets, plan, origin, oracle):
    """Each track's mean of its members' gated pair scores, pair by pair."""
    return np.asarray([
        [sum(gated_pair_score(dets, plan, origin, i, j, oracle) for i in members)
         / len(members) for j in frame_dets]
        for members in members_in_window
    ]).reshape(len(members_in_window), len(frame_dets))


def assert_rows_match(rows, ref, oracle):
    """Oracle rows count exactly; cosine rows sum in another order."""
    assert np.array_equal(rows == 0.0, ref == 0.0)
    if oracle:
        assert np.array_equal(rows, ref)
    else:
        assert np.max(np.abs(rows - ref), initial=0.0) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(case=plans_and_frames(), seed=st.integers(0, 10_000), oracle=st.booleans(),
       n_tracks=st.integers(1, 4))
def test_track_rows_equal_mean_of_gated_pair_scores(case, seed, oracle, n_tracks):
    plan, origin, frames = case
    assume(frames and frames[0] < frames[-1])
    rng = np.random.default_rng(seed)
    dets = DetectionSet.build([det(f, rng.normal(size=8), int(rng.integers(3)))
                               for f in frames])
    scorer = oracle_scorer if oracle else cosine_scorer
    aff = accumulate_affinity(dets, plan, scorer, origin=origin)
    # the last frame's detections against tracks of earlier members
    fd = np.flatnonzero(np.asarray(frames) == frames[-1])
    owner = rng.integers(n_tracks, size=fd[0])
    members = [np.flatnonzero(owner == r).tolist() for r in range(n_tracks)]
    members = [m for m in members if m]
    rows = track_means(aff, members, fd)
    assert_rows_match(rows, brute_force_rows(members, fd, dets, plan, origin, oracle), oracle)


def scalar_step_cost(members_in_window, last_boxes, frame_dets, frame_boxes,
                     dets, plan, oracle):
    """Reference step cost: one scored pair and one iou call per pair."""
    m_bar = brute_force_rows(members_in_window, frame_dets, dets, plan, 0, oracle)
    m_hat = np.asarray([[iou(lb, fb) for fb in frame_boxes] for lb in last_boxes])
    return -np.maximum(m_bar, m_hat), m_bar


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_tracks=st.integers(1, 4),
    n_d=st.integers(1, 4),
    step=st.sampled_from([2, 4, 8]),
    oracle=st.booleans(),
)
def test_step_cost_matrix_matches_scalar_reference(seed, n_tracks, n_d, step, oracle):
    # 14 earlier frames of 2 detections each, then one frame of n_d; an
    # 8-frame window leaves some member pairs outside every window
    rng = np.random.default_rng(seed)
    frames = [f for f in range(14) for _ in range(2)] + [14] * n_d
    dets = DetectionSet.build([
        Detection(f, BoundingBox(*np.round(rng.uniform(0, 6, 2), 1),
                                 *np.round(rng.uniform(1, 4, 2), 1)),
                  1.0, rng.normal(size=4), int(rng.integers(3)))
        for f in frames
    ])
    plan = WindowPlan(clip_len=15, window=8, step=step)
    aff = accumulate_affinity(dets, plan, oracle_scorer if oracle else cosine_scorer)
    # some earlier detections join no scored track
    owner = np.where(rng.random(28) < 0.7, rng.integers(n_tracks, size=28), -1)
    members = [m for m in (np.flatnonzero(owner == r).tolist() for r in range(n_tracks)) if m]
    assume(members)
    last = [dets.detections[m[-1]].box for m in members]
    fd = np.arange(28, 28 + n_d)
    fboxes = [dets.detections[j].box for j in fd]
    m_bar = track_means(aff, members, fd)
    C = step_cost(m_bar, corners(last), corners(fboxes))
    ref_C, ref_m_bar = scalar_step_cost(members, last, fd, fboxes, dets, plan, oracle)
    assert_rows_match(m_bar, ref_m_bar, oracle)
    assert_rows_match(C, ref_C, oracle)
