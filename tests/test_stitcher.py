"""Clip planning, track stitching, and gap interpolation.

Track overlap arithmetic is done by hand in each fixture: intersection
counts frames where both tracks picked the same input detection, union
is members_a + members_b - intersection.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trackgraph.core import BoundingBox, Detection, Tracklet, ValidationError, box_fault
from trackgraph.ingest import (
    DetectionSet,
    ScenarioSpec,
    synthesize,
    write_detections,
    write_mot,
)
from trackgraph.stitcher import (
    ClipPlan,
    group_tracklets,
    interpolate_gaps,
    run_clipped,
    stitch,
)

from conftest import (
    record_row,
    reference_interpolate,
    reference_mot_row,
    reference_run_clipped,
    reference_stitch,
    reference_track_iou,
    reference_write_mot,
    track_rows,
)


def det(frame, idx, conf=1.0, emb=(1.0, 0.0)):
    # box x encodes the detection index so merged boxes are recognisable
    return Detection(frame, BoundingBox(float(idx), 0.0, 2.0, 2.0), conf,
                     np.asarray(emb, dtype=np.float64))


def trk(tid, *pairs):
    """pairs: (frame, det_index)"""
    return Tracklet.from_members(tid, [(i, det(f, i)) for f, i in pairs])


def members(track):
    return [(d.frame, i) for i, d in zip(track.det_indices, track.detections)]


# -------------------------------------------------------------- clip plan


def every_start_clips(dets: DetectionSet, plan: ClipPlan):
    """Brute force: scan the set at every start until a clip reaches the end.

    Returns (start, member indices, clip n_frames) for each non-empty clip.
    """
    out, s = [], 0
    while True:
        idx = [i for i, d in enumerate(dets.detections)
               if s <= d.frame < s + plan.clip_len]
        if idx:
            out.append((s, idx, min(s + plan.clip_len, dets.n_frames)))
        if s + plan.clip_len >= dets.n_frames:
            return out
        s += plan.stride


# the reference cases have a detection on every frame, so every clip holds
# one and the clip starts are 0, 256 | 0 | 0, 256, 512, 768 | 0, 256, 512
@settings(max_examples=200, deadline=None)
@given(
    plan=st.integers(2, 20).flatmap(
        lambda n: st.builds(ClipPlan, st.just(n), st.integers(1, n - 1))),
    frames=st.lists(st.one_of(st.integers(0, 60), st.integers(0, 5000)),
                    max_size=8).map(sorted),
    tail=st.integers(0, 40),
)
@example(plan=ClipPlan(512, 256), frames=list(range(700)), tail=0)
@example(plan=ClipPlan(512, 256), frames=list(range(400)), tail=0)
@example(plan=ClipPlan(512, 256), frames=list(range(1025)), tail=0)
@example(plan=ClipPlan(512, 256), frames=list(range(1024)), tail=0)
def test_clip_plan_clips_match_every_start(plan, frames, tail):
    # every third frame unlabelled, so a clip may be labelled throughout
    # while the whole set is not
    rows = [replace(det(f, i), gt_id=None if f % 3 == 0 else i) for i, f in enumerate(frames)]
    dets = DetectionSet.build(rows, n_frames=(frames[-1] + 1 if frames else 0) + tail)
    expect = every_start_clips(dets, plan)
    got = list(plan.clips(dets))
    assert len(got) == len(expect)
    for (sub, offset), (s, idx, n_frames) in zip(got, expect):
        assert offset == idx[0]
        assert ([record_row(d) for d in sub.detections]
                == [record_row(dets.detections[i]) for i in idx])
        # the slice makes its own records, but views the parent's embeddings
        assert np.shares_memory(sub.embeddings(), dets.embeddings())
        assert all(s <= d.frame < s + plan.clip_len for d in sub.detections)
        assert sub.n_frames == n_frames
        # the slice is not checked again, yet equals a set built anew
        built = DetectionSet.build(sub.detections, n_frames)
        assert sub.has_gt == built.has_gt
        assert sub.frames.tolist() == built.frames.tolist()
        assert sub.boxes.tolist() == built.boxes.tolist()
        assert sub.gt_ids.tolist() == built.gt_ids.tolist()
        assert np.array_equal(sub.embeddings(), built.embeddings())


def test_clip_plan_defaults_and_validation():
    plan = ClipPlan()
    assert plan.clip_len == 512 and plan.overlap == 256
    with pytest.raises(ValidationError):
        ClipPlan(512, 512)
    with pytest.raises(ValidationError):
        ClipPlan(512, 0)
    with pytest.raises(ValidationError):
        ClipPlan(1, 1)


# ------------------------------------------------ reference track overlap
#
# The frame-keyed reference stitch scores a pair by its track overlap
# ratio; stitch must agree with the reference on each of these pairs.


def test_track_iou_identical_is_one():
    a = trk(0, (0, 0), (1, 1), (2, 2))
    b = trk(9, (0, 0), (1, 1), (2, 2))
    assert reference_track_iou(a, b) == 1.0
    assert same_tracks(stitch([a], [b]), reference_stitch([a], [b]))


def test_track_iou_no_shared_frames_is_zero():
    a, b = trk(0, (0, 0), (1, 1)), trk(1, (5, 2), (6, 3))
    assert reference_track_iou(a, b) == 0.0
    assert same_tracks(stitch([a], [b]), reference_stitch([a], [b]))


def test_track_iou_shared_frames_different_detections_is_zero():
    a, b = trk(0, (2, 0), (3, 2)), trk(1, (2, 1), (3, 3))
    assert reference_track_iou(a, b) == 0.0
    assert same_tracks(stitch([a], [b]), reference_stitch([a], [b]))


# ----------------------------------------------------------------- stitch


def test_stitch_identical_track_merges_under_left_id():
    a = [trk(4, (0, 0), (1, 1), (2, 2), (3, 3))]
    b = [trk(7, (0, 0), (1, 1), (2, 2), (3, 3))]
    out = stitch(a, b)
    assert len(out) == 1
    assert out[0].id == 4
    assert out[0].det_indices == (0, 1, 2, 3)


def test_stitch_never_merges_frame_disjoint_tracks():
    out = stitch([trk(0, (0, 0), (1, 1))], [trk(0, (5, 2), (6, 3))])
    assert len(out) == 2
    assert sorted(t.id for t in out) == [0, 1]  # fresh id for the right track


def test_stitch_requires_an_agreement_not_just_shared_frames():
    out = stitch([trk(0, (2, 0), (3, 2))], [trk(0, (2, 1), (3, 3))])
    assert len(out) == 2
    ids = {t.id for t in out}
    assert len(ids) == 2


def test_stitch_later_clip_wins_overlap_frames():
    # agreement only at frame 1; iou 1/(3 + 3 - 1) = 0.2, still unique
    a = [trk(3, (0, 0), (1, 1), (2, 2))]
    b = [trk(0, (1, 1), (2, 3), (3, 4))]
    out = stitch(a, b)
    assert len(out) == 1
    assert out[0].id == 3
    assert members(out[0]) == [(0, 0), (1, 1), (2, 3), (3, 4)]


def test_stitch_assignment_is_globally_optimal():
    # costs: a1-b1 0.6, a1-b2 0.75, a2-b1 0.8, a2-b2 forbidden. Taking
    # the cheapest pair first would leave a2 unmatched; the optimal
    # assignment matches both rows. The b tracks reuse detections 2, 3
    # to compete for a1; the distinctive members 6 and 7 show which
    # b track each a track merged with.
    a1 = trk(0, (10, 1), (11, 2), (12, 3))
    a2 = trk(1, (13, 5), (14, 8))
    b1 = trk(0, (11, 2), (12, 3), (13, 6), (14, 8))
    b2 = trk(1, (12, 3), (13, 7))
    out = stitch([a1, a2], [b1, b2])
    assert len(out) == 2
    by_id = {t.id: t for t in out}
    assert (13, 7) in members(by_id[0])  # a1 merged with b2
    assert (13, 6) in members(by_id[1])  # a2 merged with b1
    # the shared detections 2 and 3 stay with the first track only
    assert members(by_id[0]) == [(10, 1), (11, 2), (12, 3), (13, 7)]
    assert members(by_id[1]) == [(13, 6), (14, 8)]


def test_stitch_overlap_ratio_counts_the_left_history():
    # a1 shares 2 of b's 3 detections but has 4 older members: ratio
    # 2 / (6 + 3 - 2) = 2/7. a2 shares 1: ratio 1 / (1 + 3 - 1) = 1/3.
    # Counting a1 from the right clip on only would give it 2/3 instead.
    a1 = trk(0, (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5))
    a2 = trk(1, (6, 6))
    b = trk(0, (4, 4), (5, 5), (6, 6))
    out = stitch([a1, a2], [b])
    assert out[0] is a1
    # a2 merged with b; b's detections 4 and 5 stay with a1
    assert [(t.id, members(t)) for t in out[1:]] == [(1, [(6, 6)])]


def test_stitch_returns_a_track_ending_before_the_right_clip_as_is():
    early = trk(0, (0, 0), (1, 2))
    late = trk(1, (0, 1), (1, 3), (2, 4))
    out = stitch([early, late], [trk(0, (2, 4), (3, 5))])
    assert out[0] is early
    assert members(out[1]) == [(0, 1), (1, 3), (2, 4), (3, 5)]
    assert len(out) == 2


def test_stitch_seam_starts_at_the_right_tracks_first_frame():
    # detection 0 lies below the right track's lowest index (1) but in
    # its first frame, so it is a seam member and yields to detection 1
    out = stitch([trk(0, (2, 0), (3, 2))], [trk(0, (2, 1), (3, 2))])
    assert [(t.id, members(t)) for t in out] == [(0, [(2, 1), (3, 2)])]


def test_stitch_places_a_shared_detection_once():
    # A's detection 6 sits alone in B2 while B1 matches A: A keeps it
    out = stitch([trk(0, (10, 5), (11, 6))], [trk(0, (10, 5)), trk(1, (11, 6))])
    assert [(t.id, members(t)) for t in out] == [(0, [(10, 5), (11, 6)])]


@st.composite
def clip_partitions(draw):
    """Two overlapping clips' track sets, each a partition of its detections.

    Frames [0, left_end) belong to the left clip and [right_start,
    n_frames) to the right one, as run_clipped hands them to stitch.
    """
    n_frames = draw(st.integers(2, 10))
    right_start = draw(st.integers(0, n_frames - 1))
    left_end = draw(st.integers(right_start + 1, n_frames))
    frame_of = []
    for f in range(n_frames):
        frame_of += [f] * draw(st.integers(0, 3))

    def partition(lo, hi):
        groups = {}
        for f in range(lo, hi):
            idxs = [i for i, g in enumerate(frame_of) if g == f]
            labels = draw(st.permutations(range(4)))
            for i, label in zip(idxs, labels):
                groups.setdefault(label, []).append((f, i))
        return [trk(label, *groups[label]) for label in sorted(groups)]

    return frame_of, partition(0, left_end), partition(right_start, n_frames)


@settings(max_examples=300, deadline=None)
@given(case=clip_partitions())
def test_stitch_places_every_detection_exactly_once(case):
    frame_of, left, right = case
    out = stitch(left, right)
    placed = [i for t in out for i in t.det_indices]
    assert sorted(placed) == list(range(len(frame_of)))
    for t in out:
        frames = [d.frame for d in t.detections]
        assert all(b > a for a, b in zip(frames, frames[1:]))
        assert all(frame_of[i] == d.frame for i, d in zip(t.det_indices, t.detections))
    assert len({t.id for t in out}) == len(out)


def test_stitch_empty_sides_pass_through():
    a = [trk(0, (0, 0), (1, 1))]
    assert stitch(a, []) == a
    assert stitch([], a) == a
    assert stitch([], []) == []


def test_stitch_never_doubles_a_frame():
    # merged pair agrees at frame 1 but disagrees at frame 2
    out = stitch([trk(0, (0, 0), (1, 1), (2, 2))], [trk(0, (1, 1), (2, 9))])
    assert len(out) == 1
    frames = [d.frame for d in out[0].detections]
    assert len(frames) == len(set(frames))


@st.composite
def clip_folds(draw):
    """Three to five overlapping clips over one frame-sorted set.

    Each clip's tracks are a random partition of the detections in its
    frames, with detection indices into the whole set, in random order;
    some detections are left out of every track.
    """
    stride = draw(st.integers(1, 3))
    clip_len = stride + draw(st.integers(1, 3))
    n_clips = draw(st.integers(3, 5))
    frame_of = []
    for f in range((n_clips - 1) * stride + clip_len):
        frame_of += [f] * draw(st.integers(0, 3))
    clips = []
    for k in range(n_clips):
        groups = {}
        for f in range(k * stride, k * stride + clip_len):
            idxs = [i for i, g in enumerate(frame_of) if g == f]
            labels = draw(st.permutations(range(5)))
            for i, label in zip(idxs, labels):
                groups.setdefault(label, []).append((f, i))
        groups.pop(4, None)  # label 4 marks a detection no track took
        order = draw(st.permutations(sorted(groups)))
        clips.append([trk(label, *groups[label]) for label in order])
    return clips


def same_tracks(a, b):
    return track_rows(a) == track_rows(b)


@settings(max_examples=400, deadline=None)
@given(clips=clip_folds())
def test_stitch_folds_clips_as_the_frame_keyed_reference_does(clips):
    merged = clips[0]
    for tracks in clips[1:]:
        got = stitch(merged, tracks)
        assert same_tracks(got, reference_stitch(merged, tracks))
        merged = got


# ------------------------------------------------------------ interpolate


def test_interpolate_midpoint():
    b = Detection(3, BoundingBox(2.0, 4.0, 10.0, 10.0), 0.8,
                  np.asarray([0.0, 1.0]))
    track = Tracklet.from_members(0, [(0, Detection(
        1, BoundingBox(0.0, 0.0, 10.0, 10.0), 0.6, np.asarray([1.0, 0.0]))),
        (1, b)])
    out = interpolate_gaps(track)
    assert len(out) == 3
    mid = out.detections[1]
    assert mid.frame == 2
    assert (mid.box.x, mid.box.y, mid.box.w, mid.box.h) == (1.0, 2.0, 10.0, 10.0)
    assert mid.confidence == 0.6
    assert np.array_equal(mid.embedding, np.asarray([0.5, 0.5]))
    assert out.det_indices == (0, -1, 1)


def test_interpolate_no_gaps_returns_the_same_track():
    track = trk(0, (0, 0), (1, 1), (2, 2))
    assert interpolate_gaps(track) is track


def test_interpolate_three_frame_gap():
    lo = Detection(0, BoundingBox(0.0, 0.0, 4.0, 4.0), 0.9,
                   np.asarray([1.0, 0.0]))
    hi = Detection(4, BoundingBox(8.0, 0.0, 4.0, 4.0), 0.5,
                   np.asarray([0.0, 1.0]))
    out = interpolate_gaps(Tracklet.from_members(2, [(10, lo), (11, hi)]))
    assert len(out) == 5
    assert [d.frame for d in out.detections] == [0, 1, 2, 3, 4]
    assert [d.box.x for d in out.detections] == [0.0, 2.0, 4.0, 6.0, 8.0]
    for d in out.detections[1:4]:
        assert d.confidence == 0.5
        assert np.array_equal(d.embedding, np.asarray([0.5, 0.5]))
    assert out.det_indices == (10, -1, -1, -1, 11)
    # endpoints untouched
    assert record_row(out.detections[0]) == record_row(lo)
    assert record_row(out.detections[4]) == record_row(hi)


def test_interpolate_refuses_an_overflowing_box_or_embedding():
    # each endpoint is valid, but the midpoint of a 1e200 x 1 box and a
    # 1 x 1e200 box is about 5e199 on a side, an area past any float
    lo = Detection(0, BoundingBox(0.0, 0.0, 1e200, 1.0), 0.9, np.asarray([1e308]))
    hi = Detection(2, BoundingBox(0.0, 0.0, 1.0, 1e200), 0.9, np.asarray([1.0]))
    with pytest.raises(ValidationError, match="positive area"):
        interpolate_gaps(Tracklet.from_members(0, [(0, lo), (1, hi)]))
    # the mean of two large embeddings overflows before its halving
    hi = replace(lo, frame=2, embedding=np.asarray([1e308]))
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
        interpolate_gaps(Tracklet.from_members(0, [(0, lo), (1, hi)]))


def test_interpolate_preserves_id_and_multiple_gaps():
    track = trk(5, (0, 0), (2, 1), (4, 2))
    out = interpolate_gaps(track)
    assert out.id == 5
    assert [d.frame for d in out.detections] == [0, 1, 2, 3, 4]
    assert out.det_indices == (0, -1, 1, -1, 2)


# ------------------------------------------------------------ run_clipped


def oracle_pipeline(sub: DetectionSet):
    """One id per clip detection: its ground-truth id's rank in the clip."""
    return np.unique(sub.gt_ids, return_inverse=True)[1]


def partition(dets: DetectionSet, tracks) -> set[frozenset]:
    out = []
    for t in tracks:
        out.append(frozenset(
            (d.frame, i) for i, d in zip(t.det_indices, t.detections) if i >= 0
        ))
    return set(out)


def gt_partition(dets: DetectionSet) -> set[frozenset]:
    groups = {}
    for i, d in enumerate(dets.detections):
        groups.setdefault(d.gt_id, set()).add((d.frame, i))
    return {frozenset(v) for v in groups.values()}


def test_run_clipped_short_video_is_a_single_clip():
    dets = synthesize(ScenarioSpec(n_objects=2, n_frames=30, seed=0))
    tracks = run_clipped(dets, ClipPlan(512, 256), oracle_pipeline)
    assert partition(dets, tracks) == gt_partition(dets)


def test_run_clipped_chains_overlapping_clips():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=700, seed=3))
    tracks = run_clipped(dets, ClipPlan(512, 256), oracle_pipeline)
    assert len(tracks) == 3
    assert partition(dets, tracks) == gt_partition(dets)


def test_run_clipped_many_clips():
    dets = synthesize(ScenarioSpec(n_objects=2, n_frames=700, seed=5))
    tracks = run_clipped(dets, ClipPlan(256, 128), oracle_pipeline)
    assert partition(dets, tracks) == gt_partition(dets)


def test_run_clipped_tracks_only_the_clips_holding_a_detection():
    far = 10**12
    dets = DetectionSet.build([det(0, 0), det(far, 1)])
    calls = []

    def pipeline(sub):
        calls.append(sub.frames.tolist())
        return np.zeros(len(sub), dtype=np.int64)

    tracks = run_clipped(dets, ClipPlan(512, 256), pipeline)
    assert calls == [[0], [far]]
    assert [members(t) for t in tracks] == [[(0, 0)], [(far, 1)]]


def test_run_clipped_refuses_a_result_that_is_not_one_id_per_detection():
    dets = synthesize(ScenarioSpec(n_objects=2, n_frames=30, seed=0))
    wrong = [
        lambda sub: np.zeros(len(sub) + 1, dtype=np.int64),  # one id too many
        lambda sub: np.zeros(len(sub) - 1, dtype=np.int64),  # one too few
        lambda sub: np.zeros((len(sub), 1), dtype=np.int64),  # a column, not ids
        lambda sub: np.zeros(len(sub)),  # floats
        lambda sub: [Tracklet.from_members(0, [(0, sub.detections[0])])],  # records
    ]
    for pipeline in wrong:
        with pytest.raises(ValidationError, match="align"):
            run_clipped(dets, ClipPlan(512, 256), pipeline)


def test_group_tracklets_makes_each_track_at_the_video_indices():
    dets = DetectionSet.build([det(0, 0), det(0, 1), det(1, 2), det(2, 3), det(2, 4)])
    # the clip is video detections 1 to 3
    tracks = group_tracklets(dets, np.asarray([5, 2, 5]), 1, 3)
    assert [(t.id, members(t)) for t in tracks] == [(2, [(1, 2)]), (5, [(0, 1), (2, 3)])]
    assert all(record_row(d) == record_row(dets.detections[i])
               for t in tracks for i, d in zip(t.det_indices, t.detections))
    # an id may hold one detection per frame
    with pytest.raises(ValidationError, match="0 then 0"):
        group_tracklets(dets, np.asarray([0, 0, 1]), 0, 3)


@st.composite
def clipped_videos(draw):
    """A frame layout and a clip plan.

    Up to three detections a frame, some frames empty and some past the
    last detection.
    """
    frame_of = []
    for f in range(draw(st.integers(1, 24))):
        frame_of += [f] * draw(st.integers(0, 3))
    tail = draw(st.integers(0, 6))
    clip_len = draw(st.integers(2, 8))
    plan = ClipPlan(clip_len, draw(st.integers(1, clip_len - 1)))
    rows = [det(f, i) for i, f in enumerate(frame_of)]
    return DetectionSet.build(rows, n_frames=(frame_of[-1] + 1 if frame_of else 0) + tail), plan


def per_frame_ids(data):
    """A clip pipeline drawing a permutation of 0-3 over each frame's
    detections, so an id holds at most one detection a frame. It records
    each call's frames and ids."""
    calls = []

    def pipeline(sub):
        ids = np.empty(len(sub), dtype=np.int64)
        for f in np.unique(sub.frames).tolist():
            at = np.flatnonzero(sub.frames == f)
            ids[at] = data.draw(st.permutations(range(4)))[: at.size]
        calls.append((sub.frames.tolist(), ids))
        return ids

    return pipeline, calls


@settings(max_examples=300, deadline=None)
@given(case=clipped_videos(), data=st.data())
def test_run_clipped_folds_clip_ids_as_the_reference_does(case, data):
    dets, plan = case
    pipeline, calls = per_frame_ids(data)
    got = run_clipped(dets, plan, pipeline)
    # the reference: each clip's ids grouped into tracks at the video's
    # indices, folded by the frame-keyed reference stitch, interpolated
    clips = every_start_clips(dets, plan)
    assert len(calls) == len(clips)
    for (_, idx, _), (frames, _) in zip(clips, calls):
        assert frames == [dets.detections[i].frame for i in idx]
    expect = reference_run_clipped(dets, [(idx[0], ids) for (_, idx, _), (_, ids)
                                          in zip(clips, calls)])
    assert track_rows(got) == track_rows(expect)
    placed = [i for t in got for i in t.det_indices if i >= 0]
    assert sorted(placed) == list(range(len(dets)))


# box values whose repr has an exponent, a minus sign or a signed zero
COORDS = st.sampled_from([-1.5e16, -2.5, -0.0, 0.0, 1e-05, 3.25e-07, 7.0, 1.5e16])
SIDES = st.sampled_from([1e-05, 2.5e-07, 3.0, 1.5e16])
CONFIDENCES = st.sampled_from([-0.0, 0.0, 1e-05, 0.5, 1.0])


@st.composite
def spelled_videos(draw):
    """A frame layout with empty frames, boxes and confidences spelled with
    exponents and signs, some identities, and a clip plan."""
    frame_of = []
    for f in range(draw(st.integers(0, 24))):
        frame_of += [f] * draw(st.integers(0, 3))
    n = len(frame_of)
    boxes = [[draw(COORDS), draw(COORDS), draw(SIDES), draw(SIDES)] for _ in range(n)]
    dets = DetectionSet(frame_of, np.asarray(boxes).reshape(n, 4),
                        [draw(CONFIDENCES) for _ in range(n)],
                        [draw(st.sampled_from([-1, 0, 7])) for _ in range(n)],
                        (frame_of[-1] + 1 if n else 0) + draw(st.integers(0, 6)),
                        [[draw(st.sampled_from([-1.0, 0.5, 2.0])), 1.0] for _ in range(n)])
    clip_len = draw(st.integers(2, 8))
    return dets, ClipPlan(clip_len, draw(st.integers(1, clip_len - 1)))


@settings(max_examples=200, deadline=None)
@given(case=spelled_videos(), data=st.data())
def test_written_tracks_match_the_record_reference_byte_for_byte(case, data, tmp_path_factory):
    dets, plan = case
    pipeline, calls = per_frame_ids(data)
    out = tmp_path_factory.getbasetemp() / "spelled.txt"
    text = write_mot(out, run_clipped(dets, plan, pipeline))
    clips = [(offset, ids) for (_, offset), (_, ids) in zip(plan.clips(dets), calls)]
    expect = reference_write_mot(reference_run_clipped(dets, clips))
    assert out.read_bytes() == text.encode() == expect.encode()
    if not len(dets):
        assert out.read_bytes() == b""
    # the input rows, in set order, through the same formatter
    write_detections(out, dets)
    assert out.read_bytes() == "".join(
        reference_mot_row(-1 if d.gt_id is None else d.gt_id, d) for d in dets.detections).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_interpolate_matches_the_record_reference(data):
    # gaps of up to 3 frames between members large enough that an
    # inserted box or a mean embedding may overflow; both must fill the
    # same rows bit for bit, or refuse with the same message
    n = data.draw(st.integers(1, 6))
    frames = np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    coord = st.sampled_from([-1.7e308, -2.5, -0.0, 0.0, 1e-05, 3.0, 1e200, 1.7e308])
    side = st.sampled_from([1e-05, 1.0, 2.5, 1e200])
    members = []
    for i, f in enumerate(frames.tolist()):
        box = [data.draw(coord), data.draw(coord), data.draw(side), data.draw(side)]
        assume(box_fault(*box) is None)
        members.append((i, Detection(f, BoundingBox(*box), data.draw(CONFIDENCES),
                                     np.asarray([data.draw(st.sampled_from([-3.0, 1.0, 1e308]))]),
                                     data.draw(st.sampled_from([None, 0, 4])))))
    track = Tracklet.from_members(data.draw(st.integers(0, 5)), members)

    def outcome(fill):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return repr(track_rows([fill(track)]))
        except ValidationError as exc:
            return f"refused: {exc}"

    assert outcome(interpolate_gaps) == outcome(reference_interpolate)


def test_run_clipped_refuses_an_overflowing_interpolated_box_or_embedding():
    # each detection is valid; the box or mean embedding filled between
    # them is not, and run_clipped's caller sees interpolate_gaps' refusal
    def video(box, embedding):
        return DetectionSet([0, 2], [[0.0, 0.0, 1e200, 1.0], box], [0.9, 0.9], [-1, -1], 3,
                            [[1e308], embedding])

    def one_track(sub):
        return np.zeros(len(sub), dtype=np.int64)

    with pytest.raises(ValidationError, match="positive area"):
        run_clipped(video([0.0, 0.0, 1.0, 1e200], [1.0]), ClipPlan(512, 256), one_track)
    with pytest.raises(ValidationError, match="finite"):
        run_clipped(video([0.0, 0.0, 1e200, 1.0], [1e308]), ClipPlan(512, 256), one_track)


def test_run_clipped_interpolates_occlusion_gaps():
    spec = ScenarioSpec(n_objects=1, n_frames=20, seed=1,
                        occlusions=((1, 5, 3),))
    dets = synthesize(spec)
    assert len(dets) == 17
    tracks = run_clipped(dets, ClipPlan(512, 256), oracle_pipeline)
    assert len(tracks) == 1
    t = tracks[0]
    assert [d.frame for d in t.detections] == list(range(20))
    filled = [d.frame for i, d in zip(t.det_indices, t.detections) if i == -1]
    assert filled == [5, 6, 7]
    # straight constant-speed motion: interpolation lands on the true path
    x4 = t.detections[4].box.x
    x8 = t.detections[8].box.x
    assert t.detections[6].box.x == pytest.approx((x4 + x8) / 2)
