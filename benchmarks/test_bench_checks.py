"""The benchmark's checkers, each fed hand-made inputs that break them.

Run with: python3 -m pytest benchmarks/test_bench_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from trackgraph.core import BoundingBox, Detection, Tracklet  # noqa: E402
from trackgraph.ingest import DetectionSet, ScenarioSpec, ground_truth  # noqa: E402
from trackgraph.metrics import idf1  # noqa: E402


def _det(frame, x):
    return Detection(frame, BoundingBox(x, 10.0, 5.0, 5.0), 1.0, np.ones(4))


def _inputs():
    dets = [_det(0, 0.0), _det(1, 2.0), _det(3, 6.0), _det(0, 50.0)]
    frames = np.asarray([d.frame for d in dets])
    boxes = np.asarray([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets])
    return dets, frames, boxes


def _track(tid, members):
    return Tracklet.from_members(tid, members)


def test_clean_tracks_pass_with_interpolation():
    dets, frames, boxes = _inputs()
    gap = _det(2, 4.0)  # halfway between frame 1 (x=2) and frame 3 (x=6)
    tracks = [_track(0, [(0, dets[0]), (1, dets[1]), (-1, gap), (2, dets[2])]),
              _track(1, [(3, dets[3])])]
    assert checks.check_tracks(tracks, boxes, frames) == 0


def test_duplicated_detection_is_counted():
    dets, frames, boxes = _inputs()
    # detection 2 sits in tracks 0 and 1
    tracks = [_track(0, [(0, dets[0]), (1, dets[1]), (2, dets[2])]),
              _track(1, [(2, dets[2])]),
              _track(2, [(3, dets[3])])]
    assert checks.check_tracks(tracks, boxes, frames) == 1


def test_missing_detection_fails():
    dets, frames, boxes = _inputs()
    tracks = [_track(0, [(0, dets[0]), (1, dets[1]), (2, dets[2])])]
    with pytest.raises(checks.CheckFailed, match="no track"):
        checks.check_tracks(tracks, boxes, frames)


def test_moved_box_fails():
    dets, frames, boxes = _inputs()
    moved = _det(1, 2.5)
    tracks = [_track(0, [(0, dets[0]), (1, moved), (2, dets[2])]),
              _track(1, [(3, dets[3])])]
    with pytest.raises(checks.CheckFailed, match="box differs"):
        checks.check_tracks(tracks, boxes, frames)


def test_interpolated_box_off_segment_fails():
    dets, frames, boxes = _inputs()
    off = _det(2, 4.5)
    tracks = [_track(0, [(0, dets[0]), (1, dets[1]), (-1, off), (2, dets[2])]),
              _track(1, [(3, dets[3])])]
    with pytest.raises(checks.CheckFailed, match="off its segment"):
        checks.check_tracks(tracks, boxes, frames)


def test_backward_edge_fails():
    spans = np.asarray([[0, 2], [3, 5], [6, 6]])
    checks.check_forward_edges(spans, np.asarray([0, 1]), np.asarray([1, 2]))
    with pytest.raises(checks.CheckFailed, match="forward in time"):
        checks.check_forward_edges(spans, np.asarray([0, 2]), np.asarray([1, 1]))
    # touching spans share a frame, so the edge does not move forward
    with pytest.raises(checks.CheckFailed, match="forward in time"):
        checks.check_forward_edges(np.asarray([[0, 3], [3, 5]]),
                                   np.asarray([0]), np.asarray([1]))


def test_det_det_budget():
    checks.check_det_det_budget(60, 10, 5)
    with pytest.raises(checks.CheckFailed, match="exceed"):
        checks.check_det_det_budget(61, 10, 5)


def _arrays(dets):
    return (np.asarray([d.gt_id for d in dets.detections]),
            np.asarray([d.frame for d in dets.detections]),
            np.asarray([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets.detections]))


def test_reference_idf1_matches_program_on_a_swap():
    gt = ground_truth(ScenarioSpec(n_objects=4, n_frames=40, seed=3))
    rows = [Detection(d.frame, d.box, d.confidence, d.embedding,
                      gt_id=d.gt_id if d.frame < 25 or d.gt_id > 2 else 3 - d.gt_id)
            for d in gt.detections if (d.frame + d.gt_id) % 7]
    pred = DetectionSet.build(rows, n_frames=40)
    want = checks.reference_idf1(_arrays(pred), _arrays(gt))
    assert 0.0 < want < 1.0
    checks.check_idf1(idf1(pred, gt), want)


def test_wrong_idf1_fails():
    gt = ground_truth(ScenarioSpec(n_objects=3, n_frames=20, seed=4))
    want = checks.reference_idf1(_arrays(gt), _arrays(gt))
    assert want == 1.0
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_idf1(want - 1e-9, want)


def test_losses_checked():
    labels = [np.asarray([1, 0, 1])]
    scores = [np.asarray([0.9, 0.2, 0.6])]
    first = checks.reference_bce(scores, labels, 1e-7)
    want = -(math.log(0.9) + math.log(0.8) + math.log(0.6)) / 3
    assert abs(first - want) < 1e-15
    checks.check_losses([first, first / 2], first)
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_losses([first, first], first)
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_losses([first, float("nan"), 0.1], first)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_losses([first * (1 + 1e-9), 0.1], first)
