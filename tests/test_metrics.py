"""Tracking metrics against hand-counted fixtures.

Every MOTA/IDF1 value in here is derived by hand from the detection
layout; boxes are chosen so the overlap ratios are exact decimals.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of, reference_idf1, reference_match_frames
from trackgraph import metrics
from trackgraph.core import (
    BoundingBox,
    Detection,
    ValidationError,
)
from trackgraph.ingest import DetectionSet
from trackgraph.metrics import (
    EvalReport,
    evaluate,
    idf1,
    match_frames,
    mota,
    render_keyvalues,
    render_report,
)

EMB = np.asarray([1.0, 0.0])


def mk(frame, tid, x=0.0, y=0.0, w=10.0, h=10.0):
    return Detection(frame, BoundingBox(x, y, w, h), 1.0, EMB, gt_id=tid)


def dset(rows):
    return DetectionSet.build(rows)


def const_track(tid, frames, x=0.0):
    return [mk(f, tid, x=x) for f in frames]


# ------------------------------------------------------------ match_frames


def test_perfect_tracking_counts():
    gt = dset(const_track(1, range(5)) + const_track(2, range(5), x=100.0))
    c = match_frames(gt, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (10, 0, 0, 0)
    assert c.gt_count == 10
    assert mota(c) == 1.0


def test_empty_prediction_is_all_misses():
    gt = dset(const_track(1, range(4)))
    c = match_frames(dset([]), gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (0, 0, 4, 0)
    assert mota(c) == 0.0


def test_gate_keeps_best_candidate_only():
    # pred heights 6 and 4 against a 10-high gt box: overlaps 0.6 and 0.4
    gt = dset([mk(0, 1)])
    pred = dset([mk(0, 1, h=6.0), mk(0, 2, h=4.0)])
    c = match_frames(pred, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (1, 1, 0, 0)
    assert mota(c) == 0.0


def test_mota_formula_ten_boxes():
    gt = dset(const_track(1, range(5)) + const_track(2, range(5), x=100.0))
    # drop one box (fn), add one far box (fp)
    pred_rows = const_track(1, range(5)) + const_track(2, range(1, 5), x=100.0)
    pred_rows.append(mk(0, 3, x=400.0))
    c = match_frames(dset(pred_rows), gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (9, 1, 1, 0)
    assert mota(c) == pytest.approx(0.8)


def test_zero_gt_is_undefined():
    c = match_frames(dset([mk(0, 1)]), dset([]))
    assert c.gt_count == 0 and c.fp == 1
    assert mota(c) is None


def test_persistent_match_resists_a_better_newcomer():
    gt = dset(const_track(1, [0, 1]))
    pred = dset([
        mk(0, 1),
        mk(1, 1, h=8.0),   # carried over at overlap 0.8
        mk(1, 2),          # perfect overlap but must not steal the match
    ])
    c = match_frames(pred, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (2, 1, 0, 0)


def test_identity_switch_counts_once():
    gt = dset(const_track(1, range(5)))
    pred = dset(const_track(1, [0, 1]) + const_track(2, [2, 3, 4]))
    c = match_frames(pred, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (5, 0, 0, 1)
    assert mota(c) == pytest.approx(0.8)


def test_reappearing_same_id_is_not_a_switch():
    gt = dset(const_track(1, range(5)))
    pred = dset(const_track(1, [0, 1, 4]))
    c = match_frames(pred, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (3, 0, 2, 0)


def test_switch_detected_across_a_gap():
    gt = dset(const_track(1, range(5)))
    pred = dset(const_track(1, [0, 1]) + const_track(2, [4]))
    c = match_frames(pred, gt)
    assert (c.tp, c.fp, c.fn, c.ids) == (3, 0, 2, 1)


def test_vanishing_track_costs_no_switch():
    gt = dset(const_track(1, range(5)))
    pred = dset(const_track(1, [0, 1]))
    c = match_frames(pred, gt)
    assert c.ids == 0 and c.fn == 3


def test_identities_required_on_both_sides():
    anon = dset([Detection(0, BoundingBox(0, 0, 10, 10), 1.0, EMB)])
    with pytest.raises(ValidationError):
        match_frames(anon, dset([mk(0, 1)]))


def test_one_id_twice_in_a_frame_is_refused():
    # keyed by frame, the second row of id 1 in frame 0 would replace the first
    pred = dset([mk(0, 1), mk(0, 1, x=30.0), mk(1, 1)])
    gt = dset([mk(0, 1), mk(0, 2, x=30.0), mk(1, 1)])
    for f in (match_frames, idf1, evaluate):
        with pytest.raises(ValidationError, match="predicted id 1 .* frame 1$"):
            f(pred, gt)
        with pytest.raises(ValidationError, match="ground-truth id 1 .* frame 1$"):
            f(gt, pred)
    # the same id in two frames, or two ids in one frame, is fine
    assert evaluate(gt, gt).idf1 == 1.0


def test_refusal_names_the_first_repeat_in_set_order():
    # frame 0 repeats ids 5 and 3; id 5 repeats first, id 3 is smaller
    pred = dset([mk(0, 5), mk(0, 3, x=30.0), mk(0, 5, x=60.0), mk(0, 3, x=90.0)])
    for f in (match_frames, idf1, evaluate):
        with pytest.raises(ValidationError, match="^predicted id 5 occurs twice in frame 1$"):
            f(pred, dset([mk(0, 1)]))


def test_refusal_names_whichever_comes_first_of_a_repeat_and_a_missing_id():
    repeat_first = dset([mk(0, 1), mk(0, 1, x=30.0), mk(1, None)])
    missing_first = dset([mk(0, None), mk(1, 1), mk(1, 1, x=30.0)])
    for f in (match_frames, idf1, evaluate):
        with pytest.raises(ValidationError,
                           match="^ground-truth id 1 occurs twice in frame 1$"):
            f(dset([mk(0, 1)]), repeat_first)
        with pytest.raises(ValidationError,
                           match="^ground-truth detections carry no identities$"):
            f(dset([mk(0, 1)]), missing_first)


@st.composite
def eval_sides(draw):
    """A (pred, gt) pair for the column/record comparison.

    Boxes are 10 x 10, ids side by side at a drawn spacing (0 stacks them,
    3 makes neighbours clear the gate). A pred box keeps its gt box's
    corner and width with height 10, 6, 5 or 4, so its overlap is exactly
    1, 0.6, 0.5 or 0.4. Pred ids are the gt ids cut into runs of a drawn
    length, reversed in some frames; either side may miss any row, and a
    frame may hold one extra pred row over some id's box.
    """
    n_ids, n_frames = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    spacing = draw(st.sampled_from([0.0, 3.0, 6.0, 20.0]))
    run = draw(st.integers(1, 3))
    height = st.sampled_from([10.0, 6.0, 5.0, 4.0])
    gt, pred = [], []
    for t in range(n_frames):
        reverse = draw(st.booleans())
        for k in range(1, n_ids + 1):
            if draw(st.booleans()):
                gt.append(mk(t, k, x=spacing * k))
            if draw(st.booleans()):
                pid = (n_ids + 1 - k if reverse else k) * 100 + t // run
                pred.append(mk(t, pid, x=spacing * k, h=draw(height)))
        if draw(st.booleans()):
            k = draw(st.integers(1, n_ids))
            pred.append(mk(t, 999, x=spacing * k, h=draw(height)))
    return dset(pred), dset(gt)


@settings(max_examples=300, deadline=None)
@given(sides=eval_sides(),
       gate=st.sampled_from([float(np.nextafter(0.5, 0.0)), 0.5,
                             float(np.nextafter(0.5, 1.0))]),
       block=st.sampled_from([1, 3, metrics.JOIN_BLOCK]))
def test_column_metrics_equal_the_record_loops(sides, gate, block):
    # fragmented ids, overlaps at the gate and one ulp either side of it,
    # frames only one side has and empty sides
    pred, gt = sides
    c = match_frames(pred, gt, gate)
    assert (c.tp, c.fp, c.fn, c.ids, c.gt_count) == reference_match_frames(pred, gt, gate)
    with mock.patch.object(metrics, "JOIN_BLOCK", block):
        assert idf1(pred, gt, gate) == reference_idf1(pred, gt, gate)


# ------------------------------------------------------------------- idf1


def test_idf1_perfect():
    gt = dset(const_track(1, range(5)) + const_track(2, range(5), x=100.0))
    assert idf1(gt, gt) == 1.0


def test_idf1_merged_identities_is_half():
    gt = dset(const_track(1, range(5)) + const_track(2, range(5, 10)))
    pred = dset(const_track(7, range(10)))
    assert idf1(pred, gt) == pytest.approx(0.5)
    # CLEAR never sees the merge: each gt id keeps its first match
    c = match_frames(pred, gt)
    assert c.ids == 0 and mota(c) == 1.0


def test_idf1_conventions_on_empty_sets():
    gt = dset(const_track(1, range(3)))
    assert idf1(dset([]), gt) == 0.0
    assert idf1(dset([]), dset([])) == 1.0


def test_idf1_split_track():
    # one gt id, pred splits 6/4: best identity match keeps 6 frames
    gt = dset(const_track(1, range(10)))
    pred = dset(const_track(1, range(6)) + const_track(2, range(6, 10)))
    # idtp 6, idfp 4, idfn 4
    assert idf1(pred, gt) == pytest.approx(12 / 20)


def test_relabeling_changes_nothing():
    gt = dset(const_track(1, range(5)))
    pred = dset(const_track(1, [0, 1]) + const_track(2, [2, 3, 4]))
    swapped = dset(const_track(9, [0, 1]) + const_track(4, [2, 3, 4]))
    a, b = match_frames(pred, gt), match_frames(swapped, gt)
    assert mota(a) == mota(b)
    assert idf1(pred, gt) == idf1(swapped, gt)


# ------------------------------------------------------------ graph stats


def test_graph_stats_empty():
    graph = graph_of((), (), ())
    assert graph.n_nodes == 0 and graph.n_edges == 0


def test_graph_stats_counts_by_kind():
    a, b, c = mk(0, None), mk(1, None), mk(2, None)
    graph = graph_of((a, b, c), [0, 1], [1, 2])
    assert (graph.n_nodes, graph.n_edges) == (3, 2)


# ----------------------------------------------------------------- report


def test_evaluate_report_invariant_and_rendering():
    gt = dset(const_track(1, range(5)) + const_track(2, range(5), x=100.0))
    pred_rows = const_track(1, range(5)) + const_track(2, range(1, 5), x=100.0)
    pred_rows.append(mk(0, 3, x=400.0))
    r = evaluate(dset(pred_rows), gt)
    assert isinstance(r, EvalReport)
    assert r.mota == pytest.approx(1 - (r.fn + r.fp + r.ids) / r.gt_count)
    assert r.gt_count == 10
    text = render_report(r)
    assert "MOTA" in text and "IDF1" in text
    kv = render_keyvalues(r)
    assert "mota=" in kv and "gt_count=10" in kv
    parsed = dict(line.split("=", 1) for line in kv.strip().splitlines())
    assert float(parsed["mota"]) == pytest.approx(0.8)
    # the report carries no graph-level rows
    assert not {"node_count", "edge_count", "coverage"} & set(parsed)
    labels = {line.split()[0] for line in text.strip().splitlines()}
    assert labels == {"MOTA", "IDF1", "TP", "FP", "FN", "IDS", "GT"}


def test_report_undefined_mota_renders():
    r = evaluate(dset([mk(0, 1)]), dset([]))
    assert r.mota is None
    assert "undefined" in render_keyvalues(r)
    assert "undefined" in render_report(r)
