import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackgraph import ingest
from trackgraph.core import BoundingBox, Detection, ParseError, ValidationError
from trackgraph.ingest import (
    DetectionSet,
    ScenarioSpec,
    ground_truth,
    parse_mot,
    pseudo_embedding,
    read_embeddings,
    synthesize,
    write_detections,
    write_embeddings,
    write_mot,
)
from trackgraph.core import Tracklet
from trackgraph.metrics import evaluate

from conftest import reference_write_mot


def test_parse_single_row(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,3,10,20,30,40,0.9,-1,-1,-1\n")
    ds = parse_mot(p)
    assert len(ds) == 1
    d = ds.detections[0]
    assert d.frame == 0  # disk frames are 1-based
    assert d.gt_id == 3
    assert (d.box.x, d.box.y, d.box.w, d.box.h) == (10.0, 20.0, 30.0, 40.0)
    assert d.confidence == 0.9
    assert ds.has_gt


def test_parse_empty_file(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("")
    ds = parse_mot(p)
    assert len(ds) == 0
    assert ds.n_frames == 0
    assert not ds.has_gt


def test_parse_unlabelled_rows_have_no_gt(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,0,0,5,5,1.0,-1,-1,-1\n2,-1,1,1,5,5,1.0,-1,-1,-1\n")
    ds = parse_mot(p)
    assert not ds.has_gt
    assert all(d.gt_id is None for d in ds.detections)


def test_parse_reports_line_number_for_malformed_row(tmp_path):
    p = tmp_path / "det.txt"
    # an infinite or fractional frame or id is no integer
    for bad in ("2,oops,0,0,5,5,1.0", "inf,1,0,0,5,5,1.0", "2,-inf,0,0,5,5,1.0",
                "1.5,1,0,0,5,5,1.0", "2,-1.5,0,0,5,5,1.0"):
        p.write_text(f"1,1,0,0,5,5,1.0,-1,-1,-1\n{bad},-1,-1,-1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_mot(p)


def test_parse_bounds_frames_by_exact_float_integers(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text(f"1,1,0,0,5,5,1.0,-1,-1,-1\n{2**53},1,0,0,5,5,1.0,-1,-1,-1\n")
    assert parse_mot(p).detections[-1].frame == 2**53 - 1
    for frame in (2**53 + 1, 2**53 + 2, 10**20):
        p.write_text(f"1,1,0,0,5,5,1.0,-1,-1,-1\n{frame},1,0,0,5,5,1.0,-1,-1,-1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_mot(p)


def test_parse_reads_integer_fields_exactly(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text(f"1,{2**53},0,0,5,5,1.0,-1,-1,-1\n"
                 f"2,{2**53 + 1},0,0,5,5,1.0,-1,-1,-1\n"
                 "3.0,1e3,0,0,5,5,1.0,-1,-1,-1\n")
    dets = parse_mot(p).detections
    assert [d.gt_id for d in dets] == [2**53, 2**53 + 1, 1000]
    assert dets[-1].frame == 2
    p.write_text(f"1,{2**63},0,0,5,5,1.0,-1,-1,-1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_mot(p)


def test_parse_rejects_nonpositive_box(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,1,0,0,0,5,1.0,-1,-1,-1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_mot(p)


def test_parse_rejects_overflowing_box_on_both_paths(tmp_path):
    # x + w, y + h or w * h past the float range, an area of 0, or one
    # over half the largest float, so that two such areas would overflow
    p = tmp_path / "det.txt"
    for box in ("1e155,1e155,1e155,1e155", "1e308,0,1e308,5", "0,1e308,5,1e308",
                "0,0,1e-200,1e-200", "0,0,1e154,1e154"):
        for frame in ("2", "2.0"):  # "2.0" sends the file down the line path
            p.write_text(f"1,1,0,0,5,5,1.0,-1,-1,-1\n{frame},1,{box},1.0,-1,-1,-1\n")
            outcome = parse_outcome(p)
            assert outcome == parse_outcome(p, whole_file=False)
            assert outcome[0] == "refused" and outcome[2] == 2
            assert "finite corners" in outcome[1]


def test_parse_rejects_short_row(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,1,0,0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_mot(p)


def parse_outcome(path, whole_file=True):
    """parse_mot's detections as plain values, or its ParseError.

    whole_file=False forces the line-by-line reading for every file.
    """
    read = ingest._read_columns if whole_file else (lambda _: None)
    try:
        with mock.patch.object(ingest, "_read_columns", read):
            dets = parse_mot(path)
    except ParseError as exc:
        return "refused", str(exc), exc.line_no
    rows = [(d.frame, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence, d.gt_id,
             d.embedding.tolist()) for d in dets.detections]
    # the columns parse_mot hands over are the ones the records give
    derived = DetectionSet.build(dets.detections, dets.n_frames)
    for column in ("frames", "boxes", "gt_ids"):
        assert getattr(dets, column).tolist() == getattr(derived, column).tolist()
    assert dets.embeddings().tolist() == derived.embeddings().tolist()
    assert dets.has_gt == derived.has_gt
    return (rows, dets.frames.tolist(), dets.boxes.tolist(), dets.gt_ids.tolist(),
            dets.embeddings().tolist(), dets.n_frames, dets.has_gt)


# per field: spellings that either path may refuse or read differently
_ODD_FIELDS = (
    ["3.0", "1e1", " 3 ", "+5", "0", "-2", "x", "2#", "", "0003"],
    ["1.0", "#", "9223372036854775808", "-9223372036854775808", " -1", "-1"],
    *[["inf", "nan", "-inf", "0", "-1", "1_0", "1#", " 2.5 ", "1e1", ".5",
       "1e308", "1e-200"]] * 4,
    ["1", "0", "1.5", "-0.1", "nan", "inf", "1e-1"],
)


@st.composite
def mot_files(draw):
    """MOT lines: mostly plain 7- or 10-column rows, a few odd fields,
    blank and short lines."""
    n = draw(st.integers(0, 8))
    rows = [[str(draw(st.integers(1, 30))), str(draw(st.integers(-1, 4))),
             repr(draw(st.floats(-5.0, 50.0))), repr(draw(st.floats(-5.0, 50.0))),
             repr(draw(st.floats(0.5, 50.0))), repr(draw(st.floats(0.5, 50.0))),
             repr(draw(st.floats(0.0, 1.0)))]
            + draw(st.sampled_from([[], ["-1", "-1", "-1"]])) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        r, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 6))
        rows[r][k] = draw(st.sampled_from(_ODD_FIELDS[k]))
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "1,1,0,0,5,5"])))
    return lines


@settings(max_examples=300, deadline=None)
@given(rows=mot_files(), newline=st.sampled_from(["\n", "\r\n"]))
def test_whole_file_parse_equals_the_line_path(rows, newline):
    # 7- and 10-column rows, -1 ids, float-spelled frames, blank lines,
    # '#' inside a field, inf/nan and out-of-range confidences
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "det.txt"
        path.write_bytes(newline.join(rows).encode())
        assert parse_outcome(path) == parse_outcome(path, whole_file=False)


def test_whole_file_reading_takes_plain_files_and_leaves_the_rest(tmp_path):
    p = tmp_path / "det.txt"
    row = b"1,1,0,0,5,5,1.0\n"
    taken = [
        (b"1,1,0,0,5,5,1.0,-1,-1,-1\n\n2,-1,0.5,0,5,5,0.25\n", [1, 2], [1, -1]),
        (b"1,1,0,0,5,5,1.0\r\n2,-1,0.5,0,5,5,0.25", [1, 2], [1, -1]),
        (b" 1 , +7 ,0,0,5,5,1.0\n2,-1,0.5,0,5,5,0.25\n", [1, 2], [7, -1]),
        (b"1,9223372036854775807,0,0,5,5,1.0\n2,-9223372036854775808,0.5,0,5,5,0.25\n",
         [1, 2], [2**63 - 1, -2**63]),
    ]
    for raw, frames_on_disk, ids_on_disk in taken:
        p.write_bytes(raw)
        frames, ids, values = ingest._read_columns(p)
        assert frames.dtype == ids.dtype == np.int64 and values.dtype == np.float64
        assert frames.tolist() == frames_on_disk and ids.tolist() == ids_on_disk
        assert values.tolist() == [[0, 0, 5, 5, 1.0], [0.5, 0, 5, 5, 0.25]]
    left = [
        b"1.0,1,0,0,5,5,1.0\n", b"1e0,1,0,0,5,5,1.0\n", b"1,1.0,0,0,5,5,1.0\n",  # float-spelled
        b"1,1,0,0,5,5\n", row + b"1,1,0,0\n",  # fewer than 7 fields
        row + b"   \n",  # a blank line of spaces
        b"1_0,1,0,0,5,5,1.0\n", b"1,1,1_0,0,5,5,1.0\n",  # fields int() and float() read
        b"1,1,0x1p3,0,5,5,1.0\n",  # a hex float
        b"1,9223372036854775808,0,0,5,5,1.0\n", b"1,-9223372036854775809,0,0,5,5,1.0\n",
        row + b"\xff\xfe\n",  # not UTF-8
        b"", b"\n",  # no rows
        b"1,1,0,0,5,5,2\n", b"0,1,0,0,5,5,1.0\n", b"1,1,0,0,-5,5,1.0\n",  # checks
        b"1,1,nan,0,5,5,1.0\n", b"9007199254740993,1,0,0,5,5,1.0\n",
    ]
    for raw in left:
        p.write_bytes(raw)
        assert ingest._read_columns(p) is None, raw


def test_parse_keeps_file_order_within_a_frame(tmp_path):
    # more rows than a small sort handles by insertion, frames out of order
    frames = np.random.default_rng(3).integers(1, 4, size=60)
    p = tmp_path / "det.txt"
    p.write_text("".join(f"{f},{k},0,0,5,5,1.0\n" for k, f in enumerate(frames)))
    dets = parse_mot(p).detections
    assert [d.gt_id for d in dets] == sorted(range(60), key=lambda k: frames[k])


def test_pseudo_embeddings_deterministic_and_unit():
    b = (1.0, 2.0, 3.0, 4.0)
    e1 = pseudo_embedding(5, b, 16)
    e2 = pseudo_embedding(5, b, 16)
    assert np.array_equal(e1, e2)
    assert np.linalg.norm(e1) == pytest.approx(1.0, rel=1e-9)
    assert not np.array_equal(e1, pseudo_embedding(6, b, 16))


def test_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(7, 16))
    p = tmp_path / "x.emb"
    write_embeddings(p, emb)
    back = read_embeddings(p)
    assert back.shape == (7, 16)
    # storage is float32
    assert np.allclose(back, emb, atol=1e-6)
    write_embeddings(p, back)
    assert np.array_equal(read_embeddings(p), back)


def test_sidecar_count_mismatch_rejected(tmp_path):
    det = tmp_path / "det.txt"
    det.write_text("1,1,0,0,5,5,1.0,-1,-1,-1\n")
    emb = tmp_path / "det.emb"
    write_embeddings(emb, np.zeros((3, 4)) + 1.0)
    with pytest.raises(ParseError, match="3 rows for 1"):
        parse_mot(det, emb)


def test_sidecar_truncated_rejected(tmp_path):
    p = tmp_path / "x.emb"
    header = np.asarray([1, 1], dtype="<u8").tobytes()
    # a cut header, and a whole header before a partial float32 value
    for raw in (b"\x01\x00", header + b"\x00\x00\x80"):
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            read_embeddings(p)


def make_track(tid, frames, x0=0.0):
    dets = [
        (
            i,
            Detection(
                frame=f,
                box=BoundingBox(x0 + f, 2.0, 5.0, 5.0),
                confidence=0.75,
                embedding=np.ones(4),
                gt_id=None,
            ),
        )
        for i, f in enumerate(frames)
    ]
    return Tracklet.from_members(tid, dets)


def test_write_mot_two_rows(tmp_path):
    p = tmp_path / "out.txt"
    text = write_mot(p, [make_track(4, [0, 1])])
    lines = text.strip().split("\n")
    assert lines[0].startswith("1,4,")
    assert lines[1].startswith("2,4,")
    assert p.read_text() == text


def test_write_mot_empty(tmp_path):
    p = tmp_path / "out.txt"
    assert write_mot(p, []) == ""
    assert p.read_text() == ""


def test_write_mot_sorts_rows_by_frame_then_id(tmp_path):
    # tracks in descending id order, sharing frames 1 and 2
    tracks = [make_track(9, [0, 1, 2]), make_track(4, [1, 2, 3])]
    text = write_mot(tmp_path / "out.txt", tracks)
    assert [line.split(",")[:2] for line in text.splitlines()] == [
        ["1", "9"], ["2", "4"], ["2", "9"], ["3", "4"], ["3", "9"], ["4", "4"]]
    assert text == reference_write_mot(tracks)


def test_write_then_parse_round_trip(tmp_path):
    spec = ScenarioSpec(n_objects=4, n_frames=20, seed=9, miss_rate=0.1)
    ds = synthesize(spec)
    p = tmp_path / "rt.txt"
    write_detections(p, ds)
    back = parse_mot(p)
    assert len(back) == len(ds)
    for a, b in zip(ds.detections, back.detections):
        assert a.frame == b.frame
        assert a.gt_id == b.gt_id
        assert a.confidence == b.confidence
        for attr in ("x", "y", "w", "h"):
            assert abs(getattr(a.box, attr) - getattr(b.box, attr)) <= 1e-4


def test_detection_set_rejects_mixed_embedding_dims():
    d1 = Detection(0, BoundingBox(0, 0, 1, 1), 1.0, np.zeros(4) + 1)
    d2 = Detection(1, BoundingBox(0, 0, 1, 1), 1.0, np.zeros(5) + 1)
    with pytest.raises(ValidationError):
        DetectionSet.build([d1, d2])


def test_detection_set_columns_follow_the_records():
    ds = synthesize(ScenarioSpec(n_objects=3, n_frames=20, seed=5, miss_rate=0.3))
    unlabelled = Detection(20, BoundingBox(1, 2, 3, 4), 0.5, np.ones(16))
    for dets in (ds, DetectionSet.build(ds.detections + (unlabelled,))):
        assert dets.frames.tolist() == [d.frame for d in dets.detections]
        assert dets.confidence.tolist() == [d.confidence for d in dets.detections]
        assert dets.boxes.tolist() == [[d.box.x, d.box.y, d.box.w, d.box.h]
                                       for d in dets.detections]
        assert dets.gt_ids.tolist() == [-1 if d.gt_id is None else d.gt_id
                                        for d in dets.detections]
        assert np.array_equal(dets.embeddings(),
                              np.stack([d.embedding for d in dets.detections]))
        for column in (dets.frames, dets.boxes, dets.confidence, dets.gt_ids,
                       dets.embeddings()):
            assert not column.flags.writeable
    empty = DetectionSet.build([])
    assert empty.frames.shape == (0,) and empty.boxes.shape == (0, 4)
    assert empty.gt_ids.shape == (0,) and empty.embeddings().shape == (0, 0)


def test_parsing_and_evaluating_make_no_record_and_no_pseudo_embedding(tmp_path):
    spec = ScenarioSpec(n_objects=3, n_frames=20, seed=5, miss_rate=0.3)
    p = tmp_path / "det.txt"
    write_detections(p, synthesize(spec))
    dets, gt = parse_mot(p), ground_truth(spec)
    assert evaluate(dets, gt).gt_count == len(gt)
    for made in (dets, gt):
        assert "detections" not in vars(made) and "_embeddings" not in vars(made)
    # read, the pseudo-embeddings are the ones each frame and box hash to
    emb = dets.embeddings()
    for k in (0, len(dets) - 1):
        d = dets.detections[k]
        box = (d.box.x, d.box.y, d.box.w, d.box.h)
        assert np.array_equal(emb[k], pseudo_embedding(d.frame, box))
        assert np.array_equal(d.embedding, emb[k])


# --------------------------------------------------------------- synthesis


def test_synthesize_counts_without_dropout():
    spec = ScenarioSpec(n_objects=3, n_frames=40, seed=7)
    ds = synthesize(spec)
    assert len(ds) == 3 * 40
    assert ds.n_frames == 40
    assert ds.has_gt
    assert sorted({d.gt_id for d in ds.detections}) == [1, 2, 3]


def test_synthesize_occlusion_drops_exact_rows():
    spec = ScenarioSpec(
        n_objects=2, n_frames=30, seed=7, occlusions=((1, 10, 5),)
    )
    ds = synthesize(spec)
    assert len(ds) == 2 * 30 - 5
    obj1_frames = {d.frame for d in ds.detections if d.gt_id == 1}
    assert obj1_frames == set(range(30)) - set(range(10, 15))


def test_ground_truth_is_complete_and_matches_observed_positions():
    spec = ScenarioSpec(
        n_objects=3,
        n_frames=25,
        seed=11,
        miss_rate=0.2,
        occlusions=((2, 5, 4),),
        embedding_noise_sigma=0.1,
    )
    gt = ground_truth(spec)
    obs = synthesize(spec)
    assert len(gt) == 3 * 25
    gt_pos = {(d.gt_id, d.frame): d.box for d in gt.detections}
    for d in obs.detections:
        b = gt_pos[(d.gt_id, d.frame)]
        assert (b.x, b.y) == (d.box.x, d.box.y)


def test_zero_noise_repeats_identity_embedding():
    spec = ScenarioSpec(n_objects=2, n_frames=10, seed=3)
    ds = synthesize(spec)
    per_id = {}
    for d in ds.detections:
        per_id.setdefault(d.gt_id, []).append(d.embedding)
    for embs in per_id.values():
        for e in embs[1:]:
            assert np.array_equal(e, embs[0])
        assert np.linalg.norm(embs[0]) == pytest.approx(1.0, rel=1e-9)


def test_noisy_embeddings_stay_unit_norm():
    spec = ScenarioSpec(n_objects=2, n_frames=10, seed=3, embedding_noise_sigma=0.2)
    ds = synthesize(spec)
    for d in ds.detections:
        assert np.linalg.norm(d.embedding) == pytest.approx(1.0, rel=1e-9)


def test_synthesize_is_deterministic():
    spec = ScenarioSpec(n_objects=3, n_frames=20, seed=123, miss_rate=0.1)
    a = synthesize(spec)
    b = synthesize(spec)
    assert len(a) == len(b)
    for da, db in zip(a.detections, b.detections):
        assert da.frame == db.frame and da.gt_id == db.gt_id
        assert da.box == db.box
        assert np.array_equal(da.embedding, db.embedding)


def test_boxes_stay_inside_arena():
    spec = ScenarioSpec(n_objects=4, n_frames=200, seed=5, speed=9.0)
    for d in synthesize(spec).detections:
        assert 0 <= d.box.x <= spec.arena_w - spec.box_w + 1e-9
        assert 0 <= d.box.y <= spec.arena_h - spec.box_h + 1e-9


def test_scenario_spec_validation():
    with pytest.raises(ValidationError):
        ScenarioSpec(n_objects=0, n_frames=10)
    with pytest.raises(ValidationError):
        ScenarioSpec(n_objects=1, n_frames=1)
    with pytest.raises(ValidationError):
        ScenarioSpec(n_objects=1, n_frames=10, miss_rate=1.0)
    with pytest.raises(ValidationError):
        ScenarioSpec(n_objects=1, n_frames=10, occlusions=((4, 0, 2),))
    for box in ({"box_w": 0.0}, {"box_h": -4.0}, {"box_w": float("nan")}):
        with pytest.raises(ValidationError, match="box_w and box_h"):
            ScenarioSpec(n_objects=1, n_frames=10, **box)
    for name in ("arena_w", "arena_h", "speed", "embedding_noise_sigma"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                ScenarioSpec(n_objects=1, n_frames=10, **{name: value})

