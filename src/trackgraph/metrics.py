"""Tracker evaluation: MOTA, IDF1, identity switches, graph statistics.

The frame matching keeps yesterday's pairs alive while they still
clear the overlap gate, which is what makes identity switches a
property of the tracker rather than of assignment jitter. Identity
scores come from one global matching between predicted and annotated
ids instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.core import (
    BoundingBox,
    TrackGraph,
    ValidationError,
    iou,
)
from trackgraph.ingest import DetectionSet


@dataclass(frozen=True)
class Correspondence:
    """Aggregate CLEAR counts from per-frame matching."""

    tp: int
    fp: int
    fn: int
    ids: int
    gt_count: int


def _require_ids(dets: DetectionSet, side: str) -> None:
    """Every detection has an id, and no id occurs twice in one frame."""
    seen = set()
    for d in dets.detections:
        if d.gt_id is None:
            raise ValidationError(f"{side} detections carry no identities")
        if (d.frame, d.gt_id) in seen:
            raise ValidationError(
                f"{side} id {d.gt_id} occurs twice in frame {d.frame + 1}")
        seen.add((d.frame, d.gt_id))


def _rows_by_frame(dets: DetectionSet) -> dict[int, list[tuple[int, BoundingBox]]]:
    rows: dict[int, list[tuple[int, BoundingBox]]] = {}
    for d in dets.detections:
        rows.setdefault(d.frame, []).append((d.gt_id, d.box))
    return rows


def match_frames(
    pred: DetectionSet, gt: DetectionSet, iou_gate: float = 0.5
) -> Correspondence:
    """Per-frame box matching with continuity preference.

    Pairs matched in the previous frame persist while their overlap
    stays at or above the gate; everything else goes through an optimal
    assignment on overlap, gated the same way. A switch is counted when
    a ground-truth id is matched to a different prediction id than the
    last time it was matched at all.
    """
    _require_ids(pred, "predicted")
    _require_ids(gt, "ground-truth")
    pred_rows = _rows_by_frame(pred)
    gt_rows = _rows_by_frame(gt)
    tp = fp = fn = switches = 0
    prev: dict[int, int] = {}
    last_pid: dict[int, int] = {}
    for t in sorted(set(pred_rows) | set(gt_rows)):
        gts = gt_rows.get(t, [])
        prs = pred_rows.get(t, [])
        free_g = set(range(len(gts)))
        free_p = set(range(len(prs)))
        matches: dict[int, int] = {}
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
    return Correspondence(tp, fp, fn, switches, gt_count=len(gt))


def mota(c: Correspondence) -> Optional[float]:
    """1 - (FN + FP + IDS)/GT; None when there is no ground truth."""
    if c.gt_count == 0:
        return None
    return 1.0 - (c.fn + c.fp + c.ids) / c.gt_count


def idf1(pred: DetectionSet, gt: DetectionSet, iou_gate: float = 0.5) -> float:
    """Identity F1 under the best global id-to-id matching.

    A (gt id, pred id) pair earns one unit per frame where both have a
    box and the boxes clear the gate; the matching maximises the total.
    Both sides empty scores 1.0 by convention.
    """
    _require_ids(pred, "predicted")
    _require_ids(gt, "ground-truth")
    if len(pred) == 0 and len(gt) == 0:
        return 1.0
    if len(pred) == 0 or len(gt) == 0:
        return 0.0
    gt_tracks: dict[int, dict[int, BoundingBox]] = {}
    for d in gt.detections:
        gt_tracks.setdefault(d.gt_id, {})[d.frame] = d.box
    pred_tracks: dict[int, dict[int, BoundingBox]] = {}
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


@dataclass(frozen=True)
class GraphStats:
    """Node and edge counts of a graph."""

    node_count: int
    edge_count: int


def graph_stats(graph: TrackGraph) -> GraphStats:
    return GraphStats(len(graph.nodes), graph.n_edges)


@dataclass(frozen=True)
class EvalReport:
    """Everything one evaluation run produces.

    mota is None when the ground truth is empty.
    """

    mota: Optional[float]
    idf1: float
    tp: int
    fp: int
    fn: int
    ids: int
    gt_count: int

    def __post_init__(self):
        if self.gt_count > 0:
            expect = 1.0 - (self.fn + self.fp + self.ids) / self.gt_count
            if self.mota is None or abs(self.mota - expect) > 1e-9:
                raise ValidationError("mota disagrees with its own counts")


def evaluate(pred: DetectionSet, gt: DetectionSet, iou_gate: float = 0.5) -> EvalReport:
    c = match_frames(pred, gt, iou_gate)
    return EvalReport(
        mota=mota(c),
        idf1=idf1(pred, gt, iou_gate),
        tp=c.tp,
        fp=c.fp,
        fn=c.fn,
        ids=c.ids,
        gt_count=c.gt_count,
    )


def _num(value: Optional[float]) -> str:
    return "undefined" if value is None else repr(float(value))


def _rows(r: EvalReport) -> list[tuple[str, str, str]]:
    """(table label, key, rendered value) per reported metric."""
    return [
        ("MOTA", "mota", _num(r.mota)),
        ("IDF1", "idf1", _num(r.idf1)),
        ("TP", "tp", str(r.tp)),
        ("FP", "fp", str(r.fp)),
        ("FN", "fn", str(r.fn)),
        ("IDS", "ids", str(r.ids)),
        ("GT", "gt_count", str(r.gt_count)),
    ]


def render_report(r: EvalReport) -> str:
    """Human-readable two-column table."""
    rows = _rows(r)
    width = max(len(label) for label, _, _ in rows)
    return "\n".join(f"{label:<{width}}  {v}" for label, _, v in rows) + "\n"


def render_keyvalues(r: EvalReport) -> str:
    """Machine-readable key=value lines, one metric per line."""
    return "".join(f"{k}={v}\n" for _, k, v in _rows(r))
