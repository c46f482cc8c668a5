"""Tracker evaluation: MOTA, IDF1 and identity switches.

The frame matching keeps yesterday's pairs alive while they still
clear the overlap gate, which is what makes identity switches a
property of the tracker rather than of assignment jitter. Identity
scores come from one global matching between predicted and annotated
ids instead.
Both read only the sets' frames, boxes and gt_ids columns, and score
boxes with core.iou_matrix and core.iou_rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.core import ValidationError, iou_matrix, iou_rows
from trackgraph.ingest import DetectionSet


# gt rows per block of idf1's join with the predictions of their frames,
# so the pairs held at once grow with the block, not with the video
JOIN_BLOCK = 4096


@dataclass(frozen=True)
class Correspondence:
    """Aggregate CLEAR counts from per-frame matching."""

    tp: int
    fp: int
    fn: int
    ids: int
    gt_count: int


def _require_ids(dets: DetectionSet, side: str) -> None:
    """Every detection has an id, and no id occurs twice in one frame;
    a refusal names the first offending detection in set order."""
    frames, ids, n = dets.frames, dets.gt_ids, len(dets)
    first_unlabelled = n if dets.has_gt else np.flatnonzero(ids == -1).min(initial=n)
    # one stable sort by (frame, id): a row equal to the row before it
    # repeats an earlier detection of its frame
    order = np.lexsort((ids, frames))
    repeats = order[1:][(frames[order[1:]] == frames[order[:-1]])
                        & (ids[order[1:]] == ids[order[:-1]])]
    first_repeat = repeats.min(initial=n)
    if first_unlabelled < n and first_unlabelled <= first_repeat:
        raise ValidationError(f"{side} detections carry no identities")
    if first_repeat < n:
        raise ValidationError(f"{side} id {ids[first_repeat]} occurs twice in frame "
                              f"{frames[first_repeat] + 1}")


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
    times = np.union1d(pred.frames, gt.frames)
    # each frame's row range [lo, hi) on each side
    bounds = [np.searchsorted(f, times, side).tolist()
              for f in (gt.frames, pred.frames) for side in ("left", "right")]
    gt_ids, pred_ids = gt.gt_ids.tolist(), pred.gt_ids.tolist()
    tp = fp = fn = switches = 0
    prev: dict[int, int] = {}
    last_pid: dict[int, int] = {}
    for gs, ge, ps, pe in zip(*bounds):
        gids, pids = gt_ids[gs:ge], pred_ids[ps:pe]
        overlap = iou_matrix(gt.boxes[gs:ge], pred.boxes[ps:pe])
        # ids are unique within a frame, so a persisting pair claims a
        # prediction no other pair claims
        pid_col = {pid: j for j, pid in enumerate(pids)}
        matches: dict[int, int] = {}
        for gi, gid in enumerate(gids):
            j = pid_col.get(prev.get(gid))
            if j is not None and overlap[gi, j] >= iou_gate:
                matches[gi] = j
        free_g = [g for g in range(len(gids)) if g not in matches]
        free_p = sorted(set(range(len(pids))) - set(matches.values()))
        if free_g and free_p:
            cost = 1.0 - overlap[np.ix_(free_g, free_p)]
            for r, c in zip(*linear_sum_assignment(cost)):
                if 1.0 - cost[r, c] >= iou_gate:
                    matches[free_g[r]] = free_p[c]
        prev = {}
        for gi, j in matches.items():
            gid, pid = gids[gi], pids[j]
            tp += 1
            if gid in last_pid and last_pid[gid] != pid:
                switches += 1
            last_pid[gid] = pid
            prev[gid] = pid
        fn += len(gids) - len(matches)
        fp += len(pids) - len(matches)
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
    gids, g_col = np.unique(gt.gt_ids, return_inverse=True)
    pids, p_col = np.unique(pred.gt_ids, return_inverse=True)
    hits = []
    for start in range(0, len(gt), JOIN_BLOCK):
        # every pair of a gt row of the block and a pred row of its frame
        frames = gt.frames[start : start + JOIN_BLOCK]
        lo = np.searchsorted(pred.frames, frames, side="left")
        count = np.searchsorted(pred.frames, frames, side="right") - lo
        g = np.repeat(np.arange(start, start + frames.size), count)
        p = np.arange(g.size) + np.repeat(lo - (np.cumsum(count) - count), count)
        hit = iou_rows(gt.boxes[g], pred.boxes[p]) >= iou_gate
        hits.append(g_col[g[hit]] * pids.size + p_col[p[hit]])
    # gated frames per (gt id, pred id): counts are exact in any order
    overlap = np.bincount(np.concatenate(hits), minlength=gids.size * pids.size)
    overlap = overlap.reshape(gids.size, pids.size).astype(np.float64)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = float(overlap[rows, cols].sum())
    return 2.0 * idtp / (len(pred) + len(gt))


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
