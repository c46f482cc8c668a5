"""Correctness checks the benchmark applies to the program's outputs.

Each checker takes plain inputs and either returns a count or raises
CheckFailed. They rely only on numpy and scipy, never on the program's
own helpers, so a fault in the program cannot hide in its check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailed(AssertionError):
    """An output of the program broke a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_tracks(tracks, boxes: np.ndarray, frames: np.ndarray) -> int:
    """Check the tracks of one run against its input detections.

    boxes is (n, 4) x/y/w/h and frames is (n,) for the n input
    detections. Each track must have strictly increasing frames; a real
    member (index >= 0) must carry exactly the box and frame of its
    input detection; an interpolated member (index -1) must lie on the
    segment between the real members around it; every input detection
    must lie in some track. Returns the number of input detections
    that lie in more than one track, which the caller counts as failed
    operations rather than as a broken run.
    """
    n = frames.shape[0]
    seen = np.zeros(n, dtype=np.int64)
    for t in tracks:
        f = np.asarray([d.frame for d in t.detections], dtype=np.int64)
        idx = np.asarray(t.det_indices, dtype=np.int64)
        b = np.asarray([(d.box.x, d.box.y, d.box.w, d.box.h) for d in t.detections])
        _require(bool(np.all(np.diff(f) > 0)),
                 f"track {t.id}: frames do not strictly increase")
        real = idx >= 0
        _require(bool(np.all(idx[real] < n)), f"track {t.id}: index out of range")
        ri = idx[real]
        _require(bool(np.array_equal(f[real], frames[ri])),
                 f"track {t.id}: a member's frame differs from its input detection")
        _require(bool(np.array_equal(b[real], boxes[ri])),
                 f"track {t.id}: a member's box differs from its input detection")
        np.add.at(seen, ri, 1)
        fake = np.flatnonzero(~real)
        if fake.size:
            pos = np.flatnonzero(real)
            _require(pos.size >= 2 and pos[0] < fake[0] and pos[-1] > fake[-1],
                     f"track {t.id}: interpolated member outside its real ends")
            hi = pos[np.searchsorted(pos, fake)]
            lo = pos[np.searchsorted(pos, fake) - 1]
            w = ((f[fake] - f[lo]) / (f[hi] - f[lo]))[:, None]
            want = b[lo] + w * (b[hi] - b[lo])
            _require(bool(np.allclose(b[fake], want, rtol=0.0, atol=1e-9)),
                     f"track {t.id}: interpolated box off its segment")
    _require(bool(np.all(seen > 0)),
             f"{int(np.sum(seen == 0))} input detections lie in no track")
    return int(np.sum(seen > 1))


def _iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise IoU of two (m, 4) x/y/w/h box arrays."""
    ix = np.minimum(a[:, 0] + a[:, 2], b[:, 0] + b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 1] + a[:, 3], b[:, 1] + b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def reference_idf1(pred, gt, iou_gate: float = 0.5) -> float:
    """IDF1 from arrays: (ids, frames, boxes) triples for pred and gt.

    A (gt id, pred id) pair earns one unit per frame in which both have
    a box overlapping by at least the gate; ids are matched one to one
    to maximise the total. Both sides empty score 1.
    """
    (pid, pf, pb), (gid, gf, gb) = pred, gt
    n_pred, n_gt = pid.shape[0], gid.shape[0]
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    p_ids, p_col = np.unique(pid, return_inverse=True)
    g_ids, g_row = np.unique(gid, return_inverse=True)
    order = np.argsort(pf, kind="stable")
    sf = pf[order]
    lo = np.searchsorted(sf, gf, side="left")
    hi = np.searchsorted(sf, gf, side="right")
    counts = hi - lo
    gi = np.repeat(np.arange(n_gt), counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    pj = order[np.arange(gi.size) + starts]
    hit = _iou_rows(gb[gi], pb[pj]) >= iou_gate
    overlap = np.zeros((g_ids.size, p_ids.size))
    np.add.at(overlap, (g_row[gi[hit]], p_col[pj[hit]]), 1.0)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    return 2.0 * float(overlap[rows, cols].sum()) / (n_pred + n_gt)


def check_idf1(got: float, want: float, tol: float = 1e-12) -> None:
    _require(abs(got - want) <= tol,
             f"metrics.idf1 gives {got!r}, the reference gives {want!r}")


def check_forward_edges(spans: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Every edge u -> v must point forward: u's span ends before v's starts."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(spans[u, 1] >= spans[v, 0])
    if bad.size:
        k = bad[0]
        raise CheckFailed(f"{bad.size} edges do not point forward in time, "
                          f"first ({int(u[k])}, {int(v[k])})")


def check_det_det_budget(det_det_edges: int, n_det: int, top_k: int) -> None:
    _require(det_det_edges <= n_det * (top_k + 1),
             f"{det_det_edges} det-det edges exceed n*(top_k+1) = "
             f"{n_det * (top_k + 1)}")


def reference_bce(scores_per_graph, labels_per_graph, clamp: float) -> float:
    """Mean over graphs of the mean binary cross-entropy of edge scores."""
    total = 0.0
    for s, y in zip(scores_per_graph, labels_per_graph):
        p = np.clip(np.asarray(s, dtype=np.float64), clamp, 1.0 - clamp)
        y = np.asarray(y, dtype=np.float64)
        total += float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    return total / len(scores_per_graph)


def check_losses(losses, first_reference: float, rtol: float = 1e-12) -> None:
    """Finite losses, a last loss below the first, and a first loss that
    equals the cross-entropy computed apart from the training loop."""
    _require(len(losses) >= 2, "training needs at least two iterations to check")
    _require(all(math.isfinite(x) for x in losses), "a training loss is not finite")
    _require(losses[-1] < losses[0],
             f"last loss {losses[-1]!r} is not below the first {losses[0]!r}")
    _require(abs(losses[0] - first_reference) <= rtol * abs(first_reference),
             f"first loss {losses[0]!r} differs from the cross-entropy "
             f"{first_reference!r} of the initial scores")
