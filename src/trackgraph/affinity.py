"""Window-gated appearance affinity over a clip.

Sliding windows (WindowPlan) cover the clip. Two detections in
different frames are compared only when some window holds both; every
other pair, same-frame pairs included, reads 0. With frames f_i < f_j
the pair shares a window iff f_j < s(f_i) + window, where s(f) is the
latest window start at or before f. The test is closed-form, so no
score is stored: a scorer is bound to the clip once and evaluated on
the block of (track members x frame detections) that each association
step reads.

The per-step association cost combines the mean appearance against
each tracklet member with the IoU of the tracklet's last box:
C = -max(appearance, iou), entries in [-1, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from trackgraph.core import ValidationError, iou_matrix
from trackgraph.ingest import DetectionSet


@dataclass(frozen=True)
class WindowPlan:
    """Sliding-window layout: window length, stride, covered span."""

    clip_len: int
    window: int = 32
    step: int = 16

    def __post_init__(self):
        if self.step < 1 or self.window < 1 or self.clip_len < 1:
            raise ValidationError("window plan values must be positive")
        if self.step > self.window:
            raise ValidationError("step must not exceed the window")
        if self.window > self.clip_len:
            raise ValidationError("window must not exceed the clip")

    def starts(self, origin: int = 0) -> list[int]:
        """Window start frames; the last window reaches the clip end."""
        out = []
        s = 0
        while True:
            out.append(origin + s)
            if s + self.window >= self.clip_len:
                break
            s += self.step
        return out

    def window_end(self, frames: np.ndarray, origin: int = 0) -> np.ndarray:
        """End (exclusive) of the latest window starting at or before each frame.

        A later frame shares a window with frame f iff it lies below
        window_end(f): that window reaches furthest among those holding f.
        """
        last = len(self.starts()) - 1
        k = np.minimum((np.asarray(frames, dtype=np.int64) - origin) // self.step, last)
        return origin + self.step * k + self.window


# score(rows, cols) -> (len(rows), len(cols)) similarities in [0, 1]
BlockScore = Callable[[np.ndarray, np.ndarray], np.ndarray]
Scorer = Callable[[DetectionSet], BlockScore]


def cosine_scorer(dets: DetectionSet) -> BlockScore:
    """(1 + cosine) / 2 between embeddings, mapped onto [0, 1]."""
    emb = dets.embeddings()
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise ValidationError("cosine similarity undefined for zero embeddings")
    unit = emb / norms[:, None]

    def score(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        dots = np.einsum("ik,jk->ij", unit[rows], unit[cols])
        return np.clip((1.0 + dots) / 2.0, 0.0, 1.0)

    return score


def oracle_scorer(dets: DetectionSet) -> BlockScore:
    """1 for same annotated identity, 0 otherwise."""
    ids = [d.gt_id for d in dets.detections]
    if any(g is None for g in ids):
        raise ValidationError("oracle scorer needs identities on every detection")
    arr = np.asarray(ids)

    def score(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (arr[rows][:, None] == arr[cols]).astype(np.float64)

    return score


class AffinityMatrix:
    """Cross-frame similarity of the pairs that share a window.

    Holds each detection's frame and window end (WindowPlan.window_end)
    plus the clip-bound scorer; blocks are scored when read.
    """

    def __init__(self, frames: np.ndarray, window_end: np.ndarray, score: BlockScore):
        self._frames = frames
        self._window_end = window_end
        self._score = score

    def __len__(self) -> int:
        """Number of cross-frame pairs that share a window."""
        f = self._frames
        # frames are integers, so f + 1 on the left side skips f's own frame
        hi, lo = np.searchsorted(f, np.stack([self._window_end, f + 1]))
        return int((hi - lo).sum())

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(len(rows), len(cols)) similarities; pairs sharing no window read 0."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        f_r, f_c = self._frames[rows][:, None], self._frames[cols]
        shared = ((f_r < f_c) & (f_c < self._window_end[rows][:, None])) | (
            (f_c < f_r) & (f_r < self._window_end[cols]))
        vals = self._score(rows, cols)
        hit = vals[shared]
        if hit.size and (hit.min() < 0.0 or hit.max() > 1.0):
            raise ValidationError("scorer similarities must lie in [0, 1]")
        return np.where(shared, vals, 0.0)


def accumulate_affinity(
    dets: DetectionSet,
    plan: WindowPlan,
    scorer: Scorer,
    origin: int = 0,
) -> AffinityMatrix:
    """Bind the scorer to the clip and gate its pairs by the window layout.

    origin anchors the first window; detections are expected to lie in
    [origin, origin + clip_len).
    """
    frames = np.asarray([d.frame for d in dets.detections], dtype=np.int64)
    if frames.size and (frames.min() < origin or frames.max() >= origin + plan.clip_len):
        raise ValidationError("detections fall outside the planned clip")
    return AffinityMatrix(frames, plan.window_end(frames, origin), scorer(dets))


def appearance_matrix(
    members_in_window: Sequence[Sequence[int]],
    frame_dets: np.ndarray,
    aff: AffinityMatrix,
) -> np.ndarray:
    """Mean similarity of each track's members to each detection.

    All tracks' members are scored against the frame's detections in one
    block; each track's mean sums its own contiguous rows. Pairs that
    share no window contribute 0 to the mean, keeping rows in [0, 1].
    """
    sizes = [len(members) for members in members_in_window]
    if 0 in sizes:
        raise ValidationError("active track has no members in the window")
    vals = aff.block([i for mem in members_in_window for i in mem], frame_dets)
    sums = np.empty((len(sizes), vals.shape[1]))
    start = 0
    for r, size in enumerate(sizes):
        sums[r] = vals[start:start + size].sum(axis=0)
        start += size
    return sums / np.asarray(sizes, dtype=np.float64)[:, None]


def step_cost_matrix(
    members_in_window: Sequence[Sequence[int]],
    last_boxes: np.ndarray,
    frame_dets: np.ndarray,
    frame_boxes: np.ndarray,
    aff: AffinityMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Association costs C = -max(appearance mean, last-box IoU).

    Boxes are (x, y, w, h) rows (core.box_rows). Returns (C, appearance
    matrix); the appearance rows also drive candidate-link selection
    downstream.
    """
    if len(members_in_window) != len(last_boxes):
        raise ValidationError("member lists and last boxes must align")
    m_bar = appearance_matrix(members_in_window, frame_dets, aff)
    m_hat = iou_matrix(last_boxes, frame_boxes)
    return -np.maximum(m_bar, m_hat), m_bar
