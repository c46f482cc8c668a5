"""Window-gated appearance affinity over a clip.

Sliding windows (WindowPlan) cover the clip. Two detections in
different frames are compared only when some window holds both; every
other pair reads 0. With frames f_i < f_j the pair shares a window iff
f_j < window_end(f_i), the end of the latest window starting at or
before f_i. The test is closed-form, so no score is stored.

Association scores tracks, not members: a scorer bound to the clip
returns, against one frame's detections, each track's similarity sum
over its members that share a window with that frame. Cosine is linear
in the unit vectors, so a track sums those first, in frame order; the
oracle counts identity matches.

The per-step association cost combines the mean appearance against
each tracklet member with the IoU of the tracklet's last box:
C = -max(appearance, iou), entries in [-1, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    def window_end(self, frames: np.ndarray, origin: int = 0) -> np.ndarray:
        """End (exclusive) of the latest window starting at or before each frame.

        A later frame shares a window with frame f iff it lies below
        window_end(f): that window reaches furthest among those holding f.
        """
        # the number of windows after the first, in closed form
        last = -(-(self.clip_len - self.window) // self.step)
        k = np.minimum((np.asarray(frames, dtype=np.int64) - origin) // self.step, last)
        return origin + self.step * k + self.window


# sums(owner, members, cols, n_tracks) -> (n_tracks, len(cols)): row r
# sums the similarities in [0, 1] of the members that track r owns
TrackSums = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]
Scorer = Callable[[DetectionSet], TrackSums]


def _track_slots(owner: np.ndarray, members: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each track's members laid out by rank: (longest track, tracks + 1).

    count[r] is the number of members owned by track r. Entry (i, r) is
    track r's i-th member in the order given, or -1; the last column is
    all -1. Rows gathered through it and summed over axis 0 add each
    track's members one by one in that order, as np.add.at does: numpy
    reduces an outer axis in sequence, and the zero of an empty slot
    changes no sum but for the sign of a zero. The spare column keeps the
    axis outer even for one track of one-dimensional rows, which numpy
    would otherwise sum pairwise.
    """
    order = np.argsort(owner, kind="stable")
    track = owner[order]
    rank = np.arange(track.size) - (np.cumsum(count) - count)[track]
    slots = np.full((count.max(initial=0), count.size + 1), -1)
    slots[rank, track] = members[order]
    return slots


def cosine_scorer(dets: DetectionSet) -> TrackSums:
    """(1 + cosine) / 2 between embeddings; a track sums its unit vectors first."""
    emb = dets.embeddings()
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise ValidationError("cosine similarity undefined for zero embeddings")
    # the unit vectors, then a zero row that slot -1 reads
    unit = np.vstack([emb / norms[:, None], np.zeros((1, emb.shape[1]))])

    def sums(owner: np.ndarray, members: np.ndarray, cols: np.ndarray, n_tracks: int):
        count = np.bincount(owner, minlength=n_tracks)
        summed = unit[_track_slots(owner, members, count)].sum(axis=0)[:n_tracks]
        # einsum rounds a track's row alike whatever the number of tracks;
        # a BLAS product does not, so exact ties would hang on other tracks
        return (count[:, None] + np.einsum("ik,jk->ij", summed, unit[cols])) / 2.0

    return sums


def oracle_scorer(dets: DetectionSet) -> TrackSums:
    """1 for same annotated identity, 0 otherwise; a track's sum counts matches."""
    if len(dets) and not dets.has_gt:
        raise ValidationError("oracle scorer needs identities on every detection")
    arr = dets.gt_ids

    def sums(owner: np.ndarray, members: np.ndarray, cols: np.ndarray, n_tracks: int):
        # counts are exact in any order of addition
        hit, col = np.nonzero(arr[members][:, None] == arr[cols])
        counts = np.bincount(owner[hit] * len(cols) + col, minlength=n_tracks * len(cols))
        return counts.reshape(n_tracks, len(cols)).astype(np.float64)

    return sums


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Cross-frame similarity of the pairs that share a window.

    Holds each detection's frame and window end (WindowPlan.window_end)
    plus the clip-bound scorer; similarities are summed when read.
    """

    frames: np.ndarray
    window_end: np.ndarray
    sums: TrackSums

    def __len__(self) -> int:
        """Number of cross-frame pairs that share a window."""
        f = self.frames
        # frames are integers, so f + 1 on the left side skips f's own frame
        hi, lo = np.searchsorted(f, np.stack([self.window_end, f + 1]))
        return int((hi - lo).sum())


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
    frames = dets.frames
    if frames.size and (frames.min() < origin or frames.max() >= origin + plan.clip_len):
        raise ValidationError("detections fall outside the planned clip")
    return AffinityMatrix(frames, plan.window_end(frames, origin), scorer(dets))


def appearance_matrix(
    owner: np.ndarray,
    members: np.ndarray,
    n_tracks: int,
    frame_dets: np.ndarray,
    aff: AffinityMatrix,
) -> np.ndarray:
    """Mean similarity of each track's members to each detection of a frame.

    Member members[i] belongs to track owner[i], a row in [0, n_tracks);
    a track's members add up in the order given. frame_dets share one
    frame t, later than every member (associate_frames calls it no other
    way), so member m shares a window with them iff window_end[m] > t.
    The scorer sums each track's gated members; the sum is divided by all
    its members, so ungated ones count as 0, and clipped to [0, 1], since
    a sum can overshoot by one ulp.
    """
    owner = np.asarray(owner, dtype=np.int64)
    members = np.asarray(members, dtype=np.int64)
    sizes = np.bincount(owner, minlength=n_tracks)
    if sizes.size != n_tracks:
        raise ValidationError("member owners must name one of the tracks")
    if (sizes == 0).any():
        raise ValidationError("active track has no members in the window")
    gated = aff.window_end[members] > aff.frames[frame_dets[0]]
    sums = aff.sums(owner[gated], members[gated], frame_dets, n_tracks)
    return np.minimum(np.maximum(sums / sizes[:, None], 0.0), 1.0)


def step_cost_matrix(
    owner: np.ndarray,
    members: np.ndarray,
    last_boxes: np.ndarray,
    frame_dets: np.ndarray,
    frame_boxes: np.ndarray,
    aff: AffinityMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Association costs C = -max(appearance mean, last-box IoU).

    Member members[i] belongs to the track of row owner[i], whose last
    box is last_boxes[owner[i]]. Boxes are (x, y, w, h) rows
    (core.box_rows). Returns (C, appearance matrix); the appearance rows
    also drive candidate-link selection downstream.
    """
    m_bar = appearance_matrix(owner, members, len(last_boxes), frame_dets, aff)
    m_hat = iou_matrix(last_boxes, frame_boxes)
    return -np.maximum(m_bar, m_hat), m_bar
