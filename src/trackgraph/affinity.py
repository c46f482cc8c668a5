"""Window-gated appearance affinity over a clip.

Sliding windows (WindowPlan) cover the clip. Two detections in
different frames are compared only when some window holds both; every
other pair reads 0. With frames f_i < f_j the pair shares a window iff
f_j < window_end(f_i), the end of the latest window starting at or
before f_i. The test is closed-form, so no score is stored.

A scorer bound to the clip gives each detection a vector, and the
scores an offset and a divisor: two detections score (offset + the dot
product of their vectors) / divisor. Cosine takes the unit embeddings
(offset 1, divisor 2), the oracle one-hot identities (offset 0, divisor
1), whose dot products count identity matches exactly. A score is
linear in each vector, so association (builder.associate_frames) keeps
one running vector sum per track over its window-gated members: a match
adds its row, and a sum is redone from zero, in member order, only when
the gate drops one of the track's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from trackgraph.core import ValidationError, iou_corners
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


# scorer(dets) -> (vectors, offset, divisor): detections i and j score
# (offset + vectors[i] . vectors[j]) / divisor, a similarity in [0, 1]
Scorer = Callable[[DetectionSet], tuple[np.ndarray, float, float]]


def cosine_scorer(dets: DetectionSet) -> tuple[np.ndarray, float, float]:
    """(1 + cosine) / 2 between embeddings, over the unit vectors."""
    emb = dets.embeddings()
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise ValidationError("cosine similarity undefined for zero embeddings")
    return emb / norms[:, None], 1.0, 2.0


def oracle_scorer(dets: DetectionSet) -> tuple[np.ndarray, float, float]:
    """1 for same annotated identity, 0 otherwise.

    The vectors are one-hot over the clip's identities, so the dot
    products of their sums are exact counts; they take one float per
    detection and identity.
    """
    if len(dets) and not dets.has_gt:
        raise ValidationError("oracle scorer needs identities on every detection")
    ids, column = np.unique(dets.gt_ids, return_inverse=True)
    onehot = np.zeros((len(dets), ids.size))
    onehot[np.arange(len(dets)), column] = 1.0
    return onehot, 0.0, 1.0


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Cross-frame similarity of the pairs that share a window.

    Holds each detection's frame and window end (WindowPlan.window_end)
    plus the scorer's vectors, offset and divisor; similarities are
    computed when read.
    """

    frames: np.ndarray
    window_end: np.ndarray
    vectors: np.ndarray
    offset: float
    divisor: float

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
    return AffinityMatrix(frames, plan.window_end(frames, origin), *scorer(dets))


class TrackSums:
    """Running similarity sums of tracks over their window-gated members.

    Track r keeps the sum of its members' vectors and their count, over
    the members from the gate's lower index lo on; lo starts at 0 and
    only rises (drop). Members are added in index order, and the sum of
    a track the gate drops a member of is redone from zero, so every sum
    adds its members one by one, in order, from zero.
    """

    def __init__(self, aff: AffinityMatrix, n_tracks: int):
        self.aff = aff
        self.sums = np.zeros((n_tracks, aff.vectors.shape[1]))
        self.members = np.zeros(n_tracks)
        self.lo = 0

    def add(self, tracks: np.ndarray, dets: np.ndarray) -> None:
        """Append detection dets[i] to track tracks[i]; the tracks are
        distinct, each detection later than its track's members."""
        self.sums[tracks] += self.aff.vectors[dets]
        self.members[tracks] += 1.0

    def drop(self, owner: np.ndarray, lo: int, hi: int) -> None:
        """Raise the gate's lower index to lo.

        owner[i] is the track of detection i, and every member lies
        below hi. The tracks that owned a member in [old lo, lo) are
        summed again from zero over their members in [lo, hi).
        """
        dropped = owner[self.lo:lo]
        self.sums[dropped] = 0.0
        self.members[dropped] = 0.0
        redo = np.zeros(self.members.size, dtype=bool)
        redo[dropped] = True
        kept = lo + redo[owner[lo:hi]].nonzero()[0]
        # ufunc.at adds the rows one by one, in order
        np.add.at(self.sums, owner[kept], self.aff.vectors[kept])
        np.add.at(self.members, owner[kept], 1.0)
        self.lo = lo

    def means(self, tracks: np.ndarray, counts: np.ndarray, dets) -> np.ndarray:
        """Mean similarity of each track to each of dets, (tracks, dets).

        Row i is track tracks[i]'s similarity sum over its gated members,
        divided by counts[i] (members outside the gate count as 0) and
        clipped to [0, 1], since a sum can overshoot by one ulp. dets
        indexes the detections: an index array or a slice.
        """
        aff = self.aff
        # einsum rounds a track's row alike whatever the number of
        # tracks; a BLAS product does not, so exact ties would hang on
        # other tracks
        rows = np.einsum("ik,jk->ij", self.sums[tracks], aff.vectors[dets])
        rows += aff.offset * self.members[tracks, None]
        rows /= aff.divisor
        rows /= counts[:, None]
        return np.minimum(np.maximum(rows, 0.0, out=rows), 1.0, out=rows)


def step_cost(means: np.ndarray, tails: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Association costs C = -max(mean similarity, IoU), entries in [-1, 0].

    Row i pairs track i, whose mean similarities are means[i] and whose
    last box has corners tails[i], with the detections whose corners are
    the rows of boxes (core.box_corners).
    """
    return -np.maximum(means, iou_corners(tails[:, None], boxes))
