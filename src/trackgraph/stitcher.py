"""Long videos as overlapping clips: track each, then merge the seams.

Each clip's pipeline returns one id per clip detection, and run_clipped
makes the clip's tracks from them once, at the video's indices. Two
per-clip tracks describe the same object when they picked the same
input detections in the frames both cover. That overlap ratio drives a
bipartite assignment between consecutive clips; matched tracks merge
under the earlier clip's id, with the later clip owning any frame both
claim. A detection two output tracks would hold stays with the first.
Only clips that hold a detection are tracked, so a long run of empty
frames costs nothing. Remaining gaps are closed by linear interpolation
at the end.

Stitching relies on what run_clipped guarantees: an index names one
detection, indices rise with frame, tracks hold only real members and
the tracks merged so far are disjoint. A seam then reads each track only
from the later clip's lowest index on, in time that follows the overlap.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.core import (
    BoundingBox,
    Detection,
    Tracklet,
    ValidationError,
    box_fault,
    check_increasing,
    unchecked,
)
from trackgraph.ingest import DetectionSet
from trackgraph.solver import _id_groups

# sentinel cost for pairs that must not match; real costs stay in [0, 1]
_FORBIDDEN = 1e6


@dataclass(frozen=True)
class ClipPlan:
    """Clip length and the overlap consecutive clips share."""

    clip_len: int = 512
    overlap: int = 256

    def __post_init__(self):
        if not 0 < self.overlap < self.clip_len:
            raise ValidationError(
                f"need 0 < overlap < clip_len, got {self.overlap}/{self.clip_len}"
            )

    @property
    def stride(self) -> int:
        return self.clip_len - self.overlap

    def clips(self, dets: DetectionSet) -> Iterator[tuple[DetectionSet, int]]:
        """The clips that hold a detection, as (clip set, offset) pairs.

        Clips start every stride frames from frame 0, and the last one
        reaches the video end. A clip set keeps the frames [s, s +
        clip_len) of dets; detection i of it is detection offset + i of
        dets. Runs of empty clips are skipped in one step, so the work
        is bounded by the detections, not by the largest frame.
        """
        frames = dets.frames
        k = 0
        while True:
            s = k * self.stride
            lo, hi = np.searchsorted(frames, [s, s + self.clip_len]).tolist()
            if lo == frames.size:
                return
            if hi > lo:
                yield dets.slice(lo, hi, min(s + self.clip_len, dets.n_frames)), lo
            if s + self.clip_len >= dets.n_frames:
                return
            # the first later clip that holds detection lo
            k = max(k + 1, (int(frames[lo]) - self.clip_len) // self.stride + 1)


def _merge(a: Tracklet, b: Tracklet) -> Tracklet:
    """Union of members under a's id; b's choice wins a contested frame."""
    k = bisect_left(a.detections, b.detections[0].frame, key=attrgetter("frame"))
    by_frame = {d.frame: (i, d) for i, d in zip(a.det_indices[k:], a.detections[k:])}
    by_frame.update({d.frame: (i, d) for i, d in zip(b.det_indices, b.detections)})
    tail = [by_frame[f] for f in sorted(by_frame)]
    # a's frames before k all precede the sorted keys, so they increase
    return unchecked(Tracklet, id=a.id,
                     detections=a.detections[:k] + tuple(d for _, d in tail),
                     det_indices=a.det_indices[:k] + tuple(i for i, _ in tail))


def stitch(
    tracks_a: Sequence[Tracklet], tracks_b: Sequence[Tracklet]
) -> list[Tracklet]:
    """Merge two clips' track sets over their shared frame range.

    Input contract: an index names one detection, indices rise with
    frame, tracks hold only real members and the left tracks are
    disjoint. Each track is read from the right tracks' lowest index on;
    a left track that ends below it comes back as it is.
    Pairs that never chose a common detection cannot match. The
    assignment minimises total (1 - overlap ratio) over the rest, the
    ratio being shared detections over the union of both tracks;
    unmatched tracks pass through, right-side ones under fresh ids.
    Each input detection is placed once: the first track in output
    order (merged left tracks, then unmatched right ones) keeps it,
    later tracks drop it, and tracks left empty are dropped.
    """
    if not tracks_a or not tracks_b:
        return list(tracks_a) + list(tracks_b)
    lo = min(tb.det_indices[0] for tb in tracks_b)
    # right-side tracks by detection: a left track can only overlap the
    # ones holding one of its own detections
    holders: dict[int, list[int]] = {}
    for j, tb in enumerate(tracks_b):
        for i in tb.det_indices:
            holders.setdefault(i, []).append(j)
    # every left track keeps its row: linear_sum_assignment breaks ties
    # by position, so dropping all-forbidden rows can change its pick
    cost = np.full((len(tracks_a), len(tracks_b)), _FORBIDDEN)
    for r, ta in enumerate(tracks_a):
        shared = Counter(j for i in ta.det_indices[bisect_left(ta.det_indices, lo):]
                         for j in holders.get(i, ()))
        for j, n in shared.items():
            cost[r, j] = 1.0 - n / (len(ta) + len(tracks_b[j]) - n)
    rows, cols = linear_sum_assignment(cost)
    pair = {r: c for r, c in zip(rows, cols) if cost[r, c] < 1.5}

    left = [_merge(ta, tracks_b[pair[i]]) if i in pair else ta
            for i, ta in enumerate(tracks_a)]
    used_b = set(pair.values())
    right = [tb for j, tb in enumerate(tracks_b) if j not in used_b]
    next_id = max(t.id for t in left) + 1
    # the first track in output order keeps a detection; later ones drop it
    out, placed = [], set()
    for k, t in enumerate(left + right):
        s = bisect_left(t.det_indices, lo)
        kept = [(i, d) for i, d in zip(t.det_indices[s:], t.detections[s:])
                if i not in placed]
        placed.update(i for i, _ in kept)
        if k < len(left) and s + len(kept) == len(t):
            out.append(t)
        elif s or kept:
            out.append(Tracklet(t.id if k < len(left) else next_id,
                                t.detections[:s] + tuple(d for _, d in kept),
                                t.det_indices[:s] + tuple(i for i, _ in kept)))
            next_id += k >= len(left)  # right tracks take fresh ids
    return out


def interpolate_gaps(track: Tracklet) -> Tracklet:
    """Fill missing frames between consecutive members linearly.

    Inserted detections carry the endpoint-minimum confidence, the mean
    embedding, and detection index -1. Gap-free tracks come back as-is.
    Members are made in frame order, so only the inserted boxes and
    embeddings need a check.
    """
    dets = track.detections
    if all(b.frame - a.frame == 1 for a, b in zip(dets, dets[1:])):
        return track
    out, indices = [dets[0]], [track.det_indices[0]]
    for lo, hi, i in zip(dets, dets[1:], track.det_indices[1:]):
        gap = hi.frame - lo.frame
        if gap > 1:
            conf = min(lo.confidence, hi.confidence)
            emb = 0.5 * (lo.embedding + hi.embedding)
            if not np.all(np.isfinite(emb)):
                raise ValidationError("embedding must be finite")
            emb.setflags(write=False)
            a, b = lo.box, hi.box
            for k in range(1, gap):
                w = k / gap
                x, y = a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)
                bw, bh = a.w + w * (b.w - a.w), a.h + w * (b.h - a.h)
                if (fault := box_fault(x, y, bw, bh)) is not None:
                    raise ValidationError(fault)
                box = unchecked(BoundingBox, x=x, y=y, w=bw, h=bh)
                out.append(unchecked(Detection, frame=lo.frame + k, box=box,
                                     confidence=conf, embedding=emb, gt_id=None))
            indices += [-1] * (gap - 1)
        out.append(hi)
        indices.append(i)
    return unchecked(Tracklet, id=track.id, detections=tuple(out),
                     det_indices=tuple(indices))


def group_tracklets(
    dets: DetectionSet, det_ids: np.ndarray, offset: int, n_det: int
) -> list[Tracklet]:
    """One tracklet per id, in ascending id order.

    det_ids holds one id for each of the n_det detections of dets from
    offset on; detection offset + i joins the tracklet of det_ids[i].
    Members come in index order, so in frame order, and an id that
    holds two detections of one frame is refused, as Tracklet would.
    """
    ids, bounds, members = _id_groups(det_ids, n_det)
    members = members + offset
    check_increasing(dets.frames[members], bounds)
    records, order, bounds = dets.detections, members.tolist(), bounds.tolist()
    return [unchecked(Tracklet, id=g, det_indices=tuple(order[a:b]),
                      detections=tuple(records[i] for i in order[a:b]))
            for g, a, b in zip(ids.tolist(), bounds, bounds[1:])]


# a clip's detection set -> one id per detection of the clip
Pipeline = Callable[[DetectionSet], np.ndarray]


def run_clipped(
    dets: DetectionSet, plan: ClipPlan, pipeline: Pipeline
) -> list[Tracklet]:
    """Track a long video clip by clip and fold the results left to right.

    Only clips that hold a detection are tracked. The pipeline sees each
    clip as its own detection set and returns one id per detection of
    it; each id becomes one track at the video's indices before
    stitching. Gap interpolation runs once, on the final tracks.
    """
    merged: list[Tracklet] = []
    for sub, offset in plan.clips(dets):
        clip_tracks = group_tracklets(dets, pipeline(sub), offset, len(sub))
        merged = stitch(merged, clip_tracks) if merged else clip_tracks
    return [interpolate_gaps(t) for t in merged]
