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

A track is a Tracklet's columns, gathered once per clip from the
video's set. Scoring a seam, merging, placing each detection once and
interpolating all read and write those columns, so tracking makes no
Detection record; a track's detections are a view made on first read.

Stitching relies on what run_clipped guarantees: an index names one
detection, indices rise with frame, tracks hold only real members and
the tracks merged so far are disjoint. A seam then reads each track only
from the later clip's lowest index on, in time that follows the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.core import (
    Tracklet,
    ValidationError,
    box_fault,
    box_faults,
    check_increasing,
    frozen,
    gather_tracklets,
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


# a Tracklet's column fields, all but its id
_COLUMNS = tuple(f.name for f in fields(Tracklet) if f.name != "id")


def _joined(track_id: int, parts) -> Tracklet:
    """A track under track_id of the rows of each (track, rows) part, in
    order; the caller vouches that their frames strictly increase."""
    return unchecked(Tracklet, id=track_id, **{
        name: frozen(np.concatenate([getattr(t, name)[rows] for t, rows in parts]))
        for name in _COLUMNS})


def _merge(a: Tracklet, b: Tracklet) -> Tracklet:
    """Union of members under a's id; b's choice wins a contested frame."""
    k = int(np.searchsorted(a.frames, b.frames[0]))
    contested = np.isin(a.frames[k:], b.frames)
    tail = _joined(a.id, [(a, k + np.flatnonzero(~contested)), (b, slice(None))])
    # a's frames before k all precede the tail's, so they increase
    return _joined(a.id, [(a, slice(k)), (tail, np.argsort(tail.frames, kind="stable"))])


def _overlap_costs(tracks_a: Sequence[Tracklet], tracks_b: Sequence[Tracklet],
                   starts: list[int]) -> np.ndarray:
    """The assignment's cost matrix: 1 - overlap ratio for each pair that
    chose a common detection, _FORBIDDEN for the rest. Left track r is
    read from row starts[r] on."""
    # the right tracks' members by index, each with its track's column
    held = np.concatenate([tb.indices for tb in tracks_b])
    order = np.argsort(held, kind="stable")
    held = held[order]
    holder = np.repeat(np.arange(len(tracks_b)), [len(tb) for tb in tracks_b])[order]
    # every (left row, right column) pair per detection both hold
    tails = [ta.indices[s:] for ta, s in zip(tracks_a, starts)]
    mine = np.concatenate(tails)
    first = np.searchsorted(held, mine)
    count = np.searchsorted(held, mine, side="right") - first
    rows = np.repeat(np.repeat(np.arange(len(tracks_a)), [t.size for t in tails]), count)
    cols = holder[np.repeat(first - np.cumsum(count) + count, count)
                  + np.arange(rows.size)]
    pairs, shared = np.unique(rows * len(tracks_b) + cols, return_counts=True)
    r, j = np.divmod(pairs, len(tracks_b))
    sizes_a = np.asarray([len(ta) for ta in tracks_a])
    sizes_b = np.asarray([len(tb) for tb in tracks_b])
    # every left track keeps its row: linear_sum_assignment breaks ties
    # by position, so dropping all-forbidden rows can change its pick
    cost = np.full((len(tracks_a), len(tracks_b)), _FORBIDDEN)
    cost[r, j] = 1.0 - shared / (sizes_a[r] + sizes_b[j] - shared)
    return cost


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
    lo = min(int(tb.indices[0]) for tb in tracks_b)
    starts = [int(np.searchsorted(ta.indices, lo)) for ta in tracks_a]
    cost = _overlap_costs(tracks_a, tracks_b, starts)
    rows, cols = linear_sum_assignment(cost)
    pair = {r: c for r, c in zip(rows.tolist(), cols.tolist()) if cost[r, c] < 1.5}

    left = [_merge(ta, tracks_b[pair[i]]) if i in pair else ta
            for i, ta in enumerate(tracks_a)]
    used_b = set(pair.values())
    right = [tb for j, tb in enumerate(tracks_b) if j not in used_b]
    next_id = max(t.id for t in left) + 1
    # the first track in output order keeps a detection; later ones drop it
    ordered = left + right
    starts = [int(np.searchsorted(t.indices, lo)) for t in ordered]
    tails = np.concatenate([t.indices[s:] for t, s in zip(ordered, starts)])
    first = np.zeros(tails.size, dtype=bool)
    first[np.unique(tails, return_index=True)[1]] = True
    out, end = [], 0
    for k, (t, s) in enumerate(zip(ordered, starts)):
        kept = s + np.flatnonzero(first[end : end + len(t) - s])
        end += len(t) - s
        if k < len(left) and kept.size == len(t) - s:
            out.append(t)
        elif s or kept.size:
            out.append(_joined(t.id if k < len(left) else next_id,
                               [(t, slice(s)), (t, kept)]))
            next_id += k >= len(left)  # right tracks take fresh ids
    return out


def interpolate_gaps(track: Tracklet) -> Tracklet:
    """Fill missing frames between consecutive members linearly.

    The k-th of the gap - 1 rows inserted in a gap holds the box at
    weight k / gap on the segment between the members around it, their
    smaller confidence, their mean embedding, detection index -1 and no
    identity. Every gap is filled in one array pass, in the operation
    order of the scalar formula lo + w * (hi - lo), so each value is
    bit-equal to it. Gap-free tracks come back as-is. The first inserted
    row whose mean embedding or box Detection or BoundingBox would refuse
    is refused, its embedding checked first.
    """
    frames = track.frames
    first, last = frames[[0, -1]].tolist()
    if last - first + 1 == frames.size:  # frames strictly increase
        return track
    is_new = np.ones(last - first + 1, dtype=bool)
    is_new[frames - first] = False
    new_frames = first + np.flatnonzero(is_new)
    lo = np.searchsorted(frames, new_frames) - 1  # the member before each
    hi = lo + 1
    weight = ((new_frames - frames[lo]) / (frames[hi] - frames[lo]))[:, None]
    b, c, e = track.boxes, track.confidence, track.embeddings
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = b[lo] + weight * (b[hi] - b[lo])
        emb = 0.5 * (e[lo] + e[hi])
    bad_emb = ~np.isfinite(emb).all(axis=1)
    bad = np.flatnonzero(bad_emb | box_faults(boxes))
    if bad.size:
        r = bad[0]
        raise ValidationError("embedding must be finite" if bad_emb[r]
                              else box_fault(*boxes[r].tolist()))
    inserted = {"indices": -1, "frames": new_frames, "boxes": boxes,
                # min(lo, hi): hi only where it is smaller
                "confidence": np.where(c[hi] < c[lo], c[hi], c[lo]),
                "embeddings": emb, "gt_ids": -1}
    columns = {}
    for name in _COLUMNS:
        real = getattr(track, name)
        col = np.empty(is_new.shape + real.shape[1:], dtype=real.dtype)
        col[~is_new] = real
        col[is_new] = inserted[name]
        columns[name] = frozen(col)
    return unchecked(Tracklet, id=track.id, **columns)


def group_tracklets(
    dets: DetectionSet, det_ids: np.ndarray, offset: int, n_det: int
) -> list[Tracklet]:
    """One tracklet per id, in ascending id order.

    det_ids holds one id for each of the n_det detections of dets from
    offset on; detection offset + i joins the tracklet of det_ids[i].
    Members come in index order, so in frame order, and an id that
    holds two detections of one frame is refused, as Tracklet would.
    Each tracklet's columns are gathered from the set's frames, boxes,
    confidence, embedding and identity columns; no record is made.
    """
    ids, bounds, members = _id_groups(det_ids, n_det)
    members = members + offset
    check_increasing(dets.frames[members], bounds)
    return gather_tracklets(dets, ids.tolist(), bounds, members)


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
