"""Long videos as overlapping clips: track each, then merge the seams.

Each clip's pipeline returns one id per clip detection, and run_clipped
makes the clip's tracks from them once, at the video's indices. Two
per-clip tracks describe the same object when they picked the same
input detections in the frames both cover. That overlap ratio drives a
bipartite assignment between consecutive clips; matched tracks merge
under the earlier clip's id, with the later clip owning any frame both
claim. Each seam detection has one owner: the first track that claims it.
Only clips that hold a detection are tracked, so a long run of empty
frames costs nothing. Remaining gaps are closed by linear interpolation
at the end.

A track is a Tracklet's columns, gathered once per clip from the
video's set. Scoring a seam, owning its detections and interpolating
all read and write those columns, so tracking makes no Detection
record; a track's detections are a view made on first read.

Stitching relies on what run_clipped guarantees: an index names one
detection, indices rise with frame, tracks hold only real members and
the tracks merged so far are disjoint. A seam then reads each track only
from the later clip's first frame on, in time that follows the overlap,
though a merged track's columns are still copied whole.
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
    order; the caller vouches that their frames strictly increase, or
    uses the result only as a table of columns."""
    return unchecked(Tracklet, id=track_id, **{
        name: frozen(np.concatenate([getattr(t, name)[rows] for t, rows in parts]))
        for name in _COLUMNS})


def stitch(
    tracks_a: Sequence[Tracklet], tracks_b: Sequence[Tracklet]
) -> list[Tracklet]:
    """Merge two clips' track sets over their shared frame range.

    Input contract: an index names one detection, indices rise with
    frame, tracks hold only real members and the left tracks are
    disjoint. The seam is every right track's detections and every left
    member from the right tracks' first frame on.
    Pairs that never chose a common detection cannot match. The
    assignment minimises total (1 - overlap ratio) over the rest, the
    ratio being shared detections over the union of both whole tracks.
    A seam detection goes to the first track in output order that claims
    it: its left track, unless that track's mate holds another detection
    in its frame; its right track's mate; its right track if unmatched.
    Left tracks keep their ids and rows before the seam, and one that
    keeps every row comes back as it is; unmatched right tracks follow
    under fresh ids; tracks left empty are dropped.
    """
    if not tracks_a or not tracks_b:
        return list(tracks_a) + list(tracks_b)
    n_a, n_b = len(tracks_a), len(tracks_b)
    first = min(int(tb.frames[0]) for tb in tracks_b)
    heads = [int(np.searchsorted(ta.frames, first)) for ta in tracks_a] + [0] * n_b
    tracks = [*tracks_a, *tracks_b]
    # the left tails, then the right tracks, as one table of rows (a
    # detection both sides hold comes twice), and each row's track
    table = _joined(-1, [(t, slice(h, None)) for t, h in zip(tracks, heads)])
    holder = np.repeat(np.arange(n_a + n_b), [len(t) - h for t, h in zip(tracks, heads)])
    # the seam: one row per detection, by index, with its left and right
    # track (-1 where there is none) and its first row of the table
    seam, row, at = np.unique(table.indices, return_index=True, return_inverse=True)
    n_tail = int(np.searchsorted(holder, n_a))
    left, right = np.full((2, seam.size), -1)
    left[at[:n_tail]] = holder[:n_tail]
    right[at[n_tail:]] = holder[n_tail:] - n_a

    both = (left >= 0) & (right >= 0)
    pairs, shared = np.unique(left[both] * n_b + right[both], return_counts=True)
    r, j = np.divmod(pairs, n_b)
    sizes = np.asarray([len(t) for t in tracks])
    # every left track keeps its row: linear_sum_assignment breaks ties
    # by position, so dropping all-forbidden rows can change its pick
    cost = np.full((n_a, n_b), _FORBIDDEN)
    cost[r, j] = 1.0 - shared / (sizes[r] + sizes[n_a + j] - shared)
    rows, cols = linear_sum_assignment(cost)
    matched = cost[rows, cols] < 1.5

    # the position that claims each detection, n_a + n_b for none: a
    # right track's mate or, when it is unmatched, the track itself
    none = n_a + n_b
    claim_b = n_a + np.arange(n_b)
    claim_b[cols[matched]] = rows[matched]
    by_right = np.where(right >= 0, claim_b[right], none)
    # a left member yields when its track's mate holds a detection of its
    # frame; seam frames do not decrease, so a frame's first row keys it
    frames = table.frames[row]
    slot = np.searchsorted(frames, frames)
    merged = by_right < n_a
    yields = np.isin(left * seam.size + slot, by_right[merged] * seam.size + slot[merged])
    owner = np.minimum(np.where((left < 0) | yields, none, left), by_right)

    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(none + 1)).tolist()
    owned = [row[order[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    mated = set(rows[matched].tolist())
    out = []
    for k, (ta, h, mine) in enumerate(zip(tracks_a, heads, owned)):
        if k not in mated and mine.size == len(ta) - h:
            out.append(ta)
        elif h or mine.size:
            out.append(_joined(ta.id, [(ta, slice(h)), (table, mine)]))
    next_id = max(ta.id for ta in tracks_a) + 1
    for mine in owned[n_a:]:  # the unmatched right tracks', under fresh ids
        if mine.size:
            out.append(_joined(next_id, [(table, mine)]))
            next_id += 1
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
