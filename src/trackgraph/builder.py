"""Partially connected detection graph construction.

Frame-by-frame association groups raw detections into coarse tracklets,
returned as one tracklet number per detection, and emits candidate
detection links along the way. The part graph keeps every detection as
a node (detection i is node i) and exactly those links. Tracklets become
nodes only in the solver's trajectory graphs, built from the fragments
of pass 1 when tracking and from these numbers when training. Every
edge points forward in time, so the result is a DAG by construction.
The builder only decides which links exist, as two arrays of endpoint
indices; their descriptors are computed later, for the whole graph at
once, by mpn.graph_tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.affinity import AffinityMatrix, TrackSums, step_cost
from trackgraph.core import EdgeKind, TrackGraph, ValidationError, box_corners
from trackgraph.ingest import DetectionSet
from trackgraph.mpn import graph_tensors


@dataclass(frozen=True)
class BuilderConfig:
    """Association knobs: candidate fan-out, acceptance bar, history depth."""

    top_k: int = 5
    new_track_threshold: float = 0.3
    lookback: int = 32

    def __post_init__(self):
        if self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")
        if not (0.0 < self.new_track_threshold < 1.0):
            raise ValidationError(
                f"new_track_threshold must lie in (0, 1), got {self.new_track_threshold}"
            )
        if self.lookback < 1:
            raise ValidationError(f"lookback must be >= 1, got {self.lookback}")


def associate_frames(
    dets: DetectionSet, aff: AffinityMatrix, cfg: BuilderConfig
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Greedy-over-time association into tracklets plus candidate links.

    Returns (owner, (u, v)): owner[i] is detection i's tracklet, numbered
    in the order the tracklets start, and the links are two aligned int64
    arrays of their endpoints' detection indices.

    Detections of the first populated frame each start a tracklet. Every
    later frame runs an optimal assignment against the tracklets that
    still have a member inside the lookback window, at cost
    C = -max(appearance, iou), entries in [-1, 0]. A tracklet's
    appearance is its similarity sum over the members that share a
    window with the frame, divided by its members in the lookback and
    clipped to [0, 1]; iou is its last box's overlap. A pairing whose
    -C falls below the threshold is dropped and the detection starts a
    new tracklet. Each accepted match emits detection links from the
    tracklet's last member to the assigned detection and to the top-k
    appearance candidates of that frame (ties go to the earlier
    detection), which caps the link count at len(dets) * (top_k + 1).
    Each match keeps only those indices, no more than the widest frame
    offers, until the links are emitted, in match order, after the last
    frame.

    Only the work that hangs on the previous frame's matches runs frame
    by frame: the gate's and the lookback's lower indices are found for
    every frame up front, and box corners and areas once per clip. Each
    tracklet keeps a running sum of its gated members' vectors
    (affinity.TrackSums): a match adds one row, and the sum is redone
    from zero, in member order, only when the gate drops one of its
    members, so it adds up exactly as a sum over the gated members
    would.
    """
    if len(dets) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, (empty, empty)
    frames, n = dets.frames, len(dets)
    corners = box_corners(dets.boxes)
    # frames are sorted, so each frame is one index run [s, e), and a
    # track's members inside the lookback all lie in [a, s) with a the
    # first index at or past the lookback's start; window ends rise with
    # the frames, so the ones that also share a window with it lie in
    # [g, s), g the first index past both bounds
    starts = np.flatnonzero(np.diff(frames, prepend=frames[0] - 1))
    ends = np.append(starts[1:], n)
    lows = np.searchsorted(frames, frames[starts] - cfg.lookback)
    gates = np.maximum(lows, np.searchsorted(aff.window_end, frames[starts], side="right"))
    owner = np.empty(n, dtype=np.int64)  # each detection's track
    last = np.empty(n, dtype=np.int64)  # each track's last member
    sums = TrackSums(aff, n)
    n_tracks = 0
    # row i holds the i-th accepted match: its tail, and its top k
    # candidates then its detection, -1 where a frame is narrower than
    # k; each detection is matched at most once, so n rows suffice
    top_k = min(cfg.top_k, int((ends - starts).max()))
    link_tails = np.empty(n, dtype=np.int64)
    picks = np.full((n, top_k + 1), -1)
    kept = 0
    for s, e, a, g in zip(starts.tolist(), ends.tolist(), lows.tolist(), gates.tolist()):
        if g > sums.lo:
            sums.drop(owner, g, s)
        # every track so far ends before s; the active ones, ascending,
        # are those with a member in [a, s)
        count = np.bincount(owner[a:s], minlength=n_tracks)
        active = count.nonzero()[0]
        owner[s:e] = -1
        taken = 0
        if active.size:
            tails = last[active]
            m_bar = sums.means(active, count[active], slice(s, e))
            cost = step_cost(m_bar, corners[tails], corners[s:e])
            r, c = linear_sum_assignment(cost)
            ok = cost[r, c] <= -cfg.new_track_threshold
            r, c = r[ok], c[ok]
            extended, matched = active[r], s + c
            # a stable sort of the negated rows ranks ties by column
            top = (-m_bar[r]).argsort(axis=1, kind="stable")[:, :top_k]
            end = kept + r.size
            picks[kept:end, : top.shape[1]] = s + top
            picks[kept:end, -1] = matched
            link_tails[kept:end] = tails[r]
            kept = end
            owner[matched] = extended
            last[extended] = matched
            sums.add(extended, matched)
            taken = r.size
        if taken < e - s:
            # the detections left over each start a track
            new = s + (owner[s:e] < 0).nonzero()[0]
            started = np.arange(n_tracks, n_tracks + new.size)
            owner[new] = started
            last[started] = new
            sums.add(started, new)
            n_tracks += new.size
    # each match links its tail to its distinct picks in index order
    picks = np.sort(picks[:kept], axis=1)
    keep = picks >= 0
    keep[:, 1:] &= picks[:, 1:] != picks[:, :-1]
    return owner, (link_tails[keep.nonzero()[0]], picks[keep])


def build_part_graph(
    links: tuple[Sequence[int], Sequence[int]], dets: DetectionSet
) -> TrackGraph:
    """The part graph: detection i as node i, plus the (u, v) links."""
    return TrackGraph(dets, *links)


def edge_coverage(graph: TrackGraph, dets: DetectionSet) -> float:
    """Fraction of consecutive same-identity pairs an edge joins.

    Expects a part graph, whose node i is detection i of dets.
    Vacuously 1.0 with no pairs.
    """
    if not dets.has_gt:
        raise ValidationError("coverage needs ground-truth identities")
    # one stable sort by id puts each identity's detections in set order
    order = np.argsort(dets.gt_ids, kind="stable")
    same = dets.gt_ids[order[1:]] == dets.gt_ids[order[:-1]]
    first, second = order[:-1][same], order[1:][same]
    if not first.size:
        return 1.0
    n = len(dets)
    joined = np.isin(first * n + second, graph.u * n + graph.v)
    return int(joined.sum()) / first.size


def fully_connected_edge_count(dets: DetectionSet) -> int:
    """Closed-form edge count of the fully connected cross-frame graph."""
    n = len(dets)
    _, sizes = np.unique(dets.frames, return_counts=True)
    return (n * n - sum(k * k for k in sizes.tolist())) // 2


def dump_graph(graph: TrackGraph) -> str:
    """Line-oriented dump of a part graph: all nodes, then all edges."""
    dets = graph.dets
    rows = zip(dets.frames.tolist(), dets.boxes.tolist(), dets.confidence.tolist())
    lines = [f"node {i} det frame={f} box={x:g},{y:g},{w:g},{h:g} conf={c:g}"
             for i, (f, (x, y, w, h), c) in enumerate(rows)]
    if graph.n_edges:
        kind = EdgeKind.DET_DET.value
        rows = zip(graph.u.tolist(), graph.v.tolist(), graph_tensors(graph).feats)
        for u, v, row in rows:
            feats = ",".join(f"{x:g}" for x in row)
            # the format keeps a score field; a built graph is unscored
            lines.append(f"edge {u} {v} {kind} f={feats} score=none")
    return "\n".join(lines) + ("\n" if lines else "")
