"""Partially connected detection graph construction.

Frame-by-frame association groups raw detections into coarse tracklets,
returned as member index lists, and emits candidate detection links
along the way. The part graph keeps every detection as a node
(detection i is node i) and exactly those links. Tracklets become nodes
only in the solver's trajectory graphs, built from the fragments of
pass 1 when tracking and from these index lists when training. Every
edge points forward in time, so the result is a DAG by construction.
The builder only decides which links exist, as two lists of endpoint
indices; their descriptors are computed later, for the whole graph at
once, by mpn.graph_tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.affinity import AffinityMatrix, step_cost_matrix
from trackgraph.core import EdgeKind, TrackGraph, ValidationError
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
) -> tuple[list[list[int]], tuple[list[int], list[int]]]:
    """Greedy-over-time association into tracklets plus candidate links.

    Each tracklet comes back as the list of its members' detection
    indices, in frame order; the links come back as (u, v), two aligned
    lists of their endpoints' detection indices.

    Detections of the first populated frame each start a tracklet. Every
    later frame runs an optimal assignment against the tracklets that
    still have a member inside the lookback window; a pairing whose best
    score (mean window-gated appearance or last-box overlap) falls below the
    threshold is dropped and the detection starts a new tracklet. Each
    accepted match emits detection links from the tracklet's last member
    to the assigned detection and to the top-k appearance candidates of
    that frame, which caps the link count at len(dets) * (top_k + 1).
    """
    if len(dets) == 0:
        return [], ([], [])
    boxes, frames = dets.boxes, dets.frames
    # frames are sorted, so each frame is one index run [s, e), and a
    # track's members inside the lookback all lie in [a, s) with a the
    # first index at or past the lookback's start
    starts = np.flatnonzero(np.diff(frames, prepend=frames[0] - 1))
    ends = np.append(starts[1:], frames.size)
    lows = np.searchsorted(frames, np.maximum(frames[0], frames[starts] - cfg.lookback))
    owner = np.empty(frames.size, dtype=np.int64)  # each detection's track
    last = np.empty(frames.size, dtype=np.int64)  # each track's last member
    n_tracks = 0
    link_u: list[np.ndarray] = []
    link_v: list[np.ndarray] = []
    for s, e, a in zip(starts.tolist(), ends.tolist(), lows.tolist()):
        # every track so far ends before s; the active ones, ascending,
        # are those with a member in [a, s)
        is_active = last[:n_tracks] >= a
        active = np.flatnonzero(is_active)
        taken = np.zeros(e - s, dtype=bool)
        if active.size:
            rows = (np.cumsum(is_active) - 1)[owner[a:s]]
            idxs = np.arange(s, e)
            tails = last[active]
            cost, m_bar = step_cost_matrix(
                rows, np.arange(a, s), boxes[tails], idxs, boxes[s:e], aff)
            r, c = linear_sum_assignment(cost)
            ok = -cost[r, c] >= cfg.new_track_threshold
            r, c = r[ok], c[ok]
            # each accepted row links its tail to the matched detection
            # and to its top-k appearance candidates, in column order
            targets = np.zeros((r.size, e - s), dtype=bool)
            top = np.argsort(-m_bar[r], axis=1, kind="stable")[:, : cfg.top_k]
            accepted = np.arange(r.size)
            targets[accepted[:, None], top] = True
            targets[accepted, c] = True
            lr, lc = np.nonzero(targets)
            link_u.append(tails[r[lr]])
            link_v.append(s + lc)
            owner[s + c] = active[r]
            last[active[r]] = s + c
            taken[c] = True
        new = s + np.flatnonzero(~taken)
        owner[new] = np.arange(n_tracks, n_tracks + new.size)
        last[n_tracks: n_tracks + new.size] = new
        n_tracks += new.size
    # members come out of one stable sort by track, so in frame order
    order = np.argsort(owner, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(owner, minlength=n_tracks)).tolist()
    tracks = [order[i:j] for i, j in zip([0] + bounds[:-1], bounds)]
    empty = np.empty(0, dtype=np.int64)
    return tracks, (np.concatenate([empty, *link_u]).tolist(),
                    np.concatenate([empty, *link_v]).tolist())


def build_part_graph(
    links: tuple[Sequence[int], Sequence[int]], dets: DetectionSet
) -> TrackGraph:
    """The part graph: detection i as node i, plus the (u, v) links."""
    return TrackGraph(dets.detections, *links)


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
    lines = []
    for i, d in enumerate(graph.nodes):
        b = d.box
        lines.append(
            f"node {i} det frame={d.frame} "
            f"box={b.x:g},{b.y:g},{b.w:g},{b.h:g} conf={d.confidence:g}"
        )
    if graph.n_edges:
        kind = EdgeKind.DET_DET.value
        rows = zip(graph.u.tolist(), graph.v.tolist(), graph_tensors(graph).feats)
        for u, v, row in rows:
            feats = ",".join(f"{x:g}" for x in row)
            # the format keeps a score field; a built graph is unscored
            lines.append(f"edge {u} {v} {kind} f={feats} score=none")
    return "\n".join(lines) + ("\n" if lines else "")
