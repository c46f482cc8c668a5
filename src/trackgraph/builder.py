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

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackgraph.affinity import AffinityMatrix, step_cost_matrix
from trackgraph.core import EdgeKind, TrackGraph, ValidationError, box_rows
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
    boxes = box_rows(d.box for d in dets.detections)
    frame_of = [d.frame for d in dets.detections]
    # each track's members (detection indices) are appended in frame order
    tracks: list[list[int]] = []
    last_frame = np.empty(len(dets), dtype=np.int64)
    link_u: list[int] = []
    link_v: list[int] = []
    frames = sorted(dets.by_frame)
    first = frames[0]
    for t in frames:
        idxs = dets.by_frame[t]
        lo = max(first, t - cfg.lookback)
        # every track so far ends before t
        active = np.flatnonzero(last_frame[: len(tracks)] >= lo).tolist()
        taken: set[int] = set()
        if active:
            members = [
                tracks[k][bisect_left(tracks[k], lo, key=frame_of.__getitem__):]
                for k in active
            ]
            last = [tracks[k][-1] for k in active]
            cost, m_bar = step_cost_matrix(members, boxes[last], idxs, boxes[idxs], aff)
            top = np.argsort(-m_bar, axis=1, kind="stable")[:, : cfg.top_k]
            for r, c in zip(*linear_sum_assignment(cost)):
                if -cost[r, c] < cfg.new_track_threshold:
                    continue
                v = int(idxs[c])
                targets = sorted({v} | set(idxs[top[r]].tolist()))
                link_u.extend([last[r]] * len(targets))
                link_v.extend(targets)
                tracks[active[r]].append(v)
                last_frame[active[r]] = t
                taken.add(int(c))
        new = [[int(j)] for c, j in enumerate(idxs) if c not in taken]
        last_frame[len(tracks): len(tracks) + len(new)] = t
        tracks.extend(new)
    return tracks, (link_u, link_v)


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
    by_id: dict[int, list[int]] = {}
    for i, d in enumerate(dets.detections):
        by_id.setdefault(d.gt_id, []).append(i)
    pairs = [
        p for idxs in by_id.values() for p in zip(idxs, idxs[1:])
    ]
    if not pairs:
        return 1.0
    edge_set = set(zip(graph.u.tolist(), graph.v.tolist()))
    return sum(p in edge_set for p in pairs) / len(pairs)


def fully_connected_edge_count(dets: DetectionSet) -> int:
    """Closed-form edge count of the fully connected cross-frame graph."""
    n = len(dets)
    ssq = sum(int(ix.size) ** 2 for ix in dets.by_frame.values())
    return (n * n - ssq) // 2


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
