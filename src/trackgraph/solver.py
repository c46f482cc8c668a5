"""Identity assignment from edge scores.

Rounding projects fractional edge scores onto flow-feasible binary
labelings: at most one positive outgoing and one positive incoming
edge per node, the discrete analogue of unit-capacity flow. A greedy
projection does the rounding; the tests hold an exhaustive oracle for
small instances. Aggregation then assigns identities twice. Over the
part graph's detection links, the rounded edges chain the detections
into paths, which label the detections as they are. Trajectory graphs,
whose nodes group the detections by the first pass's fragments, are
re-scored with the same parameters, and connected components over their
edges above the threshold merge fragments, refusing any merge that would
put two time-overlapping nodes in one group. Both passes read the
graph's endpoint arrays and node spans, and a trajectory graph's nodes
are index groups over the clip's detection set, not records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from trackgraph.core import TrackGraph, ValidationError, _endpoints, group_spans
from trackgraph.ingest import DetectionSet
from trackgraph.mpn import GraphTensors, MpnParams, forward


@dataclass(frozen=True, eq=False)
class RoundingProblem:
    """Scored forward edges over n_nodes as three aligned read-only arrays.

    Edge k runs from node u[k] to node v[k] with score scores[k] in
    [0, 1].
    """

    n_nodes: int
    u: np.ndarray
    v: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        u, v = _endpoints("u", self.u), _endpoints("v", self.v)
        scores = np.array(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "scores", scores)
        if not (u.size == v.size == scores.size and scores.ndim == 1):
            raise ValidationError("rounding edges, endpoints and scores must align")
        if (u == v).any():
            raise ValidationError("rounding edge endpoints must differ")
        n = self.n_nodes
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"edge ({u[k]}, {v[k]}) endpoint out of range")
        # the negation also refuses NaN
        off = ~((scores >= 0.0) & (scores <= 1.0))
        if off.any():
            raise ValidationError(
                f"edge score must lie in [0, 1], got {scores[np.argmax(off)]}")

    @property
    def n_edges(self) -> int:
        return self.u.size


def _strongest_first(u: np.ndarray, v: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Edge positions by descending score, ties by (u, v), then storage order."""
    return np.lexsort((v, u, -scores))


def greedy_round(problem: RoundingProblem, eps: float = 0.5) -> np.ndarray:
    """Accept edges above eps strongest-first while both degree budgets are free.

    Returns one 0/1 label per edge, in the problem's edge order.
    """
    u, v, scores = problem.u, problem.v, problem.scores
    cand = np.flatnonzero(scores > eps)
    cand = cand[_strongest_first(u[cand], v[cand], scores[cand])]
    labels = np.zeros(problem.n_edges, dtype=np.int64)
    out_used = [False] * problem.n_nodes
    in_used = [False] * problem.n_nodes
    for k, a, b in zip(cand.tolist(), u[cand].tolist(), v[cand].tolist()):
        if not out_used[a] and not in_used[b]:
            labels[k] = 1
            out_used[a] = True
            in_used[b] = True
    return labels


def connected_components_ids(
    spans: np.ndarray, u: np.ndarray, v: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Group nodes along positive edges without overlapping any spans.

    Edge k links u[k] and v[k] with score scores[k]. Edges merge
    strongest-first; a merge is refused when the two groups occupy a
    common frame. Returns one id per node, numbered by first
    appearance. A group's frames are one Python int, bit f - first frame
    standing for frame f: & tests a merge and | applies it.
    """
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    order = _strongest_first(u, v, np.asarray(scores, dtype=np.float64))
    n = spans.shape[0]
    parent = list(range(n))
    lo = spans[:, 0] - (spans[:, 0].min() if n else 0)
    width = spans[:, 1] - spans[:, 0] + 1
    frames = [((1 << w) - 1) << s for s, w in zip(lo.tolist(), width.tolist())]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(u[order].tolist(), v[order].tolist()):
        ra, rb = find(a), find(b)
        if ra == rb or frames[ra] & frames[rb]:
            continue
        parent[rb] = ra
        frames[ra] |= frames[rb]
    return _relabel(np.asarray([find(i) for i in range(n)], dtype=np.int64))


def path_ids(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One id per node along edges that form vertex-disjoint paths.

    Each node has at most one edge out and one in, and every edge points
    forward in time, so the edges u[k] -> v[k] chain the nodes into
    paths and no cycle. Each node points at its predecessor, and the
    pointers jump (head = head[head]) until every node names its path's
    first node. Returns one id per node, numbered by first appearance:
    what connected_components_ids gives when each node spans one frame,
    since no two of these paths can then share one.
    """
    head = np.arange(n_nodes)
    head[v] = u
    while True:
        jumped = head[head]
        if np.array_equal(jumped, head):
            return _relabel(head)
        head = jumped


def _relabel(ids: np.ndarray) -> np.ndarray:
    """Consecutive ids in order of first appearance."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def span_disjoint_edges(
    spans: np.ndarray, max_gap: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory edges for the node pairs whose frame spans are disjoint.

    spans holds each node's inclusive (first, last) frames as a row.
    Returns the (u, v) endpoint arrays, naming nodes by position. Each
    edge points from the earlier span to the later one. When max_gap
    (>= 0) is given, a pair is kept only if its gap, the later start
    minus the earlier end, is at most max_gap. Pairs come in node order,
    by lower then higher position, as a double loop over i < j meets
    them. One sort of the start frames finds each node's successors, so
    the work and memory follow the edges kept, not the square of the
    node count.
    """
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    n = spans.shape[0]
    by_start = np.argsort(spans[:, 0], kind="stable")
    starts = spans[by_start, 0]
    # node i's successors sit at by_start[lo[i]:hi[i]]
    lo = np.searchsorted(starts, spans[:, 1], side="right")
    hi = n if max_gap is None else np.searchsorted(
        starts, spans[:, 1] + max_gap, side="right")
    counts = hi - lo
    u = np.repeat(np.arange(n), counts)
    # edge k is successor k - first[u[k]] of its node
    first = np.cumsum(counts) - counts
    v = by_start[lo[u] + np.arange(u.size) - first[u]]
    order = np.argsort(np.minimum(u, v) * n + np.maximum(u, v))
    return u[order], v[order]


def _id_groups(det_ids: np.ndarray, n_det: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ids, ascending, and the CSR table (offsets, members)
    of the detections under each, in index order, from one stable sort;
    det_ids must hold one integer id per detection."""
    det_ids = np.asarray(det_ids)
    if det_ids.shape != (n_det,) or (n_det and det_ids.dtype.kind not in "iu"):
        raise ValidationError("det_ids must align with detections")
    members = np.argsort(det_ids, kind="stable")
    ids, starts = np.unique(det_ids[members], return_index=True)
    return ids, np.append(starts, n_det), members


def build_traj_graph(
    dets: DetectionSet, det_ids: np.ndarray, max_gap: Optional[int] = None,
) -> TrackGraph:
    """Trajectory-level graph: one node per id, edges where spans allow.

    Node p holds the detections of the p-th smallest id, in index order,
    length one included; pairs with disjoint frame spans, and a gap of
    at most max_gap when it is given, connect earlier span first, in the
    order span_disjoint_edges gives.
    """
    _, offsets, members = _id_groups(det_ids, len(dets))
    spans = group_spans(dets.frames, offsets, members)
    return TrackGraph(dets, *span_disjoint_edges(spans, max_gap), (offsets, members))


def tracklet_ids(owner: np.ndarray) -> np.ndarray:
    """One raw id per detection: the builder's coarse tracklets.

    owner[i] is detection i's tracklet (builder.associate_frames). A
    detection of a tracklet with two or more members gets the detection
    count plus that tracklet's rank among them; any other detection
    keeps its own index. Training groups the detections by these ids
    into its trajectory-level graphs.
    """
    owner = np.asarray(owner, dtype=np.int64)
    multi = np.bincount(owner) >= 2
    rank = np.cumsum(multi) - 1
    return np.where(multi[owner], owner.size + rank[owner], np.arange(owner.size))


ScoreFn = Callable[[Union[TrackGraph, GraphTensors]], np.ndarray]


def aggregate(
    graph: TrackGraph,
    params: Optional[MpnParams],
    eps: float = 0.5,
    traj_passes: int = 1,
    score_fn: Optional[ScoreFn] = None,
    max_gap: Optional[int] = None,
) -> np.ndarray:
    """Two-stage identity assignment over a part graph.

    Pass 1 scores and rounds the detection links into identities. Each
    trajectory pass then regroups the current identities into tracklet
    nodes, re-scores their graph with the same parameters, keeps edges
    above the threshold, and merges groups whose spans stay disjoint;
    it stops early when nothing merges. A max_gap leaves out of the
    trajectory graphs every pair whose gap exceeds it: exact when no such
    pair can score above eps. Takes a graph of detection
    nodes only and returns one id per node, numbered by first
    appearance.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    if traj_passes < 0:
        raise ValidationError("traj_passes must be non-negative")
    n_det = graph.n_nodes
    if n_det == 0:
        return np.zeros(0, dtype=np.int64)
    if graph.groups is not None:
        raise ValidationError("aggregate takes a graph of detection nodes only")

    def run_scores(g: TrackGraph) -> np.ndarray:
        if score_fn is not None:
            return np.asarray(score_fn(g), dtype=np.float64)
        if params is None:
            raise ValidationError("aggregate needs params or a score_fn")
        return forward(g, params)[1]

    problem = RoundingProblem(n_det, graph.u, graph.v,
                              np.clip(run_scores(graph), 0.0, 1.0))
    pos = greedy_round(problem, eps).astype(bool)
    ids = path_ids(n_det, problem.u[pos], problem.v[pos])

    for _ in range(traj_passes):
        tg = build_traj_graph(graph.dets, ids, max_gap)
        if tg.n_nodes <= 1:
            break
        t_scores = run_scores(tg)
        keep = t_scores > eps
        gids = connected_components_ids(
            tg.spans, tg.u[keep], tg.v[keep], np.clip(t_scores[keep], 0.0, 1.0))
        if gids.max() + 1 == tg.n_nodes:
            break
        # node p of the trajectory graph holds the p-th smallest id
        ids = gids[np.unique(ids, return_inverse=True)[1]]
    return _relabel(ids)
