"""Identity assignment from edge scores.

Rounding projects fractional edge scores onto flow-feasible binary
labelings: at most one positive outgoing and one positive incoming
edge per node, the discrete analogue of unit-capacity flow. A greedy
projection handles real instances; an exhaustive oracle checks it on
small ones. Connected components over the positive edges then assign
identities, refusing any merge that would put two time-overlapping
nodes in one group. Aggregation applies the machinery twice: once over
the part graph's detection links, then over trajectory graphs whose
nodes are the tracklets of the first pass, re-scored with the same
parameters. Tracklets are nodes only in those trajectory graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from trackgraph.core import (
    Detection,
    NodeKind,
    TrackGraph,
    Tracklet,
    ValidationError,
)
from trackgraph.mpn import GraphTensors, MpnParams, forward

_EXACT_EDGE_CAP = 20

ScoredEdge = tuple[int, int, float]


@dataclass(frozen=True)
class RoundingProblem:
    """Scored forward edges over n_nodes; scores live in [0, 1]."""

    n_nodes: int
    edges: tuple[ScoredEdge, ...] = ()

    def __post_init__(self):
        for u, v, s in self.edges:
            if u == v:
                raise ValidationError("rounding edge endpoints must differ")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValidationError(f"edge ({u}, {v}) endpoint out of range")
            if not (0.0 <= s <= 1.0):
                raise ValidationError(f"edge score must lie in [0, 1], got {s}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def scores(self) -> np.ndarray:
        return np.asarray([s for _, _, s in self.edges], dtype=np.float64)


def _candidate_order(problem: RoundingProblem, eps: float) -> list[int]:
    """Edges above the threshold, strongest first, endpoint tie-break."""
    idx = [k for k, (_, _, s) in enumerate(problem.edges) if s > eps]
    idx.sort(key=lambda k: (-problem.edges[k][2], problem.edges[k][0], problem.edges[k][1]))
    return idx


def greedy_round(problem: RoundingProblem, eps: float = 0.5) -> np.ndarray:
    """Accept edges strongest-first while both degree budgets are free.

    Returns one 0/1 label per edge, in the problem's edge order.
    """
    labels = np.zeros(problem.n_edges, dtype=np.int64)
    out_used = np.zeros(problem.n_nodes, dtype=bool)
    in_used = np.zeros(problem.n_nodes, dtype=bool)
    for k in _candidate_order(problem, eps):
        u, v, _ = problem.edges[k]
        if not out_used[u] and not in_used[v]:
            labels[k] = 1
            out_used[u] = True
            in_used[v] = True
    return labels


def exact_round(problem: RoundingProblem, eps: float = 0.5) -> np.ndarray:
    """Exhaustive optimum of the rounding objective; ties pick fewer ones.

    Only edges above the threshold may be labeled 1, mirroring the
    greedy candidate rule so the two are comparable. Minimizes
    sum of (1 - 2 * score) over the chosen edges, which is the variable
    part of ||labels - scores||^2. Capped at 20 edges.
    """
    if problem.n_edges > _EXACT_EDGE_CAP:
        raise ValidationError(
            f"exhaustive rounding handles at most {_EXACT_EDGE_CAP} edges, "
            f"got {problem.n_edges}"
        )
    cand = sorted(_candidate_order(problem, eps))  # storage order for lex ties
    costs = [1.0 - 2.0 * problem.edges[k][2] for k in cand]
    # best possible remaining improvement from position i onward
    neg_suffix = [0.0] * (len(cand) + 1)
    for i in range(len(cand) - 1, -1, -1):
        neg_suffix[i] = neg_suffix[i + 1] + min(costs[i], 0.0)

    best_cost = np.inf
    best: Optional[np.ndarray] = None
    labels = np.zeros(problem.n_edges, dtype=np.int64)
    out_used = np.zeros(problem.n_nodes, dtype=bool)
    in_used = np.zeros(problem.n_nodes, dtype=bool)

    def walk(i: int, cost: float):
        nonlocal best_cost, best
        if cost + neg_suffix[i] >= best_cost:
            return
        if i == len(cand):
            best_cost = cost
            best = labels.copy()
            return
        k = cand[i]
        u, v, _ = problem.edges[k]
        walk(i + 1, cost)  # zero branch first keeps ties lexicographic
        if not out_used[u] and not in_used[v]:
            labels[k] = 1
            out_used[u] = True
            in_used[v] = True
            walk(i + 1, cost + costs[i])
            labels[k] = 0
            out_used[u] = False
            in_used[v] = False

    walk(0, 0.0)
    assert best is not None  # the all-zero leaf always completes
    return best


def rounding_objective(problem: RoundingProblem, labels: np.ndarray) -> float:
    """Squared distance between the binary labels and the scores."""
    if labels.shape != (problem.n_edges,):
        raise ValidationError("labels do not align with the problem")
    diff = labels.astype(np.float64) - problem.scores()
    return float(np.dot(diff, diff))


def is_feasible(problem: RoundingProblem, labels: np.ndarray) -> bool:
    """Degree check: at most one positive edge out of and into any node."""
    if labels.shape != (problem.n_edges,):
        return False
    out_deg = np.zeros(problem.n_nodes, dtype=np.int64)
    in_deg = np.zeros(problem.n_nodes, dtype=np.int64)
    for (u, v, _), y in zip(problem.edges, labels):
        if y:
            out_deg[u] += 1
            in_deg[v] += 1
    return bool(out_deg.max(initial=0) <= 1 and in_deg.max(initial=0) <= 1)


def connected_components_ids(
    spans: np.ndarray, edges: Sequence[ScoredEdge]
) -> np.ndarray:
    """Group nodes along positive edges without overlapping any spans.

    Edges merge strongest-first; a merge is refused when the two groups
    occupy a common frame. Returns one id per node, numbered by first
    appearance.
    """
    spans = np.asarray(spans, dtype=np.int64)
    n = spans.shape[0]
    parent = list(range(n))
    frames = [set(range(int(s), int(e) + 1)) for s, e in spans]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    order = sorted(range(len(edges)), key=lambda k: (-edges[k][2], edges[k][0], edges[k][1]))
    for k in order:
        u, v, _ = edges[k]
        ra, rb = find(int(u)), find(int(v))
        if ra == rb or not frames[ra].isdisjoint(frames[rb]):
            continue
        parent[rb] = ra
        frames[ra] |= frames[rb]
        frames[rb] = set()
    roots = np.asarray([find(i) for i in range(n)], dtype=np.int64)
    return _relabel(roots)


def _relabel(ids: np.ndarray) -> np.ndarray:
    """Consecutive ids in order of first appearance."""
    mapping: dict[int, int] = {}
    out = np.empty(ids.shape[0], dtype=np.int64)
    for i, g in enumerate(ids.tolist()):
        mapping.setdefault(g, len(mapping))
        out[i] = mapping[g]
    return out


def span_disjoint_edges(
    traj_nodes: Sequence[Tracklet],
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory edges for every node pair whose frame spans are disjoint.

    Returns the (u, v) endpoint arrays, naming nodes by position. Each
    edge points from the earlier span to the later one; pairs come in
    node order (that of np.triu_indices).
    """
    spans = np.asarray([tn.span for tn in traj_nodes], dtype=np.int64).reshape(-1, 2)
    a, b = np.triu_indices(len(traj_nodes), 1)
    a_first = spans[a, 1] < spans[b, 0]
    keep = a_first | (spans[b, 1] < spans[a, 0])
    return np.where(a_first, a, b)[keep], np.where(a_first, b, a)[keep]


def group_tracklets(
    detections: Sequence[Detection], det_ids: np.ndarray
) -> list[Tracklet]:
    """One tracklet per id, in ascending id order.

    Detection i joins the tracklet of det_ids[i] with index i.
    """
    det_ids = np.asarray(det_ids, dtype=np.int64)
    if det_ids.shape != (len(detections),):
        raise ValidationError("det_ids must align with detections")
    members: dict[int, list[tuple[int, Detection]]] = {}
    for i, g in enumerate(det_ids.tolist()):
        members.setdefault(g, []).append((i, detections[i]))
    return [Tracklet.from_members(g, members[g]) for g in sorted(members)]


def build_traj_graph(
    detections: Sequence[Detection], det_ids: np.ndarray
) -> TrackGraph:
    """Trajectory-level graph: one node per id, edges where spans allow.

    Every id becomes a tracklet node, length one included; pairs with
    disjoint frame spans connect fully, earlier span first, in the
    order span_disjoint_edges gives.
    """
    nodes = tuple(group_tracklets(detections, det_ids))
    return TrackGraph(nodes, *span_disjoint_edges(nodes))


def tracklet_ids(tracks: Sequence[Sequence[int]], n_det: int) -> np.ndarray:
    """One raw id per detection: the builder's coarse tracklets.

    tracks holds each tracklet's member detection indices. A detection
    of a tracklet with two or more members gets n_det plus that
    tracklet's rank among them; any other detection keeps its own
    index. Training groups the detections by these ids into its
    trajectory-level graphs.
    """
    ids = np.arange(n_det, dtype=np.int64)
    multi = (t for t in tracks if len(t) >= 2)
    for p, t in enumerate(multi):
        ids[list(t)] = n_det + p
    return ids


ScoreFn = Callable[[Union[TrackGraph, GraphTensors]], np.ndarray]


def aggregate(
    graph: TrackGraph,
    params: Optional[MpnParams],
    eps: float = 0.5,
    traj_passes: int = 1,
    score_fn: Optional[ScoreFn] = None,
) -> np.ndarray:
    """Two-stage identity assignment over a part graph.

    Pass 1 scores and rounds the detection links into identities. Each
    trajectory pass then regroups the current identities into tracklet
    nodes, re-scores their graph with the same parameters, keeps edges
    above the threshold, and merges groups whose spans stay disjoint;
    it stops early when nothing merges. Takes a graph of detection
    nodes only and returns one id per node, numbered by first
    appearance.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    if traj_passes < 0:
        raise ValidationError("traj_passes must be non-negative")
    n_det = len(graph.nodes)
    if n_det == 0:
        return np.zeros(0, dtype=np.int64)
    if any(node.kind is not NodeKind.DET for node in graph.nodes):
        raise ValidationError("aggregate takes a graph of detection nodes only")

    def run_scores(g: TrackGraph) -> np.ndarray:
        if score_fn is not None:
            return np.asarray(score_fn(g), dtype=np.float64)
        if params is None:
            raise ValidationError("aggregate needs params or a score_fn")
        return forward(g, params)[1]

    scores = np.clip(run_scores(graph), 0.0, 1.0).tolist()
    det_edges = tuple(zip(graph.u.tolist(), graph.v.tolist(), scores))
    problem = RoundingProblem(n_det, det_edges)
    labels = greedy_round(problem, eps)
    positive = [det_edges[k] for k in np.flatnonzero(labels)]
    det_spans = np.asarray([node.span for node in graph.nodes])
    ids = connected_components_ids(det_spans, positive)

    for _ in range(traj_passes):
        tg = build_traj_graph(graph.nodes, ids)
        if len(tg.nodes) <= 1:
            break
        t_scores = run_scores(tg)
        keep = t_scores > eps
        positive = list(zip(
            tg.u[keep].tolist(),
            tg.v[keep].tolist(),
            np.clip(t_scores[keep], 0.0, 1.0).tolist(),
        ))
        t_spans = np.asarray([node.span for node in tg.nodes])
        gids = connected_components_ids(t_spans, positive)
        if len(set(gids.tolist())) == len(tg.nodes):
            break
        # node p of the trajectory graph holds the p-th smallest id
        ids = gids[np.unique(ids, return_inverse=True)[1]]
    return _relabel(ids)
