"""Per-layer timings and counts, taken from outside the program.

A Tracer replaces the public functions of each trackgraph module under
the name its caller looks them up by (``trackgraph.pipeline.aggregate``
for the pipeline's call into the solver, ``trackgraph.solver.forward``
for the solver's call into the network, and so on) with a wrapper that
adds the call's wall time and counts to per-operation totals. Nested
layers are not subtracted from their parents, except that
``mpn.backward_s`` excludes the forward pass and tensor packing it runs.
Restoring puts every original function back.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import workloads  # noqa: F401  (first: pins BLAS threads, finds src/)

import numpy as np

import checks
from trackgraph import mpn, pipeline, solver, stitcher
from trackgraph.core import EdgeKind, NodeKind

# per-layer metric names and units, in report order
METRICS = {
    "ingest.parse_s": "s",
    "ingest.write_s": "s",
    "affinity.accumulate_s": "s",
    "affinity.pairs": "count",
    "builder.associate_s": "s",
    "builder.part_graph_s": "s",
    "builder.det_det_edges": "count",
    "builder.det_traj_edges": "count",
    "builder.traj_traj_edges": "count",
    "builder.traj_nodes": "count",
    "mpn.score_s": "s",
    "mpn.scored_edges": "count",
    "mpn.traj_score_s": "s",
    "mpn.tensors_s": "s",
    "mpn.forward_s": "s",
    "mpn.backward_s": "s",
    "solver.aggregate_s": "s",
    "solver.round_s": "s",
    "solver.traj_graph_s": "s",
    "solver.components_s": "s",
    "solver.pass1_fragments": "count",
    "solver.traj_edges": "count",
    "solver.traj_edge_yield": "fraction",
    "stitcher.stitch_s": "s",
    "stitcher.pairs_scored": "count",
    "stitcher.matches": "count",
    "stitcher.match_yield": "fraction",
    "stitcher.interpolate_s": "s",
    "stitcher.interpolated_frames": "count",
    "stitcher.duplicate_detections": "count",
    "pipeline.clips": "count",
    "pipeline.clip_s": "s",
    "metrics.eval_s": "s",
    "metrics.mota": "fraction",
    "metrics.ids": "count",
    "trace.traj_pass_share": "fraction",
    "trace.overhead": "fraction",
}


def _graph_arrays(graph):
    spans = np.asarray([node.span for node in graph.nodes], dtype=np.int64)
    u = np.asarray([e.u for e in graph.edges], dtype=np.int64)
    v = np.asarray([e.v for e in graph.edges], dtype=np.int64)
    return spans, u, v


class Tracer:
    """Wraps the layer boundaries while active; one totals dict per op."""

    def __init__(self, top_k: int, eps: float):
        self.top_k = top_k
        self.eps = eps
        self.totals: dict[str, float] = defaultdict(float)
        self.clip_s: list[float] = []
        self._traj_graphs: set[int] = set()
        self._traj_above = 0
        self._first_traj = False
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ plumbing

    def _patch(self, module, name, make):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, functools.wraps(original)(make(original)))

    def _timed(self, metric, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.totals[metric] += time.perf_counter() - t0
                if after is not None:
                    after(out, *args)
                return out
            return wrapper
        return make

    def __enter__(self):
        p = self._patch
        p(pipeline, "accumulate_affinity", self._timed(
            "affinity.accumulate_s", lambda aff, *a: self._add("affinity.pairs", len(aff))))
        p(pipeline, "associate_frames", self._timed("builder.associate_s"))
        p(pipeline, "build_part_graph", self._timed(
            "builder.part_graph_s", lambda g, *a: self._part_graph(g)))
        p(pipeline, "aggregate", self._aggregate)
        p(pipeline, "handcrafted_scores", self._scorer(lambda out: out))
        p(solver, "forward", self._scorer(lambda out: out[1]))
        p(solver, "greedy_round", self._timed("solver.round_s"))
        p(solver, "connected_components_ids", self._timed("solver.components_s"))
        p(solver, "build_traj_graph", self._timed(
            "solver.traj_graph_s", lambda g, *a: self._traj_graph(g)))
        p(mpn, "graph_tensors", self._timed("mpn.tensors_s"))
        p(mpn, "_forward", self._timed("mpn.forward_s"))
        p(mpn, "backward", self._backward)
        p(stitcher, "stitch", self._timed("stitcher.stitch_s", self._stitched))
        p(stitcher, "interpolate_gaps", self._timed(
            "stitcher.interpolate_s", self._interpolated))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _add(self, metric: str, value: float) -> None:
        self.totals[metric] += value

    # ------------------------------------------------------------- layers

    def _part_graph(self, graph) -> None:
        kinds = [e.kind for e in graph.edges]
        n_det = sum(1 for node in graph.nodes if node.kind is NodeKind.DET)
        det_det = kinds.count(EdgeKind.DET_DET)
        self._add("builder.det_det_edges", det_det)
        self._add("builder.det_traj_edges", kinds.count(EdgeKind.DET_TRAJ))
        self._add("builder.traj_traj_edges", kinds.count(EdgeKind.TRAJ_TRAJ))
        self._add("builder.traj_nodes", len(graph.nodes) - n_det)
        checks.check_forward_edges(*_graph_arrays(graph))
        checks.check_det_det_budget(det_det, n_det, self.top_k)

    def _traj_graph(self, graph) -> None:
        self._traj_graphs.add(id(graph))
        self._add("solver.traj_edges", len(graph.edges))
        if self._first_traj:
            self._first_traj = False
            self._add("solver.pass1_fragments", len(graph.nodes))
        checks.check_forward_edges(*_graph_arrays(graph))

    def _aggregate(self, fn):
        def wrapper(*args, **kwargs):
            self._first_traj = True
            self._traj_graphs.clear()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.totals["solver.aggregate_s"] += time.perf_counter() - t0
            self._traj_graphs.clear()
            return out
        return wrapper

    def _scorer(self, scores_of):
        def make(fn):
            def wrapper(graph, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(graph, *args, **kwargs)
                dt = time.perf_counter() - t0
                scores = scores_of(out)
                self.totals["mpn.score_s"] += dt
                self.totals["mpn.scored_edges"] += len(scores)
                if id(graph) in self._traj_graphs:
                    self.totals["mpn.traj_score_s"] += dt
                    self._traj_above += int(np.sum(np.asarray(scores) > self.eps))
                return out
            return wrapper
        return make

    def _backward(self, fn):
        def wrapper(*args, **kwargs):
            inner = self.totals["mpn.forward_s"] + self.totals["mpn.tensors_s"]
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            inner = self.totals["mpn.forward_s"] + self.totals["mpn.tensors_s"] - inner
            self.totals["mpn.backward_s"] += dt - inner
            return out
        return wrapper

    def _stitched(self, out, tracks_a, tracks_b) -> None:
        if tracks_a and tracks_b:
            self._add("stitcher.pairs_scored", len(tracks_a) * len(tracks_b))
            self._add("stitcher.matches", len(tracks_b) - (len(out) - len(tracks_a)))

    def _interpolated(self, out, track) -> None:
        self._add("stitcher.interpolated_frames",
                  out.det_indices.count(-1) - track.det_indices.count(-1))

    def clip_pipeline(self, tracker):
        """The per-clip callable handed to run_clipped, timed per clip."""
        def run(dets):
            t0 = time.perf_counter()
            out = tracker(dets)
            self.clip_s.append(time.perf_counter() - t0)
            return out
        return run

    # ------------------------------------------------------------ results

    def take(self) -> dict[str, float]:
        """This operation's totals (with derived ratios); resets them."""
        out = dict(self.totals)
        built = out.get("solver.traj_edges", 0.0)
        out["solver.traj_edge_yield"] = self._traj_above / built if built else 0.0
        scored = out.get("stitcher.pairs_scored", 0.0)
        out["stitcher.match_yield"] = (
            out.get("stitcher.matches", 0.0) / scored if scored else 0.0)
        out["pipeline.clips"] = float(len(self.clip_s))
        out["pipeline.clip_s"] = statistics.median(self.clip_s) if self.clip_s else 0.0
        self.totals.clear()
        self.clip_s = []
        self._traj_above = 0
        return out
