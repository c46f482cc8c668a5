"""Single-clip tracking pipeline, packaged as a callable.

Wires the stages end to end: window-gated appearance affinity, frame-
by-frame association, part-graph assembly (detection nodes and their
links), edge scoring, and identity aggregation, whose trajectory passes
are where tracklets become nodes. A ClipTracker instance closes over a
RunConfig and the scorer, so it plugs straight into run_clipped as the
per-clip pipeline: it returns one id per detection of the clip, and
run_clipped makes the tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from trackgraph.affinity import (
    WindowPlan,
    accumulate_affinity,
    cosine_scorer,
    oracle_scorer,
)
from trackgraph.builder import BuilderConfig, associate_frames, build_part_graph
from trackgraph.config import RunConfig
from trackgraph.core import TrackGraph, ValidationError
from trackgraph.ingest import DetectionSet
from trackgraph.mpn import (
    MpnParams,
    handcrafted_reach,
    handcrafted_scores,
    oracle_scores,
)
from trackgraph.solver import aggregate

_MODES = ("auto", "mpn", "handcrafted", "oracle")


@dataclass(frozen=True)
class ClipTracker:
    """Configured tracker for one clip of detections.

    score_mode picks the edge scorer: "mpn" needs trained params,
    "handcrafted" uses the fixed-weight fallback, "oracle" scores from
    ground-truth ids, and "auto" resolves to "mpn" when params are
    present, "handcrafted" otherwise. The affinity stage follows suit:
    oracle mode gets identity similarities, every other mode cosine.
    The stages read their settings from config, which refused bad ones
    when it was made: window and step lay out the affinity windows (both
    shrink to fit a short clip), window also bounds the association
    lookback, top_k and new_track_threshold steer the association, and
    assign_threshold and traj_passes the aggregation.
    """

    config: RunConfig = RunConfig()
    params: Optional[MpnParams] = None
    score_mode: str = "auto"
    # receives each processed clip's part-graph (n_nodes, n_edges) when set
    stats_sink: Optional[list] = None

    def __post_init__(self):
        if self.score_mode not in _MODES:
            raise ValidationError(f"unknown score_mode {self.score_mode!r}")
        if self.score_mode == "mpn" and self.params is None:
            raise ValidationError("score_mode 'mpn' needs trained params")

    @property
    def mode(self) -> str:
        if self.score_mode != "auto":
            return self.score_mode
        return "mpn" if self.params is not None else "handcrafted"

    def build_graph(self, dets: DetectionSet) -> tuple[TrackGraph, np.ndarray]:
        """Affinity, association, and part-graph assembly for one clip.

        Returns the part graph and the association's tracklet number per
        detection (builder.associate_frames' owner); an empty set gives
        an empty graph.
        """
        if len(dets) == 0:
            return TrackGraph(dets, (), ()), np.empty(0, dtype=np.int64)
        cfg = self.config
        first, last = dets.frames[[0, -1]].tolist()
        span = last - first + 1
        window = min(cfg.window, span)
        plan = WindowPlan(span, window, min(cfg.step, window))
        scorer = oracle_scorer if self.mode == "oracle" else cosine_scorer
        aff = accumulate_affinity(dets, plan, scorer, origin=first)
        builder = BuilderConfig(cfg.top_k, cfg.new_track_threshold, cfg.window)
        owner, links = associate_frames(dets, aff, builder)
        return build_part_graph(links, dets), owner

    def __call__(self, dets: DetectionSet) -> np.ndarray:
        """One id per detection, numbered by first appearance."""
        mode, cfg = self.mode, self.config
        graph, _ = self.build_graph(dets)
        if self.stats_sink is not None:
            self.stats_sink.append((graph.n_nodes, graph.n_edges))
        score_fn, max_gap = None, None
        if mode == "oracle":
            score_fn = oracle_scores
        elif mode == "handcrafted":
            # no fragment pair further apart than the reach can pass
            score_fn = handcrafted_scores
            max_gap = handcrafted_reach(cfg.assign_threshold)
        return aggregate(
            graph,
            self.params,
            eps=cfg.assign_threshold,
            traj_passes=cfg.traj_passes,
            score_fn=score_fn,
            max_gap=max_gap,
        )
