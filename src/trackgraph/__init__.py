"""Graph-based multi-object tracking at desk scale.

The pipeline chains sliding-window appearance affinity, a frame-by-frame
coarse tracker, a partially connected detection graph, a message-passing
edge classifier, flow-feasible rounding with temporal grouping, trajectory
passes over tracklet nodes, overlapped clip stitching, and CLEAR/identity
metrics.
"""

from trackgraph.core import (
    BoundingBox,
    Detection,
    Edge,
    EdgeKind,
    NodeKind,
    NumericError,
    ParseError,
    TrackGraph,
    Tracklet,
    ValidationError,
)

__all__ = [
    "BoundingBox",
    "Detection",
    "Edge",
    "EdgeKind",
    "NodeKind",
    "NumericError",
    "ParseError",
    "TrackGraph",
    "Tracklet",
    "ValidationError",
]
