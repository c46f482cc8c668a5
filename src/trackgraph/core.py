"""Domain types and geometric primitives shared by the whole pipeline.

Boxes live in pixel space as (left, top, width, height). Frames are
integer time indices starting at 0. A tracklet is its members: a
strictly time-ordered run of detections, at most one per frame. The
nodes of a graph are the detections or tracklets themselves: each
answers its kind, its inclusive frame span, its first and last box and
its appearance feature (a tracklet derives the members' mean embedding
where it is read). A graph's edges are two aligned arrays of node
positions, u and v; an edge's kind follows from its endpoints' node
kinds, and edge descriptors are computed for a whole graph at once by
mpn.graph_tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import ClassVar, NamedTuple, Optional, Sequence, Union

import numpy as np

DEFAULT_EMBED_DIM = 16
# the largest box area accepted: two such areas add up to a finite union
MAX_BOX_AREA = float(np.finfo(np.float64).max) / 2


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class ParseError(ValidationError):
    """A text or binary interchange file is malformed."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NumericError(RuntimeError):
    """A numeric computation produced non-finite values."""


def unchecked(cls, **fields):
    """An instance of the frozen dataclass cls from fields already checked.

    __post_init__ does not run, so the caller vouches for every invariant
    it would enforce, and passes every field, defaults included.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def box_fault(x: float, y: float, w: float, h: float) -> Optional[str]:
    """Why BoundingBox refuses the box (x, y, w, h), or None if it accepts it."""
    # one test passes a valid box: finite x and x + w mean a finite w,
    # and so on; the tests below name what is wrong with the others
    if (w > 0 and h > 0 and 0 < w * h <= MAX_BOX_AREA and math.isfinite(x)
            and math.isfinite(y) and math.isfinite(x + w) and math.isfinite(y + h)):
        return None
    vals = (x, y, w, h)
    if not all(math.isfinite(v) for v in vals):
        return f"box values must be finite, got {vals}"
    if w <= 0 or h <= 0:
        return f"box needs w > 0 and h > 0, got w={w} h={h}"
    return ("box needs finite corners and a positive area of at most half "
            f"the largest float, got {vals}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with positive extent, finite corners and a positive
    area of at most MAX_BOX_AREA, so that IoU never overflows."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if (fault := box_fault(self.x, self.y, self.w, self.h)) is not None:
            raise ValidationError(fault)

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    # rounding can nudge the ratio past 1 for near-identical boxes
    return min(1.0, inter / (a.area + b.area - inter))


def box_rows(boxes) -> np.ndarray:
    """Boxes as an (n, 4) float array of (x, y, w, h) rows."""
    return np.asarray(
        [(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row box of a against every row box of b.

    Rows are (x, y, w, h). Each entry is computed in the operation order
    of iou, so it equals the scalar result exactly.
    """
    return iou_corners(box_corners(a)[:, None, :], box_corners(b)[None, :, :])


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of aligned (x, y, w, h) rows on the last axis of a and b, the
    other axes broadcast; in iou's operation order, so equal to it exactly."""
    return iou_corners(box_corners(a), box_corners(b))


def box_corners(rows: np.ndarray) -> np.ndarray:
    """(x, y, w, h) rows on the last axis as (x, y, x2, y2, area) rows,
    each derived as BoundingBox derives it."""
    x, y, w, h = (rows[..., k] for k in range(4))
    return np.stack([x, y, x + w, y + h, w * h], axis=-1)


def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of aligned box_corners rows on the last axis of a and b, the
    other axes broadcast; in iou's operation order, so equal to it exactly."""
    # x and y overlaps side by side on the last axis; a pair with no
    # overlap gets an intersection of 0, and so a ratio of 0
    overlap = np.maximum(
        np.minimum(a[..., 2:4], b[..., 2:4]) - np.maximum(a[..., :2], b[..., :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    # BoundingBox keeps areas positive and at most MAX_BOX_AREA, so no
    # union is 0 or overflows
    return np.minimum(inter / (a[..., 4] + b[..., 4] - inter), 1.0)


class NodeKind(Enum):
    DET = "det"
    TRAJ = "traj"


class EdgeKind(Enum):
    DET_DET = "det-det"
    DET_TRAJ = "det-traj"
    TRAJ_TRAJ = "traj-traj"


@dataclass(frozen=True)
class Detection:
    """One detector output: frame, box, confidence, appearance embedding.

    gt_id is the annotated identity (>= 0) when known, None otherwise. As
    a graph node it spans its own frame.
    """

    kind: ClassVar[NodeKind] = NodeKind.DET
    frame: int
    box: BoundingBox
    confidence: float
    embedding: np.ndarray
    gt_id: Optional[int] = None

    def __post_init__(self):
        if self.frame < 0:
            raise ValidationError(f"frame must be >= 0, got {self.frame}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValidationError(
                f"confidence must lie in [0, 1], got {self.confidence}"
            )
        if self.gt_id is not None and self.gt_id < 0:
            raise ValidationError(f"gt_id must be >= 0 or None, got {self.gt_id}")
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or emb.size == 0:
            raise ValidationError("embedding must be a non-empty 1-d vector")
        if not np.all(np.isfinite(emb)):
            raise ValidationError("embedding must be finite")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)

    @property
    def span(self) -> tuple[int, int]:
        return (self.frame, self.frame)

    @property
    def first_box(self) -> BoundingBox:
        return self.box

    @property
    def last_box(self) -> BoundingBox:
        return self.box

    @property
    def feature(self) -> np.ndarray:
        return self.embedding


@dataclass(frozen=True)
class Tracklet:
    """A time-ordered run of detections under one identity.

    det_indices carries each member's position in the originating
    detection set; -1 marks synthesized (interpolated) members.
    """

    kind: ClassVar[NodeKind] = NodeKind.TRAJ
    id: int
    detections: tuple[Detection, ...]
    det_indices: tuple[int, ...]

    def __post_init__(self):
        if not self.detections:
            raise ValidationError("tracklet needs at least one detection")
        if len(self.det_indices) != len(self.detections):
            raise ValidationError("det_indices must align with detections")
        frames = [d.frame for d in self.detections]
        for a, b in zip(frames, frames[1:]):
            if b <= a:
                raise ValidationError(
                    f"tracklet frames must strictly increase, got {a} then {b}"
                )

    @classmethod
    def from_members(
        cls, track_id: int, members: Sequence[tuple[int, Detection]]
    ) -> "Tracklet":
        """Build a tracklet from (detection index, detection) pairs."""
        ordered = sorted(members, key=lambda m: m[1].frame)
        return cls(
            id=track_id,
            detections=tuple(d for _, d in ordered),
            det_indices=tuple(i for i, _ in ordered),
        )

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def span(self) -> tuple[int, int]:
        """Inclusive (first, last) frame span."""
        return (self.detections[0].frame, self.detections[-1].frame)

    @property
    def first_box(self) -> BoundingBox:
        return self.detections[0].box

    @property
    def last_box(self) -> BoundingBox:
        return self.detections[-1].box

    @property
    def feature(self) -> np.ndarray:
        """The members' mean appearance embedding."""
        return np.mean([d.embedding for d in self.detections], axis=0)


class Edge(NamedTuple):
    """Directed link u -> v between two node indices, with its kind.

    Only TrackGraph.edges makes these, as a record view of the graph's
    endpoint arrays.
    """

    u: int
    v: int
    kind: EdgeKind


def _endpoints(name: str, values) -> np.ndarray:
    """A read-only 1-d int64 copy of one endpoint array."""
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ValidationError(f"edge endpoints {name} must be a 1-d array")
    if raw.size and not np.issubdtype(raw.dtype, np.integer):
        raise ValidationError(f"edge endpoints {name} must be integers")
    out = raw.astype(np.int64)  # always a copy: nobody else holds it
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TrackGraph:
    """Immutable graph whose nodes are detections or tracklets themselves.

    Node i is the i-th entry of nodes. Edge k runs from node u[k] to
    node v[k]; u and v are read-only int64 arrays of equal length. Every
    edge points forward in time (u's span ends strictly before v's span
    starts), so the graph is a DAG by construction; this also rules out
    self-loops. No (u, v) pair repeats. spans is made on construction:
    the read-only (n, 2) int64 array of the nodes' inclusive frame
    spans, row i for node i.
    """

    nodes: tuple[Union[Detection, Tracklet], ...]
    u: np.ndarray
    v: np.ndarray
    spans: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u, v = _endpoints("u", self.u), _endpoints("v", self.v)
        spans = np.asarray([node.span for node in self.nodes], dtype=np.int64).reshape(-1, 2)
        spans.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "spans", spans)
        if u.size != v.size:
            raise ValidationError(
                f"edge endpoints must align, got {u.size} u and {v.size} v"
            )
        if not u.size:
            return
        n = len(self.nodes)
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"edge ({u[k]}, {v[k]}) endpoint out of range")
        keys = np.sort(u * n + v)
        if (keys[1:] == keys[:-1]).any():
            raise ValidationError("graph repeats a (u, v) edge")
        back = spans[u, 1] >= spans[v, 0]
        if back.any():
            k = int(np.argmax(back))
            raise ValidationError(
                f"edge ({u[k]}, {v[k]}) does not move forward in time"
            )

    @property
    def n_edges(self) -> int:
        return self.u.size

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as Edge(u, v, kind) records, built on first read.

        The kind follows from the endpoints: two detections make
        DET_DET, two tracklets TRAJ_TRAJ, one of each DET_TRAJ.
        """
        traj = [node.kind is NodeKind.TRAJ for node in self.nodes]
        kinds = (EdgeKind.DET_DET, EdgeKind.DET_TRAJ, EdgeKind.TRAJ_TRAJ)
        return tuple(
            Edge(a, b, kinds[traj[a] + traj[b]])
            for a, b in zip(self.u.tolist(), self.v.tolist())
        )
