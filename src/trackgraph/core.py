"""Domain types and geometric primitives shared by the whole pipeline.

Boxes live in pixel space as (left, top, width, height). Frames are
integer time indices starting at 0. A tracklet is its members: a
strictly time-ordered run of detections, at most one per frame. The
nodes of a graph are index ranges over one DetectionSet: a part graph's
node i is detection i, and a trajectory graph's node i is a group of
the set's detections in a CSR member table. A graph's edges are two
aligned arrays of node positions, u and v. Edge descriptors are
computed for a whole graph at once from the set's columns by
mpn.graph_tensors; the nodes and edges as records are views made on
first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, NamedTuple, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from trackgraph.ingest import DetectionSet

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


class Edge(NamedTuple):
    """Directed link u -> v between two node indices, with its kind.

    Only TrackGraph.edges makes these, as a record view of the graph's
    endpoint arrays.
    """

    u: int
    v: int
    kind: EdgeKind


def _endpoints(name: str, values, what: str = "edge endpoints") -> np.ndarray:
    """A read-only 1-d int64 copy of one endpoint (or other index) array."""
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ValidationError(f"{what} {name} must be a 1-d array")
    if raw.size and not np.issubdtype(raw.dtype, np.integer):
        raise ValidationError(f"{what} {name} must be integers")
    out = raw.astype(np.int64)  # always a copy: nobody else holds it
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TrackGraph:
    """Immutable graph whose nodes are index ranges over a DetectionSet.

    dets is the clip's detection set. With groups None, node i is
    detection i (a part graph). Otherwise groups is a CSR table
    (offsets, members): node i holds the detections
    members[offsets[i]:offsets[i + 1]], at least one, in strictly
    increasing frame order (a trajectory graph). Edge k runs from node
    u[k] to node v[k]; u and v are read-only int64 arrays of equal
    length. Every edge points forward in time (u's span ends strictly
    before v's span starts), so the graph is a DAG by construction; this
    also rules out self-loops. No (u, v) pair repeats. spans is made on
    construction: the read-only (n, 2) int64 array of the nodes'
    inclusive frame spans, row i for node i.
    """

    dets: DetectionSet
    u: np.ndarray
    v: np.ndarray
    groups: Optional[tuple[np.ndarray, np.ndarray]] = None
    spans: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u, v = _endpoints("u", self.u), _endpoints("v", self.v)
        frames = self.dets.frames
        if self.groups is None:
            spans = np.stack([frames, frames], axis=1)
        else:
            offsets, members = _check_groups(frames, *self.groups)
            object.__setattr__(self, "groups", (offsets, members))
            spans = group_spans(frames, offsets, members)
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
        n = self.n_nodes
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
    def n_nodes(self) -> int:
        return self.spans.shape[0]

    @property
    def n_edges(self) -> int:
        return self.u.size

    @cached_property
    def nodes(self) -> tuple[Union[Detection, Tracklet], ...]:
        """The nodes as records, made on first read: the set's detections
        for a part graph, one Tracklet per group (its id the node
        position) for a trajectory graph. Tracking and training never
        read them; the benchmark tracer and the tests' references do."""
        records = self.dets.detections
        if self.groups is None:
            return records
        members, bounds = self.groups[1].tolist(), self.groups[0].tolist()
        runs = (tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))
        return tuple(
            unchecked(Tracklet, id=i, det_indices=run,
                      detections=tuple(records[j] for j in run))
            for i, run in enumerate(runs)
        )

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as Edge(u, v, kind) records, built on first read:
        DET_DET in a part graph, TRAJ_TRAJ in a trajectory graph."""
        kind = EdgeKind.DET_DET if self.groups is None else EdgeKind.TRAJ_TRAJ
        return tuple(Edge(a, b, kind) for a, b in zip(self.u.tolist(), self.v.tolist()))


def _check_groups(frames: np.ndarray, offsets, members) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 copies of a CSR member table over a set with the
    given frame column, after checking it: offsets rise strictly from 0
    to the member count, every member names a detection, and each
    group's frames strictly increase."""
    offsets = _endpoints("offsets", offsets, "group")
    members = _endpoints("members", members, "group")
    if (offsets.size == 0 or offsets[0] != 0 or offsets[-1] != members.size
            or (offsets[1:] <= offsets[:-1]).any()):
        raise ValidationError(
            "group offsets must rise strictly from 0 to the member count")
    if members.size and (members.min() < 0 or members.max() >= frames.size):
        raise ValidationError("group member out of range")
    check_increasing(frames[members], offsets)
    return offsets, members


def group_spans(frames: np.ndarray, offsets: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The (n, 2) inclusive frame spans of a CSR member table's groups,
    each group in frame order."""
    return np.stack([frames[members[offsets[:-1]]], frames[members[offsets[1:] - 1]]], axis=1)


def check_increasing(frames: np.ndarray, offsets: np.ndarray) -> None:
    """Refuse a group whose frames do not strictly increase; group i's
    frames are frames[offsets[i]:offsets[i + 1]]."""
    bad = frames[1:] <= frames[:-1]
    bad[offsets[1:-1] - 1] = False  # a group's first frame follows no member
    if bad.any():
        a, b = frames[np.argmax(bad):][:2].tolist()
        raise ValidationError(f"tracklet frames must strictly increase, got {a} then {b}")
