"""Domain types and geometric primitives shared by the whole pipeline.

Boxes live in pixel space as (left, top, width, height). Frames are
integer time indices starting at 0. A tracklet is its members: a
strictly time-ordered run of detections, at most one per frame. It
holds them as columns, and its members as records are a view made on
first read. The
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


def frozen(values, dtype=None) -> np.ndarray:
    """values as a read-only array of dtype (no copy when it already is one)."""
    column = np.asarray(values, dtype=dtype)
    column.setflags(write=False)
    return column


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


def box_faults(rows: np.ndarray) -> np.ndarray:
    """Which (n, 4) x/y/w/h rows BoundingBox refuses, as a bool mask;
    box_fault names why."""
    x, y, w, h = rows.T
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # box_fault's test a column at a time: an area of at most
        # MAX_BOX_AREA is finite, and finite corners mean finite w and h
        area = w * h
        ok = (w > 0) & (h > 0) & (area > 0) & (area <= MAX_BOX_AREA)
        ok &= np.isfinite(x) & np.isfinite(y)
        ok &= np.isfinite(x + w)
        return ~(ok & np.isfinite(y + h))


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


def box_rows(boxes) -> np.ndarray:
    """Boxes as an (n, 4) float array of (x, y, w, h) rows."""
    return np.asarray(
        [(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row box of a against every row box of b.

    Rows are (x, y, w, h); each entry is iou_corners' ratio of the pair.
    """
    return iou_corners(box_corners(a)[:, None, :], box_corners(b)[None, :, :])


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of aligned (x, y, w, h) rows on the last axis of a and b, the
    other axes broadcast, as iou_corners computes it."""
    return iou_corners(box_corners(a), box_corners(b))


def box_corners(rows: np.ndarray) -> np.ndarray:
    """(x, y, w, h) rows on the last axis as (x, y, x2, y2, area) rows:
    x2 = x + w, y2 = y + h and area = w * h."""
    x, y, w, h = (rows[..., k] for k in range(4))
    return np.stack([x, y, x + w, y + h, w * h], axis=-1)


def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of aligned box_corners rows on the last axis of a and b, the
    other axes broadcast, in [0, 1]; every IoU the package takes is
    computed here."""
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


# a Tracklet's columns and their dtypes, in field order
_TRACK_COLUMNS = (("indices", np.int64), ("frames", np.int64), ("boxes", np.float64),
                  ("confidence", np.float64), ("embeddings", np.float64),
                  ("gt_ids", np.int64))


@dataclass(frozen=True, eq=False)
class Tracklet:
    """A time-ordered run of detections under one identity, as columns.

    Row k of every column is member k, and frames strictly increase.
    indices holds each member's position in the originating detection
    set, -1 for a synthesized (interpolated) member. boxes are (n, 4)
    x/y/w/h rows, embeddings (n, D) rows, and gt_ids is -1 where a member
    carries no identity. The columns are read-only. det_indices (indices
    as a tuple of ints) and detections (the members as Detection records)
    are views made on first read.
    """

    kind: ClassVar[NodeKind] = NodeKind.TRAJ
    id: int
    indices: np.ndarray
    frames: np.ndarray
    boxes: np.ndarray
    confidence: np.ndarray
    embeddings: np.ndarray
    gt_ids: np.ndarray

    def __post_init__(self):
        for name, dtype in _TRACK_COLUMNS:
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))
        n = self.frames.size
        if not n:
            raise ValidationError("tracklet needs at least one detection")
        if (any(getattr(self, name).shape[:1] != (n,) for name, _ in _TRACK_COLUMNS)
                or self.boxes.shape != (n, 4) or self.embeddings.ndim != 2):
            raise ValidationError("tracklet columns must hold one row per member")
        check_increasing(self.frames, np.asarray([0, n]))

    @classmethod
    def from_members(
        cls, track_id: int, members: Sequence[tuple[int, Detection]]
    ) -> "Tracklet":
        """Build a tracklet from (detection index, detection) pairs; its
        detections are the given records, in frame order."""
        ordered = sorted(members, key=lambda m: m[1].frame)
        if not ordered:
            raise ValidationError("tracklet needs at least one detection")
        dets = tuple(d for _, d in ordered)
        track = cls(track_id, [i for i, _ in ordered], [d.frame for d in dets],
                    box_rows(d.box for d in dets), [d.confidence for d in dets],
                    np.stack([d.embedding for d in dets]),
                    [-1 if d.gt_id is None else d.gt_id for d in dets])
        track.__dict__["detections"] = dets
        return track

    def __len__(self) -> int:
        return self.frames.size

    @property
    def span(self) -> tuple[int, int]:
        """Inclusive (first, last) frame span."""
        return tuple(self.frames[[0, -1]].tolist())

    @cached_property
    def det_indices(self) -> tuple[int, ...]:
        """indices as a tuple of ints, made on first read."""
        return tuple(self.indices.tolist())

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        """The members as Detection records, made on first read."""
        return detection_records(self.frames, self.boxes, self.confidence,
                                 self.embeddings, self.gt_ids)


def gather_tracklets(dets: "DetectionSet", ids, offsets, members) -> list[Tracklet]:
    """One Tracklet per group of a CSR member table over dets.

    Group i, under id ids[i], holds the set's detections
    members[offsets[i]:offsets[i + 1]], which the caller vouches are in
    strictly increasing frame order. Each column is gathered once for
    all groups, and a tracklet's columns are read-only views of it.
    """
    index, frames, boxes, conf, emb, gt = (
        frozen(col) for col in (members, dets.frames[members], dets.boxes[members],
                                dets.confidence[members], dets.embeddings()[members],
                                dets.gt_ids[members]))
    bounds = offsets.tolist()
    return [unchecked(Tracklet, id=g, indices=index[a:b], frames=frames[a:b],
                      boxes=boxes[a:b], confidence=conf[a:b], embeddings=emb[a:b],
                      gt_ids=gt[a:b])
            for g, a, b in zip(ids, bounds, bounds[1:])]


def detection_records(frames, boxes, confidence, embeddings, gt_ids) -> tuple[Detection, ...]:
    """Checked columns as Detection records, row i as record i; a gt id
    below 0 is None."""
    gt = [g if g >= 0 else None for g in gt_ids.tolist()]
    return tuple(
        unchecked(Detection, frame=f, box=unchecked(BoundingBox, x=x, y=y, w=w, h=h),
                  confidence=c, embedding=e, gt_id=g)
        for f, (x, y, w, h), c, e, g in zip(
            frames.tolist(), boxes.tolist(), confidence.tolist(), embeddings, gt)
    )


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
        position, its detections the set's records) for a trajectory
        graph. Tracking and training never read them; the benchmark
        tracer and the tests' references do."""
        records = self.dets.detections
        if self.groups is None:
            return records
        offsets, members = self.groups
        nodes = gather_tracklets(self.dets, range(offsets.size - 1), offsets, members)
        for node in nodes:
            node.__dict__["detections"] = tuple(records[j] for j in node.indices.tolist())
        return tuple(nodes)

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
