"""Detection ingest: MOT-style text files, embedding sidecars, synthesis.

Text rows follow the usual challenge layout
``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z`` with 1-based
frames on disk and 0-based frames in memory. Frame and id are read as
exact integers: an integer literal, or a float spelling (3.0, 1e3) only
when its value is integral; any other value is refused. An id must fit
in 64 bits, the width of the identity arrays. A frame on disk may be at
most 2**53, because the frame gap between two nodes is an edge feature
in float64, which holds every integer only up to 2**53. A negative id
(the usual -1) means "unlabelled". The embedding sidecar is little-endian
binary: two uint64 (row count, dimension) followed by float32 rows in
detection order. A parsed or synthesized DetectionSet is its columns;
its Detection records, and without a sidecar its pseudo-embeddings, are
made only when read, so evaluation makes neither.

Synthetic scenarios draw constant-velocity box tracks that bounce off
the arena walls, attach identity-anchored unit embeddings with optional
Gaussian noise, then drop detections through occlusion windows and a
uniform miss rate. Trajectories, embeddings, and dropout use separate
seeded streams, so the same seed yields the same ground truth whatever
the dropout settings.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from trackgraph.core import (
    DEFAULT_EMBED_DIM,
    Detection,
    ParseError,
    Tracklet,
    ValidationError,
    box_fault,
    box_faults,
    box_rows,
    detection_records,
    frozen,
)

_MAX_FRAME = 2**53
_INT64 = 2**63
_SIDECAR_HEADER = np.dtype("<u8")
_SIDECAR_VALUE = np.dtype("<f4")
# the first 7 fields of a MOT row: frame, id, then x, y, w, h, conf
_MOT_ROW = np.dtype([("frame", np.int64), ("id", np.int64), ("values", np.float64, (5,))])


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Detections of one sequence, sorted by frame, as read-only columns.

    Row i of a column is detection i. gt_ids is -1 where a detection
    carries no identity; boxes are the (n, 4) rows of core.box_rows. The
    columns come checked, as parse_mot and synthesize check them: the
    constructor checks only their order and that n_frames, one past the
    last frame, covers them. embedding_source is the (n, D) embedding
    column, or D alone: embeddings() then hashes pseudo-embeddings from
    the frames and boxes on first read. detections is a view of Detection
    records made from the columns on first read, a slice's from its own;
    only build keeps the records it is given. Tracking and writing read
    only the columns, so `trackgraph track` makes no record.
    """

    frames: np.ndarray
    boxes: np.ndarray
    confidence: np.ndarray
    gt_ids: np.ndarray
    n_frames: int
    embedding_source: Union[np.ndarray, int] = DEFAULT_EMBED_DIM

    def __post_init__(self):
        for name, dtype in (("frames", np.int64), ("boxes", np.float64),
                            ("confidence", np.float64), ("gt_ids", np.int64)):
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))
        frames, source = self.frames, self.embedding_source
        if (frames[1:] < frames[:-1]).any():
            raise ValidationError("detections must be sorted by frame")
        if frames.size and frames[-1] >= self.n_frames:
            raise ValidationError("n_frames does not cover all detections")
        if not isinstance(source, int):
            source = frozen(source, np.float64)
            object.__setattr__(self, "embedding_source", source)
            if frames.size and source.shape[1] == 0:
                raise ValidationError("embedding must be a non-empty 1-d vector")
            if not np.isfinite(source).all():
                raise ValidationError("embedding must be finite")

    @classmethod
    def build(cls, detections: Sequence[Detection], n_frames: Optional[int] = None):
        """A set of the given records, which it keeps as its detections."""
        dets = tuple(sorted(detections, key=lambda d: d.frame))
        if dets and dets[-1].frame >= _INT64:
            raise ValidationError("frames must fit in 64 bits")
        if len({d.embedding.size for d in dets}) > 1:
            raise ValidationError("embedding dimensions disagree")
        if n_frames is None:
            n_frames = dets[-1].frame + 1 if dets else 0
        out = cls([d.frame for d in dets], box_rows(d.box for d in dets),
                  [d.confidence for d in dets],
                  [-1 if d.gt_id is None else d.gt_id for d in dets], n_frames,
                  np.stack([d.embedding for d in dets]) if dets else np.empty((0, 0)))
        object.__setattr__(out, "detections", dets)
        return out

    def slice(self, lo: int, hi: int, n_frames: int) -> "DetectionSet":
        """Detections lo to hi - 1 as a set of their own; n_frames must
        cover them. Its columns are views of this set's, embeddings
        included, so overlapping slices hash no pseudo-embedding twice."""
        return DetectionSet(self.frames[lo:hi], self.boxes[lo:hi], self.confidence[lo:hi],
                            self.gt_ids[lo:hi], n_frames, self.embeddings()[lo:hi])

    def __len__(self) -> int:
        return self.frames.size

    @property
    def has_gt(self) -> bool:
        """Whether every detection carries an identity."""
        return bool(self.gt_ids.size) and bool((self.gt_ids >= 0).all())

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        """The detections as records, made from the columns on first read."""
        return detection_records(self.frames, self.boxes, self.confidence,
                                 self.embeddings(), self.gt_ids)

    @cached_property
    def _embeddings(self) -> np.ndarray:
        source = self.embedding_source
        if not len(self):
            return frozen(np.empty((0, 0)), np.float64)
        if not isinstance(source, int):
            return source
        return frozen([pseudo_embedding(f, box, source) for f, box in
                        zip(self.frames.tolist(), self.boxes.tolist())], np.float64)

    def embeddings(self) -> np.ndarray:
        """The embeddings as a read-only (n, D) column; (0, 0) when empty."""
        return self._embeddings


def pseudo_embedding(frame: int, box: Sequence[float],
                     dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic unit vector hashed from a frame and an (x, y, w, h) box.

    Stands in when no sidecar is available; carries no identity signal.
    """
    x, y, w, h = box
    key = f"{frame}:{x:.4f}:{y:.4f}:{w:.4f}:{h:.4f}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def read_embeddings(path: Union[str, Path]) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ParseError(f"embedding sidecar {path} is truncated")
    head = np.frombuffer(raw, dtype=_SIDECAR_HEADER, count=2)
    rows, dim = int(head[0]), int(head[1])
    if (len(raw) - 16) % _SIDECAR_VALUE.itemsize:
        raise ParseError(
            f"embedding sidecar {path} ends inside a float32 value"
        )
    body = np.frombuffer(raw, dtype=_SIDECAR_VALUE, offset=16)
    if body.size != rows * dim:
        raise ParseError(
            f"embedding sidecar {path} promises {rows}x{dim} floats, "
            f"found {body.size}"
        )
    return body.reshape(rows, dim).astype(np.float64)


def write_embeddings(path: Union[str, Path], embeddings: np.ndarray) -> None:
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValidationError("embeddings must be a 2-d array")
    with open(path, "wb") as fh:
        fh.write(np.asarray(emb.shape, dtype=_SIDECAR_HEADER).tobytes())
        fh.write(emb.astype(_SIDECAR_VALUE).tobytes())


def _integer(text: str, name: str, line_no: int) -> int:
    """An exact integer field: an integer literal or an integral float spelling."""
    try:
        value = int(text)
    except ValueError:
        try:
            exact = Decimal(text)
        except ArithmeticError:  # decimal's InvalidOperation on a non-number
            exact = Decimal("NaN")
        if not exact.is_finite() or exact != exact.to_integral_value():
            raise ParseError(f"{name} must be an integer, got {text.strip()!r}",
                             line_no) from None
        value = exact  # bounded below before int() expands an exponent
    if not -_INT64 <= value < _INT64:
        raise ParseError(f"{name} {text.strip()} is outside the 64-bit range", line_no)
    return int(value)


def _read_columns(det_path: Union[str, Path]):
    """Every row of a MOT file converted at once, or None.

    Returns the 1-based frames, the ids and the (n, 5) float rows (x, y,
    w, h, conf). None means some row must go through _parse_lines to be
    accepted or refused: the loader refuses it (a float-spelled frame,
    fewer than 7 fields, a field Python reads and numpy does not, a blank
    line of spaces), or a value fails a check. numpy reads an integer or
    float field only if Python's int() or float() reads it to the same
    value, so an accepted file parses as _parse_lines would parse it.
    """
    try:
        with open(det_path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty file warns; _parse_lines reads it
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, dtype=_MOT_ROW, delimiter=",", comments=None,
                              usecols=range(7), ndmin=1)
    except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        return None
    frames, values = rows["frame"], rows["values"]
    conf = values[:, 4]
    ok = ((frames >= 1) & (frames <= _MAX_FRAME) & ~box_faults(values[:, :4])
          & (conf >= 0.0) & (conf <= 1.0))
    return (frames, rows["id"], values) if ok.all() else None


def _parse_lines(det_path: Union[str, Path]):
    """_read_columns line by line, refusing the first bad row by number."""
    frames, ids, rows = [], [], []
    with open(det_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise ParseError(
                    f"expected at least 7 comma-separated fields, got {len(parts)}",
                    line_no,
                )
            frame = _integer(parts[0], "frame", line_no)
            track_id = _integer(parts[1], "id", line_no)
            try:
                x, y, w, h, conf = (float(p) for p in parts[2:7])
            except ValueError as exc:
                raise ParseError(f"bad numeric field ({exc})", line_no) from None
            if frame < 1:
                raise ParseError(f"frame must be >= 1 on disk, got {frame}", line_no)
            if frame > _MAX_FRAME:
                raise ParseError(
                    f"frame must be <= {_MAX_FRAME} on disk, got {frame}", line_no
                )
            fault = box_fault(x, y, w, h)
            if fault is not None:
                raise ParseError(fault, line_no)
            if not (0.0 <= conf <= 1.0):
                raise ParseError(f"confidence {conf} outside [0, 1]", line_no)
            frames.append(frame)
            ids.append(track_id)
            rows.append((x, y, w, h, conf))
    return (np.asarray(frames, dtype=np.int64), np.asarray(ids, dtype=np.int64),
            np.asarray(rows, dtype=np.float64).reshape(-1, 5))


def parse_mot(
    det_path: Union[str, Path],
    embed_path: Optional[Union[str, Path]] = None,
    embed_dim: int = DEFAULT_EMBED_DIM,
) -> DetectionSet:
    """Read a MOT text file, attaching sidecar embeddings by row order.

    Without a sidecar every detection gets a pseudo-embedding hashed
    from its frame and box. The whole file is converted at once; a file
    that conversion or its checks refuse is read again line by line,
    which names the first bad line.
    """
    columns = _read_columns(det_path)
    on_disk, ids, values = columns if columns is not None else _parse_lines(det_path)
    order = np.argsort(on_disk, kind="stable")
    frames, n = on_disk[order] - 1, order.size
    embeddings = embed_dim
    if embed_path is not None:
        embeddings = read_embeddings(embed_path)
        if embeddings.shape[0] != n:
            raise ParseError(f"sidecar has {embeddings.shape[0]} rows for {n} detections")
        embeddings = embeddings[order]
    return DetectionSet(frames, values[order, :4], values[order, 4], np.maximum(ids[order], -1),
                        int(frames[-1]) + 1 if n else 0, embeddings)


# rows spelled at a time: bounds the Python objects a long video's
# output holds at once
_SPELL_ROWS = 1 << 15


def _mot_text(frames: np.ndarray, ids: np.ndarray, boxes: np.ndarray,
              confidence: np.ndarray) -> str:
    """MOT rows of aligned 0-based frame, id, (n, 4) box and confidence
    columns, in the columns' order; one line per row, each ended by a
    newline. Each column is spelled a block of rows at a time, every
    value by repr, which round-trips exactly and keeps synthetic values
    short."""
    blocks = []
    for lo in range(0, frames.size, _SPELL_ROWS):
        part = slice(lo, lo + _SPELL_ROWS)
        spelled = [map(repr, col) for col in ((frames[part] + 1).tolist(), ids[part].tolist(),
                                              *boxes[part].T.tolist(), confidence[part].tolist())]
        blocks.append("".join([",".join(row) + ",-1,-1,-1\n" for row in zip(*spelled)]))
    return "".join(blocks)


def write_mot(path: Union[str, Path], tracks: Sequence[Tracklet]) -> str:
    """Write tracklets as MOT rows sorted by (frame, id); returns the text.

    The tracks' columns are joined and sorted once, so writing makes no
    Detection record.
    """
    text = ""
    if tracks:
        frames = np.concatenate([t.frames for t in tracks])
        ids = np.repeat(np.asarray([t.id for t in tracks], dtype=np.int64),
                        [len(t) for t in tracks])
        order = np.lexsort((ids, frames))
        text = _mot_text(frames[order], ids[order],
                         np.concatenate([t.boxes for t in tracks])[order],
                         np.concatenate([t.confidence for t in tracks])[order])
    Path(path).write_text(text, encoding="utf-8")
    return text


def write_detections(path: Union[str, Path], dets: DetectionSet) -> None:
    """Write a detection set as MOT rows in set order (gt id or -1)."""
    Path(path).write_text(_mot_text(dets.frames, dets.gt_ids, dets.boxes, dets.confidence),
                          encoding="utf-8")


# --------------------------------------------------------------- synthesis


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a synthetic tracking scenario.

    occlusions lists (object, start_frame, n_frames) windows during
    which that object yields no detections. miss_rate drops surviving
    detections independently. Identities are 1-based.
    """

    n_objects: int
    n_frames: int
    seed: int = 0
    arena_w: float = 640.0
    arena_h: float = 480.0
    box_w: float = 24.0
    box_h: float = 48.0
    speed: float = 4.0
    turn_prob: float = 0.0
    miss_rate: float = 0.0
    embedding_noise_sigma: float = 0.0
    embedding_dim: int = DEFAULT_EMBED_DIM
    occlusions: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.n_objects < 1:
            raise ValidationError("need at least one object")
        if self.n_frames < 2:
            raise ValidationError("need at least two frames")
        if not (0.0 <= self.miss_rate < 1.0):
            raise ValidationError("miss_rate must lie in [0, 1)")
        if not (0.0 <= self.turn_prob <= 1.0):
            raise ValidationError("turn_prob must lie in [0, 1]")
        for name in ("arena_w", "arena_h", "speed", "embedding_noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.embedding_noise_sigma < 0:
            raise ValidationError("embedding noise must be >= 0")
        if self.embedding_dim < 2:
            raise ValidationError("embedding_dim must be >= 2")
        if not (self.box_w > 0 and self.box_h > 0):
            raise ValidationError("box_w and box_h must be > 0")
        if self.box_w >= self.arena_w or self.box_h >= self.arena_h:
            raise ValidationError("box does not fit the arena")
        for obj, start, dur in self.occlusions:
            if not (1 <= obj <= self.n_objects):
                raise ValidationError(f"occlusion names unknown object {obj}")
            if start < 0 or dur < 1:
                raise ValidationError("occlusion window must be non-empty")


def _simulate(spec: ScenarioSpec):
    """Positions (obj, frame, 2), embeddings (obj, frame, D), survivor mask."""
    rng_motion = np.random.default_rng([spec.seed, 101])
    rng_identity = np.random.default_rng([spec.seed, 211])
    rng_noise = np.random.default_rng([spec.seed, 307])
    rng_drop = np.random.default_rng([spec.seed, 401])

    n, f = spec.n_objects, spec.n_frames
    max_x = spec.arena_w - spec.box_w
    max_y = spec.arena_h - spec.box_h

    pos = np.empty((n, f, 2))
    start = rng_motion.uniform([0, 0], [max_x, max_y], size=(n, 2))
    angle = rng_motion.uniform(0, 2 * np.pi, size=n)
    turn_draws = rng_motion.uniform(size=(n, f))
    turn_angles = rng_motion.uniform(-np.pi / 2, np.pi / 2, size=(n, f))
    vel = spec.speed * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    cur = start.copy()
    for t in range(f):
        pos[:, t] = cur
        turning = turn_draws[:, t] < spec.turn_prob
        if turning.any():
            for i in np.flatnonzero(turning):
                c, s = np.cos(turn_angles[i, t]), np.sin(turn_angles[i, t])
                vx, vy = vel[i]
                vel[i] = (c * vx - s * vy, s * vx + c * vy)
        cur = cur + vel
        # reflect at the walls, flipping the offending velocity component
        for axis, hi in ((0, max_x), (1, max_y)):
            low = cur[:, axis] < 0
            cur[low, axis] = -cur[low, axis]
            vel[low, axis] = -vel[low, axis]
            high = cur[:, axis] > hi
            cur[high, axis] = 2 * hi - cur[high, axis]
            vel[high, axis] = -vel[high, axis]
        np.clip(cur[:, 0], 0, max_x, out=cur[:, 0])
        np.clip(cur[:, 1], 0, max_y, out=cur[:, 1])

    anchors = rng_identity.standard_normal((n, spec.embedding_dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    emb = np.repeat(anchors[:, None, :], f, axis=1)
    if spec.embedding_noise_sigma > 0:
        emb = emb + rng_noise.standard_normal(emb.shape) * spec.embedding_noise_sigma
        emb /= np.linalg.norm(emb, axis=2, keepdims=True)
    else:
        # keep the stream position stable across sigma settings
        rng_noise.standard_normal(emb.shape)

    survive = rng_drop.uniform(size=(n, f)) >= spec.miss_rate
    for obj, start_f, dur in spec.occlusions:
        survive[obj - 1, start_f : start_f + dur] = False
    return pos, emb, survive


def _collect(spec: ScenarioSpec, pos, emb, survive) -> DetectionSet:
    """The surviving detections, by frame and then by object."""
    frames, objects = np.nonzero(survive.T)
    n = frames.size
    boxes = np.hstack([pos[objects, frames], np.broadcast_to([spec.box_w, spec.box_h], (n, 2))])
    return DetectionSet(frames, boxes, np.ones(n), objects + 1, spec.n_frames,
                        emb[objects, frames])


def synthesize(spec: ScenarioSpec) -> DetectionSet:
    """Observed detections of the scenario (after occlusions and misses)."""
    pos, emb, survive = _simulate(spec)
    return _collect(spec, pos, emb, survive)


def ground_truth(spec: ScenarioSpec) -> DetectionSet:
    """Complete trajectories of the scenario, ignoring dropout."""
    pos, emb, _ = _simulate(spec)
    full = np.ones((spec.n_objects, spec.n_frames), dtype=bool)
    return _collect(spec, pos, emb, full)

