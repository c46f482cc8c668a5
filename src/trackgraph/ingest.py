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
detection order.

Synthetic scenarios draw constant-velocity box tracks that bounce off
the arena walls, attach identity-anchored unit embeddings with optional
Gaussian noise, then drop detections through occlusion windows and a
uniform miss rate. Trajectories, embeddings, and dropout use separate
seeded streams, so the same seed yields the same ground truth whatever
the dropout settings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from trackgraph.core import (
    DEFAULT_EMBED_DIM,
    BoundingBox,
    Detection,
    ParseError,
    Tracklet,
    ValidationError,
)

_MAX_FRAME = 2**53
_INT64 = 2**63
_SIDECAR_HEADER = np.dtype("<u8")
_SIDECAR_VALUE = np.dtype("<f4")


@dataclass(frozen=True)
class DetectionSet:
    """Detections of one sequence, sorted by frame.

    n_frames is one past the last frame; has_gt is true when every
    detection carries an identity.
    """

    detections: tuple[Detection, ...]
    n_frames: int
    has_gt: bool
    by_frame: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        frames = [d.frame for d in self.detections]
        for a, b in zip(frames, frames[1:]):
            if b < a:
                raise ValidationError("detections must be sorted by frame")
        if self.detections:
            dim = self.detections[0].embedding.size
            for d in self.detections:
                if d.embedding.size != dim:
                    raise ValidationError("embedding dimensions disagree")
            if self.detections[-1].frame >= self.n_frames:
                raise ValidationError("n_frames does not cover all detections")
        index: dict[int, list[int]] = {}
        for i, d in enumerate(self.detections):
            index.setdefault(d.frame, []).append(i)
        frozen = {f: np.asarray(ix, dtype=np.int64) for f, ix in index.items()}
        object.__setattr__(self, "by_frame", frozen)

    @classmethod
    def build(cls, detections: Sequence[Detection], n_frames: Optional[int] = None):
        dets = tuple(sorted(detections, key=lambda d: d.frame))
        if n_frames is None:
            n_frames = dets[-1].frame + 1 if dets else 0
        has_gt = bool(dets) and all(d.gt_id is not None for d in dets)
        return cls(dets, n_frames, has_gt)

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def embedding_dim(self) -> int:
        if not self.detections:
            return 0
        return self.detections[0].embedding.size

    def embeddings(self) -> np.ndarray:
        if not self.detections:
            return np.empty((0, 0))
        return np.stack([d.embedding for d in self.detections])


def pseudo_embedding(frame: int, box: BoundingBox, dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic unit vector hashed from (frame, box).

    Stands in when no sidecar is available; carries no identity signal.
    """
    key = f"{frame}:{box.x:.4f}:{box.y:.4f}:{box.w:.4f}:{box.h:.4f}"
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


def parse_mot(
    det_path: Union[str, Path],
    embed_path: Optional[Union[str, Path]] = None,
    embed_dim: int = DEFAULT_EMBED_DIM,
) -> DetectionSet:
    """Read a MOT text file, attaching sidecar embeddings by row order.

    Without a sidecar every detection gets a pseudo-embedding hashed
    from its frame and box.
    """
    rows = []
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
            try:
                box = BoundingBox(x, y, w, h)
            except ValidationError as exc:
                raise ParseError(str(exc), line_no) from None
            if not (0.0 <= conf <= 1.0):
                raise ParseError(f"confidence {conf} outside [0, 1]", line_no)
            rows.append((frame - 1, track_id, box, conf))

    embeddings = None
    if embed_path is not None:
        embeddings = read_embeddings(embed_path)
        if embeddings.shape[0] != len(rows):
            raise ParseError(
                f"sidecar has {embeddings.shape[0]} rows for {len(rows)} detections"
            )

    dets = []
    for i, (frame, track_id, box, conf) in enumerate(rows):
        emb = (
            embeddings[i]
            if embeddings is not None
            else pseudo_embedding(frame, box, embed_dim)
        )
        dets.append(
            Detection(
                frame=frame,
                box=box,
                confidence=conf,
                embedding=emb,
                gt_id=track_id if track_id >= 0 else None,
            )
        )
    return DetectionSet.build(dets)


def _fmt(value: float) -> str:
    # repr round-trips exactly and keeps synthetic values short
    return repr(float(value))


def write_mot(path: Union[str, Path], tracks: Sequence[Tracklet]) -> str:
    """Write tracklets as MOT rows sorted by (frame, id); returns the text."""
    rows = []
    for t in tracks:
        for d in t.detections:
            rows.append((d.frame, t.id, d))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = []
    for frame, tid, d in rows:
        b = d.box
        lines.append(
            f"{frame + 1},{tid},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)},"
            f"{_fmt(d.confidence)},-1,-1,-1"
        )
    text = "\n".join(lines) + ("\n" if lines else "")
    Path(path).write_text(text, encoding="utf-8")
    return text


def write_detections(path: Union[str, Path], dets: DetectionSet) -> None:
    """Write a detection set as MOT rows in set order (gt id or -1)."""
    lines = []
    for d in dets.detections:
        b = d.box
        tid = d.gt_id if d.gt_id is not None else -1
        lines.append(
            f"{d.frame + 1},{tid},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)},"
            f"{_fmt(d.confidence)},-1,-1,-1"
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


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
        if self.embedding_noise_sigma < 0:
            raise ValidationError("embedding noise must be >= 0")
        if self.embedding_dim < 2:
            raise ValidationError("embedding_dim must be >= 2")
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
    dets = []
    for t in range(spec.n_frames):
        for i in range(spec.n_objects):
            if not survive[i, t]:
                continue
            x, y = pos[i, t]
            dets.append(
                Detection(
                    frame=t,
                    box=BoundingBox(float(x), float(y), spec.box_w, spec.box_h),
                    confidence=1.0,
                    embedding=emb[i, t],
                    gt_id=i + 1,
                )
            )
    return DetectionSet.build(dets, n_frames=spec.n_frames)


def synthesize(spec: ScenarioSpec) -> DetectionSet:
    """Observed detections of the scenario (after occlusions and misses)."""
    pos, emb, survive = _simulate(spec)
    return _collect(spec, pos, emb, survive)


def ground_truth(spec: ScenarioSpec) -> DetectionSet:
    """Complete trajectories of the scenario, ignoring dropout."""
    pos, emb, _ = _simulate(spec)
    full = np.ones((spec.n_objects, spec.n_frames), dtype=bool)
    return _collect(spec, pos, emb, full)

