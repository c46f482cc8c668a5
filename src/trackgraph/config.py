"""One flat configuration namespace over every stage's knobs.

Values resolve as flag > file > default. The file format is plain
key=value lines with # comments. Validation delegates to the owning
modules so a config can never encode a state they would reject.
"""

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

from trackgraph.affinity import WindowPlan
from trackgraph.builder import BuilderConfig
from trackgraph.core import ParseError, ValidationError
from trackgraph.mpn import TrainSchedule
from trackgraph.stitcher import ClipPlan


@dataclass(frozen=True)
class RunConfig:
    window: int = 32
    step: int = 16
    clip_len: int = 512
    overlap: int = 256
    top_k: int = 5
    new_track_threshold: float = 0.3
    assign_threshold: float = 0.5
    traj_passes: int = 1
    embed_dim: int = 16
    node_dim: int = 32
    edge_dim: int = 16
    hidden_dim: int = 64
    steps: int = 12
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    iterations: int = 2000
    unfreeze_at: int = 500
    gamma: float = 1.0
    iou_gate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        WindowPlan(self.clip_len, self.window, self.step)
        ClipPlan(self.clip_len, self.overlap)
        BuilderConfig(self.top_k, self.new_track_threshold, self.window)
        TrainSchedule(
            self.iterations,
            self.learning_rate,
            self.weight_decay,
            self.gamma,
            self.unfreeze_at,
        )
        if not (0.0 < self.assign_threshold <= 1.0):
            raise ValidationError("assign_threshold must lie in (0, 1]")
        if self.traj_passes < 0:
            raise ValidationError("traj_passes must be non-negative")
        if not (0.0 < self.iou_gate <= 1.0):
            raise ValidationError("iou_gate must lie in (0, 1]")
        for name in ("embed_dim", "node_dim", "edge_dim", "hidden_dim", "steps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path: Union[str, Path]) -> dict[str, str]:
    """key=value lines; # starts a comment, blank lines are skipped."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key=value", line_no)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ParseError("empty key or value", line_no)
            raw[key] = value
    return raw


def _convert(key: str, value: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ValidationError(f"unknown config key {key!r}")
    if kind is str:
        return value
    try:
        return kind(value)
    except ValueError:
        raise ValidationError(
            f"config key {key!r} needs a {kind.__name__}, got {value!r}"
        ) from None


def load_config(
    path: Optional[Union[str, Path]] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Resolve a config: explicit overrides beat the file beat defaults.

    Overrides with value None count as absent, which lets CLI flags
    default to None and only land when the user passed them.
    """
    values = {}
    if path is not None:
        for key, text in parse_config_file(path).items():
            values[key] = _convert(key, text)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = value
    return RunConfig(**values)
