"""Run configuration: defaults, file loading, precedence, validation."""

import pytest

from trackgraph.core import ParseError, ValidationError
from trackgraph.config import RunConfig, load_config, parse_config_file
from trackgraph.mpn import TrainSchedule


def test_defaults_match_module_defaults():
    cfg = RunConfig()
    assert cfg.window == 32
    assert cfg.step == 16
    assert cfg.clip_len == 512
    assert cfg.overlap == 256
    assert cfg.top_k == 5
    assert cfg.new_track_threshold == 0.3
    assert cfg.assign_threshold == 0.5
    assert cfg.traj_passes == 1
    assert cfg.embed_dim == 16
    assert cfg.node_dim == 32
    assert cfg.edge_dim == 16
    assert cfg.hidden_dim == 64
    assert cfg.steps == 12
    assert cfg.learning_rate == 3e-4
    assert cfg.weight_decay == 1e-4
    assert cfg.iterations == 2000
    assert cfg.unfreeze_at == 500
    assert cfg.gamma == 1.0
    assert cfg.iou_gate == 0.5
    assert cfg.seed == 0


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "window = 40\n"
        "\n"
        "learning_rate=1e-3   # trailing comment\n"
        "iou_gate = 0.3\n"
    )
    raw = parse_config_file(p)
    assert raw == {"window": "40", "learning_rate": "1e-3", "iou_gate": "0.3"}


def test_load_config_three_layer_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("window=40\nstep=8\n")
    assert load_config().window == 32
    assert load_config(p).window == 40
    cfg = load_config(p, {"window": 48, "seed": None})
    assert cfg.window == 48   # flag beats file
    assert cfg.step == 8      # file beats default
    assert cfg.seed == 0      # None means the flag was not given


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    for line in ("windows=40", "threads=2", "pass1_mode=rounding"):
        p.write_text(line + "\n")
        with pytest.raises(ValidationError):
            load_config(p)


def test_bad_values_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("window=abc\n")
    with pytest.raises(ValidationError):
        load_config(p)
    p.write_text("window\n")
    with pytest.raises(ParseError):
        load_config(p)
    p.write_text("iterations=2.5\n")
    with pytest.raises(ValidationError):
        load_config(p)


def test_module_invariants_enforced_at_load():
    with pytest.raises(ValidationError):
        RunConfig(window=600)          # window cannot exceed clip_len
    with pytest.raises(ValidationError):
        RunConfig(overlap=512)         # overlap must stay below clip_len
    with pytest.raises(ValidationError):
        RunConfig(step=40)             # step cannot exceed window
    with pytest.raises(ValidationError):
        RunConfig(top_k=0)
    with pytest.raises(ValidationError):
        RunConfig(new_track_threshold=1.5)
    with pytest.raises(ValidationError):
        RunConfig(assign_threshold=0.0)
    with pytest.raises(ValidationError):
        RunConfig(iterations=-1)
    with pytest.raises(ValidationError):
        RunConfig(traj_passes=-1)
    with pytest.raises(ValidationError):
        RunConfig(iou_gate=0.0)
    with pytest.raises(ValidationError):
        RunConfig(node_dim=0)


@pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_training_rates_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite and non-negative"):
        TrainSchedule(**{name: value})
    with pytest.raises(ValidationError, match=f"{name} must be finite and non-negative"):
        RunConfig(**{name: value})
    TrainSchedule(**{name: 0.0})


def test_shrunken_clip_still_validates():
    cfg = RunConfig(clip_len=64, overlap=32, window=16, step=8)
    assert cfg.clip_len == 64
