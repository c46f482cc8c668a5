"""Inputs of the benchmark workloads, and the path to the program under test.

Importing this module pins the BLAS pools to one thread (before numpy
loads) and puts the checkout's own ``src/`` first on ``sys.path``, so the
benchmark always measures the source tree it sits in, never an installed
copy.
"""

import os
import sys
from pathlib import Path

# one BLAS thread: a second thread makes the small matrix products of
# training 4x slower whenever another process shares the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "trackgraph" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no trackgraph sources under {SRC}")
sys.path.insert(0, str(SRC))

from trackgraph.cli import _labelled_graphs  # noqa: E402
from trackgraph.config import RunConfig  # noqa: E402
from trackgraph.ingest import ScenarioSpec, synthesize  # noqa: E402
from trackgraph.mpn import TrainSchedule, init_params  # noqa: E402

CHECKPOINT = HERE / "long_mpn.ckpt"

# The tracking scenes are fixed, whatever the seed of the run. Between
# scene seeds of the weak-appearance recipe the trajectory pass costs
# from 9 to 16 s (at 384 frames), so a seed-drawn scene would bury any
# change under test in scene-to-scene spread; and the stitching fault
# that long-mpn shows must fail the same placements on every run.
LONG_SPEC = ScenarioSpec(n_objects=10, n_frames=384, seed=60,
                         embedding_noise_sigma=0.1, miss_rate=0.05)
# five 128-frame clips overlapping by 64: four seams to stitch
LONG_CONFIG = RunConfig(clip_len=128, overlap=64)
WEAK_SPEC = ScenarioSpec(n_objects=10, n_frames=160, seed=60,
                         embedding_noise_sigma=0.2, miss_rate=0.1)
WEAK_CONFIG = RunConfig()

# the noisy calibration set and recipe of acceptance criterion 6
CALIBRATION_SPECS = (
    ScenarioSpec(n_objects=10, n_frames=120, seed=70, embedding_noise_sigma=0.1,
                 miss_rate=0.05, occlusions=((1, 30, 6), (3, 70, 8))),
    ScenarioSpec(n_objects=10, n_frames=120, seed=71, embedding_noise_sigma=0.1,
                 miss_rate=0.05, occlusions=((2, 50, 10),)),
)
CALIBRATION_CONFIG = RunConfig(node_dim=16, edge_dim=8, hidden_dim=32, steps=4)
CALIBRATION_SCHEDULE = TrainSchedule(500, 0.01, 1e-4, gamma=0.0,
                                     unfreeze_second_at=200)


def scratch_dir() -> Path:
    """Where runs write their detection and track files (git-ignored)."""
    path = HERE / ".runs"
    path.mkdir(exist_ok=True)
    return path


def calibration_init():
    cfg = CALIBRATION_CONFIG
    return init_params(0, cfg.embed_dim, cfg.node_dim, cfg.edge_dim,
                       cfg.hidden_dim, cfg.steps)


def calibration_graphs():
    """Labelled part graphs (and trajectory graphs) of the calibration clips."""
    primary, secondary = [], []
    for spec in CALIBRATION_SPECS:
        p, s = _labelled_graphs(synthesize(spec), CALIBRATION_CONFIG)
        primary += p
        secondary += s
    return primary, secondary
