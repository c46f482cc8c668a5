"""Write the trained checkpoint that the long-mpn workload tracks with.

The recipe is the noisy calibration of acceptance criterion 6: two noisy
10-object x 120-frame clips (scenario seeds 70 and 71), node/edge/hidden
dims 16/8/32, 4 message-passing steps, init seed 0, 500 plain
cross-entropy steps (gamma 0) at learning rate 0.01, weight decay 1e-4.
The checkpoint is an input of the benchmark, not an expected output:

    python3 benchmarks/make_checkpoint.py [--out benchmarks/long_mpn.ckpt]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import workloads  # noqa: F401  (pins BLAS threads and puts src/ on the path)
from trackgraph.mpn import save_params, train


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=workloads.CHECKPOINT)
    args = parser.parse_args(argv)
    primary, secondary = workloads.calibration_graphs()
    started = time.perf_counter()
    result = train(primary, secondary, workloads.calibration_init(),
                   workloads.CALIBRATION_SCHEDULE)
    elapsed = time.perf_counter() - started
    save_params(args.out, result.params)
    losses = [loss for _, loss in result.history]
    digest = hashlib.sha256(args.out.read_bytes()).hexdigest()
    print(f"iterations={len(losses)} first_loss={losses[0]:.6f} "
          f"last_loss={losses[-1]:.6f} seconds={elapsed:.1f}")
    print(f"sha256={digest} out={args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
