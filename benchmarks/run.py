"""The trackgraph benchmark: one workload per run, results as one JSON line.

    python3 benchmarks/run.py --workload long-mpn --seed 1 --seconds 30 --trace 0

Workloads (inputs in workloads.py, rationale in README.md):

- long-mpn: a 10-object x 384-frame noisy video tracked in five
  128/64 clips with the committed trained checkpoint;
- weak-appearance: a 10-object x 160-frame video with weak embeddings,
  one clip, handcrafted scorer; the trajectory pass dominates;
- train: mpn.train on the two calibration clips of acceptance
  criterion 6, TRAIN_ITERATIONS iterations per operation.

Set-up runs SETUP_REPEATS times and reports its median. Operations then
repeat until --seconds have passed (at least one, and with --trace 1 at
least one untraced and one traced); each operation's outputs are checked
before the next starts.

The processor's speed drifts by a quarter within minutes on a shared
machine, so no time is reported raw. Every operation is bracketed by two
runs of a fixed reference loop that does no trackgraph work: a
pure-Python loop for the tracking workloads, which spend their time in
the interpreter, and a small array kernel for training, which spends it
in numpy. op_ref is the operation's wall time in multiples of the
loop's. Each set-up is bracketed the same way by the Python loop, and
setup_s is its time scaled to a loop that takes PYTHON_LOOP_S. With
--trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads  # first: pins BLAS threads, puts the checkout's src/ on the path

import numpy as np

import checks
import tracer
from trackgraph import ingest, metrics
from trackgraph.cli import _tracker
from trackgraph.config import RunConfig
from trackgraph.mpn import _SCORE_CLAMP, TrainSchedule, forward, load_params, train
from trackgraph.stitcher import ClipPlan, run_clipped

SETUP_REPEATS = 5
PYTHON_LOOP_STEPS = 300_000
# the Python loop's time on the 2-core machine the bounds were set on
PYTHON_LOOP_S = 0.09
TRAIN_ITERATIONS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ref": "ref",
    "peak_rss_mb": "MB",
    "quality": "fraction",
}


def _input_arrays(dets):
    frames = np.asarray([d.frame for d in dets.detections], dtype=np.int64)
    boxes = np.asarray([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets.detections])
    return frames, boxes


def _id_arrays(dets):
    frames, boxes = _input_arrays(dets)
    ids = np.asarray([d.gt_id for d in dets.detections], dtype=np.int64)
    return ids, frames, boxes


class Tracking:
    """What `trackgraph track --det --emb [--params] --out` does, timed."""

    def __init__(self, spec, cfg: RunConfig, checkpoint, workdir: Path):
        self.spec, self.cfg = spec, cfg
        self.checkpoint, self.workdir = checkpoint, workdir

    def setup(self):
        dets = ingest.synthesize(self.spec)
        self.gt = ingest.ground_truth(self.spec)
        self.det_path = self.workdir / "det.txt"
        self.emb_path = self.workdir / "det.emb"
        self.out_path = self.workdir / "tracks.txt"
        ingest.write_detections(self.det_path, dets)
        ingest.write_embeddings(self.emb_path, dets.embeddings())
        self.params = load_params(self.checkpoint) if self.checkpoint else None
        self.gt_arrays = _id_arrays(self.gt)

    def operation(self, trace):
        """Track the video; returns (seconds, outputs to verify)."""
        cfg = self.cfg
        tracker = _tracker(cfg, params=self.params)
        if trace is not None:
            tracker = trace.clip_pipeline(tracker)
        t0 = time.perf_counter()
        dets = ingest.parse_mot(self.det_path, self.emb_path, cfg.embed_dim)
        t1 = time.perf_counter()
        tracks = run_clipped(dets, ClipPlan(cfg.clip_len, cfg.overlap), tracker)
        t2 = time.perf_counter()
        ingest.write_mot(self.out_path, tracks)
        t3 = time.perf_counter()
        if trace is not None:
            trace.totals["ingest.parse_s"] = t1 - t0
            trace.totals["ingest.write_s"] = t3 - t2
        return t3 - t0, (dets, tracks)

    def verify(self, outputs, trace):
        """Check one run's tracks; returns (attempted, failed, quality).

        The unit of work is placing one input detection in a track; a
        detection placed in two tracks is a failed placement.
        """
        dets, tracks = outputs
        frames, boxes = _input_arrays(dets)
        duplicated = checks.check_tracks(tracks, boxes, frames)
        pred = ingest.parse_mot(self.out_path)
        t0 = time.perf_counter()
        report = metrics.evaluate(pred, self.gt, self.cfg.iou_gate)
        eval_s = time.perf_counter() - t0
        checks.check_idf1(report.idf1, checks.reference_idf1(
            _id_arrays(pred), self.gt_arrays, self.cfg.iou_gate))
        if trace is not None:
            trace.totals.update({
                "stitcher.duplicate_detections": duplicated,
                "metrics.eval_s": eval_s,
                "metrics.mota": report.mota,
                "metrics.ids": report.ids,
            })
        return len(dets), duplicated, report.idf1


class Training:
    """mpn.train over the calibration graphs, TRAIN_ITERATIONS at a time."""

    def __init__(self):
        full = workloads.CALIBRATION_SCHEDULE
        self.schedule = TrainSchedule(TRAIN_ITERATIONS, full.learning_rate,
                                      full.weight_decay, full.gamma,
                                      full.unfreeze_second_at)

    def setup(self):
        self.primary, self.secondary = workloads.calibration_graphs()
        self.params = workloads.calibration_init()
        self.first_loss = None

    def expected_first_loss(self) -> float:
        """Cross-entropy of the initial scores, computed apart from train.

        With gamma 0 and the trajectory graphs not yet in the loss, the
        first recorded loss must equal it.
        """
        if self.schedule.gamma != 0.0 or self.schedule.unfreeze_second_at == 0:
            raise ValueError("the reference covers plain cross-entropy only")
        scores = [forward(g, self.params)[1] for g, _ in self.primary]
        labels = [y for _, y in self.primary]
        return checks.reference_bce(scores, labels, _SCORE_CLAMP)

    def operation(self, trace):
        """Train; returns (seconds per iteration, loss history)."""
        t0 = time.perf_counter()
        result = train(self.primary, self.secondary, self.params, self.schedule)
        n = self.schedule.iterations
        seconds = (time.perf_counter() - t0) / n
        if trace is not None:
            for name in ("mpn.forward_s", "mpn.backward_s", "mpn.tensors_s"):
                trace.totals[name] /= n
        return seconds, [loss for _, loss in result.history]

    def verify(self, losses, trace):
        """One iteration is one operation; the quality is the share of
        the initial loss that the iterations removed."""
        if self.first_loss is None:
            self.first_loss = self.expected_first_loss()
        checks.check_losses(losses, self.first_loss)
        return len(losses), 0, 1.0 - losses[-1] / losses[0]


def make_workload(name: str, workdir):
    if name == "long-mpn":
        return Tracking(workloads.LONG_SPEC, workloads.LONG_CONFIG,
                        workloads.CHECKPOINT, workdir)
    if name == "weak-appearance":
        return Tracking(workloads.WEAK_SPEC, workloads.WEAK_CONFIG, None, workdir)
    return Training()


def python_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the interpreter's speed now."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PYTHON_LOOP_STEPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - t0


class ArrayLoop:
    """A fixed numpy kernel shaped like one message-passing step."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((6000, 96))
        self.w = rng.random((96, 32))
        self.idx = rng.integers(0, 600, 6000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            h = np.maximum(self.x @ self.w, 0.0)
            acc = np.zeros((600, 32))
            np.add.at(acc, self.idx, h)
            np.hstack([h, h, h]).sum()
        return time.perf_counter() - t0


def bracketed(reference, fn):
    """Run fn() -> (seconds, result) between two reference runs.

    Returns (seconds, seconds over the reference's mean time, result).
    """
    before = reference()
    seconds, out = fn()
    return seconds, seconds / (0.5 * (before + reference())), out


def run(name: str, duration: float, traced: bool, workdir) -> dict:
    wl = make_workload(name, workdir)

    def setup():
        t0 = time.perf_counter()
        wl.setup()
        return time.perf_counter() - t0, None

    setups = [bracketed(python_loop_s, setup)[1] * PYTHON_LOOP_S
              for _ in range(SETUP_REPEATS)]
    reference = ArrayLoop() if isinstance(wl, Training) else python_loop_s

    cfg = getattr(wl, "cfg", RunConfig())
    trace = tracer.Tracer(cfg.top_k, cfg.assign_threshold) if traced else None
    bare, traced_ops, quality, layers = [], [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        # with tracing, the first operation runs bare to measure the overhead
        active = trace if trace is not None and bare else None
        if active is not None:
            with active:
                dt, cost, outputs = bracketed(reference, lambda: wl.operation(active))
        else:
            dt, cost, outputs = bracketed(reference, lambda: wl.operation(None))
        (traced_ops if active is not None else bare).append((dt, cost))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            n, bad, q = wl.verify(outputs, active)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return {"correct": False, "attempted": attempted + 1,
                    "failed": failed, "metrics": {}}
        if active is not None:
            layers.append(active.take())
        attempted += n
        failed += bad
        quality.append(q)
        done = time.perf_counter() - started >= duration
        if done and (trace is None or layers):
            break

    if traced:
        values = {}
        for metric in tracer.METRICS:
            values[metric] = statistics.median(layer.get(metric, 0.0) for layer in layers)
        op_s = statistics.median(dt for dt, _ in traced_ops)
        if isinstance(wl, Tracking):
            values["trace.traj_pass_share"] = (
                values["solver.traj_graph_s"] + values["mpn.traj_score_s"]) / op_s
        values["trace.overhead"] = (statistics.median(c for _, c in traced_ops)
                                    / statistics.median(c for _, c in bare) - 1.0)
        units = tracer.METRICS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_ref": statistics.median(c for _, c in bare),
            "peak_rss_mb": peak_rss_mb,
            "quality": statistics.median(quality),
        }
        units = END_TO_END
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trackgraph benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("long-mpn", "weak-appearance", "train"))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted, but changes nothing: the scenes are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.scratch_dir())
    try:
        result = run(args.workload, args.seconds, bool(args.trace), Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
