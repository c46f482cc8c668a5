"""The benchmark's traced run still reaches every layer it wraps.

benchmarks/tracer.py patches module functions by name and reads
len(aff); a rename in src/ would break `--trace 1` without failing any
other test. One short traced weak-appearance run in a subprocess pins
its correctness and the counts it reports.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def tracer_metric_names():
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METRICS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/tracer.py defines no METRICS")


def test_traced_weak_appearance_run_is_correct_and_counts_match():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "weak-appearance",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert tracer_metric_names() <= metrics.keys()
    assert metrics["affinity.pairs"]["value"] == 277381
    assert metrics["builder.det_det_edges"]["value"] == 7065
