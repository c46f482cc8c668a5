"""Check that a refactor leaves the command-line outputs byte-identical.

    python3 scripts/compare_outputs.py --base REV

Unpacks REV with `git archive` into a temporary directory, then runs
`trackgraph synth`, `track`, `eval`, `graph-stats --dump` and `train`
on a fixed ladder of scenes under both trees: REV and this working tree
(uncommitted edits included). `long6144` is also tracked with
`benchmarks/long_mpn.ckpt`: its tracks disagree across its 22 seams, so
a merged left track often gives up a member to its mate's detection of
the same frame, which the handcrafted long6144 run and the checkpoint's
long run never do. One more `track` run reads a sparse copy of a scene
whose later half sits far ahead in time, and one more `track` and
`eval` read a copy of a scene respelled so that `parse_mot`
reads it line by line. One more `track` and `eval` read a copy of the
weak scene with every box scaled by 1e-6 and moved by -2e-4, so that
the written boxes are spelled with exponents and minus signs
(`-5.3e-05`), which the synthetic scenes never write. Two more runs read no embedding sidecar, so
`parse_mot` hashes a pseudo-embedding for each detection: `track` and
`eval` on weak, and `graph-stats --dump` on long. One more `eval` scores
gate700's ground truth, its ids cut into 8-frame runs (about 880 ids),
against itself, so the report shows any change in IDF1's frame join and
in its assignment over a wide id matrix. For the weak and gate700 scenes, each tracked
as one clip, one more entry hashes the raw bytes of the part and
trajectory graphs' edge descriptors, node features and handcrafted
scores, since `graph-stats --dump` prints descriptors rounded and a
last-bit change would show only through the `train` checkpoints.
Another hashes the raw bytes of message passing with
`benchmarks/long_mpn.ckpt` on those scenes' part graphs and the
trajectory graphs of their pass-1 identities: scores and final node
and edge states, since a last-bit change in scores shows in `track`
only where it flips a rounding decision.
For long6144 and narrow3 (cosine affinity) and gate700 and crowd120
(oracle affinity), cut into 512/256 clips, one more entry hashes each
clip's association raw: its tracklets' member indices and its part
graph's endpoint arrays. crowd120 holds over 100 detections per frame
and narrow3 at most 3, so the top_k candidates are checked on frames
both wider and narrower than top_k; the oracle's many tied similarities
on crowd120's wide frames also check that ties go to the earlier
detection.
Prints one SHA-256
per scene and output of the working tree, marks each one `same` or
`DIFFERS`, and exits 1 on any mismatch. `track` is compared on its
output file and summary, `eval` on its report; the timing line of
`track`'s summary is left out. `train`
is compared on the checkpoint bytes and on its summary without the
output path. A differing printout (a summary, eval report or
graph-stats dump) is followed by its first differing line from each
tree. The temporary directory follows TMPDIR.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "benchmarks" / "long_mpn.ckpt"

# name -> synth flags
SCENES = {
    # the long-mpn benchmark scene: 10 x 384 frames
    "long": ["--objects", "10", "--frames", "384", "--seed", "60",
             "--sigma", "0.1", "--miss-rate", "0.05"],
    # the weak-appearance benchmark scene: 10 x 160 frames
    "weak": ["--objects", "10", "--frames", "160", "--seed", "60",
             "--sigma", "0.2", "--miss-rate", "0.1"],
    # weak's recipe at 384 frames: the most trajectory pairs beyond the
    # handcrafted scorer's reach
    "weak384": ["--objects", "10", "--frames", "384", "--seed", "60",
                "--sigma", "0.2", "--miss-rate", "0.1"],
    # the noisy 10 x 700 scene of the acceptance gate
    "gate700": ["--objects", "10", "--frames", "700", "--seed", "60",
                "--sigma", "0.1", "--miss-rate", "0.05"],
    # denser and noisier: 20 objects at sigma 0.3
    "dense20": ["--objects", "20", "--frames", "128", "--seed", "60",
                "--sigma", "0.3", "--miss-rate", "0.05"],
    # a training scene noisy enough that its 64-frame clips break into
    # fragments, so training also gets trajectory-level graphs
    "train120": ["--objects", "10", "--frames", "120", "--seed", "70",
                 "--sigma", "0.5", "--miss-rate", "0.2", "--turn-prob", "0.1"],
    # a long video: 23 clips of 512/256 frames, 22 seams to stitch
    "long6144": ["--objects", "10", "--frames", "6144", "--seed", "60",
                 "--sigma", "0.1", "--miss-rate", "0.05"],
    # a crowded scene, over 100 detections per frame, many more than top_k
    "crowd120": ["--objects", "120", "--frames", "48", "--seed", "60",
                 "--sigma", "0.1", "--miss-rate", "0.05"],
    # a narrow scene in two clips: at most 3 detections per frame, fewer
    # than top_k, so every candidate list is cut short
    "narrow3": ["--objects", "3", "--frames", "600", "--seed", "60",
                "--sigma", "0.3", "--miss-rate", "0.2"],
}

CKPT = ["--params", str(CHECKPOINT)]
LONG_CLIPS = ["--clip-len", "128", "--overlap", "64"]

# (scene, run name, extra track flags)
TRACK_RUNS = [
    ("long", "mpn", CKPT + LONG_CLIPS),
    ("weak", "handcrafted", []),
    # message passing and oracle labels over weak's large trajectory graph
    ("weak", "mpn", CKPT),
    ("weak", "oracle", ["--oracle"]),
    ("weak384", "handcrafted", []),
    ("gate700", "handcrafted", []),
    ("gate700", "mpn", CKPT),
    ("gate700", "oracle", ["--oracle"]),
    ("gate700", "step8", ["--step", "8"]),
    # the densest, noisiest scene: the likeliest to meet a near-tie in
    # association
    ("dense20", "handcrafted", []),
    ("dense20", "oracle", ["--oracle"]),
    # pass 1 leaves hundreds of fragments in each 64-frame clip, so the
    # trajectory pass, stitching and interpolation see fragmented tracks
    ("train120", "clips64", ["--clip-len", "64", "--overlap", "32"]),
    ("long6144", "handcrafted", []),
    # the checkpoint's tracks disagree across seams, so merged left
    # members yield to their mates' detections of the same frame
    ("long6144", "mpn", CKPT),
    # a second trajectory pass, with its early stops, and no trajectory
    # pass at all
    ("weak", "passes2", ["--traj-passes", "2"]),
    ("gate700", "mpn-passes2", CKPT + ["--traj-passes", "2"]),
    ("weak", "passes0", ["--traj-passes", "0"]),
]

# the sparse run: the long scene's rows after frame 192 (1-based, as on
# disk) moved 100,000 frames later, same sidecar, tracked handcrafted in
# 128/64 clips, so the clips between the two halves hold no detection
SPARSE_AFTER, SPARSE_SHIFT = 192, 100_000

# the scaled run: weak's boxes (and ground truth) scaled about the origin
# and moved, so that repr spells coordinates and sides with exponents and
# minus signs
SCALED_SCALE, SCALED_SHIFT = 1e-6, -2e-4

# (scene, run name, extra graph-stats flags)
GRAPH_RUNS = [
    ("long", "step16", []),
    ("long", "step8", ["--step", "8"]),
    ("long", "step5", ["--step", "5"]),
    ("weak", "step16", []),
    ("gate700", "step16", []),
    ("gate700", "step8", ["--step", "8"]),
    ("dense20", "step16", []),
    ("dense20", "step5", ["--step", "5"]),
    # a lookback shorter than most tracks cuts their members at the window
    ("dense20", "window8", ["--window", "8", "--step", "4"]),
]


# (scene, run name, extra train flags): few iterations keep a run short,
# and the trajectory-level graphs join the loss halfway
TRAIN_RUNS = [
    # small dims
    ("train120", "small", ["--clip-len", "64", "--overlap", "32",
                           "--node-dim", "8", "--edge-dim", "4",
                           "--hidden-dim", "16", "--steps", "3",
                           "--iterations", "20", "--unfreeze-at", "10",
                           "--learning-rate", "0.01", "--seed", "3"]),
    # the default dims that long_mpn.ckpt has: node 32, edge 16,
    # hidden 64, 12 steps
    ("train120", "default", ["--clip-len", "64", "--overlap", "32",
                             "--iterations", "6", "--unfreeze-at", "3",
                             "--learning-rate", "0.01", "--seed", "3"]),
]


# scenes whose graph arrays are hashed raw
EDGE_ARRAY_SCENES = ("weak", "gate700")

# prints one SHA-256 over a scene's part and first trajectory graph:
# each graph's descriptors, node features and handcrafted scores; calls
# only functions that every compared tree has, and hands
# build_traj_graph the graph's detection set where the graph holds one
# (its records, in older trees)
EDGE_ARRAY_CODE = """
import hashlib, sys
from trackgraph.ingest import parse_mot
from trackgraph.mpn import graph_tensors, handcrafted_scores
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import aggregate, build_traj_graph

graph, _ = ClipTracker().build_graph(parse_mot(sys.argv[1], sys.argv[2]))
ids = aggregate(graph, None, traj_passes=0, score_fn=handcrafted_scores)
digest = hashlib.sha256()
for g in (graph, build_traj_graph(graph.dets if hasattr(graph, "dets") else graph.nodes, ids)):
    tensors = graph_tensors(g)
    for arr in (tensors.feats, tensors.node_feat, handcrafted_scores(tensors)):
        digest.update(arr.tobytes())
print(digest.hexdigest())
"""

# prints one SHA-256 over the message-passing outputs with a checkpoint
# on a scene's part graph and on the trajectory graph of its pass-1
# identities: each graph's scores and final node and edge states
MPN_ARRAY_CODE = """
import hashlib, sys
from trackgraph.ingest import parse_mot
from trackgraph.mpn import forward, load_params
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import aggregate, build_traj_graph

params = load_params(sys.argv[3])
graph, _ = ClipTracker().build_graph(parse_mot(sys.argv[1], sys.argv[2]))
ids = aggregate(graph, params, traj_passes=0)
digest = hashlib.sha256()
for g in (graph, build_traj_graph(graph.dets if hasattr(graph, "dets") else graph.nodes, ids)):
    state, scores = forward(g, params)
    for arr in (scores, state.node, state.edge):
        digest.update(arr.tobytes())
print(digest.hexdigest())
"""

# (scene, score mode) whose association is hashed clip by clip
ASSOCIATION_RUNS = [("long6144", "handcrafted"), ("gate700", "oracle"),
                    ("crowd120", "oracle"), ("narrow3", "handcrafted")]

# prints one SHA-256 over a scene's association in 512/256 clips: each
# clip's tracklet lengths and members, and its part graph's endpoints;
# calls only ClipPlan.clips and ClipTracker.build_graph. A tree whose
# build_graph returns one tracklet number per detection has it turned
# into the member lists that older trees return (one stable argsort,
# split by bincount), so both trees hash the same bytes
ASSOCIATION_CODE = """
import hashlib, sys
import numpy as np
from trackgraph.ingest import parse_mot
from trackgraph.pipeline import ClipTracker
from trackgraph.stitcher import ClipPlan

tracker = ClipTracker(score_mode=sys.argv[3])
digest = hashlib.sha256()
for clip, _ in ClipPlan(512, 256).clips(parse_mot(sys.argv[1], sys.argv[2])):
    graph, tracks = tracker.build_graph(clip)
    if isinstance(tracks, np.ndarray):
        order = np.argsort(tracks, kind="stable")
        tracks = np.split(order, np.cumsum(np.bincount(tracks))[:-1])
    for arr in ([len(t) for t in tracks], [i for t in tracks for i in t], graph.u, graph.v):
        digest.update(np.asarray(arr, dtype=np.int64).tobytes())
print(digest.hexdigest())
"""


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_python(tree: Path, name: str, code: str, args: list[str]) -> str:
    """Run code against the tree's package; returns stdout, raises on a
    non-zero exit, naming the run by name and args."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {name} {' '.join(args)} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def trackgraph(tree: Path, args: list[str]) -> str:
    """Run the tree's CLI; returns stdout, raises on a non-zero exit."""
    code = "import sys; from trackgraph.cli import main; sys.exit(main())"
    return run_python(tree, "trackgraph", code, args)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# an output: its SHA-256, and its text when it is a command's printout
Output = tuple[str, Optional[str]]


def first_difference(base: str, head: str) -> tuple[int, str, str]:
    """1-based number of the first differing line, and that line per tree."""
    a, b = base.splitlines(), head.splitlines()
    n = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def line(lines: list[str]) -> str:
        return lines[n] if n < len(lines) else "<end of output>"

    return n + 1, line(a), line(b)


def shift_frames(src: Path, dest: Path, after: int, by: int) -> None:
    """Copy a MOT file, adding `by` to every frame above `after`."""
    rows = []
    for line in src.read_text().splitlines():
        frame, rest = line.split(",", 1)
        if int(frame) > after:
            frame = str(int(frame) + by)
        rows.append(f"{frame},{rest}")
    dest.write_text("\n".join(rows) + "\n")


def fragment_ids(src: Path, dest: Path, run: int) -> None:
    """Copy a MOT file, giving each id a new id every `run` frames."""
    ids: dict[tuple[str, int], int] = {}
    rows = []
    for line in src.read_text().splitlines():
        frame, tid, rest = line.split(",", 2)
        new = ids.setdefault((tid, (int(frame) - 1) // run), len(ids) + 1)
        rows.append(f"{frame},{new},{rest}")
    dest.write_text("\n".join(rows) + "\n")


def rescale(src: Path, dest: Path, scale: float, shift: float) -> None:
    """Copy a MOT file with every box scaled by `scale` about the origin,
    then its corner moved by `shift` along both axes."""
    rows = []
    for line in src.read_text().splitlines():
        fields = line.split(",")
        x, y, w, h = (float(v) for v in fields[2:6])
        fields[2:6] = [repr(v) for v in (x * scale + shift, y * scale + shift,
                                         w * scale, h * scale)]
        rows.append(",".join(fields))
    dest.write_text("\n".join(rows) + "\n")


def respell(src: Path, dest: Path) -> None:
    """Copy a MOT file with every frame spelled as a float (12 -> 12.0)
    and every seventh row cut to its first 7 columns."""
    rows = []
    for k, line in enumerate(src.read_text().splitlines()):
        fields = line.split(",")
        fields[0] += ".0"
        rows.append(",".join(fields[:7] if k % 7 == 0 else fields))
    dest.write_text("\n".join(rows) + "\n")


def run_ladder(tree: Path, work: Path) -> dict[str, Output]:
    """Every ladder output under one tree."""
    out: dict[str, Output] = {}

    def file(key: str, path: Path) -> None:
        out[key] = (sha(path.read_bytes()), None)

    def text(key: str, printed: str) -> None:
        out[key] = (sha(printed.encode()), printed)

    for scene, flags in SCENES.items():
        data = work / scene
        trackgraph(tree, ["synth", *flags, "--out", str(data)])
        for name in ("det.txt", "det.emb", "gt.txt"):
            file(f"{scene}/synth/{name}", data / name)

    def det(scene: str, sidecar: bool = True) -> list[str]:
        emb = ["--emb", str(work / scene / "det.emb")] if sidecar else []
        return ["--det", str(work / scene / "det.txt"), *emb]

    def track(scene: str, run: str, flags: list[str], sidecar: bool = True) -> Path:
        result = work / f"{scene}-{run}.txt"
        summary = trackgraph(tree, ["track", *det(scene, sidecar), *flags,
                                    "--out", str(result)])
        file(f"{scene}/track-{run}", result)
        kept = [ln for ln in summary.splitlines() if not ln.startswith("seconds=")]
        text(f"{scene}/track-{run}-summary", "\n".join(kept))
        return result

    for scene, run, flags in TRACK_RUNS:
        result = track(scene, run, flags)
        report = trackgraph(tree, ["eval", "--pred", str(result),
                                   "--gt", str(work / scene / "gt.txt")])
        text(f"{scene}/eval-{run}", report)
    # the runs without a sidecar, on pseudo-embeddings hashed from each
    # detection's frame and box
    result = track("weak", "no-sidecar", [], sidecar=False)
    report = trackgraph(tree, ["eval", "--pred", str(result),
                               "--gt", str(work / "weak" / "gt.txt")])
    text("weak/eval-no-sidecar", report)
    dump = trackgraph(tree, ["graph-stats", *det("long", sidecar=False), "--dump"])
    text("long/graph-stats-no-sidecar", dump)
    (work / "sparse").mkdir()
    shift_frames(work / "long" / "det.txt", work / "sparse" / "det.txt",
                 SPARSE_AFTER, SPARSE_SHIFT)
    shutil.copyfile(work / "long" / "det.emb", work / "sparse" / "det.emb")
    track("sparse", "handcrafted", LONG_CLIPS)
    # the respelled run: weak's rows with float-spelled frames and some
    # 7-column rows, which parse_mot reads line by line
    (work / "respelled").mkdir()
    respell(work / "weak" / "det.txt", work / "respelled" / "det.txt")
    shutil.copyfile(work / "weak" / "det.emb", work / "respelled" / "det.emb")
    result = track("respelled", "handcrafted", [])
    report = trackgraph(tree, ["eval", "--pred", str(result),
                               "--gt", str(work / "weak" / "gt.txt")])
    text("respelled/eval-handcrafted", report)
    # the scaled run: weak's boxes spelled with exponents and minus signs
    (work / "scaled").mkdir()
    for name in ("det.txt", "gt.txt"):
        rescale(work / "weak" / name, work / "scaled" / name, SCALED_SCALE, SCALED_SHIFT)
    shutil.copyfile(work / "weak" / "det.emb", work / "scaled" / "det.emb")
    result = track("scaled", "handcrafted", [])
    report = trackgraph(tree, ["eval", "--pred", str(result),
                               "--gt", str(work / "scaled" / "gt.txt")])
    text("scaled/eval-handcrafted", report)
    # the fragmented run: gate700's ground truth with ids cut into runs
    (work / "fragmented").mkdir()
    fragment_ids(work / "gate700" / "gt.txt", work / "fragmented" / "pred.txt", 8)
    report = trackgraph(tree, ["eval", "--pred", str(work / "fragmented" / "pred.txt"),
                               "--gt", str(work / "gate700" / "gt.txt")])
    text("fragmented/eval-gate700", report)
    for scene in EDGE_ARRAY_SCENES:
        files = [str(work / scene / "det.txt"), str(work / scene / "det.emb")]
        digest = run_python(tree, "edge arrays", EDGE_ARRAY_CODE, files).strip()
        out[f"{scene}/edge-arrays"] = (digest, None)
        digest = run_python(tree, "mpn arrays", MPN_ARRAY_CODE,
                            files + [str(CHECKPOINT)]).strip()
        out[f"{scene}/mpn-arrays"] = (digest, None)
    for scene, mode in ASSOCIATION_RUNS:
        files = [str(work / scene / "det.txt"), str(work / scene / "det.emb"), mode]
        digest = run_python(tree, "association", ASSOCIATION_CODE, files).strip()
        out[f"{scene}/association-{mode}"] = (digest, None)
    for scene, run, flags in GRAPH_RUNS:
        dump = trackgraph(tree, ["graph-stats", *det(scene), *flags, "--dump"])
        text(f"{scene}/graph-stats-{run}", dump)
    for scene, run, flags in TRAIN_RUNS:
        ckpt = work / f"{scene}-{run}.ckpt"
        summary = trackgraph(tree, ["train", "--gt", str(work / scene / "det.txt"),
                                    "--emb", str(work / scene / "det.emb"),
                                    *flags, "--out", str(ckpt)])
        file(f"{scene}/train-{run}", ckpt)
        kept = [ln for ln in summary.splitlines() if not ln.startswith("out=")]
        text(f"{scene}/train-{run}-summary", "\n".join(kept))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        unpack(args.base, base)
        (tmp / "out-base").mkdir()
        (tmp / "out-head").mkdir()
        # one worker per tree
        with ThreadPoolExecutor(max_workers=2) as pool:
            base_f = pool.submit(run_ladder, base, tmp / "out-base")
            head_f = pool.submit(run_ladder, ROOT, tmp / "out-head")
            base_out, head_out = base_f.result(), head_f.result()
    mismatches = 0
    for key, (digest, head_text) in head_out.items():
        base_digest, base_text = base_out.get(key, (None, None))
        same = base_digest == digest
        mismatches += not same
        print(f"{key:34s} {digest}  {'same' if same else 'DIFFERS'}")
        if not same and base_text is not None and head_text is not None:
            n, was, now = first_difference(base_text, head_text)
            print(f"    line {n}: base {was!r}")
            print(f"    line {n}: head {now!r}")
    print(f"{len(head_out) - mismatches} of {len(head_out)} outputs identical "
          f"to {args.base}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
