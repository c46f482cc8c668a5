"""Batch entry points: synthesize, track, train, evaluate, inspect.

Exit codes: 0 success, 2 for validation and parse failures, 3 for
runtime failures (I/O, numeric divergence, memory). Every command is
deterministic under fixed seed and inputs.
"""

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from trackgraph.builder import dump_graph, edge_coverage, fully_connected_edge_count
from trackgraph.config import RunConfig, load_config
from trackgraph.core import NumericError, ValidationError
from trackgraph.ingest import (
    ScenarioSpec,
    ground_truth,
    parse_mot,
    synthesize,
    write_detections,
    write_embeddings,
    write_mot,
)
from trackgraph.metrics import evaluate, render_keyvalues, render_report
from trackgraph.mpn import (
    TrainSchedule,
    edge_labels,
    graph_tensors,
    init_params,
    load_params,
    save_params,
    train,
)
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import build_traj_graph, tracklet_ids
from trackgraph.stitcher import ClipPlan, run_clipped


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="key=value config file; flags override it")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=f.type, default=None, dest=f.name,
                       help=argparse.SUPPRESS)


def _resolve(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(args.config, overrides)


def _tracker(cfg: RunConfig, **kw) -> ClipTracker:
    return ClipTracker(cfg, **kw)


def _check_embed_dim(dets, expect: int, origin: str) -> None:
    dim = dets.embeddings().shape[1]
    if len(dets) and dim != expect:
        raise ValidationError(f"embeddings are {dim}-d but {origin} expects {expect}-d")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(
        n_objects=args.objects,
        n_frames=args.frames,
        seed=args.seed,
        speed=args.speed,
        turn_prob=args.turn_prob,
        miss_rate=args.miss_rate,
        embedding_noise_sigma=args.sigma,
    )
    dets = synthesize(spec)
    gt = ground_truth(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_detections(out / "det.txt", dets)
    write_embeddings(out / "det.emb", dets.embeddings())
    write_detections(out / "gt.txt", gt)
    print(f"objects={spec.n_objects}")
    print(f"frames={spec.n_frames}")
    print(f"detections={len(dets)}")
    print(f"out={out}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    dets = parse_mot(args.det, args.emb, cfg.embed_dim)
    params = load_params(args.params) if args.params else None
    if args.require_params and params is None:
        raise ValidationError("--require-params is set but no --params were given")
    if params is not None:
        _check_embed_dim(dets, params.embed_dim, "the checkpoint")
    sink: list = []
    tracker = _tracker(
        cfg,
        params=params,
        score_mode="oracle" if args.oracle else "auto",
        stats_sink=sink,
    )
    started = time.perf_counter()
    tracks = run_clipped(dets, ClipPlan(cfg.clip_len, cfg.overlap), tracker)
    elapsed = time.perf_counter() - started
    write_mot(args.out, tracks)
    print(f"clips={len(sink)}")
    print(f"node_count={sum(n for n, _ in sink)}")
    print(f"edge_count={sum(e for _, e in sink)}")
    print(f"tracks={len(tracks)}")
    print(f"seconds={elapsed:.3f}")
    return 0


def _labelled_graphs(dets, cfg: RunConfig):
    """Per-clip training graphs: part graphs plus fragment-level graphs.

    Each graph is packed for the network once, here, so training never
    converts it again.
    """
    tracker = _tracker(cfg)
    primary, secondary = [], []
    for sub, _ in ClipPlan(cfg.clip_len, cfg.overlap).clips(dets):
        graph, owner = tracker.build_graph(sub)
        if graph.n_edges:
            primary.append((graph_tensors(graph), edge_labels(graph)))
        frag = build_traj_graph(sub, tracklet_ids(owner))
        if frag.n_edges:
            secondary.append((graph_tensors(frag), edge_labels(frag)))
    return primary, secondary


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    dets = parse_mot(args.gt, args.emb, cfg.embed_dim)
    if not dets.has_gt:
        raise ValidationError("training needs an identity on every detection")
    _check_embed_dim(dets, cfg.embed_dim, "the configuration")
    primary, secondary = _labelled_graphs(dets, cfg)
    params = init_params(
        cfg.seed, cfg.embed_dim, cfg.node_dim, cfg.edge_dim, cfg.hidden_dim, cfg.steps
    )
    schedule = TrainSchedule(
        cfg.iterations, cfg.learning_rate, cfg.weight_decay, cfg.gamma, cfg.unfreeze_at
    )
    result = train(primary, secondary, params, schedule)
    save_params(args.out, result.params)
    losses = [loss for _, loss in result.history]
    print(f"graphs={len(primary)}+{len(secondary)}")
    print(f"iterations={len(losses)}")
    if losses:
        print(f"first_loss={losses[0]:.6f}")
        print(f"last_loss={losses[-1]:.6f}")
        print(f"min_loss={min(losses):.6f}")
    print(f"out={args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    pred = parse_mot(args.pred)
    gt = parse_mot(args.gt)
    if len(pred) and len(gt):
        # frames are sorted; printed 1-based, as on disk
        pf, gf = pred.frames[[0, -1]] + 1, gt.frames[[0, -1]] + 1
        if (pf != gf).any():
            print(
                f"warning: frame ranges differ "
                f"(pred {pf[0]}..{pf[1]}, gt {gf[0]}..{gf[1]})",
                file=sys.stderr,
            )
    report = evaluate(pred, gt, cfg.iou_gate)
    print(render_report(report))
    print(render_keyvalues(report), end="")
    return 0


def cmd_graph_stats(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    dets = parse_mot(args.det, args.emb, cfg.embed_dim)
    graph, _ = _tracker(cfg).build_graph(dets)
    print(f"node_count={graph.n_nodes}")
    print(f"edge_count={graph.n_edges}")
    full = fully_connected_edge_count(dets)
    print(f"fully_connected={full}")
    if full:
        print(f"edge_ratio={graph.n_edges / full:.6f}")
    if dets.has_gt:
        print(f"coverage={edge_coverage(graph, dets):.6f}")
    if args.dump:
        print(dump_graph(graph), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackgraph",
        description="Composite-graph multi-object tracking over MOT text files.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("synth", help="write a synthetic detection/gt pair")
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speed", type=float, default=4.0)
    p.add_argument("--turn-prob", type=float, default=0.0)
    p.add_argument("--miss-rate", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.0,
                   help="embedding noise standard deviation")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--det", required=True)
    p.add_argument("--emb", default=None, help="embedding sidecar")
    p.add_argument("--params", default=None, help="trained checkpoint")
    p.add_argument("--require-params", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="score edges from ground-truth ids in the input")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("train", help="fit edge-scoring parameters")
    p.add_argument("--gt", required=True, help="labelled MOT file")
    p.add_argument("--emb", default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph-stats", help="build and inspect the part graph")
    p.add_argument("--det", required=True)
    p.add_argument("--emb", default=None)
    p.add_argument("--dump", action="store_true", help="print the full graph")
    _add_config_flags(p)
    p.set_defaults(func=cmd_graph_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
