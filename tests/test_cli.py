"""Command-line behaviour: files in, files out, exit codes."""

import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trackgraph
from trackgraph import cli, pipeline
from trackgraph.cli import main
from trackgraph.ingest import parse_mot
from trackgraph.mpn import init_params, load_params, save_params


def kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def synth(tmp_path, name="data", objects=3, frames=40, seed=2, extra=()):
    out = tmp_path / name
    code = main([
        "synth", "--objects", str(objects), "--frames", str(frames),
        "--seed", str(seed), "--out", str(out), *extra,
    ])
    assert code == 0
    return out


# ------------------------------------------------------------------ synth


def test_synth_writes_three_files(tmp_path):
    out = synth(tmp_path, objects=2, frames=30, seed=1)
    det = (out / "det.txt").read_text()
    assert len(det.strip().splitlines()) == 60
    assert (out / "gt.txt").exists()
    assert (out / "det.emb").exists()


def test_synth_is_deterministic(tmp_path):
    a = synth(tmp_path, "a", objects=2, frames=25, seed=7)
    b = synth(tmp_path, "b", objects=2, frames=25, seed=7)
    for name in ("det.txt", "gt.txt", "det.emb"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_single_frame(tmp_path):
    code = main(["synth", "--objects", "1", "--frames", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--speed", "nan"), ("--speed", "inf"),
                                        ("--sigma", "nan"), ("--sigma", "inf")])
def test_synth_refuses_non_finite_settings(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["synth", "--objects", "2", "--frames", "10",
                     flag, value, "--out", str(out)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_synth_miss_rate_drops_rows(tmp_path):
    out = synth(tmp_path, objects=2, frames=50, seed=3,
                extra=("--miss-rate", "0.2"))
    n = len((out / "det.txt").read_text().strip().splitlines())
    assert n < 100
    gt = len((out / "gt.txt").read_text().strip().splitlines())
    assert gt == 100


# ------------------------------------------------------------------ track


def track(data, out, *extra):
    return main([
        "track", "--det", str(data / "det.txt"), "--emb", str(data / "det.emb"),
        "--out", str(out), *extra,
    ])


def test_track_then_eval_is_perfect_on_clean_data(tmp_path, capsys):
    data = synth(tmp_path)
    res = tmp_path / "res.txt"
    assert track(data, res, "--oracle") == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(res), "--gt", str(data / "gt.txt")]) == 0
    report = kv(capsys.readouterr().out)
    assert float(report["mota"]) == 1.0
    assert float(report["idf1"]) == 1.0
    assert report["ids"] == "0"


def test_track_handcrafted_matches_oracle_on_clean_data(tmp_path):
    data = synth(tmp_path)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert track(data, a) == 0
    assert track(data, b, "--oracle") == 0
    pa, pb = parse_mot(a), parse_mot(b)
    assert [(d.frame, d.gt_id) for d in pa.detections] == \
        [(d.frame, d.gt_id) for d in pb.detections]


def test_track_is_deterministic(tmp_path):
    data = synth(tmp_path, frames=60, extra=("--sigma", "0.1"))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert track(data, a) == 0
    assert track(data, b) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("threshold", ["1.0", "0.999999"])
def test_track_at_a_threshold_no_score_reaches(tmp_path, capsys, monkeypatch, threshold):
    # no handcrafted score exceeds these thresholds: every detection is
    # its own track, with the trajectory graph cut to nothing or kept whole
    data = synth(tmp_path, objects=4, frames=60,
                 extra=("--sigma", "0.2", "--miss-rate", "0.2"))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    capsys.readouterr()
    assert track(data, a, "--assign-threshold", threshold) == 0
    n_det = len((data / "det.txt").read_text().splitlines())
    assert kv(capsys.readouterr().out)["tracks"] == str(n_det)
    monkeypatch.setattr(pipeline, "handcrafted_reach", lambda eps: None)
    assert track(data, b, "--assign-threshold", threshold) == 0
    assert a.read_bytes() == b.read_bytes()


def test_track_prints_stats(tmp_path, capsys):
    data = synth(tmp_path)
    assert track(data, tmp_path / "r.txt") == 0
    report = kv(capsys.readouterr().out)
    assert int(report["node_count"]) > 0
    assert int(report["edge_count"]) > 0
    assert "seconds" in report


def test_track_far_apart_frames_run_two_clips(tmp_path, capsys):
    det = tmp_path / "far.txt"
    det.write_text("1,-1,0,0,10,10,1,-1,-1,-1\n"
                   "1000000000000,-1,0,0,10,10,1,-1,-1,-1\n")
    assert main(["track", "--det", str(det), "--out", str(tmp_path / "r.txt")]) == 0
    report = kv(capsys.readouterr().out)
    assert report["clips"] == "2" and report["tracks"] == "2"


def test_track_require_params_without_params_fails(tmp_path):
    data = synth(tmp_path)
    assert track(data, tmp_path / "r.txt", "--require-params") == 2


def test_track_clip_chain_flags(tmp_path):
    data = synth(tmp_path, frames=100)
    assert track(data, tmp_path / "r.txt",
                 "--clip-len", "64", "--overlap", "32") == 0


def test_track_malformed_input_exits_two(tmp_path, capsys):
    data = synth(tmp_path, objects=1, frames=5)
    rows = (data / "det.txt").read_text().splitlines()
    bad = tmp_path / "inf.txt"
    bad.write_text("\n".join(rows[:2] + ["inf" + rows[2][1:]] + rows[3:]) + "\n")
    assert main(["track", "--det", str(bad), "--out", str(tmp_path / "r.txt")]) == 2
    assert "line 3" in capsys.readouterr().err
    # frames 1 and 10**20: the second is past the int64 range
    far = tmp_path / "far.txt"
    far.write_text(rows[0] + "\n" + str(10**20) + rows[1][1:] + "\n")
    assert main(["track", "--det", str(far), "--out", str(tmp_path / "r.txt")]) == 2
    assert "line 2" in capsys.readouterr().err
    # the sidecar payload ends inside a float32 value
    emb = tmp_path / "cut.emb"
    emb.write_bytes((data / "det.emb").read_bytes()[:-1])
    assert main(["track", "--det", str(data / "det.txt"), "--emb", str(emb),
                 "--out", str(tmp_path / "r.txt")]) == 2
    assert "float32" in capsys.readouterr().err


def test_track_missing_file_is_a_runtime_error(tmp_path):
    assert main(["track", "--det", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "r.txt")]) == 3


# ------------------------------------------------------------------ train


def test_train_writes_a_loadable_checkpoint(tmp_path, capsys):
    data = synth(tmp_path, objects=2, frames=40)
    ckpt = tmp_path / "params.ckpt"
    code = main(["train", "--gt", str(data / "det.txt"),
                 "--emb", str(data / "det.emb"),
                 "--out", str(ckpt), "--iterations", "5"])
    assert code == 0
    report = kv(capsys.readouterr().out)
    assert report["iterations"] == "5"
    assert "last_loss" in report
    params = load_params(ckpt)
    assert params.node_dim == 32
    res = tmp_path / "r.txt"
    assert track(data, res, "--params", str(ckpt)) == 0


def test_train_zero_iterations_equals_initialization(tmp_path):
    data = synth(tmp_path, objects=2, frames=30)
    ckpt = tmp_path / "params.ckpt"
    assert main(["train", "--gt", str(data / "det.txt"),
                 "--emb", str(data / "det.emb"),
                 "--out", str(ckpt), "--iterations", "0",
                 "--seed", "5"]) == 0
    ref = tmp_path / "ref.ckpt"
    save_params(ref, init_params(5))
    assert ckpt.read_bytes() == ref.read_bytes()


def test_train_fixed_seed_reproduces_bytes(tmp_path):
    data = synth(tmp_path, objects=2, frames=30)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    args = ["--gt", str(data / "det.txt"), "--emb", str(data / "det.emb"),
            "--iterations", "3", "--seed", "9"]
    assert main(["train", *args, "--out", str(a)]) == 0
    assert main(["train", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_divergence_exits_three(tmp_path):
    data = synth(tmp_path, objects=2, frames=30)
    with np.errstate(all="ignore"):
        code = main(["train", "--gt", str(data / "det.txt"),
                     "--emb", str(data / "det.emb"),
                     "--out", str(tmp_path / "p.ckpt"),
                     "--iterations", "200", "--learning-rate", "1e6"])
    assert code == 3


@pytest.mark.parametrize("command", ["train", "track"])
def test_running_out_of_memory_exits_three(tmp_path, capsys, monkeypatch, command):
    # a stage that cannot get its memory raises MemoryError; the stages
    # are stood in for, so nothing large is allocated
    data = synth(tmp_path, objects=3, frames=40)

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 447. GiB for an array")

    monkeypatch.setattr(cli, "_labelled_graphs" if command == "train" else "run_clipped",
                        no_memory)
    flag = "--gt" if command == "train" else "--det"
    code = main([command, flag, str(data / "det.txt"), "--emb", str(data / "det.emb"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == "error: Unable to allocate 447. GiB for an array\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--learning-rate", "nan"), ("--gamma", "nan"),
                                        ("--weight-decay", "inf"), ("--learning-rate", "inf")])
def test_train_refuses_non_finite_settings_before_building_graphs(
        tmp_path, capsys, monkeypatch, flag, value):
    data = synth(tmp_path, objects=2, frames=20)

    def no_graphs(*args):
        raise AssertionError("training graphs were built")

    monkeypatch.setattr(cli, "_labelled_graphs", no_graphs)
    ckpt = tmp_path / "p.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--gt", str(data / "det.txt"), "--emb", str(data / "det.emb"),
                     "--out", str(ckpt), flag, value])
    assert code == 2
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_needs_identities(tmp_path):
    mot = tmp_path / "anon.txt"
    mot.write_text("1,-1,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n"
                   "2,-1,0.0,0.0,10.0,10.0,1.0,-1,-1,-1\n")
    assert main(["train", "--gt", str(mot),
                 "--out", str(tmp_path / "p.ckpt")]) == 2


# ------------------------------------------------------------------- eval


def write_rows(path, rows):
    path.write_text("".join(
        f"{f},{tid},{x},0.0,10.0,10.0,1.0,-1,-1,-1\n" for f, tid, x in rows
    ))


def test_eval_counts_an_induced_switch(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_rows(gt, [(f, 1, 0.0) for f in range(1, 6)])
    write_rows(pred, [(1, 1, 0.0), (2, 1, 0.0),
                      (3, 2, 0.0), (4, 2, 0.0), (5, 2, 0.0)])
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    report = kv(capsys.readouterr().out)
    assert report["ids"] == "1"
    assert float(report["mota"]) == pytest.approx(0.8)
    assert float(report["idf1"]) == pytest.approx(0.6)


def test_eval_relabelled_prediction_scores_identically(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_rows(gt, [(f, 1, 0.0) for f in range(1, 6)])
    write_rows(pred, [(f, 42, 0.0) for f in range(1, 6)])
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    report = kv(capsys.readouterr().out)
    assert float(report["mota"]) == 1.0 and float(report["idf1"]) == 1.0


def test_eval_refuses_one_id_twice_in_a_frame(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_rows(gt, [(1, 1, 10.0), (1, 2, 30.0), (2, 1, 10.0)])
    write_rows(pred, [(1, 1, 10.0), (1, 1, 30.0), (2, 1, 10.0)])
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    captured = capsys.readouterr()
    assert "predicted id 1 occurs twice in frame 1" in captured.err
    assert "idf1" not in captured.out


def test_track_and_eval_refuse_overflowing_boxes(tmp_path, capsys):
    big, gt = tmp_path / "big.txt", tmp_path / "gt.txt"
    write_rows(gt, [(1, 1, 0.0), (2, 1, 0.0)])
    # every value 1e155: the corners are finite, the area w * h is not;
    # an area of 1e308 is finite, but two of them add past the float range
    for box in ("1e155,1e155,1e155,1e155", "0,0,1e154,1e154"):
        big.write_text("".join(f"{f},1,{box},1.0,-1,-1,-1\n" for f in (1, 2)))
        assert main(["track", "--det", str(big), "--out", str(tmp_path / "r.txt")]) == 2
        assert "line 1: box needs finite corners" in capsys.readouterr().err
        for pred, truth in ((big, gt), (gt, big)):
            assert main(["eval", "--pred", str(pred), "--gt", str(truth)]) == 2
            captured = capsys.readouterr()
            assert "line 1: box needs finite corners" in captured.err
            assert "idf1" not in captured.out


def test_track_refuses_an_interpolated_box_that_overflows(tmp_path, capsys):
    # each row is a valid box, but the box filled in at frame 2, about
    # 5e199 on a side, has an area past any float
    det = tmp_path / "det.txt"
    det.write_text("1,1,0,0,1e200,1,0.9,-1,-1,-1\n3,1,0,0,1,1e200,0.9,-1,-1,-1\n")
    assert main(["track", "--det", str(det), "--oracle", "--out", str(tmp_path / "r.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: box needs finite corners and a positive area")
    assert "Traceback" not in err


def test_eval_warns_on_frame_range_mismatch(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_rows(gt, [(f, 1, 0.0) for f in range(1, 6)])
    write_rows(pred, [(f, 1, 0.0) for f in range(1, 4)])
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    captured = capsys.readouterr()
    # frames as on disk, 1-based
    assert "frame ranges differ (pred 1..3, gt 1..5)" in captured.err


# ------------------------------------------------------------ graph-stats


def test_graph_stats_reports_counts_and_coverage(tmp_path, capsys):
    data = synth(tmp_path, objects=2, frames=30)
    assert main(["graph-stats", "--det", str(data / "det.txt"),
                 "--emb", str(data / "det.emb")]) == 0
    report = kv(capsys.readouterr().out)
    assert int(report["node_count"]) >= 60
    assert int(report["edge_count"]) > 0
    assert int(report["fully_connected"]) > int(report["edge_count"])
    assert 0.0 <= float(report["coverage"]) <= 1.0
    # the part graph holds detections only: node i is detection i
    assert int(report["node_count"]) == len(parse_mot(data / "det.txt"))
    assert not {"det_nodes", "traj_nodes", "det_det", "det_traj",
                "traj_traj"} & report.keys()


def test_graph_stats_on_an_empty_file_prints_zero_counts(tmp_path, capsys):
    det = tmp_path / "det.txt"
    det.write_text("")
    assert main(["graph-stats", "--det", str(det), "--dump"]) == 0
    report = kv(capsys.readouterr().out)
    assert report == {"node_count": "0", "edge_count": "0", "fully_connected": "0"}


def test_graph_stats_far_apart_frames_fit_in_two_gigabytes(tmp_path):
    # one graph spans frames 1 to 10**12; the window layout must not
    # list every window start, so the address space is capped at 2 GB
    det = tmp_path / "far.txt"
    det.write_text("1,-1,0,0,10,10,1,-1,-1,-1\n"
                   "1000000000000,-1,0,0,10,10,1,-1,-1,-1\n")
    cap = 2 * 1024**3
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(trackgraph.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from trackgraph.cli import main; sys.exit(main())",
         "graph-stats", "--det", str(det)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert done.returncode == 0, done.stderr
    assert kv(done.stdout)["node_count"] == "2"


def test_graph_stats_dump_lists_nodes(tmp_path, capsys):
    data = synth(tmp_path, objects=1, frames=5)
    assert main(["graph-stats", "--det", str(data / "det.txt"),
                 "--emb", str(data / "det.emb"), "--dump"]) == 0
    out = capsys.readouterr().out
    assert "node 0 det frame=0" in out
    assert "edge " in out


# ------------------------------------------------------------ exit codes


def test_config_file_reaches_the_command(tmp_path):
    data = synth(tmp_path, frames=100)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clip_len=64\noverlap=32\n")
    assert track(data, tmp_path / "r.txt", "--config", str(cfg)) == 0


def test_unknown_config_key_exits_two(tmp_path):
    data = synth(tmp_path, frames=30, objects=1)
    cfg = tmp_path / "run.cfg"
    # threads and pass1_mode were keys once; a file that still sets one
    # is refused too
    for line in ("windows=40", "threads=2", "pass1_mode=rounding"):
        cfg.write_text(line + "\n")
        assert track(data, tmp_path / "r.txt", "--config", str(cfg)) == 2


def test_argparse_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--objects"])
    assert exc.value.code == 2
