"""End-to-end clip tracking through ClipTracker."""

import sys
from dataclasses import fields

import numpy as np
import pytest

from trackgraph import pipeline, solver
from trackgraph.affinity import WindowPlan, accumulate_affinity, cosine_scorer, oracle_scorer
from trackgraph.builder import BuilderConfig, associate_frames, build_part_graph
from trackgraph.cli import _labelled_graphs, _tracker
from trackgraph.config import RunConfig
from trackgraph.core import BoundingBox, Detection, ValidationError
from trackgraph.ingest import (
    DetectionSet,
    ScenarioSpec,
    parse_mot,
    synthesize,
    write_detections,
    write_embeddings,
    write_mot,
)
from trackgraph.mpn import handcrafted_reach, handcrafted_scores, init_params, oracle_scores
from trackgraph.pipeline import ClipTracker
from trackgraph.solver import aggregate
from trackgraph.stitcher import ClipPlan, run_clipped

from conftest import (
    id_partition,
    record_row,
    reference_run_clipped,
    reference_write_mot,
    track_rows,
)


def partition(tracks) -> set[frozenset]:
    return {
        frozenset(
            (d.frame, i) for i, d in zip(t.det_indices, t.detections) if i >= 0
        )
        for t in tracks
    }


def gt_partition(dets: DetectionSet) -> set[frozenset]:
    groups = {}
    for i, d in enumerate(dets.detections):
        groups.setdefault(d.gt_id, set()).add((d.frame, i))
    return {frozenset(v) for v in groups.values()}


def test_mode_resolution_and_validation():
    assert ClipTracker().mode == "handcrafted"
    assert ClipTracker(params=init_params(0)).mode == "mpn"
    assert ClipTracker(score_mode="oracle").mode == "oracle"
    with pytest.raises(ValidationError):
        ClipTracker(score_mode="mpn")
    with pytest.raises(ValidationError):
        ClipTracker(score_mode="magic")


def test_bad_tracker_settings_are_refused_when_the_config_is_made():
    for bad in (dict(top_k=0), dict(assign_threshold=7.0), dict(traj_passes=-3),
                dict(window=0), dict(step=40), dict(new_track_threshold=1.0)):
        with pytest.raises(ValidationError):
            RunConfig(**bad)
    # the tracker has no settings of its own to get wrong
    with pytest.raises(TypeError):
        ClipTracker(top_k=0)
    assert [f.name for f in fields(ClipTracker)] == [
        "config", "params", "score_mode", "stats_sink"]


def test_every_tracker_setting_reaches_its_stage(monkeypatch):
    # all six settings off their defaults, on a noisy scene whose ids and
    # part graph each of them changes, against the stages wired by hand;
    # the handcrafted reach changes no id, so the call is compared too
    cfg = RunConfig(window=16, step=8, top_k=3, new_track_threshold=0.4,
                    assign_threshold=0.6, traj_passes=2)
    dets = synthesize(ScenarioSpec(8, 60, seed=5, embedding_noise_sigma=0.3, miss_rate=0.15,
                                   turn_prob=0.1, occlusions=((1, 20, 6), (3, 35, 8))))
    first, last = dets.frames[[0, -1]].tolist()
    assert last - first + 1 > cfg.window  # no window shrinks to fit the clip
    params = init_params(0, dets.embeddings().shape[1])
    runs = [("handcrafted", None, cosine_scorer, handcrafted_scores,
             handcrafted_reach(0.6)),
            ("oracle", None, oracle_scorer, oracle_scores, None),
            ("mpn", params, cosine_scorer, None, None)]
    calls = []
    monkeypatch.setattr(pipeline, "aggregate",
                        lambda *args, **kw: calls.append(kw) or aggregate(*args, **kw))
    for mode, mode_params, scorer, score_fn, max_gap in runs:
        plan = WindowPlan(last - first + 1, 16, 8)
        aff = accumulate_affinity(dets, plan, scorer, origin=first)
        owner, links = associate_frames(dets, aff, BuilderConfig(3, 0.4, 16))
        graph = build_part_graph(links, dets)
        ids = aggregate(graph, mode_params, eps=0.6, traj_passes=2,
                        score_fn=score_fn, max_gap=max_gap)
        tracker = ClipTracker(cfg, params=mode_params, score_mode=mode)
        built, built_owner = tracker.build_graph(dets)
        np.testing.assert_array_equal(built_owner, owner, strict=True)
        np.testing.assert_array_equal(built.u, graph.u, strict=True)
        np.testing.assert_array_equal(built.v, graph.v, strict=True)
        np.testing.assert_array_equal(tracker(dets), ids, strict=True)
        cli_tracker = _tracker(cfg, params=mode_params, score_mode=mode)
        np.testing.assert_array_equal(cli_tracker(dets), ids, strict=True)
        expect = dict(eps=0.6, traj_passes=2, score_fn=score_fn, max_gap=max_gap)
        assert calls == [expect, expect]
        calls.clear()


def test_empty_input_gives_no_tracks():
    ids = ClipTracker()(DetectionSet.build([]))
    np.testing.assert_array_equal(ids, np.empty(0, dtype=np.int64), strict=True)


def test_oracle_mode_recovers_clean_partition():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=40, seed=2))
    ids = ClipTracker(score_mode="oracle")(dets)
    assert id_partition(dets, ids) == gt_partition(dets)


def test_handcrafted_mode_recovers_clean_partition():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=40, seed=2))
    ids = ClipTracker()(dets)
    assert id_partition(dets, ids) == gt_partition(dets)


def test_output_is_a_partition_under_noise():
    spec = ScenarioSpec(n_objects=4, n_frames=60, seed=11,
                        miss_rate=0.1, embedding_noise_sigma=0.2)
    dets = synthesize(spec)
    ids = ClipTracker()(dets)
    assert ids.shape == (len(dets),) and ids.dtype == np.int64
    for group in id_partition(dets, ids):
        frames = [f for f, _ in group]
        assert len(frames) == len(set(frames))
    # ids count up from 0 in order of first appearance
    distinct, first = np.unique(ids, return_index=True)
    assert distinct.tolist() == list(range(distinct.size))
    assert first.tolist() == sorted(first.tolist())


def test_untrained_params_still_produce_a_partition():
    dets = synthesize(ScenarioSpec(n_objects=2, n_frames=20, seed=4))
    ids = ClipTracker(params=init_params(1))(dets)
    assert ids.shape == (len(dets),) and ids.dtype == np.int64
    for group in id_partition(dets, ids):
        frames = [f for f, _ in group]
        assert len(frames) == len(set(frames))


def test_single_frame_clip_yields_singletons():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=2, seed=0))
    sub = DetectionSet.build([d for d in dets.detections if d.frame == 0])
    ids = ClipTracker()(sub)
    assert ids.tolist() == list(range(len(sub)))


def test_input_order_within_frames_does_not_matter():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=30, seed=7))
    flipped = DetectionSet.build(list(reversed(dets.detections)),
                                 n_frames=dets.n_frames)

    def keyed(dset, ids):
        return {
            frozenset((f, dset.detections[i].gt_id) for f, i in group)
            for group in id_partition(dset, ids)
        }

    a = ClipTracker(score_mode="oracle")(dets)
    b = ClipTracker(score_mode="oracle")(flipped)
    assert keyed(dets, a) == keyed(flipped, b)


def test_tracker_is_deterministic():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=40, seed=9,
                                   embedding_noise_sigma=0.1))
    a = ClipTracker()(dets)
    b = ClipTracker()(dets)
    np.testing.assert_array_equal(a, b, strict=True)


def test_long_video_through_clips_matches_ground_truth():
    dets = synthesize(ScenarioSpec(n_objects=3, n_frames=700, seed=3))
    tracks = run_clipped(dets, ClipPlan(512, 256), ClipTracker(score_mode="oracle"))
    assert len(tracks) == 3
    assert partition(tracks) == gt_partition(dets)


def test_stats_sink_collects_one_entry_per_clip():
    dets = synthesize(ScenarioSpec(n_objects=2, n_frames=700, seed=3))
    sink = []
    tracker = ClipTracker(score_mode="oracle", stats_sink=sink)
    run_clipped(dets, ClipPlan(512, 256), tracker)
    # each clip's part graph: one node per detection, its links as edges
    clips = [tracker.build_graph(sub)[0] for sub, _ in ClipPlan(512, 256).clips(dets)]
    assert sink == [(g.n_nodes, g.n_edges) for g in clips]
    assert len(sink) == 2 and all(n > 0 and e > 0 for n, e in sink)


@pytest.mark.parametrize("spec,plan", [
    # the weak-appearance scene, and its recipe at 384 frames
    (ScenarioSpec(10, 160, seed=60, embedding_noise_sigma=0.2, miss_rate=0.1),
     ClipPlan(512, 256)),
    (ScenarioSpec(10, 384, seed=60, embedding_noise_sigma=0.2, miss_rate=0.1),
     ClipPlan(512, 256)),
    # dense and noisy
    (ScenarioSpec(20, 128, seed=60, embedding_noise_sigma=0.3, miss_rate=0.05),
     ClipPlan(512, 256)),
    # fragmented 64-frame clips, stitched
    (ScenarioSpec(10, 120, seed=70, embedding_noise_sigma=0.5, miss_rate=0.2,
                  turn_prob=0.1), ClipPlan(64, 32)),
])
def test_handcrafted_reach_leaves_the_tracks_unchanged(monkeypatch, spec, plan):
    # no fragment pair beyond the reach can score above the threshold,
    # so cutting the trajectory graph there changes no id
    dets = synthesize(spec)
    built = []

    def recorded(*args):
        graph = build(*args)
        built.append(graph.n_edges)
        return graph

    build = solver.build_traj_graph
    monkeypatch.setattr(solver, "build_traj_graph", recorded)

    def run():
        built.clear()
        tracks = run_clipped(dets, plan, ClipTracker())
        return [(t.id, t.det_indices) for t in tracks], sum(built)

    cut, cut_edges = run()
    monkeypatch.setattr(pipeline, "handcrafted_reach", lambda eps: None)
    full, full_edges = run()
    assert cut == full
    assert cut_edges < full_edges


def test_the_graph_path_makes_no_record(tmp_path):
    # graphs, scores, both passes and the tracker's ids read the columns:
    # a freshly parsed set, and each clip sliced from it, make no
    # Detection record in any score mode; only run_clipped's tracks do
    dets = synthesize(ScenarioSpec(6, 90, seed=3, embedding_noise_sigma=0.2, miss_rate=0.1))
    write_detections(tmp_path / "det.txt", dets)
    write_embeddings(tmp_path / "det.emb", dets.embeddings())
    params = init_params(0, dets.embeddings().shape[1])
    runs = [("handcrafted", None, handcrafted_scores, handcrafted_reach(0.5)),
            ("oracle", None, oracle_scores, None),
            ("mpn", params, None, None)]
    for mode, mode_params, score_fn, max_gap in runs:
        fresh = parse_mot(tmp_path / "det.txt", tmp_path / "det.emb")
        tracker = ClipTracker(score_mode=mode, params=mode_params)
        clips = [fresh] + [sub for sub, _ in ClipPlan(64, 32).clips(fresh)]
        for clip in clips:
            graph, _ = tracker.build_graph(clip)
            ids = aggregate(graph, mode_params, score_fn=score_fn, max_gap=max_gap)
            assert ids.shape == (len(clip),)
            # the whole call hands back aggregate's ids
            np.testing.assert_array_equal(tracker(clip), ids, strict=True)
            assert "detections" not in clip.__dict__
        assert "detections" not in fresh.__dict__
        # a clip's records are made from its own columns when first read,
        # and hold its parent's values
        first, second = clips[1], clips[2]
        overlap = len(first) - int(np.searchsorted(fresh.frames, 32))
        assert ([record_row(d) for d in first.detections[-overlap:]]
                == [record_row(d) for d in second.detections[:overlap]])
        assert ([record_row(d) for d in first.detections]
                == [record_row(d) for d in fresh.detections[:len(first)]])


def test_the_track_path_makes_no_record(tmp_path, monkeypatch):
    # parse_mot -> run_clipped -> write_mot, as `trackgraph track` runs
    # them, reads and writes columns in every score mode: no Detection
    # or BoundingBox is made until a track's detections are read, and
    # those then equal the tracks the record path makes
    dets = synthesize(ScenarioSpec(6, 90, seed=3, embedding_noise_sigma=0.2, miss_rate=0.1))
    write_detections(tmp_path / "det.txt", dets)
    write_embeddings(tmp_path / "det.emb", dets.embeddings())
    made = []
    for cls in (Detection, BoundingBox):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=cls.__post_init__: made.append(self) or check(self))
    # every module that makes a record without its checks
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("trackgraph") and hasattr(m, "unchecked")]:
        monkeypatch.setattr(module, "unchecked", lambda cls, make=module.unchecked, **fields:
                            (cls in (Detection, BoundingBox) and made.append(cls)) or make(cls, **fields))
    plan = ClipPlan(40, 20)
    params = init_params(0, dets.embeddings().shape[1])
    for mode, mode_params in (("handcrafted", None), ("oracle", None), ("mpn", params)):
        fresh = parse_mot(tmp_path / "det.txt", tmp_path / "det.emb")
        tracker, clips = ClipTracker(score_mode=mode, params=mode_params), []

        def recorded(sub):
            clips.append(tracker(sub))
            return clips[-1]

        tracks = run_clipped(fresh, plan, recorded)
        text = write_mot(tmp_path / "out.txt", tracks)
        assert len(clips) == 4 and len(tracks) >= 6
        assert made == [] and "detections" not in fresh.__dict__
        assert not any("detections" in t.__dict__ for t in tracks)
        expect = reference_run_clipped(fresh, zip([o for _, o in plan.clips(fresh)], clips))
        assert track_rows(tracks) == track_rows(expect)
        assert text == reference_write_mot(expect)
        assert made  # reading the tracks' detections made them
        made.clear()


def test_training_graphs_make_no_record():
    # occlusions longer than the 4-frame lookback leave fragments, so
    # both the part graphs and the fragment graphs are labelled
    dets = synthesize(ScenarioSpec(6, 80, seed=70, embedding_noise_sigma=0.1, miss_rate=0.05,
                                   occlusions=((1, 30, 6), (3, 50, 8))))
    cfg = RunConfig(clip_len=64, overlap=32, window=4, step=2)
    primary, secondary = _labelled_graphs(dets, cfg)
    assert len(primary) == len(secondary) == 2
    assert "detections" not in dets.__dict__
