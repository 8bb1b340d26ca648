import json
import math
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from cuboidlift.cli import main
from cuboidlift.config import PipelineConfig, config_from_dict, load_config
from conftest import BROKEN_MANIFESTS


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def synth_scene(runner, out, n_sweeps, ego_speed=2.0, **overrides):
    spec = {
        "seed": 11,
        "n_objects": 6,
        "n_sweeps": n_sweeps,
        "classes": ["car", "adult", "traffic-cone"],
        "noise_sigma": 0.02,
        "points_per_object": [150, 250],
        "ego_speed": ego_speed,
        **overrides,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, runner):
    return synth_scene(runner, tmp_path_factory.mktemp("scene"), n_sweeps=3)


def run_annotate(runner, scene_dir, out_path, threads=1, extra=()):
    args = [
        "annotate",
        "--scene", str(scene_dir / "scene.json"),
        "--detections", str(scene_dir / "detections.ndjson"),
        "--expert", str(scene_dir / "expert.ndjson"),
        "--out", str(out_path),
        "--threads", str(threads),
    ] + list(extra)
    return runner.invoke(main, args)


def last_error(res) -> dict:
    assert res.exit_code == 1, res.output
    return json.loads(res.output.strip().splitlines()[-1])["error"]


class TestSynthVerb:
    def test_outputs_exist(self, scene_dir):
        for name in ("scene.json", "detections.ndjson", "expert.ndjson", "gt.ndjson"):
            assert (scene_dir / name).exists()

    def test_unknown_spec_key_rejected(self, runner, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"seed": 1, "wat": 2}))
        res = runner.invoke(main, ["synth", "--spec", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "error" in json.loads(res.output.strip().splitlines()[-1])

    @pytest.mark.parametrize(
        "spec, kind",
        [
            (b"[{}]", "input_error"),
            (b'{"seed": "\xff"}', "input_error"),
            (b'{"n_objects": null}', "spec_error"),
            (b'{"classes": "car"}', "spec_error"),
            (b'{"classes": ["nope"]}', "spec_error"),
            (b'{"classes": [["car"]]}', "spec_error"),
            (b'{"seed": true, "n_objects": 2.7, "n_sweeps": 2.9, "classes": ["car"]}', "spec_error"),
            (b'{"seed": true}', "spec_error"),
            (b'{"seed": 1.5}', "spec_error"),
            (b'{"n_objects": 2.7}', "spec_error"),
            (b'{"n_sweeps": 2.9}', "spec_error"),
            (b'{"n_sweeps": "2"}', "spec_error"),
            (b'{"noise_sigma": "0.02"}', "spec_error"),
            (b'{"noise_sigma": NaN}', "spec_error"),
            (b'{"moving_fraction": true}', "spec_error"),
            (b'{"ego_speed": [2.0]}', "spec_error"),
            (b'{"points_per_object": [150.5, 250]}', "spec_error"),
            (b'{"points_per_object": [150, 250, 300]}', "spec_error"),
        ],
        ids=[
            "list", "non_utf8", "null_count", "string_classes", "unknown_class", "nested_classes",
            "bool_seed_fractional_counts", "bool_seed", "fractional_seed", "fractional_objects",
            "fractional_sweeps", "string_sweeps", "string_sigma", "nan_sigma", "bool_fraction",
            "list_speed", "fractional_points", "three_points",
        ],
    )
    def test_malformed_spec_structured_error(self, runner, tmp_path, spec, kind):
        p = tmp_path / "spec.json"
        p.write_bytes(spec)
        res = runner.invoke(main, ["synth", "--spec", str(p), "--out", str(tmp_path / "o")])
        assert last_error(res)["kind"] == kind


class TestAnnotateVerb:
    def test_end_to_end_summary(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        res = run_annotate(runner, scene_dir, out)
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output.strip().splitlines()[-1])
        assert summary["frames"] == 3
        assert summary["annotations"] > 0
        assert out.exists()
        from cuboidlift.ingest import load_annotations

        anns = load_annotations(out)
        assert len(anns) == summary["annotations"]
        assert all(a.s2d is not None and a.s3d is not None for a in anns)
        assert all(a.track_id is not None for a in anns)

    def test_rerun_is_idempotent(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        run_annotate(runner, scene_dir, out)
        first = out.read_bytes()
        run_annotate(runner, scene_dir, out)
        assert out.read_bytes() == first

    def test_thread_count_does_not_change_output(self, runner, scene_dir, tmp_path):
        outs = []
        for threads in (1, 2):
            p = tmp_path / f"pred{threads}.ndjson"
            res = run_annotate(runner, scene_dir, p, threads=threads)
            assert res.exit_code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_numeric_camera_ids(self, runner, scene_dir, tmp_path):
        # integer ids in every input file lift exactly like their string form
        numeric = tmp_path / "numeric"
        shutil.copytree(scene_dir, numeric)
        doc = json.loads((numeric / "scene.json").read_text())
        for cam in doc["cameras"]:
            cam["id"] = int(cam["id"].removeprefix("cam_"))
        (numeric / "scene.json").write_text(json.dumps(doc))
        for name in ("detections.ndjson", "expert.ndjson"):
            recs = [json.loads(line) for line in (numeric / name).read_text().splitlines()]
            for rec in recs:
                rec["camera_id"] = int(rec["camera_id"].removeprefix("cam_"))
            (numeric / name).write_text("".join(json.dumps(r) + "\n" for r in recs))
        outs = []
        for d in (scene_dir, numeric):
            out = tmp_path / f"{d.name}.ndjson"
            res = run_annotate(runner, d, out)
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input_structured_error(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        res = runner.invoke(
            main,
            [
                "annotate",
                "--scene", str(scene_dir / "scene.json"),
                "--detections", str(scene_dir / "nope.ndjson"),
                "--out", str(out),
            ],
        )
        assert res.exit_code == 1
        err = json.loads(res.output.strip().splitlines()[-1])
        assert err["error"]["kind"] == "input_error"
        assert not out.exists()

    def test_mismatched_mask_dims_rejected(self, runner, scene_dir, tmp_path):
        import numpy as np

        from cuboidlift.ingest import load_detections, write_detections
        from cuboidlift.config import default_taxonomy
        from dataclasses import replace

        dets = load_detections(scene_dir / "detections.ndjson", default_taxonomy())
        bad = [replace(dets[0], mask=np.ones((7, 9), dtype=bool))] + dets[1:]
        bad_path = tmp_path / "bad_dets.ndjson"
        write_detections(bad, bad_path)
        out = tmp_path / "pred.ndjson"
        res = runner.invoke(
            main,
            [
                "annotate",
                "--scene", str(scene_dir / "scene.json"),
                "--detections", str(bad_path),
                "--out", str(out),
            ],
        )
        assert res.exit_code == 1
        err = json.loads(res.output.strip().splitlines()[-1])
        assert "mask" in err["error"]["message"]
        assert not out.exists()

    def test_no_detections_empty_output(self, runner, scene_dir, tmp_path):
        empty = tmp_path / "none.ndjson"
        empty.write_text("")
        out = tmp_path / "pred.ndjson"
        res = runner.invoke(
            main,
            [
                "annotate",
                "--scene", str(scene_dir / "scene.json"),
                "--detections", str(empty),
                "--out", str(out),
            ],
        )
        assert res.exit_code == 0
        summary = json.loads(res.output.strip().splitlines()[-1])
        assert summary["annotations"] == 0
        assert out.read_text() == ""


class TestEvalVerb:
    def test_report_on_own_annotations(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        run_annotate(runner, scene_dir, out)
        res = runner.invoke(
            main,
            ["eval", "--pred", str(out), "--gt", str(scene_dir / "gt.ndjson"), "--stratify"],
        )
        assert res.exit_code == 0, res.output
        report = json.loads(res.output.strip().splitlines()[0])
        assert 0.0 <= report["map3d"] <= 1.0
        assert 0.0 <= report["nds"] <= 1.0
        assert set(report["stratified"]) == {"0-10", "10-20", "20-30", "0-50"}

    def test_scene_measures_bands_from_the_ego(self, runner, tmp_path):
        from cuboidlift import ingest
        from cuboidlift.metrics import DISTANCE_BANDS, evaluate_detections, map3d

        scene = synth_scene(runner, tmp_path, n_sweeps=4, ego_speed=12.0)
        gts = ingest.load_annotations(scene / "gt.ndjson")
        pred = tmp_path / "pred.ndjson"
        ingest.write_annotations(gts[::2], pred)
        args = ["eval", "--pred", str(pred), "--gt", str(scene / "gt.ndjson"), "--stratify"]
        world = runner.invoke(main, args)
        ego = runner.invoke(main, args + ["--scene", str(scene / "scene.json")])
        assert world.exit_code == 0 and ego.exit_code == 0, (world.output, ego.output)
        world = json.loads(world.output.strip().splitlines()[0])["stratified"]
        ego = json.loads(ego.output.strip().splitlines()[0])["stratified"]
        assert world == evaluate_detections(gts[::2], gts, stratify=True).stratified
        assert ego != world

        sweeps = ingest.load_scene(scene / "scene.json").sweeps
        lidar = {sw.frame_id: (sw.ego_pose @ sw.sensor_pose).translation for sw in sweeps}

        def ego_dist(a):
            o = lidar[a.frame_id]
            return math.hypot(a.cuboid.center[0] - o[0], a.cuboid.center[1] - o[1])

        for lo, hi in DISTANCE_BANDS:
            sub_preds = [a for a in gts[::2] if lo <= ego_dist(a) < hi]
            sub_gts = [a for a in gts if lo <= ego_dist(a) < hi]
            assert ego[f"{lo:g}-{hi:g}"] == map3d(sub_preds, sub_gts)

    def test_scene_missing_a_frame_is_input_error(self, runner, scene_dir, tmp_path):
        from cuboidlift import ingest

        pred = tmp_path / "pred.ndjson"
        gts = ingest.load_annotations(scene_dir / "gt.ndjson")
        ingest.write_annotations([replace(gts[0], frame_id="nowhere")] + gts[1:], pred)
        res = runner.invoke(
            main,
            ["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt.ndjson"), "--stratify",
             "--scene", str(scene_dir / "scene.json")],
        )
        assert "nowhere" in last_error(res)["message"]

    @pytest.mark.parametrize("flag", ["--pred-2d", "--gt-2d"])
    def test_one_2d_file_without_the_other_is_usage_error(self, runner, scene_dir, flag):
        gt = str(scene_dir / "gt.ndjson")
        res = runner.invoke(main, ["eval", "--pred", gt, "--gt", gt, flag, str(scene_dir / "detections.ndjson")])
        assert res.exit_code == 2
        assert "--pred-2d" in res.output and "--gt-2d" in res.output

    def test_scene_without_stratify_is_usage_error(self, runner, scene_dir):
        gt = str(scene_dir / "gt.ndjson")
        res = runner.invoke(main, ["eval", "--pred", gt, "--gt", gt, "--scene", str(scene_dir / "scene.json")])
        assert res.exit_code == 2
        assert "--stratify" in res.output

    def test_self_eval_perfect(self, runner, scene_dir):
        res = runner.invoke(
            main,
            ["eval", "--pred", str(scene_dir / "gt.ndjson"), "--gt", str(scene_dir / "gt.ndjson")],
        )
        report = json.loads(res.output.strip().splitlines()[0])
        assert report["map3d"] == 1.0
        assert report["adapted_nds"] == 1.0


class TestTuneAlphaVerb:
    def test_runs_on_annotate_output(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        run_annotate(runner, scene_dir, out)
        res = runner.invoke(
            main, ["tune-alpha", "--pred", str(out), "--gt", str(scene_dir / "gt.ndjson")]
        )
        assert res.exit_code == 0, res.output
        alpha = json.loads(res.output.strip().splitlines()[-1])["alpha"]
        assert 0.0 <= alpha <= 1.0

    def test_missing_components_fails(self, runner, scene_dir, tmp_path):
        res = runner.invoke(
            main,
            ["tune-alpha", "--pred", str(scene_dir / "gt.ndjson"), "--gt", str(scene_dir / "gt.ndjson")],
        )
        assert res.exit_code == 1


class TestAggregateOnlyVerb:
    def test_window_written(self, runner, scene_dir, tmp_path):
        out = tmp_path / "agg.bin"
        res = runner.invoke(
            main,
            [
                "aggregate-only",
                "--scene", str(scene_dir / "scene.json"),
                "--frame", "000001",
                "--past", "1", "--future", "1",
                "--out", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        info = json.loads(res.output.strip().splitlines()[-1])
        from cuboidlift.ingest import load_scene, load_sweep_points

        scene = load_scene(scene_dir / "scene.json")
        want = sum(len(s.points) for s in scene.sweeps)
        assert info["points"] == want
        assert len(load_sweep_points(out)) == want

    def test_class_strategy(self, runner, scene_dir, tmp_path):
        out = tmp_path / "agg.bin"
        res = runner.invoke(
            main,
            [
                "aggregate-only",
                "--scene", str(scene_dir / "scene.json"),
                "--frame", "000000",
                "--class", "car",
                "--out", str(out),
            ],
        )
        info = json.loads(res.output.strip().splitlines()[-1])
        assert (info["past"], info["future"]) == (0, 0)

    def test_unknown_frame(self, runner, scene_dir, tmp_path):
        res = runner.invoke(
            main,
            [
                "aggregate-only",
                "--scene", str(scene_dir / "scene.json"),
                "--frame", "zzz",
                "--out", str(tmp_path / "agg.bin"),
            ],
        )
        assert res.exit_code == 1

    @pytest.mark.parametrize(
        "window", [["--past", "3"], ["--future", "0"], ["--past", "1", "--future", "1"]]
    )
    def test_class_with_window_is_usage_error(self, runner, scene_dir, tmp_path, window):
        out = tmp_path / "agg.bin"
        res = runner.invoke(
            main,
            [
                "aggregate-only",
                "--scene", str(scene_dir / "scene.json"),
                "--frame", "000000",
                "--class", "car",
                *window,
                "--out", str(out),
            ],
        )
        assert res.exit_code == 2
        assert "--class" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("window", [["--past", "-1"], ["--future", "-2"]])
    def test_negative_window_is_input_error(self, runner, scene_dir, tmp_path, window):
        out = tmp_path / "agg.bin"
        res = runner.invoke(
            main,
            [
                "aggregate-only",
                "--scene", str(scene_dir / "scene.json"),
                "--frame", "000000",
                *window,
                "--out", str(out),
            ],
        )
        err = last_error(res)
        assert err["kind"] == "input_error"
        assert ">= 0" in err["message"]
        assert not out.exists()


class TestTrackOnlyVerb:
    def test_refines_scores(self, runner, scene_dir, tmp_path):
        pred = tmp_path / "pred.ndjson"
        run_annotate(runner, scene_dir, pred)
        out = tmp_path / "tracked.ndjson"
        res = runner.invoke(
            main,
            [
                "track-only",
                "--pred", str(pred),
                "--scene", str(scene_dir / "scene.json"),
                "--out", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        info = json.loads(res.output.strip().splitlines()[-1])
        assert info["annotations"] > 0 and info["tracks"] > 0

    def test_reproduces_annotate_output(self, runner, tmp_path):
        # annotate already tracked and refined, so doing it again changes no
        # byte; seven sweeps make tracks long enough that re-averaging
        # scores a track already shares would move their last bits. The
        # second scene has no detection in its middle sweep: that sweep
        # ends every track in annotate, and must in track-only too
        (tmp_path / "long").mkdir()
        (tmp_path / "gap").mkdir()
        scenes = [
            synth_scene(runner, tmp_path / "long", n_sweeps=7),
            synth_scene(runner, tmp_path / "gap", n_sweeps=3, seed=3, n_objects=4, classes=["car"]),
        ]
        middle = json.loads((scenes[1] / "scene.json").read_text())["sweeps"][1]["frame_id"]
        dets = scenes[1] / "detections.ndjson"
        kept = [line for line in dets.read_text().splitlines(True) if json.loads(line)["frame_id"] != middle]
        dets.write_text("".join(kept))
        for scene in scenes:
            pred = scene / "pred.ndjson"
            assert run_annotate(runner, scene, pred).exit_code == 0
            out = scene / "tracked.ndjson"
            args = ["track-only", "--pred", str(pred), "--scene", str(scene / "scene.json")]
            res = runner.invoke(main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            assert out.read_bytes() == pred.read_bytes()

    def test_scene_required(self, runner, scene_dir, tmp_path):
        pred = tmp_path / "pred.ndjson"
        run_annotate(runner, scene_dir, pred)
        res = runner.invoke(main, ["track-only", "--pred", str(pred), "--out", str(tmp_path / "t.ndjson")])
        assert res.exit_code != 0
        assert "--scene" in res.output


class TestLoadErrors:
    @pytest.mark.parametrize("verb", ["annotate", "track-only"])
    @pytest.mark.parametrize("breakage", sorted(BROKEN_MANIFESTS))
    def test_broken_manifest_is_input_error(self, runner, scene_dir, tmp_path, verb, breakage):
        shutil.copytree(scene_dir / "sweeps", tmp_path / "sweeps")
        manifest = tmp_path / "scene.json"
        doc = json.loads((scene_dir / "scene.json").read_text())
        manifest.write_text(json.dumps(BROKEN_MANIFESTS[breakage](doc)))
        out = tmp_path / "out.ndjson"
        if verb == "annotate":
            args = ["annotate", "--detections", scene_dir / "detections.ndjson"]
        else:
            args = ["track-only", "--pred", scene_dir / "gt.ndjson"]
        res = runner.invoke(main, [str(a) for a in args + ["--scene", manifest, "--out", out]])
        err = last_error(res)
        assert err["kind"] == "input_error"
        assert str(manifest) in err["message"]
        assert not out.exists()

    def test_binary_pred_is_input_error(self, runner, scene_dir, tmp_path):
        pred = tmp_path / "pred.ndjson"
        pred.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\n")
        res = runner.invoke(main, ["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt.ndjson")])
        err = last_error(res)
        assert err["kind"] == "input_error"
        assert f"{pred}:1:" in err["message"]


@pytest.mark.parametrize(
    "verb, flag",
    [(v, f) for v in ("eval", "tune-alpha", "aggregate-only", "track-only") for f in ("--seed", "--threads")]
    + [("tune-alpha", "--config"), ("synth", "--threads")],
)
def test_removed_flag_is_usage_error(runner, verb, flag):
    res = runner.invoke(main, [verb, flag, "1"])
    assert res.exit_code == 2
    assert "No such option" in res.output and flag in res.output


def _car_class(**entry) -> dict:
    return {"taxonomy": {"classes": [{"name": "car", "avg_dims": [1, 1, 1], **entry}]}}


# config values of the right key but the wrong kind, count or sign
BAD_CONFIG_VALUES = {
    "fractional_stride": {"sweep_stride": 4.9},
    "fractional_grid_k": {"scoring": {"grid_k": 7.9}},
    "string_threshold": {"routing_threshold": "0.3"},
    "bool_step": {"search": {"trans_step": True}},
    "nan_step": {"search": {"trans_step": float("nan")}},
    "two_dims": _car_class(avg_dims=[4, 2]),
    "string_dims": _car_class(avg_dims="421"),
    "fractional_past": _car_class(aggregation={"past": 1.7}),
    "negative_past": _car_class(aggregation={"past": -1}),
    "negative_radius": _car_class(match_radius=-3),
    "threads": {"threads": 4},
}


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg == PipelineConfig()
        assert cfg.search.trans_step == 0.5
        assert math.isclose(cfg.search.rot_step, math.pi / 10)
        assert cfg.scoring.grid_k == 7
        assert cfg.routing_threshold == 0.3
        assert math.isclose(cfg.sector_half_width, math.pi / 6)
        assert cfg.sweep_stride == 5
        assert len(cfg.taxonomy.names) == 18

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError):
            config_from_dict({"serach": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError):
            config_from_dict({"search": {"trans_stepp": 0.5}})
        with pytest.raises(ValueError):
            config_from_dict({"taxonomy": {"classes": [{"name": "x", "avg_dims": [1, 1, 1], "wat": 1}]}})

    def test_seed_key_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            config_from_dict({"seed": 0})

    def test_nested_value_of_wrong_type(self):
        for doc in (
            {"search": {"trans_step": "fast"}},
            {"scoring": {"grid_k": [7]}},
            {"scoring": 7},
            {"taxonomy": {"classes": [1]}},
            {"taxonomy": {"classes": 5}},
            {"taxonomy": {"classes": [{"name": "car", "avg_dims": 5}]}},
            {"taxonomy": {"classes": [{"name": "car", "avg_dims": [1, 1, 1], "aggregation": {"past": None}}]}},
            *BAD_CONFIG_VALUES.values(),
        ):
            with pytest.raises(ValueError):
                config_from_dict(doc)

    def test_file_roundtrip(self, tmp_path):
        doc = {
            "search": {"trans_step": 0.25},
            "scoring": {"alpha": 0.7},
            "taxonomy": {
                "classes": [
                    {"name": "car", "avg_dims": [4.5, 1.9, 1.7], "aggregation": {"past": 1, "future": 2}, "match_radius": 3.0}
                ]
            },
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(p)
        assert cfg.search.trans_step == 0.25
        assert cfg.scoring.alpha == 0.7
        assert cfg.taxonomy.get("car").aggregation == (1, 2)
        assert cfg.taxonomy.get("car").match_radius == 3.0

    def test_cli_rejects_bad_config(self, runner, scene_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus_key": 1}))
        res = runner.invoke(
            main,
            [
                "annotate",
                "--scene", str(scene_dir / "scene.json"),
                "--detections", str(scene_dir / "detections.ndjson"),
                "--config", str(bad),
                "--out", str(tmp_path / "x.ndjson"),
            ],
        )
        assert res.exit_code == 1
        err = json.loads(res.output.strip().splitlines()[-1])
        assert "bogus_key" in err["error"]["message"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"search": {"trans_step": None}},
            {"taxonomy": {"classes": 5}},
            {"taxonomy": {"classes": [{"name": "car", "avg_dims": 5}]}},
            {"taxonomy": {"classes": [{"name": "car", "avg_dims": [1, 1, 1], "aggregation": {"past": None}}]}},
            *BAD_CONFIG_VALUES.values(),
        ],
        ids=["null_step", "int_classes", "int_dims", "null_past", *BAD_CONFIG_VALUES],
    )
    def test_cli_bad_config_value_is_input_error(self, runner, scene_dir, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        gt = str(scene_dir / "gt.ndjson")
        err = last_error(runner.invoke(main, ["eval", "--pred", gt, "--gt", gt, "--config", str(bad)]))
        assert err["kind"] == "input_error"
        assert err["message"].startswith("config:")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"sweep_stride": 4.9}, "config: sweep_stride: expected an integer, got 4.9"),
            ({"search": {"trans_step": True}}, "config: search.trans_step: expected a finite number, got True"),
            (
                _car_class(avg_dims=[4, 2, 1], aggregation={"past": 1.7}),
                "config: taxonomy.classes[0]: class car: aggregation.past: expected an integer, got 1.7",
            ),
            (
                {"taxonomy": {"classes": [
                    {"name": "car", "avg_dims": [4, 2, 1]},
                    {"name": "bus", "avg_dims": [11, 2.9, "3.5"]},
                ]}},
                "config: taxonomy.classes[1]: class bus: avg_dims: expected a finite number, got '3.5'",
            ),
            (
                {"taxonomy": {"classes": [
                    {"name": "car", "avg_dims": [4, 2, 1]},
                    {"name": "bus", "avg_dims": [11, 2.9, 3.5], "match_radius": -3},
                ]}},
                "config: taxonomy.classes[1]: class bus: match_radius must be positive",
            ),
        ],
        ids=["top_level", "nested", "class_field", "second_class_dims", "second_class_check"],
    )
    def test_cli_config_error_names_the_value(self, runner, scene_dir, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        gt = str(scene_dir / "gt.ndjson")
        err = last_error(runner.invoke(main, ["eval", "--pred", gt, "--gt", gt, "--config", str(bad)]))
        assert err == {"kind": "input_error", "message": message}

    def test_negative_threads_rejected(self, runner, scene_dir, tmp_path):
        out = tmp_path / "pred.ndjson"
        res = run_annotate(runner, scene_dir, out, threads=-1)
        assert res.exit_code == 1
        assert json.loads(res.output.strip().splitlines()[-1])["error"]["kind"] == "input_error"
        assert not out.exists()
