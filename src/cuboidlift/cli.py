"""Command-line entry point: one binary, verb-style subcommands.

Machine-readable payloads (summaries, reports, errors) go to stdout as
JSON; human-readable tables go to stderr. Exit code 0 means
every input was processed. Output files are written through a temp path
and renamed, so failed runs leave no partial outputs.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import ingest
from .aggregate import aggregate_sweeps
from .config import PipelineConfig, default_taxonomy, load_config
from .metrics import evaluate_detections, map2d
from .pipeline import annotate_scene, track_and_refine
from .prior import load_expert_records
from .score import tune_alpha as tune_alpha_op


def _fail(message: str, kind: str = "input_error") -> None:
    click.echo(json.dumps({"error": {"kind": kind, "message": message}}))
    sys.exit(1)


def _load_config_arg(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        return load_config(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        _fail(f"config: {e}")


def _load(loader, *args, **kwargs):
    """Call an ingest loader; an unreadable or malformed file is an input_error."""
    try:
        return loader(*args, **kwargs)
    except (OSError, ingest.FormatError) as e:
        _fail(str(e))


def _atomic_write(path, write_fn) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@click.group()
def main():
    """Lift 2D detections into 3D cuboids on LiDAR, score and evaluate them."""


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--detections", "det_path", required=True, type=click.Path())
@click.option("--expert", "expert_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--threads", type=int, default=0, help="worker threads, 0 = auto")
@click.option("--seed", type=int, default=None)
def annotate(scene_path, det_path, expert_path, config_path, out_path, threads, seed):
    """Generate scored 3D cuboid annotations for a scene."""
    if threads < 0:
        _fail(f"--threads must be >= 0, got {threads}")
    config = _load_config_arg(config_path)
    scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
    detections = _load(ingest.load_detections, det_path, config.taxonomy)
    expert_index = _load(load_expert_records, expert_path) if expert_path else None

    try:
        frames, summary = annotate_scene(
            scene, detections, config, expert_index=expert_index, threads=threads
        )
    except (ValueError, KeyError) as e:
        _fail(str(e), kind="pipeline_error")

    flat = [a for frame in frames for a in frame]
    _atomic_write(out_path, lambda p: ingest.write_annotations(flat, p))
    if seed is not None:
        summary["seed"] = seed
    click.echo(json.dumps(summary))


def _require_frames(anns: list, frame_ids) -> None:
    missing = list(dict.fromkeys(a.frame_id for a in anns if a.frame_id not in frame_ids))
    if missing:
        _fail(f"annotations reference frames missing from the scene: {missing}")


@main.command("eval")
@click.option("--pred", "pred_path", required=True, type=click.Path())
@click.option("--gt", "gt_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--stratify", is_flag=True, default=False)
@click.option("--scene", "scene_path", type=click.Path(), default=None,
              help="measure --stratify bands from each frame's lidar position")
@click.option("--pred-2d", "pred2d_path", type=click.Path(), default=None)
@click.option("--gt-2d", "gt2d_path", type=click.Path(), default=None)
def eval_cmd(pred_path, gt_path, config_path, stratify, scene_path, pred2d_path, gt2d_path):
    """nuScenes-style metrics over two annotation files."""
    if scene_path is not None and not stratify:
        raise click.UsageError("--scene only applies with --stratify")
    if (pred2d_path is None) != (gt2d_path is None):
        raise click.UsageError("--pred-2d and --gt-2d go together")
    config = _load_config_arg(config_path)
    preds = _load(ingest.load_annotations, pred_path)
    gts = _load(ingest.load_annotations, gt_path)
    origins = None
    if scene_path is not None:
        scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
        origins = {sw.frame_id: sw.lidar_to_world().translation[:2] for sw in scene.sweeps}
        _require_frames(preds + gts, origins)
    report = evaluate_detections(preds, gts, stratify=stratify, origins=origins)
    if pred2d_path is not None:
        pred2d = _load(ingest.load_detections, pred2d_path, config.taxonomy)
        gt2d = _load(ingest.load_detections, gt2d_path, config.taxonomy)
        report.map2d = map2d(pred2d, gt2d)
    click.echo(json.dumps(report.to_json()))
    click.echo(report.format_table(), err=True)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="overrides the spec seed")
def synth(spec_path, out_dir, seed):
    """Generate a synthetic scene in the pipeline's own file formats."""
    from .prior import write_expert_records
    from .synth import generate_scene, random_scene_spec

    try:
        with open(spec_path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        _fail(f"spec: {e}")
    if not isinstance(doc, dict):
        _fail("spec: expected a JSON object")
    # spec keys and their readers; random_scene_spec holds the defaults
    # of all but seed and n_objects
    readers = {
        "seed": ingest.read_int,
        "n_objects": ingest.read_int,
        "n_sweeps": ingest.read_int,
        "noise_sigma": ingest.read_number,
        "points_per_object": lambda v: ingest.read_ints(v, 2),
        "moving_fraction": ingest.read_number,
        "ego_speed": ingest.read_number,
    }
    unknown = set(doc) - {"classes", *readers}
    if unknown:
        _fail(f"spec: unknown key(s) {sorted(unknown)}")
    args = {}
    for key, read in readers.items():
        if key in doc:
            try:
                args[key] = read(doc[key])
            except ValueError as e:
                _fail(f"spec: {key}: {e}", kind="spec_error")
    spec_seed = args.pop("seed", 0)
    try:
        spec = random_scene_spec(
            seed=seed if seed is not None else spec_seed,
            taxonomy=default_taxonomy(),
            n_objects=args.pop("n_objects", 8),
            classes=doc.get("classes"),
            **args,
        )
        built = generate_scene(spec)
    except (TypeError, ValueError) as e:
        _fail(str(e), kind="spec_error")

    os.makedirs(out_dir, exist_ok=True)
    ingest.write_scene(built.scene, out_dir)
    ingest.write_detections(built.detections, os.path.join(out_dir, "detections.ndjson"))
    write_expert_records(built.expert_records, os.path.join(out_dir, "expert.ndjson"))
    ingest.write_annotations(built.gt_flat, os.path.join(out_dir, "gt.ndjson"))
    click.echo(
        json.dumps(
            {
                "scene": os.path.join(out_dir, "scene.json"),
                "detections": len(built.detections),
                "objects": len(spec.objects),
                "sweeps": len(built.scene.sweeps),
            }
        )
    )


@main.command("tune-alpha")
@click.option("--pred", "pred_path", required=True, type=click.Path())
@click.option("--gt", "gt_path", required=True, type=click.Path())
def tune_alpha(pred_path, gt_path):
    """Pick the score-fusion weight maximizing validation mAP3D.

    Predictions must carry the s2d/s3d fields written by annotate.
    """
    preds = _load(ingest.load_annotations, pred_path)
    gts = _load(ingest.load_annotations, gt_path)
    try:
        alpha = tune_alpha_op(preds, gts)
    except ValueError as e:
        _fail(str(e))
    click.echo(json.dumps({"alpha": alpha}))


@main.command("aggregate-only")
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--frame", "frame_id", required=True)
@click.option("--class", "class_label", default=None)
@click.option("--past", type=int, default=None)
@click.option("--future", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def aggregate_only(scene_path, frame_id, class_label, past, future, config_path, out_path):
    """Write the ego-motion-compensated window around one frame."""
    if class_label is not None and (past is not None or future is not None):
        raise click.UsageError("--past/--future cannot be combined with --class")
    config = _load_config_arg(config_path)
    scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
    index = {sw.frame_id: i for i, sw in enumerate(scene.sweeps)}
    if frame_id not in index:
        _fail(f"unknown frame {frame_id!r}")
    try:
        if class_label is not None:
            window = config.taxonomy.get(class_label).aggregation
        else:
            window = (past or 0, future or 0)
        pts = aggregate_sweeps(scene.sweeps, index[frame_id], window)
    except (KeyError, ValueError) as e:
        _fail(str(e))
    full = np.zeros((len(pts), 4), dtype=np.float32)
    full[:, :3] = pts
    full[:, 3] = 0.5
    _atomic_write(
        out_path, lambda p: ingest.write_sweep_points(full, p, stride=config.sweep_stride)
    )
    click.echo(json.dumps({"points": int(len(pts)), "past": window[0], "future": window[1]}))


@main.command("track-only")
@click.option("--pred", "pred_path", required=True, type=click.Path())
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def track_only(pred_path, scene_path, config_path, out_path):
    """Track annotations across frames and refine their scores.

    Every sweep of the scene is a frame, in scene order, and its timestamp
    times the velocities; as in annotate, a sweep without annotations ends
    every track that would cross it.
    """
    config = _load_config_arg(config_path)
    anns = _load(ingest.load_annotations, pred_path)
    scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)

    _require_frames(anns, {sw.frame_id for sw in scene.sweeps})
    by_frame = {}
    for a in anns:
        by_frame.setdefault(a.frame_id, []).append(a)
    frames = [by_frame.get(sw.frame_id, []) for sw in scene.sweeps]
    timestamps = [sw.timestamp for sw in scene.sweeps]
    frames, tracks = track_and_refine(frames, timestamps, config.taxonomy)
    flat = [a for frame in frames for a in frame]
    _atomic_write(out_path, lambda p: ingest.write_annotations(flat, p))
    click.echo(json.dumps({"annotations": len(flat), "tracks": len(tracks)}))


if __name__ == "__main__":
    main()
