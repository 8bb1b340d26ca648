"""Command-line entry point: one binary, verb-style subcommands.

Machine-readable payloads (summaries, reports, errors) go to stdout as
JSON; human-readable tables go to stderr. Exit code 0 means
every input was processed. Output files are written through temp paths,
made before any input is read, and renamed once complete, so failed runs
leave no partial outputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

import click

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
    except KeyError as e:
        _fail(f"config: missing field {e}")
    except (OSError, ValueError) as e:
        _fail(f"config: {e}")


def _load(loader, *args, **kwargs):
    """Call an ingest loader; an unreadable or malformed file is an input_error."""
    try:
        return loader(*args, **kwargs)
    except (OSError, ingest.FormatError) as e:
        _fail(str(e))


@contextlib.contextmanager
def _atomic_output(path):
    """Yield a temp path beside `path`; rename it over `path` after the block.

    `path` is checked and the temp file made before the block runs, so an
    unwritable path is an input_error before any work, as is a failed
    write or rename. No failure leaves the temp file behind.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError("Is a directory")
        open(tmp, "wb").close()
        yield tmp
        os.replace(tmp, path)
    except OSError as e:
        _fail(f"cannot write {path}: {e.strerror or e}")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _publish(stage, out_dir) -> None:
    """Move every file under `stage` to the same place under `out_dir`.

    Each target is checked, and its directory made, before the first move:
    a target that is a directory fails with no file moved.
    """
    sources = [os.path.join(root, name) for root, _, names in os.walk(stage) for name in names]
    moves = [(src, os.path.join(out_dir, os.path.relpath(src, stage))) for src in sources]
    for _, target in moves:
        if os.path.isdir(target):
            raise IsADirectoryError(f"{target} is a directory")
        os.makedirs(os.path.dirname(target), exist_ok=True)
    for src, target in moves:
        os.replace(src, target)


@click.group()
def main():
    """Lift 2D detections into 3D cuboids on LiDAR, score and evaluate them."""


@main.command()
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--detections", "det_path", required=True, type=click.Path())
@click.option("--expert", "expert_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--threads", type=int, default=1, help="worker threads, each taking whole window groups")
def annotate(scene_path, det_path, expert_path, config_path, out_path, threads):
    """Generate scored 3D cuboid annotations for a scene."""
    if threads < 1:
        _fail(f"--threads must be >= 1, got {threads}")
    with _atomic_output(out_path) as tmp:
        config = _load_config_arg(config_path)
        scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
        detections = _load(ingest.load_detections, det_path, config.taxonomy, scene)
        expert_index = _load(load_expert_records, expert_path) if expert_path else None
        try:
            frames, summary = annotate_scene(
                scene, detections, config, expert_index=expert_index, threads=threads
            )
        except (ValueError, KeyError) as e:
            _fail(str(e), kind="pipeline_error")
        ingest.write_annotations([a for frame in frames for a in frame], tmp)
    click.echo(json.dumps(summary))


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
    scene = origins = None
    if scene_path is not None:
        scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
        origins = {sw.frame_id: t.translation[:2] for sw, t in zip(scene.sweeps, scene.lidar_to_world)}
    preds = _load(ingest.load_annotations, pred_path, scene)
    gts = _load(ingest.load_annotations, gt_path, scene)
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
def synth(spec_path, out_dir):
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
    try:
        spec = random_scene_spec(
            seed=args.pop("seed", 0),
            taxonomy=default_taxonomy(),
            n_objects=args.pop("n_objects", 8),
            classes=doc.get("classes"),
            **args,
        )
        built = generate_scene(spec)
    except (TypeError, ValueError) as e:
        _fail(str(e), kind="spec_error")

    # staged, so that a failed write leaves no partial scene in out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".synth-", dir=out_dir) as stage:
            ingest.write_scene(built.scene, stage)
            ingest.write_detections(built.detections, os.path.join(stage, "detections.ndjson"))
            write_expert_records(built.expert_records, os.path.join(stage, "expert.ndjson"))
            ingest.write_annotations(built.gt_flat, os.path.join(stage, "gt.ndjson"))
            _publish(stage, out_dir)
    except OSError as e:
        _fail(f"cannot write {out_dir}: {e.strerror or e}")
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
    with _atomic_output(out_path) as tmp:
        config = _load_config_arg(config_path)
        scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
        if class_label is None:
            window = (past or 0, future or 0)
        elif class_label in config.taxonomy:
            window = config.taxonomy.get(class_label).aggregation
        else:
            _fail(f"unknown class {class_label!r}")
        try:
            scene.check_frame(frame_id)
            pts = aggregate_sweeps(scene, scene.frame_index[frame_id], window)
        except ValueError as e:
            _fail(str(e))
        ingest.write_sweep_points(pts, tmp, stride=config.sweep_stride)
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
    with _atomic_output(out_path) as tmp:
        config = _load_config_arg(config_path)
        scene = _load(ingest.load_scene, scene_path, stride=config.sweep_stride)
        anns = _load(ingest.load_annotations, pred_path, scene, config.taxonomy)
        frames, tracks = track_and_refine(scene, anns, config.taxonomy)
        flat = [a for frame in frames for a in frame]
        ingest.write_annotations(flat, tmp)
    click.echo(json.dumps({"annotations": len(flat), "tracks": len(tracks)}))


if __name__ == "__main__":
    main()
