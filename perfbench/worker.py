"""One measured process: set up like a fresh `cuboidlift` verb, run one job.

Invoked by run.py as `python3 worker.py <task-json>`; prints one JSON
line with its measurements. Each job runs in its own process, the way a
user runs one verb per command, so every timing includes the cold costs
a user pays and peak RSS belongs to that job alone.

Jobs:
  annotate  load scene, detections and expert sidecar (setup), then
            pipeline.annotate_scene + ingest.write_annotations
  verbs     each verb of the task's list in turn, each one loading both
            annotation files first:
              eval  ingest.load_annotations (pred, gt) + evaluate_detections(stratify)
              tune  ingest.load_annotations (pred, gt) + score.tune_alpha

The spawn time comes from the parent's monotonic clock (system-wide on
Linux), so setup_s covers interpreter start, imports and input loading.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    task = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(task["root"], "src"))

    import hashlib
    import resource

    import spans
    from cuboidlift import ingest, metrics, pipeline, prior, score
    from cuboidlift.config import PipelineConfig

    # BLAS/OpenMP pools are pinned through the environment run.py sets;
    # with them at one thread, the process holds only the main thread here
    result = {"os_threads_after_import": _os_threads()}
    tracer = None
    if task["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)

    job = task["job"]
    inputs = task["inputs"]
    if job == "annotate":
        config = PipelineConfig()
        scene = ingest.load_scene(inputs["scene"], stride=config.sweep_stride)
        detections = ingest.load_detections(inputs["detections"], config.taxonomy)
        expert_index = prior.load_expert_records(inputs["expert"])
        result["setup_s"] = time.monotonic() - task["spawn_t"]

        t_region = t0 = time.perf_counter()
        frames, summary = pipeline.annotate_scene(
            scene, detections, config, expert_index=expert_index, threads=task["threads"]
        )
        flat = [a for frame in frames for a in frame]
        ingest.write_annotations(flat, task["out"])
        result["job_s"] = time.perf_counter() - t0
        summary.pop("wall_time_s")
        result["summary"] = summary
        with open(task["out"], "rb") as f:
            result["output_sha256"] = hashlib.sha256(f.read()).hexdigest()
    elif job == "verbs":
        # the verbs in turn, each one loading both files first
        result["reports"] = {}
        t_region = time.perf_counter()
        for name in task["verbs"]:
            preds = ingest.load_annotations(inputs["pred"])
            gts = ingest.load_annotations(inputs["gt"])
            result.setdefault("setup_s", time.monotonic() - task["spawn_t"])
            if name == "eval":
                report = metrics.evaluate_detections(preds, gts, stratify=True).to_json()
            else:
                report = {"alpha": score.tune_alpha(preds, gts)}
            json.dumps(report)
            result["reports"][name] = report
        result["job_s"] = time.perf_counter() - t_region
    else:
        raise ValueError(f"unknown job {job!r}")

    if tracer is not None:
        tracer.restore()
        result["layers"] = spans.layer_metrics(tracer)
        # self times of the spans inside the timed job; they should add up
        # to job_s, the rest being harness time between spans
        result["span_job_s"] = sum(
            t for s, t in zip(tracer.spans, spans.self_times(tracer.spans)) if s.start >= t_region
        )
        result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _os_threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
