"""cuboidlift benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_expert --seed 1 --seconds 45 --trace 0

It generates the workload's input files from the seed, then runs
the public calls behind the `annotate`, `eval` and `tune-alpha` verbs in
fresh worker processes (one job per process, BLAS/OpenMP pools pinned to
one thread) until --seconds have passed, at least MIN_REPS times. It
checks the outputs and prints, as the last line of stdout, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it records the environment and the input and output
digests; stderr gets a table of every metric with its unit.

It exits non-zero without a result when the source tree is missing or
the seed's scene cannot be generated. See NOTES.md for the workloads and
the metrics.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads, here and in every worker
PINNED_THREADS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")

MIN_REPS = 3
RUN_LIMIT_S = 170.0  # seconds; a run and its workers end by then

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "map3d": "1",
    "nds": "1",
    "ok_frac": "1",
}

PER_LAYER = {
    "ingest.load_s": "s",
    "ingest.write_s": "s",
    "ingest.bytes_read": "bytes",
    "aggregate.calls": "count",
    "aggregate.s": "s",
    "aggregate.points_out": "count",
    "aggregate.points_held": "count",
    "frustum.extract_s": "s",
    "frustum.points_projected": "count",
    "frustum.select_ratio": "1",
    "frustum.mask_s": "s",
    "frustum.fg_ratio": "1",
    "prior.route_s": "s",
    "prior.per_instance_frac": "1",
    "search.init_s": "s",
    "search.enumerate_s": "s",
    "search.evaluate_s": "s",
    "search.select_self_s": "s",
    "search.hypotheses": "count",
    "search.containment_tests": "count",
    "search.ns_per_test": "ns",
    "search.evaluate_p50_ms": "ms",
    "search.evaluate_tail_ms": "ms",
    "score.occupancy_s": "s",
    "refine.s": "s",
    "refine.tracks": "count",
    "metrics.match_s": "s",
    "metrics.match_calls": "count",
    "metrics.ap_s": "s",
    "pipeline.self_s": "s",
    "pipeline.thread_speedup": "1",
    "trace.overhead_frac": "1",
}

# a traced job's span self times must add up to its measured time within
# this share (plus ACCOUNT_ABS_S), the rest being harness time between spans
ACCOUNT_REL = 0.02
ACCOUNT_ABS_S = 0.005

# sanity floors on output quality against the synthetic ground truth; the
# lowest values seen over seeds sit far above them
MAP3D_FLOOR = {"dense_expert": 0.3, "sequence_mixed": 0.3}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Spawns worker processes and keeps the run inside its time limit."""

    def __init__(self, workload: str, inputs: dict, out_dir: str, t_start: float):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.t_start = t_start
        self.nproc = len(os.sched_getaffinity(0))
        self.threads_after_import = 0

    def task(self, job: str, threads: int = 1, trace: bool = False, out: str = None) -> dict:
        return {
            "root": ROOT,
            "job": job,
            "inputs": self.inputs,
            "threads": threads,
            "trace": trace,
            "out": out,
        }

    def _remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.t_start))

    def run(self, *tasks) -> list:
        """Run the tasks as concurrent processes; wait for all of them."""
        procs = []
        try:
            for task in tasks:
                task["spawn_t"] = time.monotonic()
                procs.append(
                    subprocess.Popen(
                        [sys.executable, WORKER, json.dumps(task)],
                        cwd=ROOT,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                    )
                )
            outputs = [p.communicate(timeout=self._remaining()) for p in procs]
        except subprocess.TimeoutExpired:
            raise WorkerError("worker did not finish inside the run's time limit") from None
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()
        results = []
        for p, (out, err) in zip(procs, outputs):
            lines = out.strip().splitlines()
            if p.returncode != 0 or not lines:
                raise WorkerError(f"worker exit {p.returncode}: {err.strip()[-2000:]}")
            results.append(json.loads(lines[-1]))
            self.threads_after_import = max(
                self.threads_after_import, results[-1]["os_threads_after_import"]
            )
        return results

    def annotate(self, threads: int, tag: str, trace: bool = False) -> dict:
        out = os.path.join(self.out_dir, f"pred-{tag}.ndjson")
        (res,) = self.run(self.task("annotate", threads=threads, trace=trace, out=out))
        res["out"] = out
        return res

    def verbs(self, names, pred: str, trace: bool) -> dict:
        task = self.task("verbs", trace=trace)
        task["inputs"] = {"pred": pred, "gt": self.inputs["gt"]}
        task["verbs"] = list(names)
        (res,) = self.run(task)
        return res


def _median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Operations attempted and failed; failures also make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, message: str) -> None:
        self.problems.append(message)


def annotate_rep(runner: Runner, rep: int, tally: Tally, digests: set, trace: bool) -> dict:
    """Annotate at 1 thread, then eval on its output; traced, a traced
    annotate with eval and tune instead of the eval.

    The first repeat and every traced repeat also annotate at nproc, in
    alternating order with the 1-thread job, for the output gate and the
    thread speedup. Its time is no end-to-end metric: at 2 threads on a
    shared 2-vCPU machine it tracks how much of the second vCPU the host
    leaves free (see NOTES.md).
    """
    n_det = runner.inputs["n_detections"]
    order = [("t1", 1)]
    if trace or rep == 0:
        order.append(("mt", runner.nproc))
    jobs = {}
    for key, threads in order if rep % 2 == 0 else order[::-1]:
        tally.attempted += n_det
        try:
            res = runner.annotate(threads, f"r{rep}-{key}")
        except WorkerError as e:
            tally.failed += n_det
            tally.problem(f"annotate threads={threads}: {e}")
            continue
        digests.add(res["output_sha256"])
        if len(digests) > 1:
            tally.failed += n_det
            tally.problem(f"annotate threads={threads} rep {rep}: output differs from earlier runs")
        else:
            tally.failed += n_det - res["summary"]["annotations"]
        jobs[key] = res
    rep_result = {"annotate": jobs}
    if "t1" not in jobs:
        return rep_result
    if trace:
        rep_result["traced"] = traced_annotate(runner, rep, tally, jobs["t1"])
    else:
        rep_result["eval"] = verbs(runner, jobs["t1"]["out"], tally, ("eval",))
    return rep_result


def verbs(runner, pred, tally, names=("eval", "tune"), trace=False):
    """The verbs on pred in one process; its result, or None if it failed.
    Each verb counts as one operation."""
    tally.attempted += len(names)
    try:
        res = runner.verbs(names, pred, trace)
    except WorkerError as e:
        tally.failed += len(names)
        tally.problem(f"{'+'.join(names)}: {e}")
        return None
    if trace:
        check_accounting(res, tally, f"traced {'+'.join(names)}")
    return res


def traced_annotate(runner: Runner, rep: int, tally: Tally, untraced: dict) -> dict:
    """Traced annotate at one thread plus traced eval and tune on its output."""
    n_det = runner.inputs["n_detections"]
    tally.attempted += n_det
    try:
        res = runner.annotate(1, f"r{rep}-traced", trace=True)
    except WorkerError as e:
        tally.failed += n_det
        tally.problem(f"traced annotate: {e}")
        return {}
    summary = res["summary"]
    counts = res["counts"]
    if res["output_sha256"] != untraced["output_sha256"]:
        tally.failed += n_det
        tally.problem("traced annotate output differs from the untraced output")
    else:
        tally.failed += n_det - summary["annotations"]
    routed = counts.get("prior.route_calls", 0)
    if routed != summary["detections"]:
        tally.problem(f"route calls {routed} != detections {summary['detections']}")
    evaluated = counts.get("search.evaluate_calls", 0)
    expected = summary["detections"] - summary["skipped_detections"]
    if evaluated != expected:
        tally.problem(f"evaluate_hypotheses calls {evaluated} != {expected}")
    check_accounting(res, tally, "traced annotate")
    return {"annotate": res, "verbs": verbs(runner, res["out"], tally, trace=True)}


def check_accounting(res: dict, tally: Tally, what: str) -> None:
    gap = abs(res["job_s"] - res["span_job_s"])
    if gap > ACCOUNT_REL * res["job_s"] + ACCOUNT_ABS_S:
        tally.problem(
            f"{what}: span self times {res['span_job_s']:.4f} s vs job {res['job_s']:.4f} s"
        )


def measure(runner: Runner, seconds: float, trace: bool) -> tuple:
    tally = Tally()
    digests = set()
    reps = []
    deadline = time.monotonic() + seconds
    last = 0.0
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        elapsed = time.monotonic() - runner.t_start
        if len(reps) >= MIN_REPS and elapsed + last > RUN_LIMIT_S - 10.0:
            break
        t0 = time.monotonic()
        reps.append(annotate_rep(runner, len(reps), tally, digests, trace))
        last = time.monotonic() - t0
    return reps, tally, digests


def end_to_end_metrics(runner: Runner, reps: list, tally: Tally) -> tuple:
    """(metrics, the per-repeat samples their medians come from)."""
    samples = {name: [] for name in ("setup_s", "job_s", "job_mt_s", "peak_rss_mb")}
    reports = []
    for rep in reps:
        jobs = rep["annotate"]
        for t, key in (("t1", "job_s"), ("mt", "job_mt_s")):
            if t in jobs:
                samples[key].append(jobs[t]["job_s"])
        samples["setup_s"].extend(res["setup_s"] for res in jobs.values())
        if "t1" in jobs:
            samples["peak_rss_mb"].append(jobs["t1"]["peak_rss_mb"])
        for res in (rep.get("eval"), rep.get("traced", {}).get("verbs")):
            if res:
                reports.append(res["reports"]["eval"])

    if any(r != reports[0] for r in reports):
        tally.problem("eval reports differ between repeats")
    report = reports[0] if reports else {"map3d": 0.0, "nds": 0.0}
    if report["map3d"] < MAP3D_FLOOR[runner.workload]:
        tally.problem(f"map3d {report['map3d']:.4f} below the floor {MAP3D_FLOOR[runner.workload]}")
    metrics = {name: _median(samples[name]) for name in ("setup_s", "job_s", "peak_rss_mb")}
    metrics["map3d"] = report["map3d"]
    metrics["nds"] = report["nds"]
    metrics["ok_frac"] = 1.0 - tally.failed / max(1, tally.attempted)
    return metrics, samples


def per_layer_metrics(runner: Runner, reps: list, samples: dict, tally: Tally) -> dict:
    """Medians over repeats of each traced repeat's layer metrics."""
    per_rep, overheads = [], []
    for rep in reps:
        traced = rep.get("traced")
        if not traced:
            continue
        layers = dict(traced["annotate"]["layers"])
        verb_layers = traced["verbs"]["layers"] if traced["verbs"] else {}
        for name in ("metrics.match_s", "metrics.match_calls", "metrics.ap_s"):
            layers[name] = verb_layers.get(name, 0.0)
        overheads.append(traced["annotate"]["job_s"] / rep["annotate"]["t1"]["job_s"] - 1.0)
        per_rep.append(layers)
    if not per_rep:
        tally.problem("no traced repeat completed")
    out = {}
    for name in PER_LAYER:
        out[name] = _median([layers[name] for layers in per_rep if name in layers])
    out["ingest.bytes_read"] = float(runner.inputs["setup_bytes"])
    job_mt_s = _median(samples["job_mt_s"])
    out["pipeline.thread_speedup"] = _median(samples["job_s"]) / job_mt_s if job_mt_s else 0.0
    out["trace.overhead_frac"] = _median(overheads)
    return out


def environment(runner: Runner) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": runner.nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": PINNED_THREADS_ENV,
        "annotate_threads": [1, runner.nproc],
        "worker_os_threads_after_import": runner.threads_after_import,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cuboidlift", "__init__.py")):
        print(f"error: no cuboidlift source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        try:
            inputs = workloads.generate(args.workload, args.seed, os.path.join(tmp, "inputs"))
        except ValueError as e:
            print(f"error: workload {args.workload} seed {args.seed}: {e}", file=sys.stderr)
            return 3
        runner = Runner(args.workload, inputs, tmp, t_start)
        reps, tally, digests = measure(runner, args.seconds, bool(args.trace))
        e2e, samples = end_to_end_metrics(runner, reps, tally)
        if args.trace:
            values, units = per_layer_metrics(runner, reps, samples, tally), PER_LAYER
        else:
            values, units = e2e, END_TO_END
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "reps": len(reps),
            "samples": samples,
            "input_sha256": inputs["input_sha256"],
            "output_sha256": sorted(digests),
            "inputs": {k: v for k, v in inputs.items() if k.startswith("n_")},
            "problems": tally.problems,
            "environment": environment(runner),
            "run_s": time.monotonic() - t_start,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, unit in units.items():
        print(f"{args.workload:>15} {name:<28} {values[name]:>16.6f} {unit}", file=sys.stderr)
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
