"""End-to-end benchmark of the `ifsdim` command line.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0

Runs `ifsdim.cli.main(argv)` job by job in this one process: one client,
a closed loop, no threads.  A pass is the job sequence of the workload
(see workloads.py); passes repeat until `--seconds` have gone by, at least
once, each with fresh temporary cache files so every explore is cold.
Every job's exit code and output is checked against reference.json.

Job times are reported in reference-speed seconds: while the untraced
passes run, a speed probe (machine.py) times a fixed Fraction loop every
0.1 s, and each job's wall time is scaled by the reference probe time
over the mean time of the probes around that job.  The raw wall times
are printed and recorded beside them.  `setup_s` is scaled the same way
by probe loops run right before and after each set-up sample.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over passes).  With `--trace 1` the run makes the same untraced
passes, then traced ones, and reports the per-layer metrics of tracer.py,
`trace.overhead_s` (the traced minus the untraced pass wall time), the
untraced wall times and the mean probe time.  Each run also writes its
job timings, the machine and, when traced, its spans to `.perfbench_out/`
at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checker import compare, essential_gap, job_facts, max_rel_width
from machine import (
    PROBE_MARGIN_S,
    SpeedProbe,
    fraction_kernel_s,
    machine_info,
    probe_loops,
    reference_seconds,
)
from workloads import WORKLOADS, Job, pass_jobs, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
# Set-up is sampled in two halves, before and after the passes, so that
# they sit in different stretches of the machine's speed drift.
SETUP_REPEATS = 6
SETUP_PROBES = 10
# Jobs of a few milliseconds are repeated so their timing is not noise.
MIN_JOB_S = 0.25
MAX_REPS = 100

# A fresh interpreter imports the CLI and parses each config into a system.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from ifsdim.cli import load_config\n"
    "for path in sys.argv[2:]:\n"
    "    load_config(path)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "explore_s": "s",
    "report_s": "s",
    "query_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_width": "ratio",
    "essential_gap": "dim",
}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_share", "_yield", "_width")):
        return "ratio"
    return "count"


@dataclass
class JobResult:
    job: Job
    argv: list
    rc: object = None
    # wall seconds of each run, probe time taken out, and when each ran
    samples: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return statistics.median(self.samples)


def setup_seconds(configs: list[str], repeats: int) -> list[tuple[float, list[float]]]:
    """Wall times of fresh interpreters doing the CLI's set-up, each with
    the times of probe loops run right before and after it.

    This process is pinned to one CPU meanwhile; the children inherit the
    pinning, so they run where the probes ran.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    samples = []
    try:
        for _ in range(repeats):
            before = probe_loops(SETUP_PROBES)
            t = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), *configs],
                capture_output=True,
                text=True,
                timeout=120,
            )
            wall = perf_counter() - t
            if proc.returncode != 0:
                raise RuntimeError("set-up failed: " + proc.stderr.strip())
            samples.append((wall, before + probe_loops(SETUP_PROBES)))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def run_job(main, argv: list[str], tracer, probe) -> tuple[object, str, float, tuple]:
    """Exit code, stdout, wall seconds without probe time, and the
    (start, end) interval of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span("job") if tracer else contextlib.nullcontext():
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, failure = None, traceback.format_exc()
    end = perf_counter()
    probe_s = sum(probe.within([(start, end)])) if probe else 0.0
    if failure:
        print(failure, file=sys.stderr)
    return rc, out.getvalue(), end - start - probe_s, (start, end)


def run_pass(main, jobs: list[Job], configs: dict, tmp: Path, reference, tracer=None, probe=None):
    """Run one pass of `jobs`; their facts are checked when `reference` is given.

    Untraced, a job shorter than MIN_JOB_S is repeated: in place until its
    runs add up to half of MIN_JOB_S, and again at the end of the pass
    until they add up to MIN_JOB_S.  Its time is the median of all its
    runs, which sit in two stretches of the machine's speed drift.  An
    explore job deletes its cache before each run, so it stays cold.
    Traced, every job runs once, so the layer counts describe one pass.
    """
    cache_dir = Path(tempfile.mkdtemp(dir=tmp))
    results = []

    def repeat(r: JobResult, until: float) -> tuple[object, str]:
        rc = stdout = None
        gc.collect()
        while not r.samples or (tracer is None and sum(r.samples) < until and len(r.samples) < MAX_REPS):
            if r.job.kind == "explore":
                (cache_dir / f"{r.job.system}.json").unlink(missing_ok=True)
            rc, stdout, seconds, interval = run_job(main, r.argv, tracer, probe)
            r.samples.append(seconds)
            r.intervals.append(interval)
        return rc, stdout

    for i, job in enumerate(jobs):
        argv = list(job.args) + ["--config", configs[job.system]]
        if job.cache:
            argv += ["--cache", str(cache_dir / f"{job.system}.json")]
        json_path = cache_dir / f"job{i}.json"
        if job.json:
            argv += ["--json", str(json_path)]
        if tracer:
            tracer.job = job.id
        r = JobResult(job, argv)
        r.rc, stdout = repeat(r, MIN_JOB_S / 2)
        json_text = json_path.read_text(encoding="utf-8") if json_path.exists() else None
        try:
            r.facts = job_facts(job.args, r.rc, stdout, json_text)
        except (KeyError, TypeError, ValueError) as exc:
            r.facts = {"exit": r.rc, "discrete": {}, "enclosures": {}, "walks": None}
            r.problems.append(f"unreadable output: {exc!r}")
        if reference is not None:
            if job.id in reference:
                r.problems += compare(reference[job.id], r.facts)
            else:
                r.problems.append("no reference")
        for problem in r.problems:
            print(f"FAIL {job.id}: {problem}", file=sys.stderr)
        results.append(r)
    for r in results:
        repeat(r, MIN_JOB_S)
    shutil.rmtree(cache_dir)
    return results


def pass_summary(results: list[JobResult], probe: SpeedProbe | None = None) -> dict:
    """Per-kind time sums of one pass, in wall seconds (`wall.*`) and, given
    the probe that ran during it, in reference-speed seconds."""
    summary = {"wall_s": sum(r.wall for r in results)}
    for kind in ("explore", "report", "query"):
        jobs = [r for r in results if r.job.kind == kind]
        summary[f"wall.{kind}_s"] = sum(r.wall for r in jobs)
        if probe is not None:
            summary[f"{kind}_s"] = sum(
                reference_seconds(r.wall, probe.within(r.intervals, PROBE_MARGIN_S) or probe.durations)
                for r in jobs
            )
    summary["max_rel_width"] = max(max_rel_width(r.facts) for r in results)
    summary["essential_gap"] = sum(essential_gap(r.facts) for r in results)
    return summary


def run_passes(main, workload, rng, configs, tmp, reference, seconds, probe=None, traced=False):
    """Passes until `seconds` have gone by (at least one)."""
    from tracer import Tracer

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        tracer = Tracer() if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            results = run_pass(main, pass_jobs(workload, rng), configs, tmp, reference, tracer, probe)
        passes.append((results, tracer))
    return passes


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_of(summaries: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in summaries)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ifsdim" / "cli.py").is_file():
        print(f"perfbench: no ifsdim sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    probe = SpeedProbe()
    try:
        configs = write_configs(args.workload, tmp)
        machine = machine_info()
        machine["fraction_kernel_s_start"] = fraction_kernel_s()
        setup = setup_seconds(list(configs.values()), SETUP_REPEATS // 2)

        from ifsdim.cli import load_config, main as cli_main

        for path in configs.values():  # lazy imports and first-use costs
            load_config(path)
        rng = random.Random(args.seed)
        with probe.running():
            runs = [run_passes(cli_main, args.workload, rng, configs, tmp, reference, args.seconds, probe)]
        setup += setup_seconds(list(configs.values()), SETUP_REPEATS // 2)
        if args.trace:
            runs.append(run_passes(cli_main, args.workload, rng, configs, tmp, reference, args.seconds, traced=True))
        machine["fraction_kernel_s_end"] = fraction_kernel_s()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [pass_summary(results, probe) for results, _ in runs[0]]
    all_results = [r for passes in runs for results, _ in passes for r in results]
    failed = sum(bool(r.problems) for r in all_results)
    attempted = len(all_results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = {
        "wall.setup_s": statistics.median(w for w, _ in setup),
        "wall.explore_s": median_of(untraced, "wall.explore_s"),
        "wall.report_s": median_of(untraced, "wall.report_s"),
        "wall.query_s": median_of(untraced, "wall.query_s"),
        "machine.probe_s": statistics.fmean(probe.durations),
    }

    if args.trace:
        traced = runs[1]
        per_pass = [tracer.layer_metrics() for _, tracer in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = median_of(
            [pass_summary(results) for results, _ in traced], "wall_s"
        ) - median_of(untraced, "wall_s")
        values.update(wall)
        metrics = {name: metric(v, layer_unit(name)) for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(reference_seconds(w, probes) for w, probes in setup),
            "explore_s": median_of(untraced, "explore_s"),
            "report_s": median_of(untraced, "report_s"),
            "query_s": median_of(untraced, "query_s"),
            "peak_rss_mb": peak_rss_mb,
            "max_rel_width": max(s["max_rel_width"] for s in untraced),
            "essential_gap": median_of(untraced, "essential_gap"),
        }
        metrics = {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_samples": setup,
        "wall": wall,
        "passes": [
            [[r.job.id, r.job.kind, r.rc, r.wall, len(r.samples), r.problems] for r in results]
            for passes in runs
            for results, _ in passes
        ],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = {
            "spans": [tracer.span_records() for _, tracer in runs[1]],
            "self_s": [tracer.self_times() for _, tracer in runs[1]],
        }
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    print(
        f"workload {args.workload}, seed {args.seed}: {len(runs[0])} untraced pass(es), "
        f"{attempted} jobs, failed_share {failed / attempted:g} ({failed}/{attempted})"
    )
    print(
        "machine: {nproc} cpus, {cpu_model}, Python {python}, Fraction kernel "
        "{fraction_kernel_s_start:.3f} s at start, {fraction_kernel_s_end:.3f} s at end".format(**machine)
    )
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in wall.items():
            print(f"  {name:28s} {value:.6g} s (not scaled)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
