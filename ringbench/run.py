"""Run one workload of the deltaring benchmark and print its metrics.

    python3 ringbench/run.py --workload corpus_verify --seed 1 --seconds 20 --trace 0

A single-process closed loop with one client.  Each job calls
``deltaring.cli.main(argv)`` in process, with stdout captured, for every
call of the workload (see workloads.py).  One untimed warm-up job comes
first, and ``gc.collect()`` runs outside the timed window before each
job.  Jobs repeat until ``--seconds`` have passed and at least eleven
jobs are done, so a tail percentile with ten samples beyond it exists.
Every call's exit code and stdout are compared byte for byte with the
references in refs/; a mismatch, an unexpected exit or an exception
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with staged replays (replay.py) and reports per-layer
metrics instead; end-to-end numbers never come from a traced run.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A result
file with the run context, every sample and (when traced) every span is
written under .ringbench_work/results/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import common
import workloads

MIN_JOBS = common.TAIL_BEYOND + 1
SETUP_SAMPLES = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import deltaring.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {  # name -> unit
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Stage spans whose self time is reported as <name>.ms per job.
LAYER_SPANS = (
    "ringspec.parse",
    "constructions.build",
    "kernel.validate_ring",
    "analysis.units",
    "analysis.idempotents",
    "analysis.nilpotents",
    "analysis.center",
    "analysis.jacobson_radical",
    "analysis.delta",
    "analysis.qnil",
    "analysis.delta_alternative_forms",
    "classify.element_flags.delta",
    "classify.element_flags.jacobson",
    "classify.element_flags.unit",
    "classify.element_flags.quasipolar",
    "classify.clean_flags",
    "classify.is_strongly_pi_regular",
    "classify.is_local",
    "classify.classification_report",
    "classify.spectral_idempotents",
    "harness.C08",
    "harness.C09",
    "harness.C18",
    "harness.C19",
    "harness.C21",
    "harness.C24",
    "harness.C28",
    "harness.C31",
    "harness.other_checks",
    "cli.render",
)
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in LAYER_SPANS},
    "cli.self.ms": "ms",
    "cli.output_bytes": "bytes",
    "ringspec.cache_hit_ratio": "ratio",
    "ringspec.cache_lookups": "count",
    "constructions.build.peak_mb": "MB",
    "kernel.validate_ring.peak_mb": "MB",
    "classify.element_flags.delta.peak_mb": "MB",
    "harness.pool_speedup": "ratio",
    "harness.run_suite.jobs1.ms": "ms",
    "harness.run_suite.default.ms": "ms",
    "trace.overhead": "ratio",
    "trace.traced_jobs": "count",
}


class Run:
    """One run's calls, references and operation counts."""

    def __init__(self, calls, refs):
        self.calls = calls
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outputs) -> None:
        """Count and compare one job's (exit code, stdout) pairs."""
        for call, (code, stdout) in zip(self.calls, outputs, strict=True):
            self.attempted += 1
            if code is None:
                problem = f"{call.key}: raised {stdout.strip().splitlines()[-1]}"
            else:
                problem = common.diff_output(call.key, self.refs.get(call.key), code, stdout)
            if problem is not None:
                self.failed += 1
                self.problems.append(problem)


def cli_job(cli, calls) -> list[tuple]:
    outputs = []
    for call in calls:
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli.main(list(call.argv))
        except Exception:
            code, stdout = None, io.StringIO(traceback.format_exc())
        outputs.append((code, stdout.getvalue()))
    return outputs


def traced_job(replay, calls, tracer, job_id: int) -> list[tuple]:
    tracer.job = job_id
    tracer.caches = []
    outputs = []
    with tracer.span("job"):
        for call in calls:
            try:
                outputs.append(replay.replay(call.argv, tracer))
            except Exception:
                outputs.append((None, traceback.format_exc()))
    return outputs


def timed(fn):
    """(wall s, process CPU s over all threads, result) of fn(), after a
    collection outside the timed window."""
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return time.perf_counter() - wall, time.process_time() - cpu, result


def closed_loop(seconds: float, min_rounds: int, round_fn) -> None:
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        round_fn()
        rounds += 1


def setup_seconds() -> list[float]:
    """Import time of deltaring.cli in fresh interpreters; one untimed
    import first writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(common.SRC), env.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=common.ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=60,
        )
        samples.append(float(done.stdout.strip()))
    return samples[1:]


def end_to_end(cli, run: Run, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    run.check(cli_job(cli, run.calls))  # warm-up, untimed
    walls, cpus = [], []

    def one_job():
        wall, cpu, outputs = timed(lambda: cli_job(cli, run.calls))
        walls.append(wall)
        cpus.append(cpu)
        run.check(outputs)

    closed_loop(seconds, MIN_JOBS, one_job)
    tail_value, tail_pct = common.tail(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "job_s.p50": (common.median(walls), f"n={len(walls)}"),
        "job_s.tail": (tail_value, f"p{tail_pct:.1f}, n={len(walls)}"),
        "cpu_s.p50": (common.median(cpus), f"n={len(cpus)}"),
        "peak_rss_mb": (rss_mb, "process high-water mark"),
        "setup_s": (common.median(setup), f"n={len(setup)}"),
    }
    return metrics, {"job_s": walls, "cpu_s": cpus, "setup_s": setup}


def per_layer(cli, run: Run, workload: str, seconds: float) -> tuple[dict, dict]:
    import replay
    from deltaring import harness

    memory = replay.Tracer(memory=True)
    run.check(traced_job(replay, run.calls, memory, 0))  # warm-up, untimed
    tracer = replay.Tracer()
    untraced, traced, lookups, hits, out_bytes = [], [], [], [], []
    suite_walls: dict[int | None, list[float]] = {1: [], None: []}
    corpus_ref = run.refs.get("verify")

    def suite(jobs):
        entries = harness.build_corpus()
        wall, _, report = timed(lambda: harness.run_suite(entries, jobs=jobs))
        suite_walls[jobs].append(wall)
        text = json.dumps(report.to_dict(), indent=2) + "\n"
        run.attempted += 1
        problem = common.diff_output(f"run_suite(jobs={jobs})", corpus_ref, 0, text)
        if problem is not None:
            run.failed += 1
            run.problems.append(problem)

    def one_round():
        wall, _, outputs = timed(lambda: cli_job(cli, run.calls))
        untraced.append(wall)
        run.check(outputs)
        job_id = len(traced) + 1
        wall, _, outputs = timed(lambda: traced_job(replay, run.calls, tracer, job_id))
        traced.append(wall)
        lookups.append(sum(c.lookups for c in tracer.caches))
        hits.append(sum(c.hits for c in tracer.caches))
        out_bytes.append(sum(len(text.encode()) for code, text in outputs if code is not None))
        run.check(outputs)
        if workload == "corpus_verify":
            suite(1)
            suite(None)

    closed_loop(seconds, 1, one_round)

    per_job = [replay.self_times(tracer.spans, job) for job in range(1, len(traced) + 1)]

    def median_ms(names) -> float:
        return common.median([sum(t.get(n, 0.0) for n in names) * 1000.0 for t in per_job])

    metrics = {f"{name}.ms": (median_ms([name]), "") for name in LAYER_SPANS}
    metrics["cli.self.ms"] = (median_ms(replay.FRAME_SPANS), "job wall minus layer spans")
    metrics["cli.output_bytes"] = (common.median(out_bytes), "")
    ratios = [h / n if n else 0.0 for h, n in zip(hits, lookups)]
    metrics["ringspec.cache_hit_ratio"] = (
        common.median(ratios), f"hits {common.median(hits):g} / lookups {common.median(lookups):g}"
    )
    metrics["ringspec.cache_lookups"] = (common.median(lookups), "")
    for name in replay.MEMORY_SPANS:
        metrics[f"{name}.peak_mb"] = (memory.peaks.get(name, 0) / 2**20, "tracemalloc peak")
    if suite_walls[1]:
        jobs1, default = common.median(suite_walls[1]), common.median(suite_walls[None])
        metrics["harness.pool_speedup"] = (
            jobs1 / default, f"{jobs1 * 1000:.0f} ms at jobs=1 / {default * 1000:.0f} ms default"
        )
    else:
        jobs1 = default = 0.0
        metrics["harness.pool_speedup"] = (0.0, "not measured: no verify on the corpus")
    metrics["harness.run_suite.jobs1.ms"] = (jobs1 * 1000.0, f"n={len(suite_walls[1])}")
    metrics["harness.run_suite.default.ms"] = (default * 1000.0, f"n={len(suite_walls[None])}")
    metrics["trace.overhead"] = (
        common.median(traced) / common.median(untraced), f"traced {common.median(traced):.3f} s "
        f"/ untraced {common.median(untraced):.3f} s"
    )
    metrics["trace.traced_jobs"] = (len(traced), "")
    samples = {
        "untraced_job_s": untraced,
        "traced_job_s": traced,
        "run_suite_jobs1_s": suite_walls[1],
        "run_suite_default_s": suite_walls[None],
        "self_times_s": per_job,
        "memory_peaks_bytes": memory.peaks,
        "spans": tracer.spans,
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ringbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.use_source_tree()
        refs = common.load_refs(args.workload)
    except common.BenchError as exc:
        print(f"ringbench: {exc}", file=sys.stderr)
        return 2
    from deltaring import cli

    workdir = common.WORK_DIR / "manifests"
    workloads.write_manifests(workdir)
    calls = workloads.job_calls(args.workload, args.seed, workdir)
    run = Run(calls, {c.key: refs.get(c.key) for c in calls})
    del refs
    gc.collect()

    ticks = common.cpu_ticks()
    started = time.time()
    if args.trace:
        metrics, samples = per_layer(cli, run, args.workload, args.seconds)
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(cli, run, args.seconds)
        units = END_TO_END
    context = common.run_context()
    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        started=started,
        wall_s=time.time() - started,
        steal_share=common.steal_share(ticks, common.cpu_ticks()),
        gather_probe_ms=common.gather_probe_ms(),
    )

    results = common.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "context": context,
        "calls": [c.key for c in calls],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "samples": samples,
    }))

    print(f"ringbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(calls)} calls per job, {run.attempted} attempted, {run.failed} failed")
    print(f"  context: {json.dumps(context)}")
    for problem in run.problems[:5]:
        print(f"  FAILED {problem}")
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    print(f"  result file: {out.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name][0]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
