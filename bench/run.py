"""The invcat benchmark: pinned, seed-generated jobs run end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it builds nothing and uses the invcat sources in the
``src/`` directory beside this one.  The seed only generates the job file
and its oracle (see workloads.py); the program sees the job file alone.

--trace 0 measures what a user sees.  One client runs ``python -m
invcat.cli compute`` processes one after another (a closed loop, one
process at a time) within S seconds and checks every report against the
oracle.  Before each of them, set-up is timed in a separate fresh
interpreter.  A run or round is started only while one of typical length
still fits in S.

--trace 1 measures the layers.  A count pass in a fresh interpreter gives
exact call counts, then, within the same S seconds, each round runs one
untraced compute process, one untraced in-process pipeline and one traced
in-process pipeline (alternating which of the two goes first), and checks
that the traced report equals the untraced one apart from timing.  Spans
are written to .bench_work/traces/.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, check_report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_CODE = """\
import sys
import invcat
from invcat.jobs import load_job
from invcat.action import close_group
close_group(load_job(sys.argv[1]).action)
print("ready", flush=True)
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def compute_argv(job_path: Path, out_path: Path) -> list[str]:
    return [sys.executable, "-m", "invcat.cli", "compute",
            "--input", str(job_path), "--out", str(out_path)]


def time_setup(job_path: Path) -> float:
    """Seconds from launching a fresh interpreter to a parsed job and a closed group."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(job_path)],
                          env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def run_cli(job_path: Path, out_path: Path, oracle: dict) -> dict:
    """One untraced compute process: wall, cpu and peak RSS, and what was wrong."""
    if out_path.exists():
        out_path.unlink()
    start = perf_counter()
    proc = subprocess.Popen(compute_argv(job_path, out_path), env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    try:
        report = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        problems.append("missing or unreadable report")
    else:
        problems += check_report(report, oracle)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "problems": problems,
    }


def tail_percentile(values):
    """(p, value) for the highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(values) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile has 10 samples beyond it"
    return f"median of n={len(values)}, {tail_text}"


def fits(deadline: float, durations) -> bool:
    """Whether one more step of the typical duration ends before the deadline."""
    return perf_counter() + statistics.median(durations) <= deadline


def end_to_end(job_path: Path, out_path: Path, oracle: dict, seconds: float):
    time_setup(job_path)  # warms the bytecode cache; users pay that once, not per call
    setup, runs = [], []
    deadline = perf_counter() + seconds
    # one set-up launch per compute run, so both medians cover the same stretch of time
    while not runs or fits(deadline, [s + r["wall"] for s, r in zip(setup, runs)]):
        setup.append(time_setup(job_path))
        runs.append(run_cli(job_path, out_path, oracle))
    walls = [r["wall"] for r in runs]
    rss = [r["rss_mb"] for r in runs]
    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    details = {
        "wall_s": describe(walls),
        "setup_s": describe(setup),
        "peak_rss_mb": f"median of n={len(rss)}, max {max(rss):.2f}",
    }
    problems = [p for r in runs for p in r["problems"]]
    return metrics, details, len(runs), failed, problems


def in_process(job_path: Path):
    """The compute command's stages in-process: (report text, pipeline result).

    Stages are looked up on the module at call time, so installed hooks apply.
    """
    from invcat import jobs

    result = jobs.run_pipeline(jobs.load_job(str(job_path)))
    return jobs.dump_report(jobs.report_to_dict(result)), result


def without_timing(text: str) -> dict:
    report = json.loads(text)
    report.pop("timing", None)
    return report


def live_compositions(path, profiles, memo) -> int:
    """Compositions of the path whose blocks all have a nonzero irreducible subspace."""
    if path.degree == 0:
        return 1
    if path.vertices not in memo:
        memo[path.vertices] = sum(
            live_compositions(path.segment(i, path.degree), profiles, memo)
            for i in range(1, path.degree + 1)
            if profiles[path.segment(0, i)].irreducible.dim > 0
        )
    return memo[path.vertices]


def pipeline_counts(result, text: str) -> dict:
    """Sizes read off the pipeline's result; deterministic for a given job."""
    from invcat import jobs

    profiles = result.table.profiles
    checked = [p for p in profiles if p.degree <= result.freeness.verify_depth]
    compositions = sum(2 ** (p.degree - 1) for p in checked)
    memo = {}
    live = sum(live_compositions(p, profiles, memo) for p in checked)
    return {
        "engine.paths": len(profiles),
        "engine.ambient_max": max((s.space_dim for s in profiles.values()), default=0),
        "engine.ambient_sum": sum(s.space_dim for s in profiles.values()),
        "engine.fixed_dim_sum": sum(s.fixed.dim for s in profiles.values()),
        "engine.compositions": compositions,
        "engine.live_chain_ratio": live / compositions if compositions else 0.0,
        "category.checked_paths": result.freeness.checked_paths,
        "category.generators": len(result.report.generators),
        "action.group_size": len(result.elements),
        # the timing block's digits vary from run to run, so it is left out
        "jobs.report_bytes": len(jobs.dump_report(without_timing(text)).encode("utf-8")),
    }


def count_pass(job_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "counts.py"), str(SRC), str(job_path)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"count pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def traced(job_path: Path, out_path: Path, oracle: dict, seconds: float, trace_path: Path,
           hooks=spans.HOOKS):
    deadline = perf_counter() + seconds
    problems = []
    attempted = failed = 0
    try:
        counts = count_pass(job_path)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        counts = {}
        problems.append(str(err))
        attempted += 1
        failed += 1
    rounds = []
    tracers = []
    absent = set()
    table_counts = None
    round_times = []
    while not rounds or fits(deadline, round_times):
        round_start = perf_counter()
        i = len(rounds)
        cli = run_cli(job_path, out_path, oracle)
        tracer = spans.Tracer(run_id=i)
        for side in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if side == "traced":
                with spans.traced_hooks(tracer, hooks) as absent_here, tracer.span("pipeline"):
                    text_traced, _ = in_process(job_path)
                absent |= absent_here
            else:
                t0 = perf_counter()
                text_plain, result = in_process(job_path)
                untraced_s = perf_counter() - t0
        traced_problems = check_report(json.loads(text_traced), oracle)
        if without_timing(text_plain) != without_timing(text_traced):
            traced_problems.append("traced report differs from the untraced report")
        for report_problems in (cli["problems"],
                                check_report(json.loads(text_plain), oracle),
                                traced_problems):
            attempted += 1
            failed += bool(report_problems)
            problems += report_problems
        if table_counts is None:
            try:
                table_counts = pipeline_counts(result, text_plain)
            except AttributeError as err:
                table_counts = {}
                print(f"warning: pipeline counts absent: {err}", file=sys.stderr)
        span_metrics = tracer.metrics(absent)
        span_metrics["cli.cpu_s"] = cli["cpu"]
        span_metrics["cli.wait_s"] = cli["wall"] - cli["cpu"]
        span_metrics["trace.overhead_ratio"] = span_metrics["trace.pipeline_s"] / untraced_s
        rounds.append(span_metrics)
        tracers.append(tracer)
        round_times.append(perf_counter() - round_start)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            tracer.write_jsonl(fh)

    names = set.intersection(*(set(r) for r in rounds))
    metrics = {name: statistics.median(r[name] for r in rounds) for name in names}
    metrics.update(counts)
    metrics.update(table_counts)
    details = {name: f"median of n={len(rounds)} rounds" for name in names}
    details.update({name: "count pass" for name in counts})
    details.update({name: "from the pipeline result" for name in table_counts})
    for key in sorted(absent):
        print(f"warning: hook for span {key} is absent; its metrics are left out", file=sys.stderr)
    return metrics, details, attempted, failed, problems


def src_line_count() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "invcat").rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "invcat" / "__init__.py").is_file():
        print(f"error: no invcat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    instance = workload.instance(args.seed)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"instance: {instance.note}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"src/ lines {src_line_count()}")

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(instance.job, indent=1), encoding="utf-8")
        out_path = run_dir / "report.json"
        if args.trace:
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
            measured = traced(job_path, out_path, instance.oracle, args.seconds, trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            measured = end_to_end(job_path, out_path, instance.oracle, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    values, details, attempted, failed, problems = measured

    for problem in sorted(set(problems)):
        print(f"FAILED: {problem}")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            print(f"{name:<26} absent")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<26} {values[name]:<14.6g} {unit:<6} {details.get(name, '')}")
    print(f"{'fail_rate':<26} {failed / attempted:<14.6g} {'ratio':<6} "
          f"{failed} of {attempted} runs failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
