"""Tests of the benchmark itself, on tiny-degree variants of the workloads.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY_DEGREE = {"swap-loop-f2": 4, "s3-words-q": 3, "mesh-cyclo": 4}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TAMPER = """\
import json, sys
from invcat.cli import main
job, out = sys.argv[1], sys.argv[2]
code = main(["compute", "--input", job, "--out", out])
with open(out) as fh:
    report = json.load(fh)
key = sorted(report["hom_series"])[0]
report["hom_series"][key][0] += 1
with open(out, "w") as fh:
    json.dump(report, fh)
sys.exit(code)
"""


@pytest.fixture
def work_dir():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name, work_dir, seed=7):
    instance = WORKLOADS[name].instance(seed, max_degree=TINY_DEGREE[name])
    job_path = work_dir / f"{name}.json"
    job_path.write_text(json.dumps(instance.job), encoding="utf-8")
    return instance, job_path, work_dir / f"{name}.report.json"


def test_oracles_match_the_closed_forms():
    swap = WORKLOADS["swap-loop-f2"].instance(1).oracle
    assert swap["hom_series"]["v<-v"] == [1] + [2 ** (d - 1) for d in range(1, 9)]
    assert [m for _, m in swap["generators"]] == [1] * 8
    s3 = WORKLOADS["s3-words-q"].instance(1).oracle
    assert s3["hom_series"]["v<-v"] == [1, 1, 2, 5, 14, 41]
    assert [m for _, m in s3["generators"]] == [1, 1, 2, 5, 13]


def test_seed_makes_the_job():
    for workload in WORKLOADS.values():
        assert workload.instance(11).job == workload.instance(11).job
    s3 = WORKLOADS["s3-words-q"]
    assert len({json.dumps(s3.instance(seed).job) for seed in range(8)}) > 1
    swap = WORKLOADS["swap-loop-f2"]
    assert swap.instance(1).job == swap.instance(2).job


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_end_to_end(name, work_dir):
    instance, job_path, out_path = tiny(name, work_dir)
    metrics, _, attempted, failed, problems = run.end_to_end(job_path, out_path, instance.oracle, 0)
    assert (attempted, failed, problems) == (1, 0, [])
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced(name, work_dir):
    instance, job_path, out_path = tiny(name, work_dir)
    metrics, _, attempted, failed, problems = run.traced(
        job_path, out_path, instance.oracle, 0, work_dir / "trace.jsonl")
    assert (attempted, failed, problems) == (3, 0, [])
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert (work_dir / "trace.jsonl").stat().st_size > 0


def test_tampered_report_raises_fail_rate(work_dir, monkeypatch):
    instance, job_path, out_path = tiny("mesh-cyclo", work_dir)
    monkeypatch.setattr(run, "compute_argv",
                        lambda job, out: [sys.executable, "-c", TAMPER, str(job), str(out)])
    _, _, attempted, failed, problems = run.end_to_end(job_path, out_path, instance.oracle, 0)
    assert (attempted, failed) == (1, 1)
    assert problems == ["hom_series differs from the oracle"]


def test_check_report_flags_failed_verdicts(work_dir):
    instance, job_path, out_path = tiny("mesh-cyclo", work_dir)
    assert run.run_cli(job_path, out_path, instance.oracle)["problems"] == []
    report = json.loads(out_path.read_text(encoding="utf-8"))
    report["freeness"]["holds"] = False
    report["schurian_check"]["agrees"] = False
    report["generators"][0]["multiplicity"] = 2
    assert check_report(report, instance.oracle) == [
        "freeness.holds is not true",
        "schurian_check.agrees is not true",
        "generators differ from the oracle",
    ]


def test_self_times_sum_to_parent_duration(work_dir):
    _, job_path, _ = tiny("swap-loop-f2", work_dir)
    tracer = spans.Tracer(run_id=0)
    with spans.traced_hooks(tracer) as absent, tracer.span("pipeline"):
        run.in_process(job_path)
    assert not absent
    assert tracer.names[0] == "pipeline" and len(tracer.names) > 10
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    self_times = tracer.self_times()
    subtree = list(self_times)
    for i in reversed(range(1, len(tracer.names))):
        parent = tracer.parents[i]
        assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
        subtree[parent] += subtree[i]
    for i in range(len(tracer.names)):
        assert subtree[i] == pytest.approx(duration[i], abs=1e-9)
        assert self_times[i] >= 0


def test_renamed_hook_target_reports_its_metric_absent(work_dir):
    instance, job_path, out_path = tiny("s3-words-q", work_dir)
    hooks = tuple(
        (key, module, "Matrix.nullspace" if attr == "Matrix.kernel" else attr)
        for key, module, attr in spans.HOOKS
    )
    metrics, _, _, failed, _ = run.traced(
        job_path, out_path, instance.oracle, 0, work_dir / "trace.jsonl", hooks=hooks)
    assert failed == 0
    for gone in ("linalg.kernel_s", "linalg.self_s", "engine.profiles_self_s"):
        assert gone not in metrics
    assert metrics["engine.profiles_s"] > 0
    assert metrics["category.freeness_s"] > 0


def test_counts_repeat_exactly(work_dir):
    for name in ("swap-loop-f2", "mesh-cyclo"):
        _, job_path, _ = tiny(name, work_dir)
        seen = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "counts.py"), str(run.SRC), str(job_path)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, check=True,
            )
            seen.append(json.loads(proc.stdout))
        assert seen[0] == seen[1]
        assert seen[0]["fields.calls"] > 0 and seen[0]["linalg.rref_calls"] > 0


def test_count_metrics_repeat_between_traced_runs(work_dir):
    instance, job_path, out_path = tiny("mesh-cyclo", work_dir)
    exact = [m["name"] for m in DECLARED["per_layer"] if not m["name"].endswith("_s")
             and m["name"] != "trace.overhead_ratio"]
    first, second = (
        run.traced(job_path, out_path, instance.oracle, 0, work_dir / "trace.jsonl")[0]
        for _ in range(2)
    )
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(1, 21))) == (50, 10)
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)


def test_fails_without_the_program(work_dir):
    lone = work_dir / "lone"
    shutil.copytree(BENCH, lone / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "swap-loop-f2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
