"""The demo scripts and the ready-made job files in demos/ run cleanly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invcat import category
from invcat.cli import main
from invcat.engine import verify_decomposition
from invcat.jobs import dump_report, load_job, report_to_dict, run_pipeline

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
# one report per demo input, timing dropped, and the stdout of each demo
# script; rewrite one only on purpose, when a change is meant to alter it
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_runs(script):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "demos" / script).with_suffix(".txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("job", sorted(p.name for p in (DEMOS / "inputs").glob("*.json")))
def test_demo_job_computes(job, tmp_path, monkeypatch):
    # on a passing run the freeness certificate suffices:
    # verify_decomposition runs only to explain a failing path
    calls = []

    def counted(path, table):
        calls.append(path)
        return verify_decomposition(path, table)

    monkeypatch.setattr(category, "verify_decomposition", counted)
    out = tmp_path / "report.json"
    assert main(["compute", "--input", str(DEMOS / "inputs" / job), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["freeness"]["holds"] is True
    assert calls == []


@pytest.mark.parametrize("job", sorted(p.name for p in (DEMOS / "inputs").glob("*.json")))
def test_demo_job_report_matches_golden(job):
    # reports must stay byte-identical apart from the timing block
    data = report_to_dict(run_pipeline(load_job(str(DEMOS / "inputs" / job))))
    del data["timing"]
    assert dump_report(data) == (GOLDEN / job).read_text(encoding="utf-8")


# the other inputs have an arrow space of dimension 2
SCHURIAN_INPUTS = {"crown3.json", "sign_line_f5.json"}


@pytest.mark.parametrize("job", sorted(p.name for p in (DEMOS / "inputs").glob("*.json")))
def test_demo_job_schurian_check(job, tmp_path, capsys):
    # compute diffs the character fast path against the general engine
    # exactly when every arrow space is a line, and prints the verdict
    out = tmp_path / "report.json"
    assert main(["compute", "--input", str(DEMOS / "inputs" / job), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    check = json.loads(out.read_text())["schurian_check"]
    if job in SCHURIAN_INPUTS:
        assert check["agrees"] is True and "\ncharacter cross-check: agrees\n" in printed, printed
    else:
        assert check is None and "character cross-check" not in printed, printed


def test_demos_found():
    # an empty glob would parametrize the tests above away without failing
    assert list(DEMOS.glob("*.py")) and list((DEMOS / "inputs").glob("*.json"))
