import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invcat.category import verify_freeness
from invcat.cli import main
from invcat.fields import MAX_CYCLOTOMIC_ORDER, PRIME_LIMIT, RationalField
from invcat.jobs import ParseError, parse_job, run_pipeline

DEMO_INPUTS = Path(__file__).resolve().parent.parent / "demos" / "inputs"


CROWN3 = {
    "field": {"kind": "cyclotomic", "n": 3},
    "quiver": {
        "vertices": ["t0", "t1", "t2"],
        "arrows": [
            {"source": "t0", "target": "t1", "dim": 1},
            {"source": "t1", "target": "t2", "dim": 1},
            {"source": "t2", "target": "t0", "dim": 1},
        ],
    },
    "action": {
        "generators": [
            {
                "name": "t",
                "matrices": {"t1<-t0": [["z"]], "t2<-t1": [["z"]], "t0<-t2": [["z"]]},
            }
        ]
    },
    "options": {"max_degree": 6},
}

KRONECKER_TRIVIAL = {
    "field": {"kind": "rationals"},
    "quiver": {
        "vertices": ["x", "y"],
        "arrows": [{"source": "x", "target": "y", "dim": 2}],
    },
    "action": {"generators": []},
    "options": {"max_degree": 2},
}


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def without_timing(text):
    data = json.loads(text)
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True)


def test_compute_crown(tmp_path, capsys):
    job = write_job(tmp_path, CROWN3)
    out = tmp_path / "report.json"
    assert main(["compute", "--input", job, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "generators up to degree 6: 3" in stdout
    assert "freeness: holds" in stdout
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    assert report["group_size"] == 3
    assert len(report["generators"]) == 3
    assert report["completeness"]["status"] == "certified"
    assert report["invariant_classification"]["components"] == ["A~0", "A~0", "A~0"]
    assert report["invariant_classification"]["certified"] is True
    assert report["schurian_check"]["agrees"] is True
    assert report["hom_series"]["t0<-t0"] == [1, 0, 0, 1, 0, 0, 1]


def test_compute_is_deterministic(tmp_path):
    job = write_job(tmp_path, CROWN3)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["compute", "--input", job, "--out", str(out1)]) == 0
    assert main(["compute", "--input", job, "--out", str(out2)]) == 0
    assert without_timing(out1.read_text()) == without_timing(out2.read_text())


def test_kronecker_outcome(tmp_path):
    job = write_job(tmp_path, KRONECKER_TRIVIAL)
    out = tmp_path / "report.json"
    assert main(["compute", "--input", job, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["invariant_classification"]["components"] == ["A~1"]
    assert report["invariant_classification"]["overall"] == "tame"


def test_job_echo_round_trips(tmp_path):
    # one job per field kind, with every option set by its flag
    options = {"max_degree": 3, "verify_depth": 2, "path_cap": 500, "group_cap": 64}
    flags = ["--max-degree", "3", "--verify-depth", "2", "--path-cap", "500", "--group-cap", "64"]
    for data in (KRONECKER_TRIVIAL, CROWN3, SWAP_F2):
        job_path = write_job(tmp_path, data)
        out = tmp_path / "report.json"
        assert main(["compute", "--input", job_path, "--out", str(out), *flags]) == 0
        report = json.loads(out.read_text())
        assert report["job"]["options"] == options
        echoed = parse_job(report["job"])
        original = parse_job(data, options)
        assert echoed.quiver == original.quiver
        assert echoed.field == original.field
        assert [getattr(echoed, key) for key in options] == list(options.values())
        assert echoed.action.generator_elements == original.action.generator_elements


def test_malformed_matrix_dimensions(tmp_path, capsys):
    bad = json.loads(json.dumps(KRONECKER_TRIVIAL))
    bad["action"]["generators"] = [
        {"name": "s", "matrices": {"y<-x": [["1", "0"]]}}  # 1x2, should be 2x2
    ]
    job = write_job(tmp_path, bad)
    out = tmp_path / "report.json"
    assert main(["compute", "--input", job, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "y<-x" in err
    assert not out.exists()


def test_unknown_vertex_in_arrows(tmp_path, capsys):
    bad = json.loads(json.dumps(KRONECKER_TRIVIAL))
    bad["quiver"]["arrows"][0]["target"] = "zz"
    job = write_job(tmp_path, bad)
    assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 1
    assert "unknown vertex" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": }', encoding="utf-8")
    assert main(["compute", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_missing_file(tmp_path, capsys):
    assert main(["compute", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_classify_command(tmp_path, capsys):
    a4 = {
        "field": {"kind": "rationals"},
        "quiver": {
            "vertices": ["u0", "u1", "u2", "u3"],
            "arrows": [
                {"source": "u0", "target": "u1", "dim": 1},
                {"source": "u1", "target": "u2", "dim": 1},
                {"source": "u2", "target": "u3", "dim": 1},
            ],
        },
    }
    assert main(["classify", "--input", write_job(tmp_path, a4)]) == 0
    assert "overall: finite" in capsys.readouterr().out

    star5 = {
        "quiver": {
            "vertices": ["c", "a1", "a2", "a3", "a4", "a5"],
            "arrows": [
                {"source": "c", "target": f"a{i}", "dim": 1} for i in range(1, 6)
            ],
        }
    }
    assert main(["classify", "--input", write_job(tmp_path, star5, "star.json")]) == 0
    assert "overall: wild" in capsys.readouterr().out

    cycle = {
        "quiver": {
            "vertices": ["t0", "t1", "t2"],
            "arrows": [
                {"source": "t0", "target": "t1", "dim": 1},
                {"source": "t1", "target": "t2", "dim": 1},
                {"source": "t2", "target": "t0", "dim": 1},
            ],
        }
    }
    assert main(["classify", "--input", write_job(tmp_path, cycle, "cycle.json")]) == 0
    assert "overall: tame" in capsys.readouterr().out


def test_classify_is_linear_in_vertices_plus_arrows(tmp_path, capsys):
    # 10,000 disjoint arrows: scanning every edge once per component took about 4 s
    n = 10_000
    job = {
        "quiver": {
            "vertices": [v for i in range(n) for v in (f"a{i}", f"b{i}")],
            "arrows": [{"source": f"a{i}", "target": f"b{i}", "dim": 1} for i in range(n)],
        }
    }
    path = write_job(tmp_path, job)
    start = time.perf_counter()
    assert main(["classify", "--input", path]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines() == [
        "overall: finite",
        "components: " + ", ".join(["A2"] * n),
    ]


def test_schurian_check_command(tmp_path, capsys):
    # the subcommand is gone: compute prints the same cross-check
    job = write_job(tmp_path, CROWN3)
    assert main(["schurian-check", "--input", job]) == 1
    assert "invalid choice: 'schurian-check'" in capsys.readouterr().err
    assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 0
    assert "character cross-check: agrees" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["compute", "--input", "job.json", "--out", "r.json", "--max-degree", "x"],
    ["classify", "--input", "job.json", "--max-degree", "3"],
])
def test_usage_error_exits_one(capsys, argv):
    # argparse exits 2, which this tool keeps for a falsified property
    assert main(argv) == 1
    assert "usage: invcat" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["compute", "--help"]) == 0
    assert "--group-cap" in capsys.readouterr().out


def test_usage_error_exits_one_from_the_module():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "invcat.cli", "frobnicate"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "invalid choice: 'frobnicate'" in done.stderr


def test_group_cap_error(tmp_path, capsys):
    capped = json.loads(json.dumps(CROWN3))
    capped["options"] = {"max_degree": 3, "group_cap": 2}
    job = write_job(tmp_path, capped)
    assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "closure exceeds" in err and "group-cap" in err


def test_field_validation(tmp_path, capsys):
    for field, fragment in [
        ({"kind": "cyclotomic", "n": 1}, "cyclotomic"),
        ({"kind": "prime", "p": 4}, "prime"),
        ({"kind": "gaussian"}, "unknown field kind"),
    ]:
        bad = json.loads(json.dumps(KRONECKER_TRIVIAL))
        bad["field"] = field
        job = write_job(tmp_path, bad)
        assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 1
        assert fragment in capsys.readouterr().err


def test_bad_scalar_entry_names_position(tmp_path, capsys):
    bad = json.loads(json.dumps(KRONECKER_TRIVIAL))
    bad["action"]["generators"] = [
        {"name": "s", "matrices": {"y<-x": [["1", "0"], ["0", "z"]]}}
    ]
    job = write_job(tmp_path, bad)
    assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "[1][1]" in err


def test_falsified_property_exits_two(tmp_path, monkeypatch):
    # the mathematics cannot fail, so fake a failing freeness verdict to
    # check the reserved exit code is wired through
    import invcat.jobs as jobs_module
    from invcat.category import FreenessVerdict

    def fake_verify(table, report, verify_depth=None):
        return FreenessVerdict(holds=False, verify_depth=0, checked_paths=0)

    monkeypatch.setattr(jobs_module, "verify_freeness", fake_verify)
    job = write_job(tmp_path, CROWN3)
    out = tmp_path / "r.json"
    assert main(["compute", "--input", job, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["freeness"]["holds"] is False


@pytest.mark.parametrize("drop, add, first", [
    # the engine's generator t0 -> t1 -> t2 -> t0 missing from the fast path
    ([("t0", "t1", "t2", "t0")], [], {
        "path": ["t0", "t1", "t2", "t0"], "engine_multiplicity": 1, "character_irreducible": False,
    }),
    # a degree-1 difference comes before any degree-3 one
    ([("t0", "t1", "t2", "t0")], [("t0", "t1")], {
        "path": ["t0", "t1"], "engine_multiplicity": 0, "character_irreducible": True,
    }),
    # within a degree, the path of the lower vertex indices comes first
    ([("t2", "t0", "t1", "t2"), ("t1", "t2", "t0", "t1")], [], {
        "path": ["t1", "t2", "t0", "t1"], "engine_multiplicity": 1, "character_irreducible": False,
    }),
])
def test_cross_check_mismatch_names_the_first_difference(tmp_path, capsys, monkeypatch, drop, add, first):
    import invcat.jobs as jobs_module
    from invcat.quiver import Path as QuiverPath

    real = jobs_module.schurian_generators

    def perturbed(*args):
        out = real(*args)
        for bucket in out.values():
            bucket[:] = [p for p in bucket if p not in drop]
        for p in add:
            out.setdefault((p[0], p[-1]), []).append(QuiverPath(p))
        return out

    monkeypatch.setattr(jobs_module, "schurian_generators", perturbed)
    out = tmp_path / "r.json"
    assert main(["compute", "--input", str(DEMO_INPUTS / "crown3.json"), "--out", str(out)]) == 2
    assert "character cross-check: MISMATCH" in capsys.readouterr().out
    check = json.loads(out.read_text())["schurian_check"]
    assert check == {"applicable": True, "agrees": False, "first_difference": first}


def test_duplicate_arrow_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(KRONECKER_TRIVIAL))
    bad["quiver"]["arrows"].append({"source": "x", "target": "y", "dim": 1})
    job = write_job(tmp_path, bad)
    assert main(["compute", "--input", job, "--out", str(tmp_path / "r.json")]) == 1
    assert "duplicate arrow" in capsys.readouterr().err


def test_verify_depth_defaults_to_max_degree(tmp_path):
    # the certificate costs nothing per degree, so it is read to the searched degree
    job = write_job(tmp_path, CROWN3)
    out = tmp_path / "r.json"
    assert main(["compute", "--input", job, "--out", str(out), "--max-degree", "10"]) == 0
    freeness = json.loads(out.read_text())["freeness"]
    result = run_pipeline(parse_job(CROWN3, {"max_degree": 10}))
    assert freeness["verify_depth"] == result.job.verify_depth == 10
    assert freeness["checked_paths"] == sum(result.table.path_counts) == 30
    assert verify_freeness(result.table, result.report).verify_depth == 10


def test_flag_overrides_file_options(tmp_path):
    job = write_job(tmp_path, CROWN3)
    out = tmp_path / "r.json"
    assert main(["compute", "--input", job, "--out", str(out), "--max-degree", "3"]) == 0
    report = json.loads(out.read_text())
    assert report["job"]["options"]["max_degree"] == 3
    assert len(report["hom_series"]["t0<-t0"]) == 4
    # a flag's max_degree clamps the file's verify_depth
    job = write_job(tmp_path, _with(CROWN3, ["options", "verify_depth"], 9))
    assert main(["compute", "--input", job, "--out", str(out), "--max-degree", "3"]) == 0
    assert json.loads(out.read_text())["job"]["options"]["verify_depth"] == 3


def _with(data, path, value):
    """A deep copy of a job with the item at a key path replaced."""
    out = json.loads(json.dumps(data))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _rejected(data, fragment):
    from invcat.jobs import ParseError

    try:
        parse_job(data)
    except ParseError as err:
        assert fragment in str(err), str(err)
    else:
        raise AssertionError(f"accepted {fragment}")


SWAP_F2 = {
    "field": {"kind": "prime", "p": 2},
    "quiver": {"vertices": ["v"], "arrows": [{"source": "v", "target": "v", "dim": 2}]},
    "action": {"generators": [{"name": "s", "matrices": {"v<-v": [["0", "1"], ["1", "0"]]}}]},
    "options": {"max_degree": 3},
}


def test_boolean_dim_rejected():
    bad = _with(KRONECKER_TRIVIAL, ["quiver", "arrows", 0, "dim"], True)
    _rejected(bad, "quiver.arrows[0].dim: expected int, got bool")


def test_boolean_max_degree_rejected():
    bad = _with(CROWN3, ["options", "max_degree"], True)
    _rejected(bad, "options.max_degree: expected int, got bool")


def test_boolean_verify_depth_rejected():
    bad = _with(CROWN3, ["options", "verify_depth"], True)
    _rejected(bad, "options.verify_depth: expected int, got bool")


def test_boolean_path_cap_rejected():
    bad = _with(CROWN3, ["options", "path_cap"], False)
    _rejected(bad, "options.path_cap: expected int, got bool")
    # every type check comes before any bound check
    bad = _with(_with(CROWN3, ["options", "max_degree"], -1), ["options", "path_cap"], "x")
    _rejected(bad, "options.path_cap: expected int, got str")
    # and a flag does not hide the file's value from its type check
    with pytest.raises(ParseError, match=r"^options\.path_cap: expected int, got str$"):
        parse_job(bad, {"max_degree": 3, "path_cap": 7})
    # a library caller's overrides are type-checked like the file's values,
    # before any bound check
    low = _with(CROWN3, ["options", "max_degree"], -1)
    for key, flag, kind in [("max_degree", "3", "str"), ("path_cap", 2.5, "float"), ("group_cap", True, "bool")]:
        with pytest.raises(ParseError, match=rf"^options\.{key}: expected int, got {kind}$"):
            parse_job(low, {key: flag})


def test_each_matrix_entry_is_converted_once(monkeypatch):
    calls = {"coerce": 0, "parse": 0}
    for name, method in [("coerce", RationalField.coerce), ("parse", RationalField.parse)]:
        def counted(self, value, name=name, method=method):
            calls[name] += 1
            return method(self, value)
        monkeypatch.setattr(RationalField, name, counted)
    job = {
        "field": {"kind": "rationals"},
        "quiver": {"vertices": ["v"], "arrows": [{"source": "v", "target": "v", "dim": 3}]},
        "action": {"generators": [{"matrices": {"v<-v": [[0, 1, "0"], [1, "0", 0], ["0", "0", 1]]}}]},
    }
    parse_job(job)
    # the 5 ints are coerced and the 4 strings parsed; coercing the parsed
    # matrix again, as ActionSpec does with plain rows, would make 14 coerces
    assert calls == {"coerce": 5, "parse": 4}


def test_boolean_group_cap_rejected():
    _rejected(_with(CROWN3, ["options", "group_cap"], True), "options.group_cap: expected int, got bool")


def test_boolean_cyclotomic_order_rejected():
    _rejected(_with(CROWN3, ["field", "n"], True), "field.n: expected int, got bool")


def test_boolean_prime_rejected():
    _rejected(_with(SWAP_F2, ["field", "p"], True), "field.p: expected int, got bool")


def test_boolean_matrix_entry_rejected():
    entry = ["action", "generators", 0, "matrices", "v<-v", 0, 1]
    _rejected(_with(SWAP_F2, entry, True),
              "matrices['v<-v'][0][1]: matrix entries must be strings or integers")
    assert parse_job(_with(SWAP_F2, entry, 1)).action.generator_elements


def _compute_exit(tmp_path, data, *flags):
    job = write_job(tmp_path, data)
    return main(["compute", "--input", job, "--out", str(tmp_path / "r.json"), *flags])


def _rejected_in_file_and_flag(tmp_path, capsys, key, flag, value, fragment):
    _rejected(_with(CROWN3, ["options", key], value), fragment)
    assert _compute_exit(tmp_path, CROWN3, flag, str(value)) == 1
    assert fragment in capsys.readouterr().err


def test_negative_verify_depth_rejected(tmp_path, capsys):
    _rejected_in_file_and_flag(tmp_path, capsys, "verify_depth", "--verify-depth", -3,
                               "options.verify_depth: must be at least 0, got -3")


def test_path_cap_below_one_rejected(tmp_path, capsys):
    _rejected_in_file_and_flag(tmp_path, capsys, "path_cap", "--path-cap", 0,
                               "options.path_cap: must be at least 1, got 0")


def test_group_cap_below_one_rejected(tmp_path, capsys):
    _rejected_in_file_and_flag(tmp_path, capsys, "group_cap", "--group-cap", 0,
                               "options.group_cap: must be at least 1, got 0")


def test_vertex_label_with_arrow_key_separator_rejected():
    bad = _with(KRONECKER_TRIVIAL, ["quiver", "vertices", 1], "t<-0")
    bad["quiver"]["arrows"][0]["target"] = "t<-0"
    _rejected(bad, "quiver.vertices[1]: label 't<-0' contains '<-', the arrow key separator")


def test_path_cap_exceeded_exits_one_with_hint(tmp_path, capsys):
    # every hom-pair of the 3-crown has one path in three consecutive degrees
    assert _compute_exit(tmp_path, CROWN3, "--path-cap", "2", "--max-degree", "9") == 1
    err = capsys.readouterr().err
    assert "more than 2 paths" in err and "--path-cap" in err


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    import invcat.cli as cli_module

    def broken(job):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "run_pipeline", broken)
    assert _compute_exit(tmp_path, CROWN3) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_composite_term_outside_the_fixed_space_exits_three(tmp_path, capsys, monkeypatch):
    # a product of invariants that is not invariant is a fault of the
    # program, not of the input: the composite's containment check names it
    from invcat.linalg import Matrix, Subspace

    def full(self, other):
        n = self.ambient_dim * other.ambient_dim
        return Subspace.from_vectors(self.field, n, Matrix.identity(self.field, n).entries)

    monkeypatch.setattr(Subspace, "tensor", full)
    job = Path(__file__).resolve().parent.parent / "demos" / "inputs" / "swap_loop.json"
    assert main(["compute", "--input", str(job), "--out", str(tmp_path / "r.json")]) == 3
    assert "internal error: NotASubspace: " in capsys.readouterr().err


def test_singular_generator_is_an_input_error(tmp_path, capsys):
    singular = _with(CROWN3, ["action", "generators", 0, "matrices", "t2<-t1"], [["0"]])
    assert _compute_exit(tmp_path, singular) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is singular on 't1' -> 't2'" in err


def test_field_mismatch_in_the_pipeline_exits_three(tmp_path, capsys, monkeypatch):
    # every scalar of a job is parsed into the job's field, so two fields
    # meeting in the pipeline is a fault of the program, not of the input
    import invcat.jobs as jobs_module
    from invcat.fields import PrimeField

    def mixed(quiver, spec, max_degree, path_cap):
        return PrimeField(2).one() + PrimeField(3).one()

    monkeypatch.setattr(jobs_module, "compute_profiles", mixed)
    assert _compute_exit(tmp_path, CROWN3) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: FieldMismatch: F_2 vs F_3" in err


def test_unknown_vertex_in_the_pipeline_exits_three(tmp_path, capsys, monkeypatch):
    # the parser checks every vertex a job names, so an unknown one later is a fault
    import invcat.jobs as jobs_module

    def lost(quiver, spec, max_degree, path_cap):
        return quiver.vertex_index("nowhere")

    monkeypatch.setattr(jobs_module, "compute_profiles", lost)
    assert _compute_exit(tmp_path, CROWN3) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: UnknownVertex: 'nowhere'" in err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    job = write_job(tmp_path, CROWN3)
    assert main(["compute", "--input", job, "--out", str(tmp_path / "missing" / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


def test_report_mode_follows_the_umask_or_the_existing_file(tmp_path):
    # the report used to be written as 0o600 whatever the umask, and
    # rewriting an existing 0o644 report reset it to 0o600
    job = write_job(tmp_path, CROWN3)
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o027, 0o640), (0o002, 0o664)):
            os.umask(umask)
            out = tmp_path / f"new-{umask:o}.json"
            assert main(["compute", "--input", job, "--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
        os.umask(0o077)
        out = tmp_path / "existing.json"
        for mode in (0o644, 0o604, 0o600):
            out.write_text("{}")
            out.chmod(mode)
            assert main(["compute", "--input", job, "--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
            assert json.loads(out.read_text())["group_size"] == 3
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".invcat-")) == []


@pytest.mark.parametrize("path, fragment", [
    (["options", "max_degre"], "options: unknown key 'max_degre'"),
    (["quiver", "arrows", 0, "dimm"], "quiver.arrows[0]: unknown key 'dimm'"),
    (["extra"], "job: unknown key 'extra'"),
    (["field", "p"], "field: unknown key 'p'"),
    (["action", "generators", 0, "nmae"], "action.generators[0]: unknown key 'nmae'"),
    (["action", "group_capp"], "action: unknown key 'group_capp'"),
    (["quiver", "labels"], "quiver: unknown key 'labels'"),
    # the group cap is an option only
    (["action", "group_cap"], "action: unknown key 'group_cap'"),
])
def test_unknown_job_key_exits_one_with_key_path(tmp_path, capsys, path, fragment):
    # unknown keys used to be ignored: "max_degre": 12 ran at the default degree 6
    bad = _with(CROWN3, path, 12)
    _rejected(bad, fragment)
    assert _compute_exit(tmp_path, bad) == 1
    assert capsys.readouterr().err == f"error: {fragment}\n"
    assert main(["classify", "--input", write_job(tmp_path, bad)]) == 1
    assert capsys.readouterr().err == f"error: {fragment}\n"


@pytest.mark.parametrize("key, value", [
    ("p", 2 ** 61 - 1),  # trial division did not finish in 10 s
    ("p", PRIME_LIMIT),
    ("n", 720720),  # building Phi_n by exact division did not finish in 10 s
    ("n", 1000000),
    ("n", MAX_CYCLOTOMIC_ORDER),
])
def test_field_parameter_parsed_or_rejected_within_a_second(key, value):
    data = _with(SWAP_F2 if key == "p" else CROWN3, ["field", key], value)
    start = time.perf_counter()
    try:
        job = parse_job(data)
    except ParseError as err:
        assert str(err).startswith(f"field.{key}: "), str(err)
    else:
        assert getattr(job.field, key) == value
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field, entry", [
    ({"kind": "rationals"}, "1/0"),
    ({"kind": "cyclotomic", "n": 3}, "z+1/0"),
    ({"kind": "cyclotomic", "n": 3}, "3*"),
    ({"kind": "prime", "p": 5}, "٣"),
    # a space inside a term: the cyclotomic parser used to read "1 2" as 12
    ({"kind": "cyclotomic", "n": 3}, "1 2"),
    ({"kind": "cyclotomic", "n": 12}, "z ^ 1 0"),
    ({"kind": "cyclotomic", "n": 3}, "1/ 2"),
    ({"kind": "rationals"}, "1 2"),
    ({"kind": "prime", "p": 5}, "1 2"),
])
def test_bad_scalar_entry_exits_one_with_key_path(tmp_path, capsys, field, entry):
    bad = _with(KRONECKER_TRIVIAL, ["field"], field)
    bad["action"]["generators"] = [{"name": "s", "matrices": {"y<-x": [["1", "0"], ["0", entry]]}}]
    assert _compute_exit(tmp_path, bad) == 1
    err = capsys.readouterr().err
    assert "action.generators[0].matrices['y<-x'][1][1]: " in err
    assert "internal error" not in err


def test_series_size_cap_in_file_and_flag(tmp_path, capsys):
    # three vertices: 9 * (max_degree + 1) entries may not pass 10**6
    assert parse_job(_with(CROWN3, ["options", "max_degree"], 111_110)).max_degree == 111_110
    fragment = "options.max_degree: 111111 gives 1000008 hom series entries over 3 vertices"
    _rejected_in_file_and_flag(tmp_path, capsys, "max_degree", "--max-degree", 111_111, fragment)
    _rejected(_with(KRONECKER_TRIVIAL, ["options", "max_degree"], 10**6), "options.max_degree: ")


def test_cli_import_loads_no_slow_stdlib_module():
    # dataclasses pulls in inspect, ast, dis and tokenize, which every CLI
    # process would compile and hold in memory; traceback and subprocess
    # cost a few milliseconds each, and start-up is most of a short run
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    slow = "{'dataclasses', 'inspect', 'traceback', 'subprocess'}"
    code = f"import sys, invcat.cli; print(sorted({slow} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
