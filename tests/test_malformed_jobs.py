"""Malformed job files: one mutation of a demo job, rejected fast with a key path.

Each case takes one of the job files in demos/inputs/ and breaks it in one
place: a value of the wrong type, a required key deleted, an unknown key
inserted, a vertex nobody declared, or a matrix of the wrong shape.  `invcat compute` must exit 1
(an input error, never 3) within a second, and its message must start
with the key path of the broken place or of an enclosing object.  Repeated
keys, a group cap set under `action`, files that are not JSON a parser
can hold, and tensor spaces too large to hold are checked on crown3.json
and swap_loop.json.
"""

import contextlib
import copy
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invcat.action import DEFAULT_GROUP_CAP
from invcat.cli import main
from invcat.jobs import MAX_TENSOR_DIM, ParseError, parse_job, quiver_from_dict

DEMO_INPUTS = Path(__file__).resolve().parent.parent / "demos" / "inputs"
JOBS = {p.name: json.loads(p.read_text()) for p in sorted(DEMO_INPUTS.glob("*.json"))}

DELETE = object()
WRONG = {
    dict: [None, True, 1.5, "x", 7, []],
    list: [None, True, 1.5, "x", 7, {}],
    str: [None, True, 1.5, 7, [], {}],
    int: [None, True, 1.5, "7", [], {}],
    "entry": [None, True, 1.5, [], {}],  # strings and integers are valid entries
}


def typed_locations(job):
    """(location, expected type) of every value the job grammar types."""
    out = [(("field",), dict), (("field", "kind"), str), (("quiver",), dict),
           (("quiver", "vertices"), list), (("quiver", "arrows"), list)]
    out += [(("field", k), int) for k in ("n", "p") if k in job["field"]]
    out += [(("quiver", "vertices", i), str) for i in range(len(job["quiver"]["vertices"]))]
    for i, arrow in enumerate(job["quiver"]["arrows"]):
        out += [(("quiver", "arrows", i), dict)]
        out += [(("quiver", "arrows", i, k), int if k == "dim" else str) for k in arrow]
    if "options" in job:
        out += [(("options",), dict)] + [(("options", k), int) for k in job["options"]]
    if "action" in job:
        out += [(("action",), dict), (("action", "generators"), list)]
        for g, gen in enumerate(job["action"]["generators"]):
            base = ("action", "generators", g)
            out += [(base, dict), (base + ("matrices",), dict)]
            out += [(base + ("name",), str)] if "name" in gen else []
            for key, rows in gen["matrices"].items():
                out += [(base + ("matrices", key), list)]
                for r, row in enumerate(rows):
                    out += [(base + ("matrices", key, r), list)]
                    out += [(base + ("matrices", key, r, c), "entry") for c in range(len(row))]
    return out


def matrices(job):
    """(location, rows) of every generator matrix."""
    return [
        (("action", "generators", g, "matrices", key), rows)
        for g, gen in enumerate(job.get("action", {}).get("generators", []))
        for key, rows in gen["matrices"].items()
    ]


def mutations(job):
    """Every single-place break of the job, as (location, new value or DELETE, renamed key)."""
    out = [(loc, bad, None) for loc, kind in typed_locations(job) for bad in WRONG[kind]]
    # required keys; options, action, generators and names have defaults
    required = [("field",), ("field", "kind"), ("quiver",), ("quiver", "vertices"), ("quiver", "arrows")]
    required += [("field", k) for k in ("n", "p") if k in job["field"]]
    required += [("quiver", "arrows", i, k) for i in range(len(job["quiver"]["arrows"]))
                 for k in ("source", "target", "dim")]
    required += [loc[:-1] for loc, _ in matrices(job)]  # a generator's "matrices"
    required += [loc for loc, _ in matrices(job)]  # one arrow's matrix
    out += [(loc, DELETE, None) for loc in required]
    # unknown keys: a misspelling of each key present, another field kind's parameter
    objects = [(), ("field",), ("quiver",)]
    objects += [("quiver", "arrows", i) for i in range(len(job["quiver"]["arrows"]))]
    if "options" in job:
        objects.append(("options",))
    if "action" in job:
        objects.append(("action",))
        objects += [("action", "generators", g) for g in range(len(job["action"]["generators"]))]
    for loc in objects:
        owner = job
        for part in loc:
            owner = owner[part]
        out += [(loc + (key,), 1, None) for key in ["extra"] + [k[:-1] for k in owner]]
    out += [(("field", k), 5, None) for k in ("n", "p") if k not in job["field"]]
    # unknown vertices, in an arrow and in a matrix key
    out += [(("quiver", "arrows", i, k), "nowhere", None)
            for i in range(len(job["quiver"]["arrows"])) for k in ("source", "target")]
    for loc, rows in matrices(job):
        target, source = loc[-1].split("<-")
        for key in (f"nowhere<-{source}", f"{target}<-nowhere", f"{target}{source}"):
            out.append((loc[:-1] + (key,), rows, loc[-1]))
    # matrices of the wrong shape
    for loc, rows in matrices(job):
        out += [(loc, shape, None) for shape in (
            rows + [rows[0]], rows[:-1], [rows[0] + ["0"]] + rows[1:],
            [rows[0][:-1]] + rows[1:], [], ["0"] * len(rows),
        )]
    return out


def dotted(location):
    """The key path as the job parser writes it."""
    text = location[0]
    for prev, part in zip(location, location[1:]):
        if isinstance(part, int):
            text += f"[{part}]"
        elif prev == "matrices":
            text += f"[{part!r}]"
        else:
            text += f".{part}"
    return text


def apply(job, location, value, renamed):
    job = copy.deepcopy(job)
    owner = job
    for part in location[:-1]:
        owner = owner[part]
    if renamed is not None:
        del owner[renamed]
    if value is DELETE:
        del owner[location[-1]]
    else:
        owner[location[-1]] = value
    return job


@st.composite
def malformed_job(draw):
    name = draw(st.sampled_from(sorted(JOBS)))
    location, value, renamed = draw(st.sampled_from(mutations(JOBS[name])))
    return name, location, apply(JOBS[name], location, value, renamed)


def test_every_demo_job_has_mutations():
    for name, job in JOBS.items():
        assert mutations(job), name
    assert len(JOBS) == 6


@settings(max_examples=400, deadline=None, derandomize=True)
@given(malformed_job())
def test_malformed_demo_job_exits_one_with_a_key_path(tmp_path_factory, case):
    name, location, job = case
    directory = tmp_path_factory.mktemp("malformed")
    path = directory / name
    path.write_text(json.dumps(job), encoding="utf-8")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["compute", "--input", str(path), "--out", str(directory / "report.json")])
    assert time.perf_counter() - start < 1.0
    message = err.getvalue()
    assert code == 1, message
    assert message.startswith("error: ") and "internal error" not in message, message
    context = message[len("error: "):].split(": ", 1)[0]
    where = dotted(location)
    top_level = len(location) == 1 and context in ("job", f"job.{location[0]}")
    assert top_level or where == context or where.startswith((context + ".", context + "[")), (
        where, message)
    assert not (directory / "report.json").exists()


CROWN_TEXT = (DEMO_INPUTS / "crown3.json").read_text(encoding="utf-8")


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("old, new, key", [
    ('"options": {"max_degree": 6}\n}', '"options": {"max_degree": 6},\n  "options": {"max_degree": 2}\n}',
     "options"),
    ('"max_degree": 6', '"max_degree": 6, "max_degree": 2', "max_degree"),
    ('"t0<-t2": [["z"]]', '"t0<-t2": [["z"]], "t0<-t2": [["1"]]', "t0<-t2"),
], ids=["top-level", "option", "arrow-key"])
def test_repeated_key_exits_one_naming_it(tmp_path, old, new, key):
    # json.load keeps the last of two equal keys; a job file must not say two things
    assert CROWN_TEXT.count(old) == 1
    path = tmp_path / "crown3.json"
    path.write_text(CROWN_TEXT.replace(old, new), encoding="utf-8")
    out = tmp_path / "report.json"
    for argv in (["compute", "--input", str(path), "--out", str(out)], ["classify", "--input", str(path)]):
        code, message = run_quietly(argv)
        assert code == 1 and f"duplicate key {key!r}" in message, (argv, message)
    assert not out.exists()


@pytest.mark.parametrize("dims", [(2, 0), (0, 2), (0, 0)], ids=["2-0", "0-2", "0-0"])
def test_duplicate_arrow_exits_one_whatever_its_dims(tmp_path, dims):
    # a first copy of dim 0 was not remembered, so its duplicate passed
    job = copy.deepcopy(JOBS["crown3.json"])
    job["quiver"]["arrows"][:1] = [{"source": "t0", "target": "t1", "dim": d} for d in dims]
    path = tmp_path / "crown3.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    out = tmp_path / "report.json"
    for argv in (["compute", "--input", str(path), "--out", str(out)], ["classify", "--input", str(path)]):
        code, message = run_quietly(argv)
        assert (code, message) == (1, "error: quiver.arrows[1]: duplicate arrow 't0' -> 't1'\n"), argv
    assert not out.exists()


@pytest.mark.parametrize("bad", ["x", 0, -1, True, 2.5, None])
@pytest.mark.parametrize("override", ["options", "flag"])
def test_bad_action_group_cap_is_rejected_under_an_override(tmp_path, bad, override):
    # the group cap is an option only: under action it is an unknown key,
    # whatever its value and whatever sets the option
    job = copy.deepcopy(JOBS["crown3.json"])
    job["action"]["group_cap"] = bad
    argv = []
    if override == "options":
        job["options"]["group_cap"] = 10
    else:
        argv = ["--group-cap", "10"]
    with pytest.raises(ParseError, match=r"^action: unknown key 'group_cap'$"):
        parse_job(job, {"group_cap": 10} if override == "flag" else None)
    path = tmp_path / "crown3.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    code, message = run_quietly(["compute", "--input", str(path), "--out", str(tmp_path / "r.json")] + argv)
    assert code == 1 and message == "error: action: unknown key 'group_cap'\n", message


def test_group_cap_override_still_wins():
    job = copy.deepcopy(JOBS["crown3.json"])
    assert parse_job(job).group_cap == parse_job(job).action.group_cap == DEFAULT_GROUP_CAP
    job["options"]["group_cap"] = 7
    assert parse_job(job).action.group_cap == 7
    assert parse_job(job, {"group_cap": 10}).action.group_cap == 10


def _exits_one_naming_the_file(tmp_path, text):
    path = tmp_path / "job.json"
    path.write_bytes(text)
    for argv in (["compute", "--input", str(path), "--out", str(tmp_path / "r.json")],
                 ["classify", "--input", str(path)]):
        code, message = run_quietly(argv)
        assert code == 1 and message.startswith(f"error: {path}: "), (argv, message)
        assert "internal error" not in message and "Traceback" not in message, message
    assert not (tmp_path / "r.json").exists()
    return message


def test_file_that_is_not_utf8_exits_one(tmp_path):
    message = _exits_one_naming_the_file(tmp_path, CROWN_TEXT.replace("t0", "t\xe9").encode("latin-1"))
    assert "not UTF-8 text" in message


def test_integer_past_the_digit_limit_exits_one(tmp_path):
    message = _exits_one_naming_the_file(
        tmp_path, CROWN_TEXT.replace('"max_degree": 6', '"max_degree": ' + "9" * 5000).encode())
    assert "invalid JSON: " in message and "4300 digits" in message


def test_nesting_past_the_recursion_limit_exits_one(tmp_path):
    message = _exits_one_naming_the_file(tmp_path, b"[" * 100_000)
    assert "invalid JSON: nested too deeply" in message


def _loop(dim, max_degree):
    job = copy.deepcopy(JOBS["swap_loop.json"])
    job["quiver"]["arrows"][0]["dim"] = dim
    job["action"]["generators"] = []
    job["options"] = {"max_degree": max_degree}
    return job


def test_arrow_too_wide_to_hold_exits_one_at_once(tmp_path):
    # with no generator to check its matrices, this job used to pass parsing
    # and then allocate a dense 10^9 x 10^9 identity until it was killed
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_loop(10**9, 6)), encoding="utf-8")
    assert len(path.read_bytes()) < 200
    start = time.perf_counter()
    code, message = run_quietly(["compute", "--input", str(path), "--out", str(tmp_path / "r.json")])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and message.startswith("error: quiver.arrows[0]: dim 1000000000 "), message
    assert f"more than {MAX_TENSOR_DIM}" in message
    assert run_quietly(["classify", "--input", str(path)]) == (0, "")


def test_path_tensor_space_is_bounded_by_max_degree():
    assert MAX_TENSOR_DIM == 2**20
    # the widest jobs that still parse: S3 words at degree 12, the swap loop at 20
    assert parse_job(_loop(3, 12)).max_degree == 12
    assert parse_job(_loop(2, 20)).max_degree == 20
    assert parse_job(_loop(1024, 2)).max_degree == 2
    for job, fragment in (
        (_loop(2, 21), "options.max_degree: a path of degree 21 has a tensor space of dimension 2097152"),
        (_loop(1024, 3), "options.max_degree: a path of degree 3 has a tensor space of dimension 1073741824"),
        (_loop(1025, 0), "quiver.arrows[0]: dim 1025 gives a 1025x1025 action matrix"),
    ):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_job(job)
    with pytest.raises(ParseError, match=r"^options\.max_degree: a path of degree 21 "):
        parse_job(_loop(2, 6), {"max_degree": 21})
    # the widest path of degree d: a -> b -> c, then d - 2 turns of the loop at c
    job = {"field": {"kind": "rationals"},
           "quiver": {"vertices": ["a", "b", "c"], "arrows": [
               {"source": "a", "target": "b", "dim": 2},
               {"source": "b", "target": "c", "dim": 1024},
               {"source": "c", "target": "c", "dim": 1}]},
           "options": {"max_degree": 1000}}
    assert parse_job(job).max_degree == 1000
    job["quiver"]["arrows"][2]["dim"] = 2
    with pytest.raises(ParseError, match=r"a path of degree 12 has a tensor space of dimension 2097152,"):
        parse_job(job)


def test_many_arrows_are_checked_against_the_vertex_labels_at_once():
    # 20,000 arrows among the last 142 of 4,000 labels: a scan of the label
    # list per endpoint took 3.4 s on a 2-vCPU virtual machine, a set 0.08 s
    labels = [f"v{i}" for i in range(4000)]
    tail = labels[-142:]
    arrows = [{"source": s, "target": t, "dim": 1} for t in tail for s in tail][:20000]
    data = {"vertices": labels, "arrows": arrows}
    start = time.perf_counter()
    quiver = quiver_from_dict(data)
    assert time.perf_counter() - start < 0.5
    assert len(quiver.track_edges()) == 20000
    source = arrows[-1]["source"]
    arrows[-1]["target"] = "nowhere"
    with pytest.raises(ParseError) as err:
        quiver_from_dict(data)
    assert str(err.value) == (
        f"quiver.arrows[19999]: arrow {source!r} -> 'nowhere' uses an unknown vertex"
    )
    labels.append(labels[0])
    with pytest.raises(ParseError) as err:
        quiver_from_dict(data)
    assert str(err.value) == "quiver.vertices: labels must be unique"


@pytest.mark.parametrize("name", ["swap_loop.json", "sign_line_f5.json", "crown3.json"])
def test_entry_past_the_digit_limit_exits_one_with_the_json_text(tmp_path, name):
    # one entry in each field kind; the text is the JSON path's, without the
    # hint to call sys.set_int_max_str_digits, which a job file cannot act on
    job = copy.deepcopy(JOBS[name])
    key, rows = next(iter(job["action"]["generators"][0]["matrices"].items()))
    rows[0][0] = "1" * 5000
    path = tmp_path / name
    path.write_text(json.dumps(job), encoding="utf-8")
    code, message = run_quietly(["compute", "--input", str(path), "--out", str(tmp_path / "r.json")])
    text = "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
    assert code == 1 and message == f"error: action.generators[0].matrices[{key!r}][0][0]: {text}\n", message
    assert "sys." not in message and not (tmp_path / "r.json").exists()
    too_long = CROWN_TEXT.replace('"max_degree": 6', '"max_degree": ' + "1" * 5000)
    assert _exits_one_naming_the_file(tmp_path, too_long.encode()).endswith(f"invalid JSON: {text}\n")
