"""Job files, the full pipeline, and deterministic machine reports.

Input and output are JSON documents; exact scalars travel as strings in a
small grammar (rationals like "2/3", cyclotomic polynomials in z like
"z^2-1/2*z+3", prime-field integers like "4").  Reports are deterministic
given the job, except for the timing block, which consumers must ignore
when comparing.

`OPTIONS` alone names each job option, its default and its least value; the
parser, its bound checks, `JobSpec`, the job echo and the CLI flags read it.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

from .action import DEFAULT_GROUP_CAP, ActionSpec, close_group
from .category import build_invariant_quiver, verify_freeness
from .engine import compute_profiles, schurian_generators
from .fields import CyclotomicField, PrimeField, QQ
from .linalg import Matrix
from .quiver import DEFAULT_PATH_CAP, Quiver
from .reptype import classify, classify_invariants


SCHEMA_VERSION = 2
# the report holds a hom series of max_degree + 1 entries for every vertex pair
MAX_SERIES_ENTRIES = 10**6
# the largest tensor space held: an arrow's dim x dim action, a path's prod of dims
MAX_TENSOR_DIM = 2**20


class ParseError(Exception):
    pass


def _get(data, key, ctx, kind=None, required=True, default=None):
    if not isinstance(data, dict):
        raise ParseError(f"{ctx}: expected an object")
    if key not in data:
        if required:
            raise ParseError(f"{ctx}: missing required key {key!r}")
        return default
    return data[key] if kind is None else _typed(data[key], kind, f"{ctx}.{key}")


def _typed(value, kind, ctx):
    # JSON true/false load as bool, a subclass of int
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{ctx}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _only(data, keys, ctx):
    """Reject an object holding a key outside keys: a misspelt key must not pass as absent."""
    if not isinstance(data, dict):
        raise ParseError(f"{ctx}: expected an object")
    for key in data:
        if key not in keys:
            raise ParseError(f"{ctx}: unknown key {key!r}")


# the keys each object of a job may hold; a field's depend on its kind
JOB_KEYS = ("field", "quiver", "action", "options")
FIELD_KEYS = {"rationals": ("kind",), "cyclotomic": ("kind", "n"), "prime": ("kind", "p")}
QUIVER_KEYS = ("vertices", "arrows")
ARROW_KEYS = ("source", "target", "dim")
ACTION_KEYS = ("generators",)
GENERATOR_KEYS = ("name", "matrices")
# option -> (default, least value); a default of None is the resolved max_degree
OPTIONS = {
    "max_degree": (6, 0),
    "verify_depth": (None, 0),
    "path_cap": (DEFAULT_PATH_CAP, 1),
    "group_cap": (DEFAULT_GROUP_CAP, 1),
}


def _field_kind(data, ctx):
    """The field's kind, once its keys are checked against that kind's."""
    kind = _get(data, "kind", ctx, str)
    if kind not in FIELD_KEYS:
        raise ParseError(f"{ctx}.kind: unknown field kind {kind!r}")
    _only(data, FIELD_KEYS[kind], ctx)
    return kind


def field_from_dict(data, ctx="field"):
    kind = _field_kind(data, ctx)
    if kind == "rationals":
        return QQ
    if kind == "cyclotomic":
        n = _get(data, "n", ctx, int)
        try:
            return CyclotomicField(n)
        except ValueError as err:
            raise ParseError(f"{ctx}.n: {err}") from None
    p = _get(data, "p", ctx, int)
    try:
        return PrimeField(p)
    except ValueError as err:
        raise ParseError(f"{ctx}.p: {err}") from None


def field_to_dict(field):
    return {key: getattr(field, key) for key in FIELD_KEYS[field.kind]}


def quiver_from_dict(data, ctx="quiver"):
    _only(data, QUIVER_KEYS, ctx)
    vertices = _get(data, "vertices", ctx, list)
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            raise ParseError(f"{ctx}.vertices[{i}]: vertex labels must be strings")
        if "<-" in v:
            raise ParseError(f"{ctx}.vertices[{i}]: label {v!r} contains '<-', the arrow key separator")
    labels = set(vertices)
    if len(labels) != len(vertices):
        raise ParseError(f"{ctx}.vertices: labels must be unique")
    arrows = _get(data, "arrows", ctx, list)
    dims = {}
    for i, arrow in enumerate(arrows):
        actx = f"{ctx}.arrows[{i}]"
        _only(arrow, ARROW_KEYS, actx)
        source = _get(arrow, "source", actx, str)
        target = _get(arrow, "target", actx, str)
        dim = _get(arrow, "dim", actx, int)
        if source not in labels or target not in labels:
            raise ParseError(f"{actx}: arrow {source!r} -> {target!r} uses an unknown vertex")
        if dim < 0:
            raise ParseError(f"{actx}: dim must be nonnegative")
        key = (target, source)
        if key in dims:
            raise ParseError(f"{actx}: duplicate arrow {source!r} -> {target!r}")
        dims[key] = dim  # a dim-0 arrow is kept here, to catch its duplicate; Quiver drops it
    return Quiver(vertices, dims)


def quiver_to_dict(quiver):
    arrows = [
        {"source": source, "target": target, "dim": quiver.dim(target, source)}
        for (target, source) in quiver.track_edges()
    ]
    return {"vertices": list(quiver.vertices), "arrows": arrows}


def edge_key(edge) -> str:
    target, source = edge
    return f"{target}<-{source}"


def parse_edge_key(key, quiver, ctx):
    if "<-" not in key:
        raise ParseError(f"{ctx}: arrow key {key!r} must look like 'target<-source'")
    target, source = key.split("<-", 1)
    if target not in quiver.vertices or source not in quiver.vertices:
        raise ParseError(f"{ctx}: arrow key {key!r} uses an unknown vertex")
    if quiver.dim(target, source) == 0:
        raise ParseError(f"{ctx}: arrow key {key!r} names a zero arrow space")
    return (target, source)


def _parse_entry(field, value, ctx):
    if isinstance(value, str):
        try:
            return field.parse(value)
        except ValueError as err:
            raise ParseError(f"{ctx}: {err}") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return field.coerce(value)
    raise ParseError(f"{ctx}: matrix entries must be strings or integers")


def _generators(data, ctx):
    """The raw generator objects of an action, once every key in it is checked."""
    _only(data, ACTION_KEYS, ctx)
    generators = _get(data, "generators", ctx, list, required=False, default=[])
    for i, gen in enumerate(generators):
        _only(gen, GENERATOR_KEYS, f"{ctx}.generators[{i}]")
    return generators


def action_from_dict(data, quiver, field, ctx="action", group_cap=DEFAULT_GROUP_CAP):
    raw_generators = _generators(data, ctx)
    generators = []
    for i, gen in enumerate(raw_generators):
        gctx = f"{ctx}.generators[{i}]"
        name = _get(gen, "name", gctx, str, required=False, default=f"g{i}")
        raw_mats = _get(gen, "matrices", gctx, dict)
        mats = {}
        for key, rows in raw_mats.items():
            mctx = f"{gctx}.matrices[{key!r}]"
            edge = parse_edge_key(key, quiver, mctx)
            d = quiver.dim(*edge)
            if not isinstance(rows, list) or len(rows) != d or any(
                not isinstance(r, list) or len(r) != d for r in rows
            ):
                raise ParseError(f"{mctx}: expected a {d}x{d} matrix for this arrow")
            mats[edge] = Matrix(field, [
                [_parse_entry(field, rows[r][c], f"{mctx}[{r}][{c}]") for c in range(d)]
                for r in range(d)
            ])
        missing = [e for e in quiver.track_edges() if e not in mats]
        if missing:
            raise ParseError(f"{gctx}.matrices: missing matrix for arrow {edge_key(missing[0])!r}")
        generators.append((name, mats))
    return ActionSpec(quiver, field, generators, group_cap=group_cap)


def action_to_dict(spec):
    generators = []
    for name, element in zip(spec.generator_names, spec.generator_elements):
        mats = {}
        for edge, matrix in zip(spec.edges, element):
            mats[edge_key(edge)] = [
                [str(x) for x in row] for row in matrix.entries
            ]
        generators.append({"name": name, "matrices": mats})
    return {"generators": generators}


def _check_tensor_dims(arrows, quiver, max_degree):
    """Reject a job whose action matrices or path tensor spaces would not fit in memory."""
    for i, arrow in enumerate(arrows):
        if arrow["dim"] ** 2 > MAX_TENSOR_DIM:
            raise ParseError(
                f"quiver.arrows[{i}]: dim {arrow['dim']} gives a {arrow['dim']}x{arrow['dim']}"
                f" action matrix, more than {MAX_TENSOR_DIM} entries"
            )
    edges = [(target, source, quiver.dim(target, source)) for target, source in quiver.track_edges()]
    # widest[v]: the largest tensor dimension of a path of the current degree ending at v
    widest = dict.fromkeys(quiver.vertices, 1)
    for degree in range(1, max_degree + 1):
        step = {}
        for target, source, dim in edges:
            if source in widest:
                width = widest[source] * dim
                if width > MAX_TENSOR_DIM:
                    raise ParseError(
                        f"options.max_degree: a path of degree {degree} has a tensor space"
                        f" of dimension {width}, more than {MAX_TENSOR_DIM}"
                    )
                step[target] = max(step.get(target, 0), width)
        if step == widest:
            break  # every later degree repeats this one
        widest = step


JobSpec = namedtuple("JobSpec", ("field", "quiver", "action", *OPTIONS))


def parse_job(data, overrides=None) -> JobSpec:
    """The job in data; overrides maps an option to its flag, None if the flag is unset."""
    overrides = overrides or {}
    _only(data, JOB_KEYS, "job")
    field = field_from_dict(_get(data, "field", "job"), "field")
    quiver = quiver_from_dict(_get(data, "quiver", "job"), "quiver")
    options = _get(data, "options", "job", dict, required=False, default={})
    _only(options, OPTIONS, "options")
    values = {}
    for key, (default, _) in OPTIONS.items():
        # the file's value is type-checked even when a flag replaces it
        value = _get(options, key, "options", int, required=False, default=default)
        if value is None:
            value = values["max_degree"]
        flag = overrides.get(key)
        values[key] = value if flag is None else _typed(flag, int, f"options.{key}")
    # the bounds hold for the merged values, checked after every type check
    for key, (_, least) in OPTIONS.items():
        if values[key] < least:
            raise ParseError(f"options.{key}: must be at least {least}, got {values[key]}")
    max_degree = values["max_degree"]
    entries = len(quiver.vertices) ** 2 * (max_degree + 1)
    if entries > MAX_SERIES_ENTRIES:
        raise ParseError(
            f"options.max_degree: {max_degree} gives {entries} hom series entries"
            f" over {len(quiver.vertices)} vertices, more than {MAX_SERIES_ENTRIES}"
        )
    _check_tensor_dims(data["quiver"]["arrows"], quiver, max_degree)
    action = action_from_dict(
        _get(data, "action", "job", dict, required=False, default={"generators": []}),
        quiver,
        field,
        group_cap=values["group_cap"],
    )
    values["verify_depth"] = min(values["verify_depth"], max_degree)
    return JobSpec(field, quiver, action, **values)


def _unique_keys(pairs):
    """An object's dict, rejecting a repeated key, which json.load would silently drop."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except ValueError as err:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: invalid JSON: {str(err).partition(';')[0]}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from None


def load_job(path, overrides=None) -> JobSpec:
    return parse_job(load_json(path), overrides)


def load_quiver(path) -> Quiver:
    """The quiver of a job file, for commands that need nothing else.

    Only the quiver is required.  Every key of the job is checked as
    `parse_job` checks it, but outside the quiver only the field's kind is
    read, so no action is built.
    """
    data = load_json(path)
    _only(data, JOB_KEYS, "job")
    if "field" in data:
        _field_kind(data["field"], "field")
    quiver = quiver_from_dict(_get(data, "quiver", "job"), "quiver")
    _only(_get(data, "options", "job", dict, required=False, default={}), OPTIONS, "options")
    _generators(_get(data, "action", "job", dict, required=False, default={}), "action")
    return quiver


def job_echo(job: JobSpec) -> dict:
    return {
        "field": field_to_dict(job.field),
        "quiver": quiver_to_dict(job.quiver),
        "action": action_to_dict(job.action),
        "options": {key: getattr(job, key) for key in OPTIONS},
    }


def _classification_to_dict(classification):
    return {
        "overall": classification.overall,
        "components": [str(label) for label in classification.components],
        "finite_is_tame": classification.finite_is_tame,
    }


def schurian_diff(spec, report, max_degree, path_cap):
    """Compare the character fast path with the general engine's generators.

    None unless every arrow space of the quiver is a line.  Then each
    generator acts on an arrow by a scalar, its 1x1 entry, and these are
    the character values that `schurian_generators` folds along a path.
    """
    quiver = spec.quiver
    if any(quiver.dim(*edge) != 1 for edge in spec.edges):
        return None
    values = {
        edge: tuple(spec.edge_matrix(g, edge).entries[0][0] for g in spec.generator_elements)
        for edge in spec.edges
    }
    trivial = (spec.field.one(),) * len(spec.generator_elements)
    generators = schurian_generators(quiver, values, trivial, max_degree, path_cap)
    fast = {p for bucket in generators.values() for p in bucket}
    engine = {entry.path: entry.multiplicity for entry in report.generators}
    # the two agree on a path when the engine finds it once exactly where the characters do
    path = min(
        (p for p in fast.union(engine) if engine.get(p, 0) != (p in fast)),
        key=lambda p: (p.degree, tuple(map(quiver.vertex_index, p))),
        default=None,
    )
    first_difference = None if path is None else {
        "path": list(path),
        "engine_multiplicity": engine.get(path, 0),
        "character_irreducible": path in fast,
    }
    return {
        "applicable": True,
        "agrees": first_difference is None,
        "first_difference": first_difference,
    }


class PipelineResult(namedtuple(
    "PipelineResult",
    "job elements table report freeness input_classification"
    " invariant_classification schurian elapsed",
)):
    __slots__ = ()

    @property
    def verified(self) -> bool:
        return self.freeness.holds and (self.schurian is None or self.schurian["agrees"])


def run_pipeline(job: JobSpec) -> PipelineResult:
    start = time.perf_counter()
    elements = close_group(job.action)
    table = compute_profiles(job.quiver, job.action, job.max_degree, path_cap=job.path_cap)
    report = build_invariant_quiver(table)
    freeness = verify_freeness(table, report, verify_depth=job.verify_depth)
    input_classification = classify(job.quiver)
    invariant_classification = classify_invariants(report)
    schurian = schurian_diff(job.action, report, job.max_degree, job.path_cap)
    elapsed = time.perf_counter() - start
    return PipelineResult(
        job=job,
        elements=elements,
        table=table,
        report=report,
        freeness=freeness,
        input_classification=input_classification,
        invariant_classification=invariant_classification,
        schurian=schurian,
        elapsed=elapsed,
    )


def report_to_dict(result: PipelineResult) -> dict:
    job = result.job
    quiver = job.quiver
    report = result.report
    series = {}
    for x in quiver.vertices:
        for y in quiver.vertices:
            series[edge_key((y, x))] = result.table.hom_dims(x, y)
    generators = [
        {
            "path": list(entry.path),
            "source": entry.path.source,
            "target": entry.path.target,
            "degree": entry.path.degree,
            "multiplicity": entry.multiplicity,
        }
        for entry in report.generators
    ]
    completeness = {
        "status": report.completeness.status,
        "reason": report.completeness.reason,
        "bound": report.completeness.bound,
    }
    freeness = {
        "holds": result.freeness.holds,
        "verify_depth": result.freeness.verify_depth,
        "checked_paths": result.freeness.checked_paths,
        "decomposition_failures": [
            {"path": list(v.path), "detail": v.detail}
            for v in result.freeness.decomposition_failures
        ],
        "series_mismatches": [
            {
                "pair": edge_key((m.target, m.source)),
                "degree": m.degree,
                "invariant_dim": m.invariant_dim,
                "free_dim": m.free_dim,
            }
            for m in result.freeness.series_mismatches
        ],
    }
    invariant_classification = _classification_to_dict(
        result.invariant_classification.classification
    )
    invariant_classification["certified"] = result.invariant_classification.certified
    return {
        "schema_version": SCHEMA_VERSION,
        "job": job_echo(job),
        "group_size": len(result.elements),
        "hom_series": series,
        "generators": generators,
        "completeness": completeness,
        "freeness": freeness,
        "input_classification": _classification_to_dict(result.input_classification),
        "invariant_classification": invariant_classification,
        "schurian_check": result.schurian,
        "timing": {"seconds": round(result.elapsed, 6)},
    }


def dump_report(report_dict: dict) -> str:
    return json.dumps(report_dict, sort_keys=True, indent=2) + "\n"
