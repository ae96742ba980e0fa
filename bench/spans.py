"""Spans recorded from outside the program, around calls into each layer.

A hook replaces one attribute of an invcat module or class with a wrapper
that records a span (name, start, end, parent) in memory.  Hooks sit on the
names the calling code looks up at run time, so a stage function is hooked
in the module that calls it (``invcat.jobs.compute_profiles``), not where it
is defined.  A hook whose target no longer exists is reported as absent, and
the metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter


# (span name, module, attribute path) -- one span name may cover several targets.
HOOKS = (
    ("jobs.load", "invcat.jobs", "load_job"),
    ("action.closure", "invcat.jobs", "close_group"),
    ("engine.profiles", "invcat.jobs", "compute_profiles"),
    ("category.generators", "invcat.jobs", "build_invariant_quiver"),
    ("category.freeness", "invcat.jobs", "verify_freeness"),
    ("engine.decomposition", "invcat.category", "verify_decomposition"),
    ("reptype.classify", "invcat.jobs", "classify"),
    ("reptype.classify", "invcat.jobs", "classify_invariants"),
    ("jobs.schurian", "invcat.jobs", "schurian_diff"),
    ("engine.schurian", "invcat.jobs", "schurian_generators"),
    ("jobs.report", "invcat.jobs", "report_to_dict"),
    ("jobs.report", "invcat.jobs", "dump_report"),
    ("linalg.rref", "invcat.linalg", "Matrix.rref"),
    ("linalg.kernel", "invcat.linalg", "Matrix.kernel"),
    ("linalg.sum", "invcat.linalg", "Subspace.from_vectors"),
    ("linalg.sum", "invcat.linalg", "Subspace.__add__"),
    ("linalg.tensor", "invcat.linalg", "Matrix.tensor"),
    ("linalg.tensor", "invcat.linalg", "Subspace.tensor"),
    ("linalg.complement", "invcat.linalg", "Subspace.complement_in"),
)

LINALG_OPS = ("rref", "kernel", "sum", "tensor", "complement")

# metric -> (how, span name): "incl" sums durations of outermost spans of
# that name, "self" sums durations minus the time their child spans cover.
SPAN_METRICS = {
    **{f"linalg.{op}_s": ("self", f"linalg.{op}") for op in LINALG_OPS},
    "engine.profiles_s": ("incl", "engine.profiles"),
    "engine.profiles_self_s": ("self", "engine.profiles"),
    "category.freeness_s": ("incl", "category.freeness"),
    "engine.decomposition_s": ("incl", "engine.decomposition"),
    "jobs.schurian_s": ("incl", "jobs.schurian"),
    "engine.schurian_s": ("incl", "engine.schurian"),
    "jobs.load_s": ("incl", "jobs.load"),
    "action.closure_s": ("incl", "action.closure"),
    "category.generators_s": ("incl", "category.generators"),
    "reptype.classify_s": ("incl", "reptype.classify"),
    "jobs.report_s": ("incl", "jobs.report"),
    "trace.pipeline_s": ("incl", "pipeline"),
}


def resolve(module_name: str, attr_path: str):
    """(owner, attribute name, raw attribute) of a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, last = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    namespace = vars(owner)
    if last not in namespace:
        return None
    return owner, last, namespace[last]


@contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, attribute path) with make_wrapper(key, function).

    Yields the targets that could not be resolved; restores everything on exit.
    """
    restore = []
    absent = []
    try:
        for key, module_name, attr_path in targets:
            found = resolve(module_name, attr_path)
            if found is None:
                absent.append((key, module_name, attr_path))
                continue
            owner, name, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(make_wrapper(key, raw.__func__))
            else:
                replacement = make_wrapper(key, raw)
            setattr(owner, name, replacement)
            restore.append((owner, name, raw))
        yield absent
    finally:
        for owner, name, raw in reversed(restore):
            setattr(owner, name, raw)


class Tracer:
    """Spans of one run, kept in compact arrays until written out."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.starts[index] = start
        self.ends[index] = end

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
        return traced

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start, perf_counter())

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def metrics(self, absent_spans) -> dict:
        """The span metrics of SPAN_METRICS plus linalg.self_s; absent ones left out."""
        self_times = self.self_times()
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, name in enumerate(self.names):
            own[name] = own.get(name, 0.0) + self_times[i]
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                incl[name] = incl.get(name, 0.0) + self.ends[i] - self.starts[i]
        # self times shift when a child hook is missing; only linalg spans nest in self metrics
        linalg_absent = any(name.startswith("linalg.") for name in absent_spans)
        out = {}
        for metric, (how, name) in SPAN_METRICS.items():
            if name in absent_spans or (how == "self" and linalg_absent):
                continue
            out[metric] = (incl if how == "incl" else own).get(name, 0.0)
        if not linalg_absent:
            out["linalg.self_s"] = sum(v for k, v in own.items() if k.startswith("linalg."))
        return out

    def write_jsonl(self, fh) -> None:
        for i, name in enumerate(self.names):
            fh.write(json.dumps({
                "run": self.run_id, "id": i, "name": name, "parent": self.parents[i],
                "start": self.starts[i], "end": self.ends[i],
            }) + "\n")


@contextmanager
def traced_hooks(tracer: Tracer, hooks=HOOKS):
    """Install span hooks for one run; yields the span names whose hooks are absent."""
    with patched(hooks, tracer.wrap) as absent:
        yield {key for key, _, _ in absent}
