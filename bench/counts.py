"""The count pass: exact per-module call counts and elimination sizes.

Run in a fresh interpreter (``python counts.py SRC_DIR JOB_FILE``) so that
caches inside the program start cold and the counts repeat exactly.  It
runs the compute pipeline twice: once under cProfile, whose call counts
are kept and whose timings are thrown away (cProfile inflates this code
several times over), and once with a hook on ``Matrix.rref`` that reads
the size of every elimination.  Prints one JSON object.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

from spans import patched

LAYERS = ("fields", "linalg", "quiver", "action", "engine", "category", "reptype", "jobs")
RREF_HOOK = (("linalg.rref", "invcat.linalg", "Matrix.rref"),)


def _layer(filename: str) -> str | None:
    directory, base = os.path.split(filename)
    if base == "fractions.py":
        return "fields"  # Fraction is the scalar type of Q and Q(zeta_n)
    stem = base[:-3] if base.endswith(".py") else base
    if os.path.basename(directory) == "invcat" and stem in LAYERS:
        return stem
    return None


def _compute(jobs, job_path: str) -> str:
    return jobs.dump_report(jobs.report_to_dict(jobs.run_pipeline(jobs.load_job(job_path))))


def count_pass(job_path: str) -> dict:
    from invcat import jobs

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _compute(jobs, job_path)
    finally:
        profiler.disable()
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _func), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        layer = _layer(filename)
        if layer is not None:
            calls[layer] += ncalls
    out = {f"{layer}.calls": n for layer, n in calls.items()}

    sizes = {"calls": 0, "cells": 0, "nnz": 0, "rows": 0, "rank": 0}

    def measuring(_key, rref):
        def wrapper(matrix):
            result = rref(matrix)
            sizes["calls"] += 1
            sizes["rows"] += matrix.nrows
            sizes["cells"] += matrix.nrows * matrix.ncols
            sizes["nnz"] += sum(1 for row in matrix.entries for x in row if x)
            sizes["rank"] += len(result[1])
            return result
        return wrapper

    with patched(RREF_HOOK, measuring) as absent:
        _compute(jobs, job_path)
    if not absent:
        out["linalg.rref_calls"] = sizes["calls"]
        out["linalg.rref_cells"] = sizes["cells"]
        out["linalg.rref_nnz"] = sizes["nnz"]
        out["linalg.rank_ratio"] = sizes["rank"] / sizes["rows"] if sizes["rows"] else 0.0
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(count_pass(sys.argv[2])))
