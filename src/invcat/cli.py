"""The invcat command line tool.

`invcat compute` runs the full pipeline on a job file, writes the report
and prints a summary, with the character cross-check when every arrow
space is a line; `invcat classify` gives the representation type of the
job's quiver alone.

Exit codes: 0 success (and --help), 1 input error (bad file, singular
generator, cap exceeded, bad command line), 2 a verified mathematical
property was falsified (reserved so CI property runs can script against
it), 3 an internal error, such as a field or vertex error in the pipeline.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile

from .action import ClosureCapExceeded, NonInvertibleGenerator
from .jobs import (
    OPTIONS,
    ParseError,
    dump_report,
    load_job,
    load_quiver,
    report_to_dict,
    run_pipeline,
)
from .quiver import PathCapExceeded
from .reptype import classify


def _write_atomic(path: str, text: str) -> None:
    """Replace path with text at once.

    An existing file keeps its mode; a new one gets 0o666 & ~umask, as
    open() would give it.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".invcat-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)  # mkstemp made it 0o600
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summarize(result, out_path: str) -> None:
    print(f"field: {result.job.field!r}")
    print(f"group size: {len(result.elements)}")
    comp = result.report.completeness
    if comp.status == "certified":
        comp_text = f"certified ({comp.reason}, bound {comp.bound})"
    else:
        comp_text = "truncated" + (f" (known bound {comp.bound})" if comp.bound else "")
    gens = result.report.generators
    print(f"generators up to degree {result.table.max_degree}: {len(gens)} [{comp_text}]")
    for entry in gens:
        print(f"  {entry.path} [deg {entry.path.degree}, mult {entry.multiplicity}]")
    fr = result.freeness
    print(
        f"freeness: {'holds' if fr.holds else 'FALSIFIED'}"
        f" (checked {fr.checked_paths} paths to depth {fr.verify_depth})"
    )
    ic = result.input_classification
    print(f"input type: {ic.overall} [{', '.join(str(c) for c in ic.components)}]")
    inv = result.invariant_classification
    cert = "certified" if inv.certified else "of the truncation only"
    print(
        f"invariant type: {inv.classification.overall}"
        f" [{', '.join(str(c) for c in inv.classification.components)}] ({cert})"
    )
    if result.schurian is not None:
        print(f"character cross-check: {'agrees' if result.schurian['agrees'] else 'MISMATCH'}")
    print(f"report written to {out_path}")


def cmd_compute(args) -> int:
    job = load_job(args.input, vars(args))
    result = run_pipeline(job)
    text = dump_report(report_to_dict(result))
    _write_atomic(args.out, text)
    _summarize(result, args.out)
    return 0 if result.verified else 2


def cmd_classify(args) -> int:
    quiver = load_quiver(args.input)
    classification = classify(quiver)
    print(f"overall: {classification.overall}")
    print(f"components: {', '.join(str(c) for c in classification.components) or '(none)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invcat",
        description="Invariants of free linear categories under homogeneous finite group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="full pipeline: generators, freeness, classification")
    compute.add_argument("--input", required=True, help="job file (JSON)")
    compute.add_argument("--out", required=True, help="where to write the machine report (JSON)")
    for key in OPTIONS:  # each flag overrides the job option of its name
        compute.add_argument("--" + key.replace("_", "-"), type=int)
    compute.set_defaults(func=cmd_compute)

    classify_p = sub.add_parser("classify", help="representation type of the input quiver only")
    classify_p.add_argument("--input", required=True)
    classify_p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:
        # argparse exits 2 on a usage error; here 2 means a falsified property
        return 1 if done.code else 0
    try:
        return args.func(args)
    # the only errors a job file can raise; any other is a fault of the program
    except (ParseError, PathCapExceeded, ClosureCapExceeded, NonInvertibleGenerator, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, (PathCapExceeded, ClosureCapExceeded)):
            print("hint: raise --path-cap / --group-cap, or lower --max-degree", file=sys.stderr)
        return 1
    except Exception as err:
        import traceback  # imported only on failure: it costs startup time and memory
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
