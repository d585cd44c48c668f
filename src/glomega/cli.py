"""Command-line front end: validate tables, run suites, print dimensions.

Exit codes: 0 all checks passed, 1 at least one check failed, raised an
error or did not stabilize, 2 usage or load errors or a run that checked
nothing (no checks, or only skipped ones).
When ``--out`` is omitted but the ``OMEGA_OUT_DIR`` environment variable is
set, the JSON report lands in that directory as ``report-<suite>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .omega import StructureError, check_associativity, check_int, detect_unit, load_algebra
from .suites import SUITES, SuiteConfig, resolve_omega, run_suite


_RUN_HELP = {
    "omega": "builtin name (C, C^2, null(2), mat(2), nonassoc) or file path",
    "s_values": "comma-separated rationals",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega",
        description="exact verification suites for centralizer constructions over a coefficient table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate an algebra file and report its properties")
    p_check.add_argument("file", help="path to a JSON multiplication table")

    p_run = sub.add_parser("run", help="run a named verification suite")
    p_run.add_argument("suite", choices=SUITES)
    for field in SuiteConfig._fields[1:]:  # one flag per field after the suite, with its default
        default = SuiteConfig._field_defaults[field]
        # --s takes the s values as one comma-separated string, which _cmd_run splits
        name, default = ("s", ",".join(map(str, default))) if field == "s_values" else (field, default)
        p_run.add_argument(
            "--" + name.replace("_", "-"),
            type=type(default),
            default=default,
            dest=field,
            metavar=name.upper(),
            help=_RUN_HELP.get(field),
        )
    p_run.add_argument("--out", default=None, help="path for the JSON report")

    p_dims = sub.add_parser("dims", help="graded dimensions of the gl(d) current algebra")
    p_dims.add_argument("--omega", default="C")
    p_dims.add_argument("--d", type=int, default=2)
    p_dims.add_argument("--grade", type=int, default=3)
    return parser


def _cmd_check(args) -> int:
    spec = load_algebra(args.file)
    print("name: %s" % spec.name)
    print("dim: %d" % spec.dim)
    print("basis: %s" % ", ".join(spec.basis))
    witness = check_associativity(spec)
    if witness is None:
        print("associative: yes")
    else:
        print("associative: no (witness triple %r)" % (witness,))
    unit = detect_unit(spec)
    terms = ["%s*%s" % (c, spec.basis[k]) for k, c in sorted(unit.items())] if unit is not None else []
    print("unit: %s" % (" + ".join(terms) or "none"))
    return 0


def _report_path(args) -> Optional[str]:
    if args.out:
        return args.out
    out_dir = os.environ.get("OMEGA_OUT_DIR")
    if out_dir:
        return os.path.join(out_dir, "report-%s.json" % args.suite)
    return None


def _cmd_run(args) -> int:
    values = {field: getattr(args, field) for field in SuiteConfig._fields}
    # SuiteConfig parses each value and refuses what is not an exact rational
    s_values = tuple(tok.strip() for tok in args.s_values.split(",") if tok.strip())
    cfg = SuiteConfig(**dict(values, s_values=s_values))
    report = run_suite(cfg)
    print(report.human_summary())
    path = _report_path(args)
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("report: %s" % path)
    return report.exit_code()


def _cmd_dims(args) -> int:
    from .current import graded_dim

    spec = resolve_omega(args.omega)
    check_int("grade", 0, args.grade)
    check_int("d", 1, args.d)
    print("omega=%s dim=%d d=%d" % (args.omega, spec.dim, args.d))
    for n in range(args.grade + 1):
        print("grade=%d dim=%d" % (n, graded_dim(spec, args.d, n)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"check": _cmd_check, "run": _cmd_run, "dims": _cmd_dims}
    try:
        return commands[args.command](args)
    except (StructureError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
