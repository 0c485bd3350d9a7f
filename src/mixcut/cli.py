"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 resource guard tripped,
4 reference-table mismatch (coverage --check-paper only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from typing import Iterable

from . import bench, blp, dd, families, hull
from .core import (
    ValidationError,
    cut_from_json,
    cut_is_valid,
    cut_to_dict,
    cut_to_json,
    instance_from_json,
    json_array,
    json_int,
    json_ints,
    json_object,
    json_rats,
    rat_str,
    ratio_str,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PAPER_MISMATCH = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_pieces(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces of one document, then a newline, to the file `out`,
    or to stdout when `out` is not given, one piece at a time."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)
        fh.write("\n")


def _budget(args) -> dd.Budget:
    """The wall-clock budget of the whole command: MIXCUT_BUDGET seconds,
    else --budget.

    Any value that is not > 0 (0, negative, nan) is refused: 0 and nan would
    switch the guard off, a negative value would trip it before any work.
    """
    env = os.environ.get("MIXCUT_BUDGET")
    what, value = "--budget", args.budget
    if env:
        what = "MIXCUT_BUDGET"
        try:
            value = float(env)
        except ValueError:
            raise ValidationError(
                f"MIXCUT_BUDGET must be a number of seconds, got {env!r}"
            ) from None
    if not value > 0:
        raise ValidationError(f"{what} must be a positive number of seconds, got {value}")
    return dd.Budget(seconds=value)


def cmd_hull(args) -> int:
    inst = instance_from_json(_read(args.instance))
    fs = hull.enumerate_facets(inst, _budget(args))
    # --out is opened only now, so a tripped budget leaves no file
    _write_pieces(hull.facetset_pieces(fs), args.out)
    return EXIT_OK


def cmd_coverage(args) -> int:
    family_names = bench.DEFAULT_FAMILIES
    if args.families:
        family_names = tuple(name.strip() for name in args.families.split(","))
    budget = _budget(args)
    # a report without the table's families would pass with nothing compared
    if args.check_paper and not set(family_names) & set(bench.DEFAULT_FAMILIES):
        raise ValidationError(
            f"--check-paper compares {', '.join(bench.DEFAULT_FAMILIES)} with the"
            " reference table; --families lists none of them"
        )
    bench._require_table_families(args.format, family_names)
    report = bench.benchmark_coverage(args.example, args.m, args.p, family_names, budget)
    if report.incomplete:
        print("incomplete: budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    _write_pieces((bench.emit_report([report], args.format),), args.out)
    if args.check_paper:
        problems = bench.check_against_paper(report)
        for line in problems:
            print(f"reference mismatch: {line}", file=sys.stderr)
        if problems:
            return EXIT_PAPER_MISMATCH
    return EXIT_OK


def _params_from_payload(payload: dict, family: str):
    """The family's parameter record, its fields read in order from the
    payload (``a_sets`` as ``A_sets``).

    A field whose default is empty reads a missing key as []; one whose
    default is None reads a missing or null key as None, which leaves zhao's
    s to be derived.  Any other value, the empty array included, is checked.
    """

    def read(field):
        key = "A_sets" if field.name == "a_sets" else field.name
        value = payload.get(key, [] if field.default == () else None)
        if value is None and field.default is None:
            return None
        if key == "r":
            return json_int(value, "parameter", key)
        if key == "A_sets":
            return tuple(
                frozenset(json_ints(a, "parameter", f"A_{j}"))
                for j, a in enumerate(json_array(value, "parameter", key), 1)
            )
        rationals = key in ("delta", "phi", "beta")
        return (json_rats if rationals else json_ints)(value, "parameter", key)

    record = families.GENERATORS[family][0]
    return record(*map(read, fields(record)))


def cmd_generate(args) -> int:
    payload = json_object(json.loads(_read(args.params)), "parameter", ("instance",))
    inst = instance_from_json(json.dumps(payload["instance"]))
    result = families.GENERATORS[args.family][1](inst, _params_from_payload(payload, args.family))
    if not isinstance(result, families.GenericCutResult):
        text = cut_to_json(result)
    elif not result.accepted:
        # a refusal is an answer, like `check`'s {"valid": false}
        text = json.dumps({"accepted": False, "infeasible_j": result.infeasible_j})
    else:
        cert = result.certificate
        text = json.dumps({
            "accepted": True,
            "cut": cut_to_dict(result.cut),
            "certificate": {
                "family": args.family,
                "params": {
                    "r": cert.r,
                    "t_set": list(cert.t_set),
                    "delta": [rat_str(d) for d in cert.delta],
                    "q_list": list(cert.q_list),
                    "phi": [rat_str(v) for v in cert.phi],
                },
                "A_sets": [sorted(a) for a in cert.a_sets],
                "beta": [rat_str(b) for b in cert.beta],
            },
        })
    _write_pieces((text,), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    """Print ``{"valid": ...}``, with ``"facet"`` too under --facet.

    With --facet, one `hull.is_facet` call reads the slacks once: it decides
    validity on the way, and an invalid cut raises `hull.InvalidCutError`.
    """
    inst = instance_from_json(_read(args.instance))
    cut = cut_from_json(_read(args.cut))
    if not args.facet:
        result = {"valid": cut_is_valid(inst, cut)}
    else:
        try:
            result = {"valid": True, "facet": hull.is_facet(inst, cut)}
        except hull.InvalidCutError:
            result = {"valid": False, "facet": False}
    print(json.dumps(result))
    return EXIT_OK


def cmd_blp_aggregate(args) -> int:
    S = blp.bilinear_set_from_json(_read(args.set))
    assignment = blp.assignment_from_json(_read(args.assignment))
    expr = blp.aggregate(S, assignment)
    result = blp.substitute(S, expr)
    document = {
        "coefs": [ratio_str(c, result.denominator) for c in result.coefs_num],
        "rhs": ratio_str(result.rhs_num, result.denominator),
        "t_sets_disjoint": result.t_sets_disjoint,
    }
    if S.z_slot is not None:
        document["cut"] = cut_to_dict(result.mixing_cut())
    _write_pieces((json.dumps(document),), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcut",
        description="Exact cutting-plane toolkit for mixing sets with a knapsack constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hull = sub.add_parser("hull", help="enumerate the exact facet list of an instance")
    p_hull.add_argument("--instance", required=True)
    p_hull.add_argument("--out")
    p_hull.add_argument("--budget", type=float, default=3600.0)
    p_hull.set_defaults(func=cmd_hull)

    p_cov = sub.add_parser("coverage", help="facet coverage of the inequality families")
    p_cov.add_argument("--example", required=True, type=str.upper, choices=sorted(bench._EXAMPLES))
    p_cov.add_argument("--m", type=int, required=True)
    p_cov.add_argument("--p", type=int, required=True)
    p_cov.add_argument("--families", help="comma-separated family names")
    p_cov.add_argument("--format", default="markdown", choices=bench._FORMATS)
    p_cov.add_argument("--budget", type=float, default=3600.0)
    p_cov.add_argument("--check-paper", action="store_true",
                       help="compare against the embedded reference table (exit 4 on mismatch)")
    p_cov.add_argument("--out")
    p_cov.set_defaults(func=cmd_coverage)

    p_gen = sub.add_parser("generate", help="emit a family cut from a parameter file")
    p_gen.add_argument("--family", required=True, choices=sorted(families.FAMILIES))
    p_gen.add_argument("--params", required=True)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_check = sub.add_parser("check", help="validity (and optionally facet) test for a cut")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--cut", required=True)
    p_check.add_argument("--facet", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_blp = sub.add_parser("blp-aggregate", help="aggregate and substitute a weighted selection")
    p_blp.add_argument("--set", required=True)
    p_blp.add_argument("--assignment", required=True)
    p_blp.add_argument("--out")
    p_blp.set_defaults(func=cmd_blp_aggregate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dd.BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnicodeDecodeError as exc:
        print(f"input file is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
