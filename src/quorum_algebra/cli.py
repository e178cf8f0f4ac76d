"""Command line front end: property checks, Groebner runs, threshold generation.

Exit codes for `check`: 0 the property holds, 1 it fails, 2 input or usage
error, or a checker ideal over its variable or table budget, 3 the
algebraic and oracle verdicts disagree. Reports on stdout are
byte-deterministic for identical inputs; timing goes to stderr.

Input files are JSON: {"n": int, "quorums": [[indices]], "fail_prone":
[[indices]]} with 1-based indices and either system list optional when the
property does not need it.

The argument parser is built once per process, at the first `main` call, and
reused after that, so in-process callers of `main` pay only for parsing.
Help output still wraps to the terminal width at the time it is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from .algebra import BlockLexOrder, ParseError, format_polynomial, parse_polynomial
from .checkers import (
    PROPERTIES,
    ThresholdError,
    Verdict,
    check_availability,
    check_consistency_classical,
    check_consistency_dissemination,
    check_consistency_masking,
    check_q3,
    check_q4,
    enforce_var_budget,
    threshold_system,
    validate_inputs,
)
from .encoding import SetSystem
from .groebner import IdealBasis, buchberger
from .oracle import (
    OracleReport,
    oracle_availability,
    oracle_consistency_classical,
    oracle_consistency_dissemination,
    oracle_consistency_masking,
    oracle_q3,
    oracle_q4,
)


class InputError(ValueError):
    """Bad input file or option combination; maps to exit code 2."""


def load_system_file(path: str) -> tuple[int, SetSystem | None, SetSystem | None]:
    """Parse and validate an input file into the optional system pair."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    unknown = set(data) - {"n", "quorums", "fail_prone"}
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"{path}: 'n' must be an integer >= 1")

    def build(key: str) -> SetSystem | None:
        lists = data.get(key)
        if lists is None:
            return None
        if not isinstance(lists, list) or not all(isinstance(s, list) for s in lists):
            raise InputError(f"{path}: '{key}' must be a list of lists")
        for s in lists:
            for i in s:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise InputError(f"{path}: '{key}' contains a non-integer index")
        try:
            return SetSystem.from_lists(n, lists)
        except ValueError as exc:
            raise InputError(f"{path}: '{key}': {exc}") from exc

    return n, build("quorums"), build("fail_prone")


def cmd_check(args: argparse.Namespace) -> int:
    n, quorums, fail_prone = load_system_file(args.input)
    reads = PROPERTIES[args.property].reads
    present = {"quorums": quorums, "fail_prone": fail_prone}
    for key in reads:
        if present[key] is None:
            raise InputError(f"property '{args.property}' needs '{key}' in the input file")
    systems = [present[key] for key in reads]
    try:
        validate_inputs(args.property, tuple(systems))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    # Built per call from this module's names, so wrappers set on them see the call.
    checker, oracle = {
        "consistency": (check_consistency_classical, oracle_consistency_classical),
        "availability": (check_availability, oracle_availability),
        "dissemination": (check_consistency_dissemination, oracle_consistency_dissemination),
        "masking": (check_consistency_masking, oracle_consistency_masking),
        "q3": (check_q3, oracle_q3),
        "q4": (check_q4, oracle_q4),
    }[args.property]

    verdict: Verdict | None = None
    report: OracleReport | None = None
    if args.method in ("algebraic", "both"):
        t0 = time.perf_counter()
        try:
            verdict = checker(*systems)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        print(f"timing: algebraic {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    if args.method in ("oracle", "both"):
        t0 = time.perf_counter()
        report = oracle(*systems)
        print(f"timing: oracle {time.perf_counter() - t0:.3f}s", file=sys.stderr)

    if verdict is not None and report is not None and verdict.holds != report.holds:
        outcome, code = "CROSS-VALIDATION FAILURE", 3
    elif (verdict.holds if verdict is not None else report.holds):
        outcome, code = "holds", 0
    else:
        outcome, code = "fails", 1

    if args.fmt == "json-like":
        doc: dict = {"property": args.property, "n": n}
        for key in reads:
            doc[key] = [list(m.indices) for m in present[key]]
        doc["method"] = args.method
        if verdict is not None:
            doc["algebraic"] = {
                "holds": verdict.holds,
                "method": verdict.method,
                "expected_count": verdict.expected_count,
                "observed_count": verdict.observed_count,
                "basis_size": len(verdict.certificate.masks),
                # counters only: they repeat exactly, so stdout stays deterministic
                "stats": vars(verdict.certificate.stats),
            }
        if report is not None:
            doc["oracle"] = {
                "holds": report.holds,
                "witness": None if report.witness is None else [sorted(w) for w in report.witness],
            }
        doc["verdict"] = outcome
        print(json.dumps(doc, indent=2))
    else:
        lines = [f"property: {args.property}", f"n: {n}"]
        lines += [f"{key}: {len(present[key])} sets" for key in reads]
        if verdict is not None:
            word = "holds" if verdict.holds else "fails"
            lines.append(f"algebraic: {word} ({verdict.counts_str()})")
        if report is not None:
            if report.holds:
                lines.append("oracle: holds")
            else:
                lines.append(f"oracle: fails (witness {report.witness_str()})")
        lines.append(f"verdict: {outcome}")
        print("\n".join(lines))
    return code


def _split_polys(text: str) -> list[str]:
    return [piece.strip() for piece in re.split(r"[,\n]", text) if piece.strip()]


def cmd_groebner(args: argparse.Namespace) -> int:
    text = args.polys
    if os.path.isfile(text):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{text} is not UTF-8 text: {exc}") from exc
    pieces = _split_polys(text)

    n = args.n
    if n is None:
        indices = [int(m) for m in re.findall(r"[xyzt]\s*([0-9]+)", text)]
        if not indices:
            raise InputError("cannot infer the index bound; pass --n")
        n = max(indices)
    elif n < 1:
        raise InputError("--n must be >= 1")

    if args.order is None:
        letters = set(re.findall(r"([xyzt])\s*[0-9]+", text))
        blocks = tuple(b for b in ("x", "y", "z", "t") if b in letters) or ("x",)
    else:
        blocks = tuple(b.strip() for b in args.order.split(","))
    try:
        order = BlockLexOrder(blocks)
        enforce_var_budget(len(order.blocks), n)
        # a generator that cancels to zero adds nothing to the ideal
        gens = tuple(g for g in (parse_polynomial(piece, n) for piece in pieces) if not g.is_zero)
        basis = IdealBasis(gens, order, n)
    except (ParseError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    t0 = time.perf_counter()
    cert = buchberger(basis)
    print(f"timing: groebner {time.perf_counter() - t0:.3f}s", file=sys.stderr)

    print(f"order: {','.join(order.blocks)}")
    print(f"n: {n}")
    print("reduced basis:")
    for g in cert.basis:
        print(f"  {format_polynomial(g, order)}")
    if not cert.basis:
        # the zero ideal: its ordinary-ring basis is the field polynomials
        for v in order.variables(n):
            print(f"  {v}^2 + {v}")
    print(f"standard monomials: {cert.sm_count}")
    return 0


def cmd_gen_threshold(args: argparse.Namespace) -> int:
    try:
        quorums, fail_prone = threshold_system(args.n, args.f, args.kind, args.all_sizes)
    except ThresholdError as exc:  # a ValueError too, so it is caught first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    doc = {
        "n": args.n,
        "quorums": [list(m.indices) for m in quorums],
        "fail_prone": [list(m.indices) for m in fail_prone],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {args.out}: {len(quorums)} quorums, "
        f"{len(fail_prone)} fail-prone sets over n={args.n}"
    )

    # Built per call from this module's names, so wrappers set on them see the call.
    covers = {"dissemination": ("three", oracle_q3), "masking": ("four", oracle_q4)}
    count, oracle = covers.get(args.kind, (None, None))
    if oracle is not None and not oracle(fail_prone).holds:
        print(
            f"warning: {count} fail-prone sets cover all processes, so no "
            f"{args.kind} system for this fail-prone system can satisfy "
            "both consistency and availability",
            file=sys.stderr,
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qa",
        description="Decide quorum-system properties by Boolean Groebner bases, "
        "cross-validated against a brute-force set oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a property for an input file")
    check.add_argument("property", choices=list(PROPERTIES))
    check.add_argument("--input", required=True, help="JSON system file")
    check.add_argument("--method", choices=("algebraic", "oracle", "both"), default="both")
    check.add_argument(
        "--format", dest="fmt", choices=("text", "json-like"), default="text",
        help="report style (stable key order either way)",
    )
    check.set_defaults(func=cmd_check)

    groeb = sub.add_parser("groebner", help="reduced Boolean Groebner basis of given polynomials")
    groeb.add_argument(
        "--polys", required=True,
        help="comma/newline separated polynomials, or a path to a file of them",
    )
    groeb.add_argument(
        "--order", default=None,
        help="comma separated block letters, most significant first "
        "(default: the blocks appearing in the input)",
    )
    groeb.add_argument("--n", type=int, default=None, help="index bound per block (default: inferred)")
    groeb.set_defaults(func=cmd_groebner)

    gen = sub.add_parser("gen-threshold", help="write a threshold system input file")
    gen.add_argument("--n", type=int, required=True, help="number of processes")
    gen.add_argument("--f", type=int, required=True, help="failure bound")
    gen.add_argument("--kind", choices=("classical", "dissemination", "masking"), required=True)
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument(
        "--all-sizes", action="store_true",
        help="every quorum size at or above threshold and every fail-prone size at most f",
    )
    gen.set_defaults(func=cmd_gen_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
