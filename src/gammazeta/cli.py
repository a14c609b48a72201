"""Command-line interface: table emission, expansion evaluation,
convergence studies, integral checks, and the verification suites.

Exit codes are a stable contract:
    0    success
    1    verification failure
    2    usage error (including tables --max above MAX_TABLE_ROW,
         --terms or --max-terms above MAX_TERMS, verify --depth above
         MAX_DEPTH, and an --s component whose digit count plus
         |exponent| is above MAX_S_DIGITS)
    3    numeric-domain error (poles, out-of-domain arguments)
    4    quadrature budget exceeded
    141  the reader of stdout closed it early, as in ``| head``; nothing
         goes to stderr (128 + SIGPIPE, the status a shell reports for a
         process that SIGPIPE ended)

All JSON output is a single object with schema_version, command,
parameters, and payload; big integers are serialized as decimal strings
so no consumer can lose precision to floating point. CSV uses a header
row, comma separators, LF line endings, and plain decimal strings.
Output is deterministic for identical flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import (
    combinatorics as comb,
    gamma_expansion,
    mittag_leffler,
    oracles,
    verify as verify_mod,
    zeta_expansion,
)
from .report import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, DEFAULT_SEED, VERIFY_SUITES,
                     BudgetExceededError, DomainError)

SCHEMA_VERSION = "1.0"
# cap on tables --max: the output and the time grow much faster than
# the row count (the README gives the figures)
MAX_TABLE_ROW = 64
# cap on --terms and --max-terms, which bounds time: at the cap the
# slowest case with a short s is rational s on the direct path
MAX_TERMS = 1000
# cap on the digit count plus |exponent| of each --s component: Fraction
# builds 10**|exponent| exactly, and the exact backend's work grows with
# the size of s
MAX_S_DIGITS = 1000
# cap on verify --depth: several checks loop to the full depth, and the
# work grows faster than depth**4
MAX_DEPTH = 128

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141


class UsageError(Exception):
    pass


def _parse_decimal(text: str) -> Fraction:
    from fractions import Fraction  # imported here: --help and tables parse no --s

    # decimal literals only; Fraction would also take "p/q", which the
    # flag contract does not admit
    if "/" in text:
        raise ValueError("not a decimal literal")
    mantissa, _, exponent = text.lower().partition("e")
    try:
        size = sum(c.isdigit() for c in mantissa) + abs(int(exponent or 0))
    except ValueError:  # not a literal; Fraction says why
        size = 0
    if size > MAX_S_DIGITS:
        raise UsageError(f"a component of --s has {size} digits plus |exponent|, "
                         f"above the cap {MAX_S_DIGITS}")
    return Fraction(text)


def parse_complex_flag(text: str, positive_re: bool = False):
    """Parse "RE" or "RE,IM" decimal literals.

    A plain real returns an exact Fraction (the evaluators then run
    their exact integer backends); with an imaginary part the value is
    a complex float, whose real part must not round to 0.0 from above
    where the domain is Re(s) > 0 (``positive_re``).
    """
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise UsageError(f"cannot parse complex value {text!r}; use RE or RE,IM")
    try:
        re = _parse_decimal(parts[0].strip())
        im = _parse_decimal(parts[1].strip()) if len(parts) == 2 else 0
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse complex value {text!r}: {exc}") from exc
    if im == 0:
        return re
    if positive_re and re > 0 and not float(re):
        raise DomainError("Re(s) > 0 rounds to 0.0, below the float range")
    return complex(float(re), float(im))


def output_record(command: str, parameters: dict, payload) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }


def emit_json(record: dict, stream) -> None:
    json.dump(record, stream, indent=2)
    stream.write("\n")


def _complex_payload(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ------------------------------------------------------------------- tables

# each module is read per call, so a wrapper (perfbench's tracer) runs
# and only the module of the family asked for executes
TABLE_ROWS = {
    "stirling1": lambda m: comb.STIRLING1.rows(m),
    "stirling2": lambda m: comb.STIRLING2.rows(m),
    # row n >= 1 lists A(n,0..n-1); the stored A(n,n) = 0 is left out
    "eulerian": lambda m: [r[: max(n, 1)] for n, r in enumerate(comb.EULERIAN.rows(m))],
    "c": lambda m: gamma_expansion.coeff_table(m),
    "a": lambda m: mittag_leffler.coeff_table(m),
    "b": lambda m: zeta_expansion.coeff_table(m),
}
TABLE_FAMILIES = tuple(TABLE_ROWS)


def cmd_tables(args, out) -> int:
    if args.max_row < 0:
        raise UsageError("--max must be nonnegative")
    if args.max_row > MAX_TABLE_ROW:
        raise UsageError(f"--max {args.max_row} exceeds the cap {MAX_TABLE_ROW}")
    rows = TABLE_ROWS[args.family](args.max_row)
    if args.format == "csv":
        out.write("row,col,value\n")
        for n, row in enumerate(rows):
            for k, value in enumerate(row):
                out.write(f"{n},{k},{value}\n")
    else:
        payload = {
            "family": args.family,
            "max_row": args.max_row,
            "rows": [[str(v) for v in row] for row in rows],
        }
        emit_json(
            output_record(
                "tables",
                {"family": args.family, "max_row": args.max_row, "format": "json"},
                payload,
            ),
            out,
        )
    return EXIT_OK


# --------------------------------------------------------------------- eval

EVALUATORS = {"gamma": gamma_expansion, "zeta": zeta_expansion}


def cmd_eval(args, out) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    if args.terms > MAX_TERMS:
        raise UsageError(f"--terms {args.terms} exceeds the cap {MAX_TERMS}")
    s = parse_complex_flag(args.s, positive_re=args.target == "zeta")
    report = EVALUATORS[args.target].evaluate(s, args.terms, args.path)
    payload = {
        "s": _complex_payload(report.s),
        "terms": report.terms,
        "path": report.path,
        "partial_sum": _complex_payload(report.partial_sum),
        "reference": _complex_payload(report.reference),
        "abs_error": report.abs_error,
        "rel_error": report.rel_error,
        "term_magnitudes": report.term_magnitudes,
    }
    emit_json(
        output_record(
            "eval",
            {"target": args.target, "s": args.s, "terms": args.terms, "path": args.path},
            payload,
        ),
        out,
    )
    return EXIT_OK


# ----------------------------------------------------------------- converge

def cmd_converge(args, out) -> int:
    if not 1 <= args.stride <= args.max_terms:
        raise UsageError("requires max-terms >= stride >= 1")
    if args.max_terms > MAX_TERMS:
        raise UsageError(f"--max-terms {args.max_terms} exceeds the cap {MAX_TERMS}")
    s = parse_complex_flag(args.s, positive_re=args.target == "zeta")
    module = EVALUATORS[args.target]
    # the oracle first: an s that it refuses costs no terms
    reference = module.reference_value(s)
    sums = module.partial_sums(s, args.max_terms, args.path)
    samples = []
    for terms in range(args.stride, args.max_terms + 1, args.stride):
        value = sums[terms - 1]
        rel = abs(value - reference) / abs(reference) if reference else float("inf")
        samples.append((terms, value, rel))
    if args.format == "csv":
        out.write("terms,partial_sum_re,partial_sum_im,rel_error\n")
        for terms, value, rel in samples:
            out.write(f"{terms},{value.real!r},{value.imag!r},{rel!r}\n")
    else:
        payload = {
            "reference": _complex_payload(reference),
            "samples": [
                {
                    "terms": terms,
                    "partial_sum": _complex_payload(value),
                    "rel_error": rel,
                }
                for terms, value, rel in samples
            ],
        }
        emit_json(
            output_record(
                "converge",
                {
                    "target": args.target,
                    "s": args.s,
                    "max_terms": args.max_terms,
                    "stride": args.stride,
                    "path": args.path,
                },
                payload,
            ),
            out,
        )
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args, out) -> int:
    if args.depth < 0:
        raise UsageError("--depth must be nonnegative")
    if args.depth > MAX_DEPTH:
        raise UsageError(f"--depth {args.depth} exceeds the cap {MAX_DEPTH}")
    results = verify_mod.run_suite(args.suite, args.depth, seed=args.seed)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "depth": args.depth,
            "checks": [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "status": "pass" if r.passed else "fail",
                    "witness": r.witness,
                }
                for r in results
            ],
        }
        emit_json(
            output_record(
                "verify",
                {"suite": args.suite, "depth": args.depth, "seed": args.seed},
                payload,
            ),
            out,
        )
    else:
        for r in results:
            if r.passed:
                out.write(f"PASS {r.suite}:{r.name}\n")
            else:
                out.write(f"FAIL {r.suite}:{r.name}: {r.witness}\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


# ----------------------------------------------------------- integral-check

def cmd_integral_check(args, out) -> int:
    if not 0 <= args.n <= 12:
        raise UsageError("--n must lie in 0..12")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError("--tol must be a finite number > 0")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    s = parse_complex_flag(args.s, positive_re=True)
    report = oracles.integral_identity_check(s, args.n, tol=args.tol, budget=args.budget)
    payload = {
        "s": _complex_payload(report.s),
        "n": report.n,
        "lhs": _complex_payload(report.lhs),
        "rhs": _complex_payload(report.rhs),
        "abs_discrepancy": report.abs_discrepancy,
        "rel_discrepancy": report.rel_discrepancy,
        "quadrature": {
            "error_estimate": report.quadrature.error_estimate,
            "evaluations": report.quadrature.evaluations,
            "converged": report.quadrature.converged,
        },
    }
    emit_json(
        output_record(
            "integral-check",
            {"s": args.s, "n": args.n, "tol": args.tol},
            payload,
        ),
        out,
    )
    return EXIT_OK


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammazeta",
        description=(
            "Exact coefficient triangles and factorial series expansions "
            "of Gamma(s+1) and eta(s)Gamma(s), with verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tables", help="emit a coefficient triangle")
    p.add_argument("family", choices=TABLE_FAMILIES)
    p.add_argument("--max", dest="max_row", type=int, required=True,
                   help=f"largest row index to emit (at most {MAX_TABLE_ROW})")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("eval", help="evaluate a truncated expansion")
    p.add_argument("target", choices=("gamma", "zeta"))
    p.add_argument("--s", required=True, help='argument, "RE" or "RE,IM"')
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--path", choices=("direct", "recurrence"), default="direct")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("converge", help="sample convergence of an expansion")
    p.add_argument("target", choices=("gamma", "zeta"))
    p.add_argument("--s", required=True)
    p.add_argument("--max-terms", dest="max_terms", type=int, required=True)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--path", choices=("direct", "recurrence"), default="direct")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=("all",) + VERIFY_SUITES)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized property checks")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integral-check",
                       help="check the reduced-polynomial integral identity")
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_QUAD_TOL)
    p.add_argument("--budget", type=int, default=DEFAULT_QUAD_BUDGET,
                   help="cap on integrand evaluations")
    p.set_defaults(func=cmd_integral_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:  # a value beyond the float range, e.g. Gamma(201)
        print(f"numeric-domain error: float overflow ({exc})", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        print(f"quadrature budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
