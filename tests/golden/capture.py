"""Golden outputs of the two factorial-series evaluators and the CLI.

Run from the root of a checkout to (re)write the JSON files next to
this script:

    PYTHONPATH=src python tests/golden/capture.py

``tests/test_golden.py`` recomputes the same records with the
functions in ``COLLECTORS`` and requires them to match the stored files exactly.
Only public names are used, so the script runs unchanged on any commit
that has the current API.

- ``terms.json``: for each (side, path, s, N), the SHA-256 of the
  ``float.hex`` of the real and imaginary part of every term, one
  ``re,im`` line per term. A mismatch names the case; re-run this
  script on both commits and diff the full listing (:func:`term_lines`)
  to find the term.
- ``terms_deep.json``: the same digests at the depths the exact
  benchmark reaches (N up to 450), for one exact rational per side.
- ``terms_800.json``: the same digests at N=800, gamma s=3/2 and zeta
  s=3/4.
- ``terms_cap.json``: the same digests for integer s=2, gamma s=3/2
  and zeta s=3/4 at the term cap (N=1000), and complex s=1+i at N=400,
  on both sides.
- ``complex_sweep.json``: one SHA-256 over :func:`sweep_lines`, the
  ``float.hex`` of the float route at ``SWEEP_DRAWS`` seeded complex s
  per side, N log-uniform in 1..300: the terms of both paths, ``evaluate``'s
  ``reference`` and ``rel_error``, the coefficient helper to order 60,
  and, on the zeta side, ``eta_ref`` at the orders ``SWEEP_ETA_ORDERS``.
- ``coeffs.json``: ``integrand_coeffs`` and ``log_ratio_coeffs`` to
  order 30, exact Fractions as strings, complex floats as ``float.hex``.
- ``cli.json``: the stdout of a set of CLI commands, byte for byte.
- ``refusals.json``: the exit code, stdout and stderr of ``eval`` and
  ``converge`` on both paths at each s of ``REFUSALS``, byte for byte.
- ``quadrature.json``: the double-exponential rules and the integrals
  built on them. Each result is recorded as ``float.hex`` of ``value``
  and ``error_estimate``, plus ``evaluations`` and ``converged``.
- ``commands.json``: the stdout of ``verify`` and ``integral-check``
  commands byte for byte, and the SHA-256 of the stdout of ``tables``
  for every family to ``--max 64`` in csv and json.
- ``polynomials.json``: the Riccati derivative polynomials, ``Q_n`` and
  ``P_n``, every coefficient by value as the strings of the real and
  imaginary ``Fraction`` parts; the root brackets of ``P_1..P_30`` and
  of the edge polynomials ``ROOT_EDGE_CASES`` (or the text of the
  ``DefectError`` they raise) and the interlacing verdicts;
  ``series_pow`` of two exact bases (complex powers as ``float.hex``);
  and the ``float.hex`` of ``eta_ref`` on the critical line up to
  Im s = 150.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from gammazeta import (
    GaussianRational,
    Polynomial,
    TruncatedSeries,
    cli,
    derivative_polynomials,
    gamma_expansion,
    oracles,
    series_pow,
    zeta_expansion,
)
from gammazeta.report import DefectError, DomainError

HERE = Path(__file__).resolve().parent

SIDES = {"gamma": gamma_expansion, "zeta": zeta_expansion}
PATHS = ("direct", "recurrence")
DEPTHS = (1, 2, 50, 200)
COEFF_ORDER = 30

# real s: exact rationals and two binary floats (large denominators);
# complex s: the float backend
REAL_S = {
    "1/2": Fraction(1, 2),
    "3/4": Fraction(3, 4),
    "3/2": Fraction(3, 2),
    "2": Fraction(2),
    "7/3": Fraction(7, 3),
    "0.3": 0.3,
    "1e-3": 1e-3,
}
COMPLEX_S = {
    "1+1j": 1 + 1j,
    "2.3+0.7j": 2.3 + 0.7j,
    "0.5+2j": 0.5 + 2j,
    "1.5-0.25j": 1.5 - 0.25j,
}
ALL_S = {**REAL_S, **COMPLEX_S}

CLI_ARGVS = [
    ["eval", "gamma", "--s", "1.5", "--terms", "60"],
    ["eval", "gamma", "--s", "0.3,1.2", "--terms", "40", "--path", "recurrence"],
    ["eval", "zeta", "--s", "0.75", "--terms", "50", "--path", "recurrence"],
    ["eval", "zeta", "--s", "0.75,0.5", "--terms", "30"],
    ["converge", "gamma", "--s", "0.75", "--max-terms", "200", "--stride", "50",
     "--format", "csv"],
    ["converge", "zeta", "--s", "1.25", "--max-terms", "120", "--stride", "40",
     "--format", "csv", "--path", "recurrence"],
    ["converge", "gamma", "--s", "1,1", "--max-terms", "60", "--stride", "20",
     "--format", "json"],
    ["converge", "zeta", "--s", "1.5", "--max-terms", "90", "--stride", "30",
     "--format", "json"],
    ["tables", "c", "--max", "16", "--format", "json"],
    ["tables", "b", "--max", "16", "--format", "json"],
]


def _hex(z: complex) -> str:
    return f"{float.hex(z.real)},{float.hex(z.imag)}"


def term_lines(side: str, path: str, s, n_terms: int) -> str:
    """One ``re,im`` line of ``float.hex`` per term."""
    terms = SIDES[side].expansion_terms(s, n_terms, path)
    return "\n".join(_hex(complex(t)) for t in terms)


def collect_terms() -> dict:
    out = {}
    for side in SIDES:
        for path in PATHS:
            for label, s in ALL_S.items():
                for n in DEPTHS:
                    digest = hashlib.sha256(term_lines(side, path, s, n).encode())
                    out[f"{side}|{path}|{label}|{n}"] = digest.hexdigest()
    return out


# (side, s label, s, N): the deepest exact rows a workload runs
DEEP_CASES = [
    ("gamma", "3/10", Fraction(3, 10), 450),
    ("zeta", "7/4", Fraction(7, 4), 320),
]


# 800 terms: the depth the CI deep-row step runs
CASES_800 = [
    ("gamma", "3/2", Fraction(3, 2), 800),
    ("zeta", "3/4", Fraction(3, 4), 800),
]


# integer and non-integer rational s at the term cap, where P is
# largest, and complex s where the float sums are deep
CASES_CAP = [
    ("gamma", "2", Fraction(2), 1000),
    ("zeta", "2", Fraction(2), 1000),
    ("gamma", "3/2", Fraction(3, 2), 1000),
    ("zeta", "3/4", Fraction(3, 4), 1000),
    ("gamma", "1+1j", 1 + 1j, 400),
    ("zeta", "1+1j", 1 + 1j, 400),
]


def _case_digests(cases) -> dict:
    out = {}
    for side, label, s, n in cases:
        for path in PATHS:
            digest = hashlib.sha256(term_lines(side, path, s, n).encode())
            out[f"{side}|{path}|{label}|{n}"] = digest.hexdigest()
    return out


def collect_deep_terms() -> dict:
    return _case_digests(DEEP_CASES)


def collect_terms_800() -> dict:
    return _case_digests(CASES_800)


def collect_terms_cap() -> dict:
    return _case_digests(CASES_CAP)


SWEEP_DRAWS = 1000
SWEEP_ORDER = 60
SWEEP_ETA_ORDERS = (1, 36, 120, 399)
# side -> (lowest Re s, coefficient helper); Re s up to 6, |Im s| <= 25
SWEEP_SIDES = {
    "gamma": (-1.0, gamma_expansion.integrand_coeffs),
    "zeta": (0.0, zeta_expansion.log_ratio_coeffs),
}


def sweep_lines():
    """``float.hex`` lines of the float route at seeded complex draws:
    a mismatch in the digest is found by diffing this listing between
    two commits."""
    rng = random.Random(1010)
    for side, (lowest, helper) in SWEEP_SIDES.items():
        module = SIDES[side]
        for _ in range(SWEEP_DRAWS):
            s = complex(rng.uniform(lowest, 6.0), rng.uniform(-25.0, 25.0))
            n = round(300 ** rng.random())  # log-uniform in 1..300
            yield f"{side} {_hex(s)} {n}"
            for path in PATHS:
                yield from map(_hex, module.expansion_terms(s, n, path))
            rep = module.evaluate(s, n)
            yield f"{_hex(rep.reference)} {float.hex(rep.rel_error)}"
            yield from map(_hex, helper(s, SWEEP_ORDER).coeffs)
            if side == "zeta":
                for order in SWEEP_ETA_ORDERS:
                    yield _hex(oracles.eta_ref(s, order))


def collect_complex_sweep() -> dict:
    digest = hashlib.sha256()
    for line in sweep_lines():
        digest.update(line.encode() + b"\n")
    return {"sha256": digest.hexdigest()}


def _coeff_text(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    return _hex(complex(c))


def collect_coeffs() -> dict:
    helpers = {
        "integrand_coeffs": gamma_expansion.integrand_coeffs,
        "log_ratio_coeffs": zeta_expansion.log_ratio_coeffs,
    }
    # the binary floats are left out: their exact coefficients run to
    # hundreds of digits each and take the same integer loop as p/q
    args = {k: v for k, v in ALL_S.items() if not isinstance(v, float)}
    args.update({"3": 3, "-1/2": Fraction(-1, 2)})  # verify's argument; a negative one
    out = {}
    for name, fn in helpers.items():
        for label, s in args.items():
            series = fn(s, COEFF_ORDER)
            out[f"{name}|{label}"] = [_coeff_text(c) for c in series.coeffs]
    return out


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{argv} exited {code}")
    return buf.getvalue()


def collect_cli() -> dict:
    return {" ".join(argv): cli_stdout(argv) for argv in CLI_ARGVS}


# (side, s) that eval and converge refuse: Re(s) at the floor, the pole
# of 1/(s+1), a real s beyond the float range, the prefactor 2**(s-1)/s
# beyond it (at tiny |s| and from Re(s) = 1025 on), Re(s) > 0 rounding
# to 0.0, and s that the oracle, asked first, refuses
REFUSALS = [
    ("gamma", "-1"), ("gamma", "-1.5,2"), ("zeta", "0"), ("zeta", "-0.5,1"),
    ("gamma", "-0.9999999999999,1e-13"),
    ("gamma", "1e999"), ("zeta", "1e999"),
    ("zeta", "1e-320"), ("zeta", "5e-324,5e-324"), ("zeta", "1e-400"),
    ("zeta", "1025"), ("zeta", "1e5"), ("zeta", "2000,1"),
    ("zeta", "1e-400,1"),
    ("gamma", "180"), ("gamma", "999,1000"), ("zeta", "0.5,200"),
]


def cli_run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def collect_refusals() -> dict:
    out = {}
    for side, s in REFUSALS:
        for path in PATHS:
            for argv in (["eval", side, f"--s={s}", "--terms", "3"],
                         ["converge", side, f"--s={s}", "--max-terms", "3", "--stride", "1"]):
                argv += ["--path", path]
                out[" ".join(argv)] = cli_run(argv)
    return out


# (label, rule, integrand, interval arguments, keyword arguments); the
# budget-limited cases stop before reaching ``tol``, the "every level"
# ones run out of refinement levels, and "nan far out"
# raises DomainError once x*x overflows
QUAD_CASES = [
    ("ts|t^2|default", "quad_tanh_sinh", lambda t: t**2, (0.0, 1.0), {}),
    ("ts|-log u|1e-12", "quad_tanh_sinh", lambda u: -math.log(u), (0.0, 1.0),
     {"tol": 1e-12}),
    ("ts|1/sqrt x|1e-8", "quad_tanh_sinh", lambda x: 1 / math.sqrt(x), (0.0, 1.0),
     {"tol": 1e-8}),
    ("ts|exp(ix) on (-1,2)|1e-14", "quad_tanh_sinh", lambda x: cmath.exp(1j * x),
     (-1.0, 2.0), {"tol": 1e-14}),
    ("ts|sin 40x|budget 50", "quad_tanh_sinh", lambda x: math.sin(40 * x),
     (0.0, 1.0), {"tol": 1e-14, "budget": 50}),
    ("ts|sqrt|x-0.3||every level", "quad_tanh_sinh", lambda x: abs(x - 0.3) ** 0.5,
     (0.0, 1.0), {"tol": 1e-300}),
    ("es|exp(-x)|default", "quad_exp_sinh", lambda x: math.exp(-x), (), {}),
    ("es|x exp(-x) from 1|1e-12", "quad_exp_sinh", lambda x: x * math.exp(-x),
     (1.0,), {"tol": 1e-12}),
    ("es|x^2 exp(-x)|nan far out", "quad_exp_sinh", lambda x: x * x * math.exp(-x),
     (), {}),
    ("es|exp((-1+i)x)|1e-8", "quad_exp_sinh", lambda x: cmath.exp((-1 + 1j) * x),
     (), {"tol": 1e-8}),
    ("es|exp(-x)/sqrt x|budget 30", "quad_exp_sinh",
     lambda x: math.exp(-x) / math.sqrt(x), (), {"tol": 1e-15, "budget": 30}),
    ("es|exp(-x)/sqrt x|every level", "quad_exp_sinh",
     lambda x: math.exp(-x) / math.sqrt(x), (), {"tol": 1e-300}),
]
IDENTITY_S = {"0.75": 0.75, "1.5": 1.5, "0.6+1.2j": 0.6 + 1.2j}


def quad_record(res) -> dict:
    return {
        "value": _hex(complex(res.value)),
        "error_estimate": float.hex(float(res.error_estimate)),
        "evaluations": res.evaluations,
        "converged": res.converged,
    }


def collect_quadrature() -> dict:
    out = {}
    for label, rule, f, interval, kwargs in QUAD_CASES:
        try:
            record = quad_record(getattr(oracles, rule)(f, *interval, **kwargs))
        except DomainError as exc:
            record = {"DomainError": str(exc)}
        out[f"{rule}|{label}"] = record
    for s in (0.5, 1.0, 2.25, 0.3 + 0.4j):
        out[f"gamma_integral_ref|{s}"] = quad_record(oracles.gamma_integral_ref(s))
    for s in (0.5, 1.0, 2.0, 0.75 + 1.5j):
        out[f"eta_integral_ref|{s}"] = quad_record(oracles.eta_integral_ref(s))
    for label, s in IDENTITY_S.items():
        for n in range(13):
            rep = oracles.integral_identity_check(s, n)
            out[f"integral_identity_check|{label}|{n}"] = {
                "lhs": _hex(rep.lhs),
                "rhs": _hex(rep.rhs),
                "abs_discrepancy": float.hex(rep.abs_discrepancy),
                "rel_discrepancy": float.hex(rep.rel_discrepancy),
                "quadrature": quad_record(rep.quadrature),
            }
    return out


TEXT_ARGVS = [
    ["verify", "all", "--depth", "12", "--format", "json"],
    ["integral-check", "--s", "0.75", "--n", "4"],
    ["integral-check", "--s", "0.6,1.2", "--n", "7", "--tol", "1e-9"],
]
TABLE_ARGVS = [
    ["tables", family, "--max", "64", "--format", fmt]
    for family in cli.TABLE_FAMILIES
    for fmt in ("csv", "json")
]


def collect_commands() -> dict:
    out = {" ".join(argv): cli_stdout(argv) for argv in TEXT_ARGVS}
    for argv in TABLE_ARGVS:
        digest = hashlib.sha256(cli_stdout(argv).encode()).hexdigest()
        out[" ".join(argv)] = f"sha256:{digest}"
    return out


# (a, alpha, beta) of x' = a(x-alpha)(x-beta): the three equations of
# ``verify``, one with fractional parameters and one with a leading
# coefficient and a conjugate pair off the imaginary axis
RICCATI_CASES = {
    "logistic": (1, 0, 1),
    "tan": (1, GaussianRational(0, 1), GaussianRational(0, -1)),
    "tanh": (-1, 1, -1),
    "1/2,1/3,2/5": (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
    "3,1+2i,1-2i": (3, GaussianRational(1, 2), GaussianRational(1, -2)),
}
POW_BASES = {
    "1+t/2-t^2/3+t^3": (1, Fraction(1, 2), Fraction(-1, 3), 1, 0, Fraction(2, 7)),
    "1-3t+t^4/5": (1, -3, 0, 0, Fraction(1, 5), 0, 0, 1),
}
POW_EXPONENTS = {"-1": -1, "0": 0, "2": 2, "1/3": Fraction(1, 3), "5/2": Fraction(5, 2),
                 "0.5+0.25j": 0.5 + 0.25j}


# linear factors (b, a) of b x + a, whose roots in (0,1) sit where
# bisection is delicate: dyadic roots at the isolation and refinement
# levels and below the last one, roots at or near the ends of (0,1),
# pairs 2**-39, 2**-40 and 2**-41 apart (the last one inside one
# bracket-width cell), multiple roots, Fraction coefficients and a
# negative leading coefficient
ROOT_EDGE_CASES = {
    "(2x-1)(4x-1)(8x-5)": ((2, -1), (4, -1), (8, -5)),
    "x(x-1)(3x-1)": ((1, 0), (1, -1), (3, -1)),
    "(2^40x-1)(2^40x-3)(2^39x-2^38-1)":
        ((2**40, -1), (2**40, -3), (2**39, -(2**38) - 1)),
    "(2^41x-1)(2^45x-2^45+3)": ((2**41, -1), (2**45, -(2**45) + 3)),
    "(3x-1)(3*2^39x-2^39-3)": ((3, -1), (3 * 2**39, -(2**39) - 3)),
    "(3x-1)(3*2^40x-2^40-3)": ((3, -1), (3 * 2**40, -(2**40) - 3)),
    "(3x-1)(3*2^41x-2^41-3)": ((3, -1), (3 * 2**41, -(2**41) - 3)),
    "(10^13x-1)(10^13x-10^13+1)": ((10**13, -1), (10**13, -(10**13) + 1)),
    "(3x-1)^2(5x-4)": ((3, -1), (3, -1), (5, -4)),
    "(3x-1)^3": ((3, -1), (3, -1), (3, -1)),
    "-(x-3/16)(x-3/4)(x-2/7)":
        ((-1, Fraction(3, 16)), (1, Fraction(-3, 4)), (1, Fraction(-2, 7))),
}


def _factors(factors) -> Polynomial:
    """The product of the linear factors (b x + a), given as (b, a)."""
    out = Polynomial.one()
    for b, a in factors:
        out = out * Polynomial((a, b))
    return out


def _brackets_or_error(p) -> list | dict:
    try:
        brackets = derivative_polynomials.roots_in_unit_interval(p)
    except DefectError as exc:
        return {"DefectError": str(exc)}
    return [[str(lo), str(hi)] for lo, hi in brackets]


def _exact_text(c) -> str:
    """Value of an exact coefficient as ``re,im`` Fraction strings, so an
    int 0 and ``GaussianRational(0, 0)`` record the same."""
    if isinstance(c, GaussianRational):
        return f"{c.re},{c.im}"
    return f"{Fraction(c)},0"


def _poly_text(p) -> list[str]:
    return [_exact_text(c) for c in p.coeffs]


def collect_polynomials() -> dict:
    dp = derivative_polynomials
    out = {}
    for label, (a, alpha, beta) in RICCATI_CASES.items():
        for n in range(1, 15):
            poly = dp.riccati_derivative(n, a, alpha, beta)
            out[f"riccati_derivative|{label}|{n}"] = _poly_text(poly)
    for n in range(2, 18):
        out[f"derivative_polynomial|{n}"] = _poly_text(dp.derivative_polynomial(n))
    for n in range(16):
        out[f"reduced_polynomial|{n}"] = _poly_text(dp.reduced_polynomial(n))
    for n in range(1, 31):
        out[f"roots_in_unit_interval|{n}"] = _brackets_or_error(dp.reduced_polynomial(n))
    for label, factors in ROOT_EDGE_CASES.items():
        out[f"roots_in_unit_interval|{label}"] = _brackets_or_error(_factors(factors))
    for n in range(14):
        out[f"interlacing_check|{n}"] = dp.interlacing_check(n)
    for base_label, coeffs in POW_BASES.items():
        base = TruncatedSeries(coeffs)
        for r_label, r in POW_EXPONENTS.items():
            series = series_pow(base, r)
            out[f"series_pow|{base_label}|{r_label}"] = [
                _coeff_text(c) if isinstance(r, complex) else str(Fraction(c))
                for c in series.coeffs
            ]
    for t in (0, 8, 30, 100, 150):
        out[f"eta_ref|0.5+{t}j"] = _hex(oracles.eta_ref(complex(0.5, t)))
    return out


COLLECTORS = {
    "terms.json": collect_terms,
    "terms_deep.json": collect_deep_terms,
    "terms_800.json": collect_terms_800,
    "terms_cap.json": collect_terms_cap,
    "complex_sweep.json": collect_complex_sweep,
    "coeffs.json": collect_coeffs,
    "cli.json": collect_cli,
    "refusals.json": collect_refusals,
    "quadrature.json": collect_quadrature,
    "commands.json": collect_commands,
    "polynomials.json": collect_polynomials,
}


def load(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def main() -> int:
    for name, collect in COLLECTORS.items():
        text = json.dumps(collect(), indent=1, sort_keys=True) + "\n"
        (HERE / name).write_text(text)
        print(f"wrote {HERE / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
