"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts, so the suite doubles as a human-readable checklist.
Measured series errors are recorded in RESULTS.md at the repo root.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from gammazeta import (
    TruncatedSeries,
    eta_ref,
    gamma_ref,
    integral_identity_check,
    interlacing_check,
    partial_bell,
    reduced_polynomial,
    riccati_derivative,
    roots_in_unit_interval,
    series_pow,
    derivative_polynomial,
)
from gammazeta import gamma_expansion as ge
from gammazeta import mittag_leffler as ml
from gammazeta import zeta_expansion as ze
from gammazeta.cli import main as cli_main
from gammazeta.polynomials import GaussianRational, Polynomial

SAMPLED_TRUNCATIONS = range(50, 401, 50)
RESULTS = Path(__file__).resolve().parents[1] / "RESULTS.md"
# the RESULTS.md columns (50, 100, 200, 400 terms) as indices into SAMPLED_TRUNCATIONS
PRINTED_COLUMNS = (0, 1, 3, 7)


def printed_errors(heading: str) -> dict[float, list[str]]:
    """The cells of the RESULTS.md table under ``## heading``: s -> the
    relative errors printed for 50, 100, 200 and 400 terms."""
    section = next(part for part in RESULTS.read_text().split("\n## ")
                   if part.startswith(heading))
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0][:1].isdigit():
            rows[float(cells[0])] = cells[1:]
    return rows


def mismatched_cells(printed: list[str], errors: list[float]) -> list[str]:
    """The printed cells that the measured errors, at three significant
    digits, do not reproduce."""
    measured = [f"{errors[i]:.2e}" for i in PRINTED_COLUMNS]
    return [f"{p} != {m}" for p, m in zip(printed, measured) if p != m]


def criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def run_cli_capture(argv, capsys):
    code = cli_main(argv)
    return code, capsys.readouterr().out


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    _, c_out = run_cli_capture(["tables", "c", "--max", "5", "--format", "json"], capsys)
    _, a_out = run_cli_capture(["tables", "a", "--max", "7", "--format", "json"], capsys)
    _, b_out = run_cli_capture(["tables", "b", "--max", "8", "--format", "json"], capsys)
    elapsed = time.perf_counter() - started
    c_rows = [[int(v) for v in row] for row in json.loads(c_out)["payload"]["rows"]]
    a_rows = [[int(v) for v in row] for row in json.loads(a_out)["payload"]["rows"]]
    b_rows = [[int(v) for v in row] for row in json.loads(b_out)["payload"]["rows"]]
    ok = (
        c_rows
        == [
            [1],
            [0, 1],
            [0, 2, 3],
            [0, 6, 20, 15],
            [0, 24, 130, 210, 105],
            [0, 120, 924, 2380, 2520, 945],
        ]
        and a_rows[7] == [0, 1440, 0, 6272, 0, 2240, 0, 128]
        and a_rows[5] == [0, 48, 0, 160, 0, 32]
        and b_rows[8] == [0, 40320, 245376, 443520, 246400, 0]
        and b_rows[6] == [0, 720, 2688, 2240, 0]
        and elapsed < 1.0
    )
    with capsys.disabled():
        criterion(1, "printed tables reproduced exactly", ok, f"{elapsed:.2f}s")


def test_criterion_2_route_equivalences(capsys):
    started = time.perf_counter()
    c_ok = all(
        ge.coeff_direct(a, b) == ge.coeff(a, b)
        for a in range(25)
        for b in range(a + 2)
    )
    a_ok = all(
        ml.coeff_telescoped(n, k) == ml.coeff(n, k)
        for n in range(2, 25)
        for k in range(1, n + 1)
    )
    b_ok = all(
        ze.coeff_direct(al, be) == ze.coeff(al, be)
        for al in range(21)
        for be in range(al // 2 + 2)
    )
    elapsed = time.perf_counter() - started
    ok = c_ok and a_ok and b_ok and elapsed < 10.0
    with capsys.disabled():
        criterion(
            2,
            "definition and recurrence routes agree (c<=24, a<=24, b<=20)",
            ok,
            f"{elapsed:.2f}s",
        )


def test_criterion_3_bell_cross_checks(capsys):
    started = time.perf_counter()
    gamma_seq = [Fraction(factorial(m), m + 1) for m in range(1, 12)]
    zeta_seq = [
        Fraction(factorial(m), m + 1) if m % 2 == 0 else Fraction(0)
        for m in range(1, 12)
    ]
    gamma_ok = all(
        Fraction(factorial(a) * ge.coeff(a, b), factorial(a + b))
        == partial_bell(a, b, gamma_seq)
        for a in range(1, 11)
        for b in range(1, a + 1)
    )
    zeta_ok = all(
        Fraction(factorial(a) * ze.coeff(a, b), factorial(a + b))
        == partial_bell(a, b, zeta_seq)
        for a in range(1, 11)
        for b in range(1, a + 1)
    )
    elapsed = time.perf_counter() - started
    ok = gamma_ok and zeta_ok and elapsed < 10.0
    with capsys.disabled():
        criterion(
            3,
            "triangles equal generic Bell values on both sequences (exact)",
            ok,
            f"{elapsed:.2f}s",
        )


def test_criterion_4_derivative_polynomial_suite(capsys):
    started = time.perf_counter()
    forms_ok = True
    quotient_ok = True
    for n in range(2, 21):
        q = derivative_polynomial(n)  # compares both closed forms internally
        p = reduced_polynomial(n - 2)
        if Polynomial((0, 1)) * Polynomial.x_minus(1) * p != q:
            quotient_ok = False
    roots_ok = all(
        len(roots_in_unit_interval(reduced_polynomial(n))) == n for n in range(1, 13)
    )
    inter_ok = all(interlacing_check(n) for n in range(12))
    specs = (
        (1, 0, 1),
        (1, GaussianRational(0, 1), GaussianRational(0, -1)),
        (-1, 1, -1),
    )
    chain_ok = True
    for a, alpha, beta in specs:
        rhs = (Polynomial((-alpha, 1)) * Polynomial((-beta, 1))).scale(a)
        current = riccati_derivative(1, a, alpha, beta)
        for n in range(1, 13):
            nxt = riccati_derivative(n + 1, a, alpha, beta)
            if nxt != current.derivative() * rhs:
                chain_ok = False
            current = nxt
    elapsed = time.perf_counter() - started
    ok = forms_ok and quotient_ok and roots_ok and inter_ok and chain_ok
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        criterion(
            4,
            "derivative polynomials: forms, divisibility, roots, interlacing, chain",
            ok,
            f"{elapsed:.2f}s",
        )


def _series_term_oracle_gamma(s: Fraction, count: int) -> list[float]:
    # independent brute-force route: coefficients of the s-th power of the
    # shifted log series via exact exp/log, integrated termwise
    base = TruncatedSeries([Fraction(1)] + [Fraction(1, m + 2) for m in range(count)])
    powered = series_pow(base, s)
    out = []
    for a in range(count):
        out.append(float(powered.coeffs[a] / (s + a + 1)))
    return out


def test_criterion_5_gamma_expansion_behavior(capsys):
    details = []
    ok = True
    printed = printed_errors("Gamma(s+1)")
    assert sorted(printed) == [0.5, 1.0, 1.5]
    for s in (0.5, 1.0, 1.5):
        frac = Fraction(s)
        oracle = _series_term_oracle_gamma(frac, 30)
        mine = ge.expansion_terms(frac, 30)
        if any(abs(o - m) > 1e-15 for o, m in zip(oracle, mine)):
            ok = False
            details.append(f"s={s}: term oracle mismatch")
            continue
        sums = ge.partial_sums(frac, 400)
        target = gamma_ref(s + 1)
        errors = [
            abs(sums[n - 1] - target) / abs(target) for n in SAMPLED_TRUNCATIONS
        ]
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        halved = errors[-1] <= errors[0] / 2
        mismatched = mismatched_cells(printed[s], errors)
        ok = ok and monotone and halved and not mismatched
        details.append(f"s={s}: err50={errors[0]:.3e} err400={errors[-1]:.3e}")
        details.extend(f"s={s}: RESULTS.md {cell}" for cell in mismatched)
    with capsys.disabled():
        criterion(
            5,
            "Gamma partial sums close in monotonically, error halves by 400 terms, "
            "RESULTS.md reproduces",
            ok,
            "; ".join(details),
        )


def test_criterion_6_zeta_expansion_behavior(capsys):
    details = []
    ok = True
    printed = printed_errors("eta(s)Gamma(s)")
    assert sorted(printed) == [0.75, 1.0, 2.0]
    for s in (0.75, 1.0, 2.0):
        frac = Fraction(s)
        direct = ze.partial_sums(frac, 400, "direct")
        recurrence = ze.partial_sums(frac, 400, "recurrence")
        target = eta_ref(s) * gamma_ref(s)
        errors = []
        paths_ok = True
        for n in SAMPLED_TRUNCATIONS:
            d, r = direct[n - 1], recurrence[n - 1]
            if abs(d - r) > 1e-12 * max(1.0, abs(d)):
                paths_ok = False
            errors.append(abs(d - target) / abs(target))
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        halved = errors[-1] <= errors[0] / 2
        mismatched = mismatched_cells(printed[s], errors)
        ok = ok and paths_ok and monotone and halved and not mismatched
        details.append(f"s={s}: err50={errors[0]:.3e} err400={errors[-1]:.3e}")
        details.extend(f"s={s}: RESULTS.md {cell}" for cell in mismatched)
    with capsys.disabled():
        criterion(
            6,
            "zeta partial sums close in on eta(s)Gamma(s); paths agree to 1e-12; "
            "RESULTS.md reproduces",
            ok,
            "; ".join(details),
        )


def test_criterion_7_integral_identity(capsys):
    ok = True
    worst = 0.0
    slowest = 0.0
    for n in range(5):
        for s in (0.75, 1.5):
            started = time.perf_counter()
            report = integral_identity_check(s, n)
            elapsed = time.perf_counter() - started
            slowest = max(slowest, elapsed)
            worst = max(worst, report.rel_discrepancy)
            if report.rel_discrepancy >= 1e-8 or elapsed >= 1.0:
                ok = False
    with capsys.disabled():
        criterion(
            7,
            "integral identity holds to 1e-8 for n<=4, s in {0.75, 1.5}",
            ok,
            f"worst={worst:.2e}, slowest={slowest:.2f}s",
        )


def test_criterion_8_oracle_self_tests(capsys):
    rng = random.Random(20090711)
    func_ok = True
    for _ in range(20):
        s = complex(rng.uniform(0.5, 5.0), rng.uniform(-10.0, 10.0))
        lhs = gamma_ref(s + 1)
        if abs(lhs - s * gamma_ref(s)) > 1e-12 * abs(lhs):
            func_ok = False
    relation_ok = True
    for _ in range(20):
        s = complex(rng.uniform(0.3, 4.0), rng.uniform(-8.0, 8.0))
        if abs(s - 1) < 0.25:
            continue
        from gammazeta import zeta_ref

        lhs = eta_ref(s)
        if abs(lhs - (1 - 2 ** (1 - s)) * zeta_ref(s)) > 1e-12 * max(1.0, abs(lhs)):
            relation_ok = False
    from gammazeta import gamma_integral_ref

    quad_ok = True
    for s in (0.5, 1.0, 2.25):
        res = gamma_integral_ref(s)
        target = gamma_ref(s + 1)
        if abs(res.value - target) > 1e-9 * abs(target):
            quad_ok = False
    ok = func_ok and relation_ok and quad_ok
    with capsys.disabled():
        criterion(
            8,
            "oracle self-tests: functional equation, eta/zeta relation, integral",
            ok,
        )


def test_criterion_9_verify_all_under_budget(capsys):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gammazeta.cli", "verify", "all", "--depth", "12"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0 and elapsed < 60.0
    with capsys.disabled():
        criterion(
            9,
            "verify all --depth 12 exits 0 within 60 s",
            ok,
            f"{elapsed:.1f}s, exit {proc.returncode}",
        )
