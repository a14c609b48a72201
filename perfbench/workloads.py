"""Seeded jobs and output checks of the three workloads.

Each workload is a closed loop with one client: a job starts only after
the previous one has ended. Jobs come in cycles of fixed composition,
and a run completes whole cycles, so every seed sees the same mix; the
seed picks the parameters inside each cycle and their order. The same
seed gives the same jobs.

A checker turns a job's output into a summary right after the job (the
job's own timing has ended by then) and the pair and unit checks run
after the timed loop. Any failed check marks the job as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

PATHS = ("direct", "recurrence")

# ---------------------------------------------------------------- envelope

# RESULTS.md: relative error of the exact backend against the reference
# at 50/100/200/400 terms. It grows with s and falls with the terms.
ENVELOPE_TERMS = (50, 100, 200, 400)
ENVELOPE = {
    "gamma": {
        Fraction(1, 2): (4.69e-03, 2.23e-03, 1.06e-03, 5.08e-04),
        Fraction(1): (1.96e-02, 9.90e-03, 4.98e-03, 2.49e-03),
        Fraction(3, 2): (5.16e-02, 2.78e-02, 1.47e-02, 7.75e-03),
    },
    "zeta": {
        Fraction(3, 4): (3.85e-03, 1.88e-03, 9.21e-04, 4.52e-04),
        Fraction(1): (7.18e-03, 3.60e-03, 1.80e-03, 9.01e-04),
        Fraction(2): (4.13e-02, 2.29e-02, 1.25e-02, 6.79e-03),
    },
}
ROUNDING_SLACK = 0.01  # RESULTS.md prints three significant digits


def envelope(target: str, s: Fraction, terms: int) -> tuple[float, float] | None:
    """(low, high) bracket for the relative error at real ``s`` and
    ``terms`` >= 50, or None when RESULTS.md has no row at or above s.

    high is the tabulated error of the nearest row at or above s, at the
    largest tabulated truncation not above ``terms``. low is the error of
    the nearest row at or below s at 400 terms, scaled by (400/terms)**2
    beyond 400 (the measured decay is close to 1/terms), else 0.
    """
    rows = ENVELOPE[target]
    above = [r for r in rows if r >= s]
    if terms < ENVELOPE_TERMS[0] or not above:
        return None
    col = max(i for i, n in enumerate(ENVELOPE_TERMS) if n <= terms)
    high = rows[min(above)][col] * (1 + ROUNDING_SLACK)
    below = [r for r in rows if r <= s]
    low = 0.0
    if below:
        low = rows[max(below)][-1] * min(1.0, (400 / terms) ** 2) * (1 - ROUNDING_SLACK)
    return low, high


def _rel_error_failure(target: str, s_text: str, samples) -> str | None:
    """Every rel_error must be finite, lie in the envelope where one
    applies (real s, at least 50 terms), and not grow from one sample to
    the next (no growth in 3000 seeded draws of the cli_mix domain)."""
    s = None if "," in s_text else Fraction(s_text)
    previous = math.inf
    for terms, _re, _im, rel in samples:
        if not math.isfinite(rel):
            return f"rel_error {rel} at {terms} terms"
        if rel > previous:
            return f"rel_error grew to {rel:.4e} at {terms} terms"
        previous = rel
        bracket = envelope(target, s, terms) if s is not None else None
        if bracket and not bracket[0] <= rel <= bracket[1]:
            return f"rel_error {rel:.4e} outside [{bracket[0]:.4e}, {bracket[1]:.4e}] at {terms} terms"
    return None

# ------------------------------------------------------------------- jobs

# Exact rationals with small denominators, all inside the RESULTS.md
# envelope. Integer s is left out: its falling factorials vanish and the
# exact sums become trivially cheap.
EXACT_S = {
    "gamma": ("0.3", "0.5", "0.75", "1.25", "1.5"),
    "zeta": ("0.5", "0.75", "1.25", "1.5", "1.75"),
}
EXACT_TERMS = {"gamma": (300, 450), "zeta": (200, 320)}
EXACT_JITTER = 3

TABLE_FAMILIES = ("stirling1", "stirling2", "eulerian", "c", "a", "b")
TABLE_MAX = tuple(range(8, 65, 8))
INTEGRAL_S = ("0.3", "0.5", "0.75", "1", "1.5", "2", "0.75,0.5", "1.5,1", "1,2", "0.5,-1.5")
MAX_REL_DISCREPANCY = 1e-8

FLOAT_RE = (0.5, 2.0)
FLOAT_IM = (0.05, 2.0)  # |Im s|; never 0, which would take the exact backend
# Worst disagreement of the two float paths measured at the seed commit
# over 5000 draws of this domain: 9.1e-10 (Gamma, s = 0.537+1.978i, N = 100).
FLOAT_PATH_BOUND = 1e-8


def _complex_text(rng) -> str:
    re = rng.uniform(*FLOAT_RE)
    im = rng.uniform(*FLOAT_IM) * rng.choice((-1, 1))
    return f"{re:.2f},{im:.2f}"


def exact_deep_cycle(rng, first_id: int) -> list[dict]:
    """Ten direct/recurrence pairs: per target, each s once, the i-th s
    near the middle of the i-th of five equal strata of the terms range.

    The jitter around the middle is kept small (EXACT_JITTER) because a
    run holds only a few cycles: wider draws move job_p50_s and
    job_p90_s from seed to seed by more than the machine's own noise.
    """
    pairs = []
    for target, (lo, hi) in EXACT_TERMS.items():
        svals = EXACT_S[target]
        width = (hi - lo) / len(svals)
        for i, s in enumerate(svals):
            terms = round(lo + (i + 0.5) * width) + rng.randint(-EXACT_JITTER, EXACT_JITTER)
            cmd = rng.choice(("eval", "converge"))
            argv = [cmd, target, "--s", s]
            if cmd == "eval":
                argv += ["--terms", str(terms)]
            else:
                argv += ["--max-terms", str(terms), "--stride", "50",
                         "--format", rng.choice(("csv", "json"))]
            pairs.append((target, s, argv, rng.sample(PATHS, 2)))
    rng.shuffle(pairs)
    jobs = []
    for pair, (target, s, argv, paths) in enumerate(pairs):
        for path in paths:
            jobs.append({"id": first_id + len(jobs), "kind": "exact", "pair": (first_id, pair),
                         "target": target, "s": s, "argv": argv + ["--path", path]})
    return jobs


def cli_mix_cycle(rng, first_id: int) -> list[dict]:
    """Eight short commands: one ``verify all``, three ``tables``, two
    ``integral-check``, one ``eval`` and one ``converge``."""
    jobs = [{"kind": "verify", "argv": ["verify", "all", "--depth", "12",
                                        "--seed", str(rng.randrange(1, 10**6))]}]
    for _ in range(3):
        family, top, fmt = rng.choice(TABLE_FAMILIES), rng.choice(TABLE_MAX), rng.choice(("csv", "json"))
        jobs.append({"kind": "tables", "key": f"{family}/{top}/{fmt}",
                     "argv": ["tables", family, "--max", str(top), "--format", fmt]})
    for _ in range(2):
        jobs.append({"kind": "integral", "argv": ["integral-check", "--s", rng.choice(INTEGRAL_S),
                                                  "--n", str(rng.randint(0, 12))]})
    for cmd in ("eval", "converge"):
        target = rng.choice(("gamma", "zeta"))
        s = rng.choice(EXACT_S[target]) if rng.random() < 0.5 else _complex_text(rng)
        argv = [cmd, target, "--s", s, "--path", rng.choice(PATHS)]
        if cmd == "eval":
            argv += ["--terms", str(rng.randint(10, 60))]
        else:
            argv += ["--max-terms", str(rng.randint(20, 60)), "--stride", str(rng.choice((5, 10))),
                     "--format", rng.choice(("csv", "json"))]
        jobs.append({"kind": "series", "target": target, "s": s, "argv": argv})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = first_id + i
    return jobs


def float_unit(rng, index: int) -> list[list]:
    """One complex s at two truncations, each on both paths:
    ``[target, re, im, n_terms, path]`` for the library worker."""
    target = ("gamma", "zeta")[index % 2]
    re = round(rng.uniform(*FLOAT_RE), 3)
    im = round(rng.uniform(*FLOAT_IM), 3) * rng.choice((-1, 1))
    n1 = rng.randint(20, 50)
    n2 = rng.randint(max(n1 + 30, 60), 100)
    return [[target, re, im, n, path] for n in (n1, n2) for path in PATHS]

# ---------------------------------------------------------------- checks


def _series_samples(argv: list[str], stdout: bytes) -> list[tuple]:
    """(terms, re, im, rel_error) of an ``eval`` or ``converge`` output."""
    text = stdout.decode()
    if argv[0] == "converge" and argv[argv.index("--format") + 1] == "csv":
        lines = text.splitlines()
        if lines[0] != "terms,partial_sum_re,partial_sum_im,rel_error":
            raise ValueError("unexpected csv header")
        rows = [line.split(",") for line in lines[1:]]
        return [(int(t), float(re), float(im), float(rel)) for t, re, im, rel in rows]
    payload = json.loads(text)["payload"]
    if argv[0] == "eval":
        return [(payload["terms"], payload["partial_sum"]["re"],
                 payload["partial_sum"]["im"], payload["rel_error"])]
    return [(x["terms"], x["partial_sum"]["re"], x["partial_sum"]["im"], x["rel_error"])
            for x in payload["samples"]]


def summarize(job: dict, rc: int, stdout: bytes, stderr: bytes, digests: dict) -> dict:
    """What the checks need from one CLI job; ``failure`` is None when
    the job passed every check that needs only its own output."""
    summary = {"failure": None, "samples": None}
    if rc != 0 or b"Traceback" in stderr:
        summary["failure"] = f"exit {rc}: {stderr.decode(errors='replace')[-300:]}"
        return summary
    kind = job["kind"]
    try:
        if kind in ("exact", "series"):
            summary["samples"] = _series_samples(job["argv"], stdout)
            summary["failure"] = _rel_error_failure(job["target"], job["s"], summary["samples"])
        elif kind == "verify":
            lines = stdout.decode().splitlines()
            if not lines or not all(line.startswith("PASS ") for line in lines):
                summary["failure"] = "verify printed a line other than PASS"
        elif kind == "integral":
            rel = json.loads(stdout)["payload"]["rel_discrepancy"]
            if not rel <= MAX_REL_DISCREPANCY:
                summary["failure"] = f"rel_discrepancy {rel} > {MAX_REL_DISCREPANCY}"
        elif kind == "tables":
            if hashlib.sha256(stdout).hexdigest() != digests[job["key"]]:
                summary["failure"] = f"tables {job['key']} differ from the seed-commit digest"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        summary["failure"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return summary


def check_pairs(jobs: list[dict], summaries: dict) -> dict:
    """Failures of exact_deep pairs: both paths must give bit-identical
    partial sums (``float.hex``). Returns {job_id: reason}."""
    failed = {j["id"]: summaries[j["id"]]["failure"] for j in jobs
              if summaries[j["id"]]["failure"]}
    by_pair: dict = {}
    for job in jobs:
        by_pair.setdefault(job["pair"], []).append(job["id"])
    for ids in by_pair.values():
        if len(ids) != 2 or any(i in failed for i in ids):
            continue
        a, b = (summaries[i]["samples"] for i in ids)
        hexes = [[(float.hex(re), float.hex(im)) for _t, re, im, _r in x] for x in (a, b)]
        if hexes[0] != hexes[1]:
            for i in ids:
                failed[i] = "direct and recurrence partial sums differ"
    return failed


def check_float_unit(calls: list[list], results: list[list]) -> str | None:
    """None if a float_sweep unit passes: both paths agree within
    FLOAT_PATH_BOUND at each N, and no path's rel_error grows with N."""
    for result in results:
        if result[0] == "error":
            return result[1]
    value, rel = {}, {}
    for (_target, _re, _im, n, path), (p_re, p_im, r, *_rest) in zip(calls, results):
        value[n, path], rel[n, path] = complex(p_re, p_im), r
        if not (math.isfinite(p_re) and math.isfinite(p_im) and math.isfinite(r)):
            return f"non-finite result at N={n} {path}"
    n1, n2 = sorted({c[3] for c in calls})
    for n in (n1, n2):
        d, r = value[n, "direct"], value[n, "recurrence"]
        if abs(d - r) > FLOAT_PATH_BOUND * abs(r):
            return f"paths differ by {abs(d - r) / abs(r):.3e} at N={n}"
    for path in PATHS:
        if rel[n2, path] > rel[n1, path]:
            return f"{path} rel_error grew from N={n1} to N={n2}"
    return None
