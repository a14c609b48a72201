"""Spans around the public functions of each gammazeta module.

A :class:`Tracer` wraps the functions named in ``TARGETS`` (plus
``CachedTriangle.ensure`` and the check functions in ``verify.SUITES``)
in the running process. Each call records a span
``[name, start_ns, end_ns, parent, job, attrs]`` in memory; nothing
under ``src/`` changes. :func:`layer_metrics` turns the spans of a run
into the per-layer metrics listed in ``PER_LAYER``.

Self time is a span's duration minus the part of it that its child
spans cover. Times and counts are reported as means per traced job, so
they compare across runs that complete different numbers of jobs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, JOB, ATTRS = range(6)

VERIFY_SUITES = ("stirling", "bell", "c", "ml", "b", "poly", "oracle", "integral")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = []
for _mod in ("gamma_expansion", "zeta_expansion"):
    PER_LAYER += [
        (f"{_mod}.expansion_terms.exact.self_s", "s", "lower"),
        (f"{_mod}.expansion_terms.float.self_s", "s", "lower"),
        (f"{_mod}.expansion_terms.calls", "count", "lower"),
        (f"{_mod}.terms", "count", "lower"),
        (f"{_mod}.evaluate.self_s", "s", "lower"),
        (f"{_mod}.coeff_table.self_s", "s", "lower"),
    ]
PER_LAYER += [
    ("zeta_expansion.reference_value.self_s", "s", "lower"),
    ("combinatorics.triangle_ensure.self_s", "s", "lower"),
    ("combinatorics.triangle_rows_built", "count", "lower"),
    ("oracles.gamma_ref.calls", "count", "lower"),
    ("oracles.gamma_ref.self_s", "s", "lower"),
    ("oracles.eta_ref.calls", "count", "lower"),
    ("oracles.eta_ref.self_s", "s", "lower"),
    ("oracles.quad.self_s", "s", "lower"),
    ("oracles.quad.evals", "count", "lower"),
    ("oracles.quad.converged_ratio", "ratio", "higher"),
    ("oracles.integral_identity_check.self_s", "s", "lower"),
    ("derivative_polynomials.derivative_polynomial.self_s", "s", "lower"),
    ("derivative_polynomials.reduced_polynomial.self_s", "s", "lower"),
    ("derivative_polynomials.roots_in_unit_interval.self_s", "s", "lower"),
    ("derivative_polynomials.interlacing_check.self_s", "s", "lower"),
    ("bell.partial_bell.self_s", "s", "lower"),
    ("bell.series_pow.self_s", "s", "lower"),
    ("bell.potential_poly.self_s", "s", "lower"),
    ("mittag_leffler.coeff_table.self_s", "s", "lower"),
    ("mittag_leffler.ml_poly.self_s", "s", "lower"),
]
PER_LAYER += [(f"verify.{suite}.total_s", "s", "lower") for suite in VERIFY_SUITES]
PER_LAYER += [
    ("verify.checks_passed_ratio", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.emit_json.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("exact_terms_share", "ratio", "lower"),
    ("untraced_share", "ratio", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("traced_jobs", "count", "higher"),
]


def _expansion_attrs(s, n_terms, *_args, **_kwargs):
    # the same split the evaluators make: only a non-real complex s
    # takes the float backend
    backend = "float" if isinstance(s, complex) and s.imag != 0 else "exact"
    return {"backend": backend, "terms": n_terms}


def _quad_attrs(result):
    return {"evals": result.evaluations, "converged": result.converged}


# (module, function, span name, attrs from the arguments, attrs from the result)
TARGETS = [
    ("gamma_expansion", "expansion_terms", None, _expansion_attrs, None),
    ("gamma_expansion", "evaluate", None, None, None),
    ("gamma_expansion", "coeff_table", None, None, None),
    ("zeta_expansion", "expansion_terms", None, _expansion_attrs, None),
    ("zeta_expansion", "evaluate", None, None, None),
    ("zeta_expansion", "coeff_table", None, None, None),
    ("zeta_expansion", "reference_value", None, None, None),
    ("oracles", "gamma_ref", None, None, None),
    ("oracles", "eta_ref", None, None, None),
    ("oracles", "quad_tanh_sinh", "oracles.quad", None, _quad_attrs),
    ("oracles", "quad_exp_sinh", "oracles.quad", None, _quad_attrs),
    ("oracles", "integral_identity_check", None, None, None),
    ("derivative_polynomials", "derivative_polynomial", None, None, None),
    ("derivative_polynomials", "reduced_polynomial", None, None, None),
    ("derivative_polynomials", "roots_in_unit_interval", None, None, None),
    ("derivative_polynomials", "interlacing_check", None, None, None),
    ("bell", "partial_bell", None, None, None),
    ("bell", "series_pow", None, None, None),
    ("bell", "potential_poly", None, None, None),
    ("mittag_leffler", "coeff_table", None, None, None),
    ("mittag_leffler", "ml_poly", None, None, None),
    ("cli", "main", None, None, None),
    ("cli", "emit_json", None, None, None),
]


class Tracer:
    """Records spans for the wrapped functions while applied.

    Build it after importing every gammazeta module the process uses:
    a module that re-binds a target by ``from ... import`` is patched only
    if it is loaded by then.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (setter, original, wrapper)
        modules = [m for n, m in sys.modules.items()
                   if n == "gammazeta" or n.startswith("gammazeta.")]
        for mod_name, fn_name, span_name, attrs_in, attrs_out in TARGETS:
            if f"gammazeta.{mod_name}" not in sys.modules:  # e.g. cli in a library process
                continue
            original = getattr(sys.modules[f"gammazeta.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name or f"{mod_name}.{fn_name}",
                                 attrs_in, attrs_out)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append(
                            (functools.partial(setattr, mod, attr), original, wrapper))
        self._patch_ensure()
        self._patch_verify(sys.modules["gammazeta.verify"].SUITES)

    def _wrap(self, fn, name, attrs_in=None, attrs_out=None, default_attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_in(*args, **kwargs) if attrs_in else default_attrs
            span = [name, clock(), 0, stack[-1] if stack else -1, self.job, attrs]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs_out:
                span[ATTRS] = attrs_out(result)
            return result

        return wrapper

    def _patch_ensure(self) -> None:
        from gammazeta.combinatorics import CachedTriangle

        original = CachedTriangle.ensure
        build = self._wrap(original, "combinatorics.triangle_ensure")

        @functools.wraps(original)
        def ensure(triangle, max_row):
            before = len(triangle._rows)
            if max_row < before:  # cache hit: no span, as the original returns at once
                return original(triangle, max_row)
            index = len(self.spans)
            build(triangle, max_row)
            self.spans[index][ATTRS] = {"rows": len(triangle._rows) - before}

        self._patches.append(
            (functools.partial(setattr, CachedTriangle, "ensure"), original, ensure))

    def _patch_verify(self, suites: dict) -> None:
        for suite, checks in suites.items():
            for i, (check_name, check) in enumerate(checks):
                wrapped = self._wrap(check, f"verify.{suite}",
                                     attrs_out=lambda w: {"passed": w is None},
                                     default_attrs={"passed": False})
                self._patches.append((functools.partial(checks.__setitem__, i),
                                      (check_name, check), (check_name, wrapped)))

    def apply(self) -> None:
        for setter, _original, wrapper in self._patches:
            setter(wrapper)

    def revert(self) -> None:
        for setter, original, _wrapper in self._patches:
            setter(original)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Self time of each span; ``PARENT`` indexes into ``spans`` (-1 = top)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_ns(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_metrics(spans: list[list], jobs: list[dict]) -> dict:
    """Per-layer metrics of one traced run.

    ``jobs`` holds one dict per traced job: ``id``, ``start_ns`` and
    ``end_ns`` (the traced run's wall-time window), ``output_bytes``, and
    ``plain_s``, the wall time of the same job run without tracing.
    """
    n_jobs = max(len(jobs), 1)
    acc: dict[str, float] = defaultdict(float)
    checks = passed = quads = converged = 0
    for span, self_ns in zip(spans, self_times_ns(spans)):
        name, attrs = span[NAME], span[ATTRS] or {}
        self_s = self_ns / 1e9
        if name.endswith(".expansion_terms"):
            mod = name.split(".")[0]
            acc[f"{name}.{attrs['backend']}.self_s"] += self_s
            acc[f"{name}.calls"] += 1
            acc[f"{mod}.terms"] += attrs["terms"]
            if attrs["backend"] == "exact":
                acc["exact_terms_s"] += self_s
        elif name.startswith("verify."):
            acc[f"{name}.total_s"] += (span[END] - span[START]) / 1e9
            checks += 1
            passed += attrs["passed"]
        elif name == "combinatorics.triangle_ensure":
            acc[f"{name}.self_s"] += self_s
            acc["combinatorics.triangle_rows_built"] += attrs.get("rows", 0)
        elif name == "cli.import":
            acc["cli.import_s"] += self_s
        else:
            acc[f"{name}.self_s"] += self_s
            acc[f"{name}.calls"] += 1
            if name == "oracles.quad":
                quads += 1
                acc["oracles.quad.evals"] += attrs.get("evals", 0)
                converged += bool(attrs.get("converged"))

    wall_ns = sum(j["end_ns"] - j["start_ns"] for j in jobs)
    top = defaultdict(list)
    for span in spans:
        if span[PARENT] < 0:
            top[span[JOB]].append((span[START], span[END]))
    covered = sum(covered_ns(top[j["id"]], j["start_ns"], j["end_ns"]) for j in jobs)

    out = {name: acc.get(name, 0.0) / n_jobs for name, _unit, _better in PER_LAYER}
    out["cli.output_bytes"] = sum(j["output_bytes"] for j in jobs) / n_jobs
    # ratios over an empty base read 0: the layer did no work in this run
    out["oracles.quad.converged_ratio"] = converged / quads if quads else 0.0
    out["verify.checks_passed_ratio"] = passed / checks if checks else 0.0
    out["exact_terms_share"] = acc["exact_terms_s"] * 1e9 / wall_ns if wall_ns else 0.0
    out["untraced_share"] = (wall_ns - covered) / wall_ns if wall_ns else 0.0
    plain_s = sum(j["plain_s"] for j in jobs)
    out["trace_overhead_ratio"] = wall_ns / 1e9 / plain_s if plain_s else 0.0
    out["traced_jobs"] = len(jobs)
    return out


def top_items(metrics: dict, mean_wall_s: float, k: int = 6) -> list[tuple[str, float]]:
    """The largest shares of mean traced job wall time: each self-time
    metric, and import time plus uncovered time as one item."""
    if mean_wall_s <= 0:
        return []
    items = {n: v / mean_wall_s for n, v in metrics.items() if n.endswith(".self_s")}
    items["cli.import_s+untraced"] = metrics["cli.import_s"] / mean_wall_s + metrics["untraced_share"]
    return sorted(items.items(), key=lambda kv: -kv[1])[:k]
