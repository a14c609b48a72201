"""Long-lived library process of the float_sweep workload.

    python perfbench/worker.py

Imports gammazeta, warms the triangles and oracles, prints
``{"ready": true}`` and then serves one JSON request per stdin line:

- ``{"calls": [[target, re, im, n_terms, path], ...], "trace": 0|1, "job": first_id}``
  runs ``<target>_expansion.evaluate`` for each call and answers
  ``{"results": [[partial_re, partial_im, rel_error, seconds, traced_seconds,
  start_ns, end_ns] | ["error", message], ...]}``. With ``trace`` 1 each call
  runs once plain and once traced, in alternating order; ``seconds`` is
  the plain run and the window is the traced one.
- ``{"end": true}`` answers ``{"spans": [...]}`` and exits.
"""

import json
import sys
import time

from gammazeta import gamma_expansion, zeta_expansion

import spans

MODULES = {"gamma": gamma_expansion, "zeta": zeta_expansion}
WARM_TERMS = 100  # the largest N the workload asks for


def warm_up() -> None:
    for mod in MODULES.values():
        for path in ("direct", "recurrence"):
            mod.evaluate(complex(1.0, 1.0), WARM_TERMS, path)


def timed_call(mod, s, n, path):
    t0 = time.perf_counter_ns()
    report = mod.evaluate(s, n, path)
    t1 = time.perf_counter_ns()
    return report, t0, t1


def serve(tracer: spans.Tracer, request: dict) -> list:
    out = []
    for offset, (target, re, im, n, path) in enumerate(request["calls"]):
        mod, s = MODULES[target], complex(re, im)
        job = request["job"] + offset
        try:
            if not request["trace"]:
                report, t0, t1 = timed_call(mod, s, n, path)
                out.append([report.partial_sum.real, report.partial_sum.imag,
                            report.rel_error, (t1 - t0) / 1e9, None, t0, t1])
                continue
            plain = traced = None
            for traced_turn in ((False, True) if job % 2 else (True, False)):
                if traced_turn:
                    tracer.job = job
                    tracer.apply()
                    try:
                        traced = timed_call(mod, s, n, path)
                    finally:
                        tracer.revert()
                else:
                    plain = timed_call(mod, s, n, path)
            report, t0, t1 = traced
            out.append([report.partial_sum.real, report.partial_sum.imag, report.rel_error,
                        (plain[2] - plain[1]) / 1e9, (t1 - t0) / 1e9, t0, t1])
        except Exception as exc:  # reported as a failed job, the worker keeps serving
            out.append(["error", f"{type(exc).__name__}: {exc}"])
    return out


def main() -> int:
    warm_up()
    tracer = spans.Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            print(json.dumps({"spans": tracer.spans}), flush=True)
            return 0
        print(json.dumps({"results": serve(tracer, request)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
