"""Traced stand-in for ``python -m gammazeta``.

    python perfbench/child.py SPANS_OUT JOB_ID -- ARGV...

Times the package import as the span ``cli.import``, wraps the public
functions (see ``spans.py``), runs ``gammazeta.cli.main(ARGV)`` and
exits with its code. The spans stay in memory until the command ends
and are then written to SPANS_OUT as one JSON list.
"""

import time

_T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import gammazeta.cli  # noqa: E402

_T1 = time.perf_counter_ns()

import spans  # noqa: E402


def main() -> int:
    spans_out, job = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py SPANS_OUT JOB_ID -- ARGV...")
    tracer = spans.Tracer()
    tracer.job = job
    tracer.spans.append(["cli.import", _T0, _T1, -1, job, None])
    tracer.apply()
    try:
        return gammazeta.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
