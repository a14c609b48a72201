"""Golden outputs captured before the evaluators shared one engine,
before the quadrature rules shared one level loop, before the
derivative polynomials shared one Eulerian form, before the exact
sums used Horner's rule (``terms_deep.json``, at N up to 450), and
before integer s took the certified tier (``terms_cap.json``, integer s
at N=1000 and complex s at N=400). The complex ``direct`` records were
re-captured once, when the float weights moved from rounded exact kernel
rows to their own float recurrence. The complex ``recurrence`` records
(in ``terms.json``, ``terms_cap.json`` and one ``cli.json`` command)
were re-captured once, when that path moved from the float summand
triangle to the series power, after a test held its terms within 1e-12
of a 200-bit mpmath reference. The complex ``direct`` records (in
``terms.json``, ``terms_cap.json`` and two ``cli.json`` commands) and
the complex records of ``coeffs.json`` were re-captured once more, when
every complex s moved to the series power on both paths, after the same
test held both paths to that reference; each re-captured ``direct`` term
has the bits of its ``recurrence`` twin. Every other record kept its
bytes. ``complex_sweep.json`` was captured before the series power's dot
product took complex K and before the eta oracle read its weights from
a per-order float table. ``refusals.json`` was captured before the
checks on s moved from the two sides into the engine; its rows for the
prefactor's overflow from Re(s) = 1025 on were added after the message
for it was mended, and its four ``gamma --s=180`` rows were re-captured
when the Gamma oracle's message for real s beyond its range was.

Every term's bits on both backends and paths, the exact and float
coefficient helpers, the quadrature results (value and error bits,
evaluation counts), the stdout bytes of a set of CLI commands, and the
derivative polynomials, root brackets, series powers and eta oracle
values of ``polynomials.json`` must match what
``tests/golden/capture.py`` recorded.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_capture", Path(__file__).parent / "golden" / "capture.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


@pytest.mark.parametrize("name", sorted(capture.COLLECTORS))
def test_matches_golden(name):
    stored = capture.load(name)
    fresh = capture.COLLECTORS[name]()
    assert sorted(fresh) == sorted(stored)
    mismatched = [key for key in stored if fresh[key] != stored[key]]
    assert not mismatched, f"{name}: {mismatched}"
