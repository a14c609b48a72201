"""The package namespace: lazy submodules, the names of ``__all__``, and
which modules each CLI command executes."""

import collections
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gammazeta

# the public surface, in the order ``__all__`` lists it
PUBLIC_NAMES = [
    "BudgetExceededError", "DefectError", "DomainError", "GaussianRational",
    "IdentityCheckReport", "PoleProximityError", "Polynomial", "QuadratureResult",
    "SequenceTooShortError", "SeriesReport", "TruncatedSeries", "bell_by_partitions",
    "binomial", "derivative_polynomial", "double_factorial_odd", "eta_integral_ref",
    "eta_ref", "eulerian", "factorial", "falling_factorial", "gamma_expansion",
    "gamma_integral_ref", "gamma_ref", "integral_identity_check", "interlacing_check",
    "mittag_leffler", "partial_bell", "potential_poly", "quad_exp_sinh", "quad_tanh_sinh",
    "reduced_polynomial", "riccati_derivative", "rising_factorial",
    "roots_in_unit_interval", "series_pow", "stirling1", "stirling2", "verify",
    "zeta_expansion", "zeta_ref",
]

# the submodules that ``import gammazeta`` registers (all but cli and __main__)
SUBMODULES = {
    "bell", "combinatorics", "derivative_polynomials", "factorial_series",
    "gamma_expansion", "mittag_leffler", "oracles", "polynomials", "report",
    "verify", "zeta_expansion",
}

# writes the registered and the executed gammazeta modules to stderr as
# its last line; a lazy module is a subclass of ModuleType until something
# reads one of its attributes (vars() or any other read runs it)
_REPORT = """
import json, sys, types
names = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "gammazeta"}
sys.stderr.write("\\n" + json.dumps([sorted(names), sorted(
    n for n, m in names.items() if type(m) is types.ModuleType)]))
"""
# runs the CLI as ``python -m gammazeta`` does
_RUN_CLI = """
import runpy, sys
sys.argv[0] = "gammazeta"
try:
    runpy.run_module("gammazeta", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


def _src_env():
    src = str(Path(gammazeta.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _modules(*args: str) -> tuple[set, set]:
    proc = subprocess.run([sys.executable, "-S", *args], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, executed = json.loads(proc.stderr.rsplit("\n", 1)[-1])
    strip = len("gammazeta.")
    return ({n[strip:] for n in registered if n != "gammazeta"},
            {n[strip:] for n in executed if n != "gammazeta"})


@pytest.mark.parametrize("argv, executed", [
    pytest.param(["--help"], {"cli", "report"}, id="help"),
    pytest.param(["eval", "gamma", "--s", "1.5", "--terms", "10"],
                 {"cli", "report", "combinatorics", "factorial_series", "gamma_expansion",
                  "oracles"}, id="eval-gamma"),
    pytest.param(["eval", "zeta", "--s", "0.75", "--terms", "10"],
                 {"cli", "report", "combinatorics", "factorial_series", "zeta_expansion",
                  "oracles"}, id="eval-zeta"),
    pytest.param(["tables", "stirling1", "--max", "6"], {"cli", "report", "combinatorics"},
                 id="tables-stirling1"),
    pytest.param(["integral-check", "--s", "1.5,1", "--n", "2"],
                 {"cli", "report", "combinatorics", "derivative_polynomials", "oracles",
                  "polynomials"}, id="integral-check"),
])
def test_each_command_executes_only_the_modules_it_uses(argv, executed):
    registered, ran = _modules("-c", _RUN_CLI + _REPORT, *argv)
    assert registered == SUBMODULES | {"cli"}
    assert ran == executed


def test_verify_executes_under_verify():
    _registered, ran = _modules("-c", _RUN_CLI + _REPORT, "verify", "stirling", "--depth", "3")
    assert "verify" in ran


def test_import_registers_every_submodule_and_executes_none():
    registered, ran = _modules("-c", "import gammazeta" + _REPORT)
    assert registered == SUBMODULES
    assert ran == set()


def test_verify_is_registered_after_importing_the_expansions():
    # a process that imports only the expansions still finds every module
    # in sys.modules, as code that walks sys.modules expects
    registered, _ran = _modules(
        "-c", "from gammazeta import gamma_expansion, zeta_expansion" + _REPORT)
    assert "verify" in registered


def test_every_exported_name_resolves_to_its_defining_module():
    for name in gammazeta.__all__:
        value = getattr(gammazeta, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"gammazeta.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(gammazeta)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gammazeta.no_such_name  # noqa: B018
    assert not hasattr(gammazeta, "cli_main")


def test_public_surface_is_pinned():
    assert gammazeta.__all__ == PUBLIC_NAMES


def test_each_reduced_polynomial_is_built_once(monkeypatch):
    # Q_n is x(x-1) P_{n-2}, so the poly suite and the integral identities
    # build the Eulerian form of each P_n once; Riccati's own x and x-1
    # are other objects and are not counted
    dpoly = gammazeta.derivative_polynomials
    builds = collections.Counter()
    build = dpoly._eulerian_form

    def spy(n, xa, xb):
        if xa is dpoly._X and xb is dpoly._X_MINUS_1:
            builds[n] += 1
        return build(n, xa, xb)

    monkeypatch.setattr(dpoly, "_eulerian_form", spy)
    dpoly.reduced_polynomial.cache_clear()
    dpoly.reduced_brackets.cache_clear()
    assert all(r.passed for r in gammazeta.verify.run_suite("poly", 12))
    for n in range(13):
        gammazeta.integral_identity_check(1.5, n)
    assert builds == {n + 1: 1 for n in range(14)}  # P_0..P_13
