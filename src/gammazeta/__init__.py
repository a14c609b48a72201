"""gammazeta: exact coefficient triangles and factorial series expansions
of Gamma(s+1) and eta(s)Gamma(s), verified against independent oracles.

The package keeps every combinatorial quantity in exact integer or
rational arithmetic; floating point enters only where a complex
argument s is intrinsic, and every floating result has an independent
reference (Lanczos Gamma, Borwein eta, double-exponential quadrature)
to be checked against. The ``gammazeta`` command line exposes table
emission, expansion evaluation, convergence studies, and the full
verification suites.

Submodules execute on first use. ``import gammazeta`` registers each of
them (all but ``cli`` and ``__main__``) in ``sys.modules`` and on the
package through :class:`importlib.util.LazyLoader`, and the other names
of ``__all__`` resolve through the module ``__getattr__`` (PEP 562). A
module runs when one of its attributes is first read, so each command
runs only the modules it uses. On Python 3.10 and 3.11
``_LazyModule.__getattribute__`` swaps the module's class before it runs
the module, so two threads that first touch one module at once can see
it half-run: touch a module in one thread before sharing it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the defining module of each name of __all__ that is not a module
_EXPORTS = {
    "bell": ("SequenceTooShortError", "TruncatedSeries", "bell_by_partitions",
             "partial_bell", "potential_poly", "series_pow"),
    "combinatorics": ("binomial", "double_factorial_odd", "eulerian", "factorial",
                      "falling_factorial", "rising_factorial", "stirling1", "stirling2"),
    "derivative_polynomials": ("derivative_polynomial", "interlacing_check",
                               "reduced_polynomial", "riccati_derivative",
                               "roots_in_unit_interval"),
    "oracles": ("IdentityCheckReport", "QuadratureResult", "eta_integral_ref", "eta_ref",
                "gamma_integral_ref", "gamma_ref", "integral_identity_check",
                "quad_exp_sinh", "quad_tanh_sinh", "zeta_ref"),
    "polynomials": ("GaussianRational", "Polynomial"),
    "report": ("BudgetExceededError", "DefectError", "DomainError",
               "PoleProximityError", "SeriesReport"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that __all__ lists by their own name
_MODULES = ("gamma_expansion", "mittag_leffler", "verify", "zeta_expansion")
__all__ = sorted([*_HOME, *_MODULES])


def _register(name: str):
    """Put ``gammazeta.<name>`` in sys.modules unexecuted: LazyLoader's
    exec_module only arms the module, whose code runs on the first
    attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# every submodule but cli and __main__, which the command line imports itself
for _name in (*_EXPORTS, "factorial_series", *_MODULES):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

