"""Command-line surface: formats, determinism, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammazeta import cli
from gammazeta import verify as verify_mod
from gammazeta.report import VERIFY_SUITES


def run_cli(argv):
    """Invoke main() with stdout captured; returns (exit_code, text)."""
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _src_env():
    # the environment of a child process that imports this checkout's gammazeta
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def csv_table(text):
    lines = text.strip().split("\n")
    assert lines[0] == "row,col,value"
    rows = {}
    for line in lines[1:]:
        n, k, v = line.split(",")
        rows.setdefault(int(n), {})[int(k)] = int(v)
    return [
        [cells[k] for k in sorted(cells)]
        for _, cells in sorted(rows.items())
    ]


class TestComplexFlagParsing:
    def test_plain_real_is_exact(self):
        value = cli.parse_complex_flag("0.75")
        assert isinstance(value, Fraction)
        assert value == Fraction(3, 4)

    def test_real_imag_pair(self):
        assert cli.parse_complex_flag("1.5,-2") == complex(1.5, -2.0)

    def test_zero_imag_collapses_to_exact(self):
        assert cli.parse_complex_flag("2,0") == Fraction(2)

    def test_rejects_garbage(self):
        for bad in ("abc", "1;2", "1,2,3", "1+2j", "1/2"):
            with pytest.raises(cli.UsageError):
                cli.parse_complex_flag(bad)

    def test_scientific_notation_accepted(self):
        assert cli.parse_complex_flag("1e-3") == Fraction(1, 1000)


class TestTables:
    def test_c_table_matches_printed_rows(self):
        code, out = run_cli(["tables", "c", "--max", "5"])
        assert code == 0
        assert csv_table(out) == [
            [1],
            [0, 1],
            [0, 2, 3],
            [0, 6, 20, 15],
            [0, 24, 130, 210, 105],
            [0, 120, 924, 2380, 2520, 945],
        ]

    def test_eulerian_row_three(self):
        code, out = run_cli(["tables", "eulerian", "--max", "3"])
        assert code == 0
        assert csv_table(out)[3] == [1, 4, 1]

    def test_json_round_trip_and_strings(self):
        code, out = run_cli(["tables", "a", "--max", "7", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert record["schema_version"] == cli.SCHEMA_VERSION
        assert record["payload"]["rows"][7] == [
            "0", "1440", "0", "6272", "0", "2240", "0", "128"
        ]
        # bit-exact round trip
        assert json.loads(json.dumps(record)) == record

    def test_deterministic_output(self):
        one = run_cli(["tables", "b", "--max", "8", "--format", "json"])
        two = run_cli(["tables", "b", "--max", "8", "--format", "json"])
        assert one == two

    def test_cap_enforced(self, capsys):
        code, _ = run_cli(["tables", "c", "--max", str(cli.MAX_TABLE_ROW)])
        assert code == cli.EXIT_OK
        code, out = run_cli(["tables", "c", "--max", str(cli.MAX_TABLE_ROW + 1)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert f"exceeds the cap {cli.MAX_TABLE_ROW}" in capsys.readouterr().err
        # the cap is a constant, not a flag
        with pytest.raises(SystemExit) as exc:
            run_cli(["tables", "c", "--max", "100", "--cap", "128"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["tables", "fibonacci", "--max", "3"])
        assert exc.value.code == cli.EXIT_USAGE


class TestEval:
    def test_gamma_at_one(self):
        code, out = run_cli(["eval", "gamma", "--s", "1", "--terms", "100"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["partial_sum"]["re"] == pytest.approx(1 - 1 / 101, abs=1e-14)
        assert payload["reference"]["re"] == pytest.approx(1.0, rel=1e-13)
        assert len(payload["term_magnitudes"]) == 100

    def test_gamma_at_zero_is_exact(self):
        code, out = run_cli(["eval", "gamma", "--s", "0", "--terms", "5"])
        payload = json.loads(out)["payload"]
        assert payload["partial_sum"]["re"] == 1.0
        assert payload["rel_error"] < 1e-15

    def test_zeta_at_two(self):
        code, out = run_cli(["eval", "zeta", "--s", "2", "--terms", "60"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["reference"]["re"] == pytest.approx(math.pi**2 / 12, rel=1e-13)
        assert payload["rel_error"] < 0.05

    def test_recurrence_path_flag(self):
        _, direct = run_cli(["eval", "zeta", "--s", "0.75", "--terms", "40"])
        _, rec = run_cli(
            ["eval", "zeta", "--s", "0.75", "--terms", "40", "--path", "recurrence"]
        )
        d = json.loads(direct)["payload"]["partial_sum"]
        r = json.loads(rec)["payload"]["partial_sum"]
        assert d == r  # exact backends agree bit for bit

    def test_complex_recurrence_at_depth(self):
        # 400 terms at s = 1+i stay within their 1/N truncation of
        # Gamma(2+i) = 0.6529654964201668+0.3430658398165454i (mpmath),
        # on the default path and on recurrence
        gamma = 0.6529654964201668 + 0.3430658398165454j
        for extra in ([], ["--path", "direct"], ["--path", "recurrence"]):
            code, out = run_cli(["eval", "gamma", "--s", "1,1", "--terms", "400", *extra])
            assert code == 0
            total = json.loads(out)["payload"]["partial_sum"]
            assert abs(complex(total["re"], total["im"]) - gamma) <= 4e-3, extra

    def test_domain_error_exit_code(self):
        code, _ = run_cli(["eval", "zeta", "--s", "-1", "--terms", "5"])
        assert code == cli.EXIT_DOMAIN
        code, _ = run_cli(["eval", "gamma", "--s", "-3", "--terms", "5"])
        assert code == cli.EXIT_DOMAIN

    def test_usage_error_exit_codes(self):
        code, _ = run_cli(["eval", "gamma", "--s", "1", "--terms", "0"])
        assert code == cli.EXIT_USAGE
        code, _ = run_cli(["tables", "c", "--max", "-1"])
        assert code == cli.EXIT_USAGE
        code, _ = run_cli(["integral-check", "--s", "1", "--n", "-1"])
        assert code == cli.EXIT_USAGE


class TestConverge:
    def test_csv_shape_and_decay(self):
        code, out = run_cli(
            ["converge", "gamma", "--s", "1.5", "--max-terms", "200", "--stride", "50"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "terms,partial_sum_re,partial_sum_im,rel_error"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [50, 100, 150, 200]
        errors = [float(r[3]) for r in rows]
        assert errors == sorted(errors, reverse=True)

    def test_error_column_at_zero_argument(self):
        code, out = run_cli(
            ["converge", "gamma", "--s", "0", "--max-terms", "30", "--stride", "10"]
        )
        errors = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        assert all(e <= 1e-15 for e in errors)

    def test_stride_validation(self):
        code, _ = run_cli(
            ["converge", "zeta", "--s", "1", "--max-terms", "5", "--stride", "9"]
        )
        assert code == cli.EXIT_USAGE

    def test_json_format(self):
        code, out = run_cli(
            ["converge", "zeta", "--s", "0.75", "--max-terms", "40", "--stride", "20",
             "--format", "json"]
        )
        record = json.loads(out)
        assert [s["terms"] for s in record["payload"]["samples"]] == [20, 40]


class TestVerify:
    def test_stirling_suite_passes(self):
        code, out = run_cli(["verify", "stirling", "--depth", "10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS ") for line in lines)
        assert len(lines) == len(verify_mod.SUITES["stirling"])

    def test_json_format(self):
        code, out = run_cli(["verify", "bell", "--depth", "6", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert all(c["status"] == "pass" for c in record["payload"]["checks"])

    def test_failure_exit_code(self, monkeypatch):
        def failing(depth, rng):
            return "synthetic failure"

        monkeypatch.setitem(
            verify_mod.SUITES, "stirling", [("always_fails", failing)]
        )
        code, out = run_cli(["verify", "stirling", "--depth", "4"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL stirling:always_fails: synthetic failure" in out

    def test_each_check_is_one_line_of_its_suite(self):
        # each check joins its suite where it is defined: none is left out
        # or listed twice, and each line is named after its function
        assert tuple(verify_mod.SUITES) == VERIFY_SUITES
        lines = [line for checks in verify_mod.SUITES.values() for line in checks]
        checks = {name: fn for name, fn in vars(verify_mod).items()
                  if name.startswith("check_") and callable(fn)}
        assert sorted(f"check_{name}" for name, _ in lines) == sorted(checks)
        assert all(checks[f"check_{name}"] is fn for name, fn in lines)

    def test_path_equivalence_is_bit_for_bit_at_real_points(self):
        # one ulp between the paths fails a real point; at a complex point
        # a term one ulp off the series power passes
        from gammazeta import gamma_expansion

        class OneUlpApart:
            SIDE = gamma_expansion.SIDE

            @staticmethod
            def partial_sums(s, n_terms, path):
                value = complex(1.0) if path == "direct" else complex(1.0 + 2**-52)
                return [value] * n_terms

            @staticmethod
            def expansion_terms(s, n_terms, path):
                terms = gamma_expansion.expansion_terms(s, n_terms, path)
                return terms[:1] + [t * (1 + 2**-52) for t in terms[1:]]

        check = verify_mod._path_equivalence
        assert check(OneUlpApart, (1 + 1j,), 3, 0, None) is None
        assert check(OneUlpApart, (0.5,), 3, 0, None) == (
            "paths diverge at s=0.5, 1 terms: 2.22e-16"
        )

    def test_negative_depth_is_usage_error(self):
        code, out = run_cli(["verify", "all", "--depth", "-3"])
        assert code == cli.EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("depth", [cli.MAX_DEPTH + 1, 100000])
    def test_depth_above_the_cap_is_usage_error(self, depth, capsys):
        code, out = run_cli(["verify", "all", "--depth", str(depth)])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "exceeds the cap" in capsys.readouterr().err

    def test_depth_at_the_cap_is_accepted(self):
        # the bell checks stop at depth 10 whatever --depth says
        code, _ = run_cli(["verify", "bell", "--depth", str(cli.MAX_DEPTH)])
        assert code == cli.EXIT_OK

    def test_seed_changes_are_accepted(self):
        code, _ = run_cli(["verify", "oracle", "--depth", "4", "--seed", "7"])
        assert code == 0


class TestIntegralCheck:
    def test_log_two_identity(self):
        code, out = run_cli(["integral-check", "--s", "1", "--n", "0"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_discrepancy"] < 1e-10
        assert payload["rhs"]["re"] == pytest.approx(math.log(2), rel=1e-13)
        assert payload["quadrature"]["converged"] is True

    def test_higher_order(self):
        code, out = run_cli(["integral-check", "--s", "0.75", "--n", "4"])
        payload = json.loads(out)["payload"]
        assert payload["rel_discrepancy"] < 1e-8

    def test_budget_exit_code(self):
        code, _ = run_cli(["integral-check", "--s", "0.75", "--n", "4",
                           "--budget", "50"])
        assert code == cli.EXIT_BUDGET

    def test_n_cap(self):
        code, _ = run_cli(["integral-check", "--s", "1", "--n", "13"])
        assert code == cli.EXIT_USAGE
        # the caps are checked before --s, whose real part rounds to 0.0
        code, _ = run_cli(["integral-check", "--s", "1e-400,1", "--n", "99"])
        assert code == cli.EXIT_USAGE

    def test_oscillating_integrand_exhausts_every_level(self):
        # at s = 32+32i the rule runs all its levels without converging
        # (at 30+30i it converges): a budget error, one line, no traceback
        proc = subprocess.run(
            [sys.executable, "-m", "gammazeta", "integral-check", "--s", "32,32", "--n", "2"],
            capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == cli.EXIT_BUDGET
        assert proc.stdout == ""
        assert proc.stderr == ("quadrature budget exceeded: quadrature stalled at error "
                               "6.975e+22 after 50791 evaluations\n")
        code, out = run_cli(["integral-check", "--s", "30,30", "--n", "2"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["payload"]["quadrature"]["converged"] is True

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_must_be_positive(self, budget):
        code, out = run_cli(["integral-check", "--s", "0.75", "--n", "2",
                             "--budget", budget])
        assert code == cli.EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, tol):
        code, out = run_cli(["integral-check", "--s", "1", "--n", "0", "--tol", tol])
        assert code == cli.EXIT_USAGE
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gamma", "--s", "1.5", "--terms", str(cli.MAX_TERMS + 1)],
        ["eval", "zeta", "--s", "0.75,1", "--terms", "100000"],
        ["converge", "gamma", "--s", "0.5", "--max-terms", str(cli.MAX_TERMS + 1)],
        ["converge", "zeta", "--s", "2", "--max-terms", "100000", "--stride", "50000"],
    ],
)
def test_terms_above_the_cap_are_a_usage_error(argv, capsys):
    code, out = run_cli(argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err, parameters", [
    (["tables", "c", "--max=-1"], 2, "error: --max must be nonnegative\n", None),
    (["tables", "c", "--max", "65"], 2, "error: --max 65 exceeds the cap 64\n", None),
    (["eval", "gamma", "--s", "1.5", "--terms", "0"], 2, "error: --terms must be >= 1\n", None),
    (["eval", "gamma", "--s", "1.5", "--terms", "1001"], 2,
     "error: --terms 1001 exceeds the cap 1000\n", None),
    (["converge", "gamma", "--s", "1.5", "--max-terms", "1001"], 2,
     "error: --max-terms 1001 exceeds the cap 1000\n", None),
    (["converge", "gamma", "--s", "1.5", "--max-terms", "5", "--stride", "0"], 2,
     "error: requires max-terms >= stride >= 1\n", None),
    (["verify", "all", "--depth=-1"], 2, "error: --depth must be nonnegative\n", None),
    (["verify", "all", "--depth", "129"], 2, "error: --depth 129 exceeds the cap 128\n", None),
    (["integral-check", "--s", "1", "--n", "13"], 2, "error: --n must lie in 0..12\n", None),
    (["integral-check", "--s", "1", "--n", "0", "--tol", "0"], 2,
     "error: --tol must be a finite number > 0\n", None),
    (["integral-check", "--s", "1", "--n", "0", "--tol", "nan"], 2,
     "error: --tol must be a finite number > 0\n", None),
    (["integral-check", "--s", "1", "--n", "0", "--budget", "0"], 2,
     "error: --budget must be >= 1\n", None),
    (["tables", "c", "--max", "2", "--format", "json"], 0, "",
     '{"family": "c", "max_row": 2, "format": "json"}'),
    (["eval", "gamma", "--s", "1.5", "--terms", "3"], 0, "",
     '{"target": "gamma", "s": "1.5", "terms": 3, "path": "direct"}'),
    (["converge", "zeta", "--s", "0.75", "--max-terms", "4", "--stride", "2", "--path",
      "recurrence", "--format", "json"], 0, "",
     '{"target": "zeta", "s": "0.75", "max_terms": 4, "stride": 2, "path": "recurrence"}'),
    (["verify", "bell", "--depth", "2", "--format", "json"], 0, "",
     '{"suite": "bell", "depth": 2, "seed": 20214097}'),
    (["integral-check", "--s", "1", "--n", "0", "--budget", "100000"], 0, "",
     '{"s": "1", "n": 0, "tol": 1e-10}'),
])
def test_refusals_and_parameters_byte_for_byte(argv, code, err, parameters, capsys):
    # each range refusal is one line on stderr and nothing on stdout; each
    # JSON record echoes its subcommand's flags in this order
    got_code, out = run_cli(argv)
    assert (got_code, capsys.readouterr().err) == (code, err)
    if parameters is None:
        assert out == ""
    else:
        record = json.loads(out)
        assert record["command"] == argv[0]
        assert json.dumps(record["parameters"]) == parameters


def test_terms_at_the_cap_are_accepted():
    # s = 1: every summand past b = 1 vanishes, so the cap costs little here
    code, out = run_cli(["eval", "gamma", "--s", "1", "--terms", str(cli.MAX_TERMS),
                         "--path", "recurrence"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["payload"]["terms"] == cli.MAX_TERMS
    code, _ = run_cli(["converge", "zeta", "--s", "1", "--max-terms", str(cli.MAX_TERMS),
                       "--stride", "500", "--path", "recurrence"])
    assert code == cli.EXIT_OK


def test_import_does_not_load_dataclasses():
    # every CLI job pays for the import; dataclasses would bring inspect,
    # ast, dis and tokenize with it
    code = "import gammazeta, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_HELP = """\
usage: gammazeta [-h] {tables,eval,converge,verify,integral-check} ...

Exact coefficient triangles and factorial series expansions of Gamma(s+1) and
eta(s)Gamma(s), with verification suites.

positional arguments:
  {tables,eval,converge,verify,integral-check}
    tables              emit a coefficient triangle
    eval                evaluate a truncated expansion
    converge            sample convergence of an expansion
    verify              run verification suites
    integral-check      check the reduced-polynomial integral identity

options:
  -h, --help            show this help message and exit
"""
_VERIFY_USAGE = """\
usage: gammazeta verify [-h] [--depth DEPTH] [--seed SEED]
                        [--format {text,json}]
                        {all,stirling,bell,c,ml,b,poly,oracle,integral}
"""
_VERIFY_HELP = _VERIFY_USAGE + """
positional arguments:
  {all,stirling,bell,c,ml,b,poly,oracle,integral}

options:
  -h, --help            show this help message and exit
  --depth DEPTH
  --seed SEED           seed for the randomized property checks
  --format {text,json}
"""
_BAD_SUITE = _VERIFY_USAGE + (
    "gammazeta verify: error: argument suite: invalid choice: 'nosuch' (choose from "
    "'all', 'stirling', 'bell', 'c', 'ml', 'b', 'poly', 'oracle', 'integral')\n")


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, _HELP, ""),
    (["verify", "--help"], 0, _VERIFY_HELP, ""),
    (["verify", "nosuch"], 2, "", _BAD_SUITE),
])
def test_help_and_usage_text_byte_for_byte(argv, code, out, err):
    env = {**_src_env(), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-S", "-m", "gammazeta", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("text", [
    "1e1001", "1e-1001", "1e1000000", "1e-1000000", "0." + "0" * 1000 + "1",
    "1" * 1001, "1,1e-2000000", "1e-2000000,1",
])
def test_s_literal_above_the_size_cap_is_a_usage_error(text, capsys):
    for argv in (["eval", "gamma", "--s", text, "--terms", "3"],
                 ["integral-check", "--s", text, "--n", "1"]):
        code, out = run_cli(argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert f"above the cap {cli.MAX_S_DIGITS}" in err
        assert err.count("\n") == 1 and len(err) < 200


def test_s_literal_at_the_size_cap_is_accepted():
    assert cli.parse_complex_flag("1e-999") == Fraction(1, 10**999)
    assert cli.parse_complex_flag("0." + "0" * 998 + "1") == Fraction(1, 10**999)
    assert cli.parse_complex_flag("1" * 1000) == int("1" * 1000)
    for text in ("1e-300", "1e-400", "1,1e-400"):
        code, out = run_cli(["eval", "gamma", "--s", text, "--terms", "3"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["payload"]["terms"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "1,60", "--terms", "40"],
        ["converge", "gamma", "--s", "1.5", "--max-terms", "60", "--format", "csv"],
    ],
)
def test_stdout_closed_early_exits_quietly(argv):
    # the read end closes before the command writes, as when `head` has
    # already exited: no traceback, the documented exit status
    proc = subprocess.Popen([sys.executable, "-m", "gammazeta", *argv], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert err == b""


def _gamma_oracle_line(s):
    # the exact stderr of a real s that the Gamma oracle refuses
    return f"numeric-domain error: Gamma oracle out of float range at s = {complex(s)!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the Gamma side's reference is Gamma(s+1)
        (["eval", "gamma", "--s", "200", "--terms", "20"], _gamma_oracle_line(201)),
        (["eval", "zeta", "--s", "200", "--terms", "5"], _gamma_oracle_line(200)),
        (["eval", "zeta", "--s", "2000", "--terms", "5"], "numeric-domain error: float overflow"),
        (["eval", "gamma", "--s", "1e400", "--terms", "3"],
         "numeric-domain error: float overflow"),
        (["eval", "gamma", "--s", "100000000000000000000.5", "--terms", "1000"],
         _gamma_oracle_line(1e20)),
        (["converge", "gamma", "--s", "100000000000000000000.5", "--max-terms", "1000",
          "--path", "recurrence"], _gamma_oracle_line(1e20)),
        (["integral-check", "--s", "200", "--n", "1"], "numeric-domain error: float overflow"),
    ],
)
def test_float_overflow_is_a_domain_error(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("path", ["direct", "recurrence"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "gamma", "--s", "1e999", "--terms", "1000"],
         "numeric-domain error: float overflow"),
        (["converge", "gamma", "--s", "1e999", "--max-terms", "1000"],
         "numeric-domain error: float overflow"),
        (["eval", "zeta", "--s", "1000.5", "--terms", "800"], _gamma_oracle_line(1000.5)),
        (["converge", "zeta", "--s", "1000.5", "--max-terms", "800", "--stride", "100"],
         _gamma_oracle_line(1000.5)),
        (["eval", "gamma", "--s", "180", "--terms", "1000"], _gamma_oracle_line(181)),
    ],
)
def test_an_s_the_oracle_refuses_costs_no_terms(argv, message, path, monkeypatch, capsys):
    # eval and converge ask the oracle before the terms, which alone take seconds at these s
    from gammazeta import factorial_series as fs

    def no_terms(*args):
        raise AssertionError("terms computed at an s that the oracle refuses")

    monkeypatch.setattr(fs, "exact_terms", no_terms)
    monkeypatch.setattr(fs, "float_terms", no_terms)
    assert run_cli(argv + ["--path", path]) == (cli.EXIT_DOMAIN, "")
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "1e-400", "--terms", "3"],
        ["eval", "zeta", "--s", "1e-310", "--terms", "3", "--path", "recurrence"],
        ["converge", "zeta", "--s", "1e-400", "--max-terms", "3", "--stride", "1"],
        ["integral-check", "--s", "1e-400", "--n", "1"],
        ["eval", "zeta", "--s", "1e400", "--terms", "3"],
        ["integral-check", "--s", "1e400", "--n", "1"],
    ],
)
def test_s_beyond_the_float_range_says_so(argv, capsys):
    # the domain is tested on the exact value, so a positive s that rounds
    # to 0.0 is not reported as Re(s) <= 0
    code, out = run_cli(argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("numeric-domain error: ")
    assert "float" in err and "requires" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "5e-324,5e-324", "--terms", "3"],
        ["converge", "zeta", "--s", "1e-320,-1e-320", "--max-terms", "3", "--stride", "1",
         "--path", "recurrence"],
        ["eval", "zeta", "--s", "1025", "--terms", "3"],
        ["eval", "zeta", "--s", "1e5", "--terms", "3", "--path", "recurrence"],
        ["converge", "zeta", "--s", "1e5", "--max-terms", "3", "--stride", "1"],
        ["eval", "zeta", "--s", "2000,1", "--terms", "3"],
    ],
)
def test_complex_zeta_prefactor_beyond_the_float_range(argv, capsys):
    # 2**(s-1)/s overflows at |s| ~ 1e-320, and 2**(s-1) alone from
    # Re(s) = 1025 on; the expansion says so before any oracle runs
    assert run_cli(argv) == (cli.EXIT_DOMAIN, "")
    assert capsys.readouterr().err == (
        "numeric-domain error: float overflow "
        "(the prefactor 2**(s-1)/s is beyond the float range)\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "zeta", "--s", "1e-400,1", "--terms", "3"], cli.EXIT_DOMAIN),
        (["eval", "zeta", "--s", "1e-400,-2", "--terms", "3", "--path", "recurrence"],
         cli.EXIT_DOMAIN),
        (["converge", "zeta", "--s", "1e-400,1", "--max-terms", "3", "--stride", "1"],
         cli.EXIT_DOMAIN),
        (["integral-check", "--s", "1e-400,1", "--n", "1"], cli.EXIT_DOMAIN),
        # Gamma(s+1) needs only Re(s) > -1, which 0.0 meets
        (["eval", "gamma", "--s", "1e-400,1", "--terms", "3"], cli.EXIT_OK),
        (["converge", "gamma", "--s", "1e-400,1", "--max-terms", "3", "--stride", "1"],
         cli.EXIT_OK),
    ],
)
def test_complex_s_whose_positive_real_part_rounds_to_zero(argv, code, capsys):
    # Re(s) = 1e-400 > 0: where the domain is Re(s) > 0 the message says
    # that the real part rounds to 0.0, not that Re(s) <= 0
    assert run_cli(argv)[0] == code
    err = capsys.readouterr().err
    if code == cli.EXIT_DOMAIN:
        assert err == ("numeric-domain error: Re(s) > 0 rounds to 0.0, "
                       "below the float range\n")
    else:
        assert err == ""


def test_s_with_a_denominator_beyond_the_float_range_evaluates():
    # s = 1 + 10**-399, whose denominator is beyond the float range
    s = "1." + "0" * 398 + "1"
    for target in ("gamma", "zeta"):
        code, out = run_cli(["eval", target, "--s", s, "--terms", "3"])
        assert code == cli.EXIT_OK
        _, at_one = run_cli(["eval", target, "--s", "1", "--terms", "3"])
        near = [json.loads(text)["payload"]["partial_sum"]["re"] for text in (out, at_one)]
        assert math.isclose(*near, rel_tol=1e-15)
    # s = 10**-300: pref*q alone overflows, but the term 5e299 does not
    code, out = run_cli(["eval", "zeta", "--s", "1e-300", "--terms", "3"])
    assert code == cli.EXIT_OK
    payload = json.loads(out)["payload"]
    assert math.isfinite(payload["partial_sum"]["re"]) and payload["rel_error"] < 1e-12


def test_gamma_reference_near_the_top_of_the_float_range():
    # Gamma(151) = 5.7e262 is a float, though the Lanczos power alone is not
    code, out = run_cli(["eval", "gamma", "--s", "150", "--terms", "3"])
    assert code == cli.EXIT_OK
    reference = json.loads(out)["payload"]["reference"]
    assert reference["re"] == pytest.approx(math.gamma(151), rel=2e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gamma", "--s", "0.5,1e308", "--terms", "3"],
        ["converge", "gamma", "--s", "0.5,1e308", "--max-terms", "3", "--stride", "1"],
        ["integral-check", "--s", "0.5,1e308", "--n", "0"],
    ],
)
def test_phase_beyond_float_range_is_a_domain_error(argv, capsys):
    # Im(s) = 1e308 overflows the phase of a complex power or exponential
    code, out = run_cli(argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("numeric-domain error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "0.01,153", "--terms", "3"],
        ["eval", "zeta", "--s", "0.5,2000", "--terms", "3"],
        ["converge", "zeta", "--s", "0.5,1e6", "--max-terms", "3", "--stride", "1"],
        ["eval", "zeta", "--s", "0.5,1e308", "--terms", "1"],  # no A_a(s) to overflow
    ],
)
def test_eta_oracle_order_cap_is_a_domain_error(argv, capsys):
    # |Im s| beyond about 151.7 needs a Borwein order above 399, whose sums overflow
    code, out = run_cli(argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("numeric-domain error: eta oracle needs ")
    assert "acceleration order" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "gamma", "--s", "999,1000", "--terms", "3"], "Gamma oracle out of float range"),
        (["converge", "gamma", "--s", "1e10,1e10", "--max-terms", "4", "--stride", "2",
          "--format", "csv"], "Gamma oracle out of float range"),
        # the oracle is asked before the terms, whose series power would overflow too
        (["eval", "zeta", "--s", "0.5,1e308", "--terms", "3"], "eta oracle needs"),
        (["eval", "gamma", "--s", "1e300,1e300", "--terms", "3"],
         "Gamma oracle out of float range"),
        # real s: the halves of the Lanczos power meet as inf and 0 (Gamma at
        # s = 181), or a half overflows itself (from s ~ 1000 on)
        (["eval", "gamma", "--s", "180", "--terms", "3"], _gamma_oracle_line(181)),
        (["eval", "zeta", "--s", "1024.5", "--terms", "3"], _gamma_oracle_line(1024.5)),
        (["eval", "zeta", "--s", "1000.5", "--terms", "800"], _gamma_oracle_line(1000.5)),
        (["eval", "gamma", "--s", "100000000000000000000.5", "--terms", "1000"],
         _gamma_oracle_line(1e20)),
    ],
)
def test_a_value_beyond_the_float_range_is_a_domain_error(argv, message, capsys):
    # a NaN reference or term would print as bare NaN, which is not JSON
    code, out = run_cli(argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("numeric-domain error: ") and message in err
    assert err.count("\n") == 1


# argv fuzz: every subcommand and flag, values small enough to run in
# milliseconds (bad ones among them), and in half the cases one token
# replaced by junk or junk inserted
_JUNK = st.sampled_from(["", "-", "--", "--bogus", "x", "1/2", "nan", "inf", "1e400",
                         "0x10", "1,2,3", ",", " 1 ", "--help", "-1"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_DECIMALS = st.decimals(-3, 40, places=2, allow_nan=False, allow_infinity=False)
_S = st.one_of(
    st.sampled_from(["0", "1", "-1", "-2", "0.5", "1,60", "-1,0", "0,1", "1e-300", "1e-400",
                     "100000000000000000000.5", "1/2", "abc", "1,2,3", ""]),
    _DECIMALS.map(str),
    st.tuples(_DECIMALS, _DECIMALS).map(lambda z: f"{z[0]},{z[1]}"),
)
_PATHS = st.sampled_from(("direct", "recurrence"))
# subcommand -> (positional choices or None, {flag: values}, required flags)
_SURFACE = {
    "tables": (cli.TABLE_FAMILIES,
               {"--max": _ints(-2, 66),
                "--format": st.sampled_from(("csv", "json"))},
               ("--max",)),
    "eval": (("gamma", "zeta"),
             {"--s": _S, "--terms": _ints(-2, 60), "--path": _PATHS},
             ("--s", "--terms")),
    "converge": (("gamma", "zeta"),
                 {"--s": _S, "--max-terms": _ints(-2, 60), "--stride": _ints(-2, 70),
                  "--path": _PATHS, "--format": st.sampled_from(("csv", "json"))},
                 ("--s", "--max-terms")),
    "verify": (("all",) + VERIFY_SUITES,
               {"--depth": _ints(-2, 4), "--seed": st.integers().map(str),
                "--format": st.sampled_from(("text", "json"))},
               ()),
    "integral-check": (None,
                       {"--s": _S, "--n": _ints(-2, 13),
                        "--tol": st.sampled_from(("1e-12", "1e-6", "0", "-1", "nan",
                                                  "inf", "1e-300")),
                        "--budget": _ints(-2, 200)},
                       ("--s", "--n")),
}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_SURFACE)))
    positional, flags, required = _SURFACE[sub]
    argv = [sub] + ([draw(st.sampled_from(positional))] if positional else [])
    chosen = [f for f in sorted(flags) if f in required or draw(st.booleans())]
    for flag in draw(st.permutations(chosen)):
        argv += [flag, draw(flags[flag])]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = [draw(_JUNK)]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    try:
        code, _ = run_cli(argv)
    except SystemExit as exc:  # argparse: --help, or a malformed command line
        assert exc.code in (0, 2)
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_USAGE,
                        cli.EXIT_DOMAIN, cli.EXIT_BUDGET)


# boundary properties: near the pole of Gamma(s+1) at s = -1, as Re(s)
# goes to 0+ on the zeta side, and with --s components beyond the float
# range, every run ends in a documented exit code with no traceback, and
# a success prints only finite numbers

def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _run_at_boundary(argv) -> int:
    code, out = run_cli(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_BUDGET)
    if code == cli.EXIT_OK:
        assert _all_finite(json.loads(out)["payload"])
    return code


def _series_argvs(target, s):
    return [["eval", target, f"--s={s}", "--terms", "6"],
            ["eval", target, f"--s={s}", "--terms", "6", "--path", "recurrence"],
            ["converge", target, f"--s={s}", "--max-terms", "6", "--stride", "3",
             "--format", "json"]]


def _deltas(lowest):
    # |delta| from 10**lowest to 1e-8, either sign
    return st.builds(lambda m, e, sign: sign * Decimal(m).scaleb(e), st.integers(100, 999),
                     st.integers(lowest - 2, -11), st.sampled_from((1, -1)))


_DELTA = _deltas(-16)


@settings(max_examples=40, deadline=None)
@given(_deltas(-18))
def test_gamma_at_real_s_near_minus_one(delta):
    # s + 1 = delta is exact at rational s, so the reference Gamma(delta)
    # keeps delta's low bits, and 1/delta stays a float down to 1e-18
    s = Decimal(-1) + delta
    for argv in _series_argvs("gamma", s):
        code, out = run_cli(argv)
        assert code == (cli.EXIT_OK if delta > 0 else cli.EXIT_DOMAIN)
        if code == cli.EXIT_OK:
            payload = json.loads(out)["payload"]
            assert _all_finite(payload)
            if delta <= Decimal("1e-11"):
                errors = [sample["rel_error"] for sample in payload.get("samples", [payload])]
                assert max(errors) <= 1e-11, argv


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(Decimal(0)), _DELTA), _DELTA)
def test_gamma_at_complex_s_near_minus_one(re_delta, im_delta):
    # |s+1| falls on both sides of the 1e-12 pole tolerance
    s = complex(-1 + re_delta, im_delta)
    argvs = _series_argvs("gamma", f"{-1 + re_delta},{im_delta}")
    codes = {_run_at_boundary(argv) for argv in argvs}
    if re_delta > 0 and abs(s + 1) > 2e-12:
        assert codes == {cli.EXIT_OK}
    if re_delta <= 0 or abs(s + 1) < 0.5e-12:
        assert codes == {cli.EXIT_DOMAIN}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 999), st.integers(-340, -3),
       st.sampled_from(("", ",1", ",-3.5", ",1e-300", ",same")))
def test_zeta_as_re_s_goes_to_zero(mantissa, exponent, imag):
    re = f"{mantissa}e{exponent}"
    s = re + imag.replace("same", re)
    for argv in _series_argvs("zeta", s) + [["integral-check", f"--s={s}", "--n", "2"]]:
        _run_at_boundary(argv)
    if exponent >= -300:  # |Gamma(s)| ~ 1/|s| stays finite
        assert _run_at_boundary(["eval", "zeta", f"--s={s}", "--terms", "3"]) == cli.EXIT_OK


_EXTREME = st.sampled_from(("1e-400", "-1e-400", "4.9e-325", "1e400", "-1e400", "1.8e309"))
_PLAIN = st.sampled_from(("0.5", "-0.5", "2", "0"))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_EXTREME, st.tuples(_EXTREME, _PLAIN).map(",".join),
                 st.tuples(_PLAIN, _EXTREME).map(",".join),
                 st.tuples(_EXTREME, _EXTREME).map(",".join)))
def test_s_components_beyond_the_float_range(s):
    for target in ("gamma", "zeta"):
        for argv in _series_argvs(target, s):
            _run_at_boundary(argv)
    _run_at_boundary(["integral-check", f"--s={s}", "--n", "2"])
