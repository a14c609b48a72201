"""Self-tests of the benchmark's own logic; no gammazeta process runs.

    python3 -m pytest perfbench
"""

import json
import random
import struct
from fractions import Fraction
from pathlib import Path

import run
import spans
import workloads


def test_generators_are_deterministic_per_seed():
    def jobs(seed):
        rng = random.Random(f"w:{seed}")
        return (workloads.exact_deep_cycle(rng, 0) + workloads.cli_mix_cycle(rng, 20)
                + [workloads.float_unit(rng, i) for i in range(5)])

    assert jobs(7) == jobs(7)
    assert jobs(7) != jobs(8)


def test_cycles_have_fixed_composition():
    rng = random.Random(1)
    for _ in range(3):
        exact = workloads.exact_deep_cycle(rng, 0)
        assert len(exact) == 20
        assert sorted(j["argv"][-1] for j in exact) == ["direct"] * 10 + ["recurrence"] * 10
        for target, (lo, hi) in workloads.EXACT_TERMS.items():
            terms = [int(j["argv"][5]) for j in exact if j["target"] == target]
            assert all(lo <= n <= hi for n in terms)
        kinds = sorted(j["kind"] for j in workloads.cli_mix_cycle(rng, 0))
        assert kinds == ["integral"] * 2 + ["series"] * 2 + ["tables"] * 3 + ["verify"]


def test_self_time_on_synthetic_tree():
    # root 0..100 with children 10..40 and 30..60 (overlapping: union 50)
    # and a grandchild 12..20 inside the first child
    tree = [
        ["root", 0, 100, -1, 1, None],
        ["a", 10, 40, 0, 1, None],
        ["b", 30, 60, 0, 1, None],
        ["c", 12, 20, 1, 1, None],
    ]
    assert spans.self_times_ns(tree) == [50, 22, 30, 8]
    assert spans.covered_ns([(10, 40), (30, 60), (90, 120)], 0, 100) == 60


def test_layer_metrics_split_backend_and_coverage():
    tree = [
        ["gamma_expansion.evaluate", 100, 900, -1, 1, None],
        ["gamma_expansion.expansion_terms", 150, 850, 0, 1, {"backend": "exact", "terms": 40}],
    ]
    jobs = [{"id": 1, "start_ns": 0, "end_ns": 1000, "output_bytes": 10, "plain_s": 800e-9}]
    m = spans.layer_metrics(tree, jobs)
    assert m["gamma_expansion.expansion_terms.exact.self_s"] == 700e-9
    assert m["gamma_expansion.evaluate.self_s"] == 100e-9
    assert m["gamma_expansion.terms"] == 40
    assert m["untraced_share"] == 0.2
    assert m["exact_terms_share"] == 0.7
    assert m["trace_overhead_ratio"] == 1.25
    assert set(m) == {name for name, _u, _b in spans.PER_LAYER}


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50.5
    assert abs(run.percentile(values, 0.9) - 90.1) < 1e-12
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([5, 1, 3], 0.5) == 3


def _eval_output(partial_re: float, rel: float) -> bytes:
    payload = {"terms": 300, "partial_sum": {"re": partial_re, "im": 0.0}, "rel_error": rel}
    return json.dumps({"schema_version": "1.0", "command": "eval", "parameters": {},
                       "payload": payload}).encode()


def _pair(stdout_a: bytes, stdout_b: bytes):
    argv = ["eval", "gamma", "--s", "1.5", "--terms", "300"]
    jobs = [{"id": i, "kind": "exact", "pair": (0, 0), "target": "gamma", "s": "1.5",
             "argv": argv + ["--path", path]} for i, path in enumerate(workloads.PATHS)]
    summaries = {j["id"]: workloads.summarize(j, 0, out, b"", {})
                 for j, out in zip(jobs, (stdout_a, stdout_b))}
    return workloads.check_pairs(jobs, summaries)


def test_flipped_bit_in_partial_sum_is_a_failure():
    value, rel = 0.8862269254527580, 1.0e-2  # within the s=3/2 envelope at 300 terms
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ 1))
    assert _pair(_eval_output(value, rel), _eval_output(value, rel)) == {}
    failed = _pair(_eval_output(value, rel), _eval_output(flipped, rel))
    assert set(failed) == {0, 1}


def test_envelope_brackets_results_table():
    assert workloads.envelope("gamma", Fraction(3, 2), 40) is None
    assert workloads.envelope("gamma", Fraction(9, 4), 300) is None
    low, high = workloads.envelope("gamma", Fraction(5, 4), 300)
    assert low < 6.03e-03 < high  # measured at the commit that added the benchmark
    bad = _eval_output(0.88, 0.5)
    assert _pair(bad, bad) != {}


def test_float_unit_check():
    calls = [["gamma", 1.0, 1.0, n, p] for n in (30, 80) for p in workloads.PATHS]
    good = [[0.5, 0.1, 1e-2, 0, None, 0, 0]] * 2 + [[0.5, 0.1, 5e-3, 0, None, 0, 0]] * 2
    assert workloads.check_float_unit(calls, good) is None
    grown = good[:2] + [[0.5, 0.1, 2e-2, 0, None, 0, 0]] * 2
    assert "grew" in workloads.check_float_unit(calls, grown)
    apart = [[0.5, 0.1, 1e-2, 0, None, 0, 0], [0.5 + 1e-6, 0.1, 1e-2, 0, None, 0, 0]] + good[2:]
    assert "differ" in workloads.check_float_unit(calls, apart)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
