"""Benchmark of gammazeta: three seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload {exact_deep,float_sweep,cli_mix,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is taken from ``src/``.
Each workload is a closed loop with one client and at most one child
process at a time. CLI jobs run as ``python -m gammazeta ...`` with the
same interpreter, ``src`` on PYTHONPATH and THREADS removed from the
environment.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs every
job once plain and once with spans around the public functions of each
module (``spans.py``), and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A run record with the samples goes to ``perfbench/out/``.
See README.md in this directory for what each workload predicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MiB"))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, at rank q*(n-1)."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Bench:
    """Settings and helpers shared by the workloads of one invocation."""

    def __init__(self, root: Path, seed: int, seconds: int, trace: bool):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.out = HERE / "out"
        self.out.mkdir(exist_ok=True)
        src = str(root / "src")
        env = {k: v for k, v in os.environ.items() if k != "THREADS"}
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.cli = [sys.executable, "-m", "gammazeta"]
        self.digests = json.loads((HERE / "table_digests.json").read_text())

    def run_process(self, argv: list[str]) -> dict:
        """Run one child to completion; its wall time spans spawn to reap."""
        out_path, err_path = self.out / "job.stdout", self.out / "job.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"start_ns": start, "end_ns": end, "wall_s": (end - start) / 1e9,
                "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}

    def cli_setup(self) -> tuple[list[float], list[int], str | None]:
        """Wall times and peak RSS of no-work ``python -m gammazeta --help`` runs."""
        walls, rss, failure = [], [], None
        for _ in range(SETUP_REPEATS):
            r = self.run_process(self.cli + ["--help"])
            walls.append(r["wall_s"])
            rss.append(r["maxrss_kb"])
            if r["rc"] != 0:
                failure = f"setup exited {r['rc']}"
        return walls, rss, failure


# ---------------------------------------------------------------- CLI loop

def run_cli_job(bench: Bench, job: dict, trace_spans: list, traced_jobs: list) -> dict:
    """One CLI job; with tracing, once plain and once traced (alternating
    which goes first). The plain run gives the job's timing and output."""
    if not bench.trace:
        return bench.run_process(bench.cli + job["argv"])
    spans_path = bench.out / "child_spans.json"
    traced_argv = [sys.executable, str(HERE / "child.py"), str(spans_path), str(job["id"]), "--"]
    runs = {}
    for traced in ((False, True) if job["id"] % 2 == 0 else (True, False)):
        if traced:
            spans_path.unlink(missing_ok=True)
        runs[traced] = bench.run_process((traced_argv if traced else bench.cli) + job["argv"])
    plain, traced = runs[False], runs[True]
    offset = len(trace_spans)
    if spans_path.exists():
        for span in json.loads(spans_path.read_text()):
            if span[spans.PARENT] >= 0:
                span[spans.PARENT] += offset
            trace_spans.append(span)
    traced_jobs.append({"id": job["id"], "start_ns": traced["start_ns"], "end_ns": traced["end_ns"],
                        "output_bytes": len(traced["stdout"]), "plain_s": plain["wall_s"]})
    if traced["stdout"] != plain["stdout"] or traced["rc"] != plain["rc"]:
        plain = dict(plain, rc=plain["rc"] or 1,
                     stderr=plain["stderr"] + b"\ntraced run gave a different output or exit code")
    plain["maxrss_kb"] = max(plain["maxrss_kb"], traced["maxrss_kb"])
    return plain


def run_cli_workload(bench: Bench, name: str, make_cycle) -> dict:
    setup, rss, setup_failure = ([], [], None) if bench.trace else bench.cli_setup()
    rng = random.Random(f"{name}:{bench.seed}")
    jobs, walls, summaries = [], [], {}
    trace_spans, traced_jobs = [], []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = make_cycle(rng, len(jobs))
        for job in cycle:
            r = run_cli_job(bench, job, trace_spans, traced_jobs)
            walls.append(r["wall_s"])
            rss.append(r["maxrss_kb"])
            summaries[job["id"]] = workloads.summarize(job, r["rc"], r["stdout"], r["stderr"],
                                                       bench.digests)
        jobs += cycle
        # whole cycles only, so every run sees the same mix; stop before
        # one that would end past the deadline
        end = time.perf_counter()
        if end - loop_start + (end - cycle_start) > bench.seconds:
            break
    if name == "exact_deep":
        failures = workloads.check_pairs(jobs, summaries)
    else:
        failures = {i: s["failure"] for i, s in summaries.items() if s["failure"]}
    if setup_failure:
        failures["setup"] = setup_failure
    return {"jobs": len(jobs), "walls": walls, "setup": setup, "peak_rss_kb": max(rss),
            "failures": failures, "spans": trace_spans, "traced_jobs": traced_jobs}


# -------------------------------------------------------------- float loop

class Worker:
    """The float_sweep library process, driven over JSON lines."""

    def __init__(self, bench: Bench):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=bench.env, cwd=bench.root, text=True)
        self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("float_sweep worker exited early")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> tuple[list, int]:
        """Stop the worker; returns its spans and peak RSS in KiB."""
        final = self.request({"end": True})
        self.proc.stdin.close()
        self.proc.stdout.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return final["spans"], usage.ru_maxrss


def float_sweep(bench: Bench) -> dict:
    setup, rss = [], []
    for _ in range(SETUP_REPEATS):  # spawn, import and warm-up; the last worker serves
        start = time.perf_counter()
        worker = Worker(bench)
        setup.append(time.perf_counter() - start)
        if len(setup) < SETUP_REPEATS:
            rss.append(worker.close()[1])
    rng = random.Random(f"float_sweep:{bench.seed}")
    walls, failures, traced_jobs = [], {}, []
    index = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < bench.seconds:
        calls = workloads.float_unit(rng, index)
        first = index * len(calls)
        results = worker.request({"calls": calls, "trace": int(bench.trace), "job": first})["results"]
        for offset, r in enumerate(results):
            if r[0] != "error":
                walls.append(r[3])
                if bench.trace:
                    traced_jobs.append({"id": first + offset, "start_ns": r[5], "end_ns": r[6],
                                        "output_bytes": 0, "plain_s": r[3]})
        failure = workloads.check_float_unit(calls, results)
        if failure:
            failures.update({first + k: failure for k in range(len(calls))})
        index += 1
    trace_spans, worker_rss = worker.close()
    rss.append(worker_rss)
    return {"jobs": index * 4, "walls": walls, "setup": setup, "peak_rss_kb": max(rss),
            "failures": failures, "spans": trace_spans, "traced_jobs": traced_jobs}


WORKLOADS = {
    "exact_deep": lambda bench: run_cli_workload(bench, "exact_deep", workloads.exact_deep_cycle),
    "float_sweep": float_sweep,
    "cli_mix": lambda bench: run_cli_workload(bench, "cli_mix", workloads.cli_mix_cycle),
}

# ----------------------------------------------------------------- report

def run_record(root: Path) -> dict:
    """Python version, core count, git SHA and size of the code measured."""
    files = sorted((root / "src" / "gammazeta").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": sha,
            "src_lines": lines, "src_sha256": digest.hexdigest()}


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    walls = result["walls"]
    p90 = percentile(walls, 0.9)
    beyond = sum(w > p90 for w in walls)
    metrics = {
        "setup_s": statistics.median(result["setup"]),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": percentile(walls, 0.5),
        "job_p90_s": p90,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    attempted, failed = result["jobs"], len(result["failures"])
    notes = {
        "setup_s": f"median of {len(result['setup'])} set-ups",
        "jobs_per_s": f"{len(walls)} jobs / {sum(walls):.3f} s of job wall time",
        "job_p50_s": f"n={len(walls)}",
        "job_p90_s": f"n={len(walls)}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10)"),
        "peak_rss_mb": "largest child or worker peak RSS",
    }
    lines = [f"  {name:<12} {metrics[name]:<12.6g} {unit:<5} {notes[name]}"
             for name, unit in END_TO_END]
    lines.append(f"  {'fail_ratio':<12} {failed / attempted:<12.6g} {'':<5} {failed}/{attempted} jobs failed")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = spans.layer_metrics(result["spans"], result["traced_jobs"])
    units = {name: unit for name, unit, _better in spans.PER_LAYER}
    lines = [f"  {name:<55} {value:<12.6g} {units[name]}" for name, value in metrics.items()]
    jobs = result["traced_jobs"]
    mean_wall = sum((j["end_ns"] - j["start_ns"]) / 1e9 for j in jobs) / max(len(jobs), 1)
    lines.append("  largest shares of traced job wall time:")
    lines += [f"    {share:7.2%}  {name}" for name, share in spans.top_items(metrics, mean_wall)]
    return metrics, lines


def run_workload(bench: Bench, name: str, record: dict) -> dict:
    print(f"workload {name}  seed {bench.seed}  seconds {bench.seconds}  trace {int(bench.trace)}"
          "  (closed loop, one client)", flush=True)
    result = WORKLOADS[name](bench)
    metrics, lines = (per_layer if bench.trace else end_to_end)(result)
    print("\n".join(lines))
    for job_id, reason in sorted(result["failures"].items(), key=str)[:10]:
        print(f"  FAILED job {job_id}: {reason}")
    units = dict(END_TO_END) if not bench.trace else {n: u for n, u, _b in spans.PER_LAYER}
    summary = {"correct": not result["failures"], "attempted": result["jobs"],
               "failed": len(result["failures"]),
               "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    run_file = bench.out / f"{name}-seed{bench.seed}-trace{int(bench.trace)}.json"
    run_file.write_text(json.dumps({"record": record, "workload": name, "seed": bench.seed,
                                    "seconds": bench.seconds, "trace": int(bench.trace),
                                    "result": summary, "job_walls_s": result["walls"],
                                    "setup_s": result["setup"],
                                    "failures": {str(k): v for k, v in result["failures"].items()}},
                                   indent=1))
    if bench.trace:
        with open(bench.out / f"spans-{name}-seed{bench.seed}.jsonl", "w") as f:
            for span in result["spans"]:
                f.write(json.dumps(span) + "\n")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gammazeta" / "__init__.py").is_file():
        print(f"error: no src/gammazeta under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    bench = Bench(root, args.seed, args.seconds, bool(args.trace))
    record = run_record(root)
    print("record  " + "  ".join(f"{k}={v}" for k, v in record.items()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {name: run_workload(bench, name, record) for name in names}
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{m}": v for n, s in summaries.items()
                             for m, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
