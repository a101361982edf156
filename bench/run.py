"""Benchmark of the ``plesken`` command line: time to an exact answer.

Usage::

    python3 bench/run.py --workload h2_ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # table of all

A run generates the workload's inputs from ``--seed`` (see ``inputs.py``;
every pass gets its own input set), then runs the workload's job list in
passes.  Each pass is a fresh ``worker.py`` interpreter, so nothing cached in
one pass helps the next, as between real CLI calls; inside it the jobs run
one after another, a closed loop with one client.  New passes start until
``--seconds`` have passed, so a run measures at least that long and at most
one pass longer.

With ``--trace 0`` the passes are untraced and the end-to-end metrics are
reported.  With ``--trace 1`` each round is an untraced and a traced pass on
the same inputs, then one counting pass runs, and the per-layer metrics are
reported (see ``spans.py``).  Every job's output is checked in every pass
(``inputs.check_job``), and its stdout hash must be the same in every mode on
the same inputs.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKDIR = os.path.join(ROOT, ".bench_work")

import inputs  # noqa: E402
import spans  # noqa: E402

# The metrics of the result line, each with a bound in BENCHMARK.json.
END_TO_END = (
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# Printed but not in the result line: across seeds their spread is as large
# as any bound allowed (each is one job's time, and the relabelling moves it).
REPORTED = (
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
)
SETUP_PROBES = 7
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failed job)."""


class Run:
    """One workload at one seed: inputs, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.began = time.perf_counter()
        self.dir = os.path.join(WORKDIR, f"{workload}-seed{seed}-{os.getpid()}")
        self.inputs: dict = {}
        self.generation_s = 0.0
        self.reference: dict = {}
        self.attempted = self.failed = 0
        self.problems: list = []

    def _spawn(self, jobs_path: str, mode: str, spans_path: str = "") -> tuple[float, dict]:
        """Start a worker; return (set-up seconds, its report)."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.began)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        # -S: the site module belongs to the machine's Python installation
        # (here its .pth files import certifi, about 40 ms), not to plesken
        argv = [sys.executable, "-S", os.path.join(BENCH, "worker.py"), jobs_path, mode]
        start = time.perf_counter()
        # unbuffered, so that reading the ready line reads nothing beyond it
        proc = subprocess.Popen(argv + ([spans_path] if spans_path else []),
                                cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} pass did not finish in {remaining:.0f} s")
        if proc.returncode != 0 or ready != b"ready\n":
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup, json.loads(out.decode().splitlines()[-1])

    def _jobs(self, variant: int) -> tuple[list, str]:
        """The job list of one input set, generated on first use."""
        if variant not in self.inputs:
            start = time.perf_counter()
            workdir = os.path.join(self.dir, f"inputs{variant}")
            jobs = inputs.generate(self.workload, self.seed, variant, workdir)
            path = os.path.join(workdir, "jobs.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(jobs, handle)
            self.inputs[variant] = (jobs, path)
            self.generation_s += time.perf_counter() - start
        return self.inputs[variant]

    def probe_setup(self) -> list[float]:
        os.makedirs(self.dir, exist_ok=True)
        empty = os.path.join(self.dir, "no-jobs.json")
        with open(empty, "w", encoding="utf-8") as handle:
            json.dump([], handle)
        return [self._spawn(empty, "plain")[0] for _ in range(SETUP_PROBES)]

    def run_pass(self, variant: int, mode: str, spans_path: str = "") -> tuple[float, dict]:
        jobs, path = self._jobs(variant)
        setup, report = self._spawn(path, mode, spans_path)
        by_id = {job["id"]: job for job in jobs}
        for result in report["jobs"]:
            self.attempted += 1
            problems = inputs.check_job(by_id[result["id"]], result["exit"], result["stdout"])
            key = f"inputs{variant} {result['id']}"
            if self.reference.setdefault(key, result["sha256"]) != result["sha256"]:
                problems.append(f"stdout hash differs from the untraced pass ({mode} pass)")
            self.failed += bool(problems)
            self.problems.extend(f"{key}: {p}" for p in problems)
        return setup, report

    def measure(self, modes: tuple[str, ...]) -> dict:
        """Start rounds until ``seconds`` have passed.  Round r runs one pass
        per mode on input set r; only round 0's traced pass writes its spans."""
        reports = {mode: [] for mode in modes}
        setups = []
        start = time.perf_counter()
        while not setups or time.perf_counter() - start < self.seconds:
            variant = len(reports[modes[0]])
            for mode in modes:
                spans_path = self.spans_path() if mode == "trace" and variant == 0 else ""
                setup, report = self.run_pass(variant, mode, spans_path)
                setups.append(setup)
                reports[mode].append(report)
        return {"reports": reports, "setups": setups}

    def spans_path(self) -> str:
        return os.path.join(WORKDIR, f"spans-{self.workload}-seed{self.seed}.jsonl")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(plain: list, setups: list) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a run's untraced passes.

    Job latencies are taken per job first: each job's median over the passes,
    then the median and the maximum of those over the job list.  A pooled
    quantile of a few heterogeneous jobs falls between two jobs and jumps
    from one to the other with the relabelling.
    """
    walls: dict = {}
    for report in plain:
        for job in report["jobs"]:
            walls.setdefault(job["id"], []).append(1000 * job["wall_s"])
    job_ms = {jid: statistics.median(samples) for jid, samples in walls.items()}
    slowest = max(job_ms, key=job_ms.get)
    values = {
        "pass_s": statistics.median(r["pass_s"] for r in plain),
        "pass_cpu_s": statistics.median(r["pass_cpu_s"] for r in plain),
        "job_p50_ms": statistics.median(job_ms.values()),
        "job_tail_ms": job_ms[slowest],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in plain) / 1024,
    }
    notes = {
        "pass_s": f"median of {len(plain)} passes",
        "pass_cpu_s": f"median of {len(plain)} passes",
        "job_p50_ms": f"median of {len(job_ms)} job medians, {len(plain)} samples each",
        "job_tail_ms": f"slowest job's median ({slowest}), {len(plain)} samples",
        "setup_s": f"median of {len(setups)} worker spawns, spawn to import plesken.cli",
        "peak_rss_mib": f"median VmHWM of {len(plain)} workers",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{name:14s} {values[name]:12.4f} {unit:4s} {notes[name]}"
             for name, unit in END_TO_END + REPORTED]
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    if not os.path.isdir(os.path.join(ROOT, "src", "plesken")):
        raise BenchError(f"no program source at {os.path.join(ROOT, 'src', 'plesken')}")
    try:
        setups = run.probe_setup()
        if trace:
            measured = run.measure(("plain", "trace"))
            plain, traced = measured["reports"]["plain"], measured["reports"]["trace"]
            _, counted = run.run_pass(0, "count")
            untraced_s = statistics.median(r["pass_s"] for r in plain)
            traced_s = statistics.median(r["pass_s"] for r in traced)
            metrics = spans.layer_metrics(
                spans.read_spans(run.spans_path()), counted["counts"], {
                    "out_bytes": sum(len(j["stdout"].encode()) for j in traced[0]["jobs"]),
                    "spans": traced[0]["spans"],
                    "traced_pass_s": traced_s,
                    "untraced_pass_s": untraced_s,
                    "overhead_s": traced_s - untraced_s,
                })
            lines = [f"traced pass {traced_s:.4f} s, untraced {untraced_s:.4f} s "
                     f"(medians of {len(traced)}), overhead {traced_s - untraced_s:.4f} s, "
                     f"counting pass {counted['pass_s']:.4f} s; spans of the first "
                     f"traced pass in {os.path.relpath(run.spans_path(), ROOT)}"]
        else:
            measured = run.measure(("plain",))
            metrics, lines = end_to_end(measured["reports"]["plain"],
                                        setups + measured["setups"])
        lines.insert(0, f"inputs: {len(run.inputs)} sets generated from seed {seed} "
                        f"in {run.generation_s:.3f} s (not a metric)")
        failed = run.failed
        lines.append(f"{'error_rate':14s} {failed / run.attempted:12.4f}      "
                     f"{failed} failed of {run.attempted} attempted")
        lines.extend(f"FAILED {p}" for p in run.problems)
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "correct": failed == 0, "attempted": run.attempted, "failed": failed,
                "metrics": metrics, "jobs": dict(sorted(run.reference.items())),
                "lines": lines}
    finally:
        run.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="also write the full result (with the "
                                          "stdout hash of every job) to this file")
    args = parser.parse_args(argv)
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            print("\n".join(result.pop("lines")), flush=True)
            results.append(result)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if args.results:
        with open(args.results, "w", encoding="utf-8") as handle:
            json.dump(results if args.workload == "all" else results[0], handle, indent=1)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{name}": value
                   for r in results for name, value in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
