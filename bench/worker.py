"""One pass of a workload's job list in a fresh interpreter.

Usage: ``python3 bench/worker.py JOBS.json MODE [SPANS.jsonl]`` with MODE one
of ``plain``, ``trace`` or ``count``; a traced pass writes its spans to
SPANS.jsonl when that is given.  The worker imports ``plesken.cli`` from
the checkout's ``src`` first and then writes ``ready`` on its own line, so the
parent can time interpreter start-up plus import.  It then runs every job as
an in-process ``plesken.cli.main(argv)`` call with stdout captured, one after
another, and writes one JSON line with the results.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_jobs(jobs: list, tracer=None) -> tuple[list, float, float]:
    """Run the jobs once; return per-job results, pass wall and CPU seconds."""
    # imported here, not at the top, so that set-up time is start-up plus
    # ``import plesken.cli`` alone
    import contextlib
    import hashlib
    import io
    import time

    import plesken.cli
    outputs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = plesken.cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed job, not a dead pass
                code = f"{type(exc).__name__}: {exc}"
        outputs.append((job["id"], time.perf_counter() - start, code, buf.getvalue()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    results = [{"id": jid, "wall_s": dt, "exit": code, "stdout": out,
                "sha256": hashlib.sha256(out.encode()).hexdigest()}
               for jid, dt, code, out in outputs]
    return results, wall, cpu


def peak_rss_kib() -> int:
    """High-water resident set size of this process since it was exec-ed.

    ``ru_maxrss`` is no good here: Linux carries a vfork-ed child's pre-exec
    high-water mark, which is the parent's, into it.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    import json

    import plesken.cli
    if os.path.dirname(os.path.abspath(plesken.cli.__file__)) != os.path.join(SRC, "plesken"):
        raise SystemExit(f"plesken imported from {plesken.cli.__file__}, not {SRC}")
    with open(argv[0], encoding="utf-8") as handle:
        jobs = json.load(handle)
    mode = argv[1]
    tracer = counter = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    elif mode == "count":
        from spans import Counter
        counter = Counter()
        counter.install()
    try:
        results, wall, cpu = run_jobs(jobs, tracer)
    finally:
        for hook in (tracer, counter):
            if hook is not None:
                hook.restore()
    report = {"mode": mode, "jobs": results, "pass_s": wall, "pass_cpu_s": cpu,
              "peak_rss_kib": peak_rss_kib()}
    if tracer is not None:
        report["spans"] = len(tracer.spans)
        if len(argv) > 2:
            with open(argv[2], "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    if counter is not None:
        report["counts"] = counter.counts
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    import plesken.cli  # noqa: F401  (set-up ends when this returns)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    raise SystemExit(main(sys.argv[1:]))
