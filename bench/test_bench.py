"""The benchmark's own test: ``python3 -m pytest -q bench/test_bench.py``.

For one cheap job per workload it checks that the output passes the
workload's checks and hashes identically untraced, traced and counted, and
that tracing and counting put back every name they rebound.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import plesken.cli  # noqa: E402,F401  (loads every library module)
from plesken.scalars import Scalar  # noqa: E402
from plesken.verify import FixtureSet  # noqa: E402

ONE_JOB = {"h2_ladder": "h2:sl2_3_ext", "construct": "algebra:a5",
           "verbs": "extension-equiv:alpha-beta"}


def _bindings() -> dict:
    """Identity of every name the tracer or counter may rebind."""
    out = {}
    for namespace in spans._package_namespaces():
        for name, value in vars(namespace).items():
            out[(namespace.__name__, name)] = id(value)
    for owner in (Scalar, FixtureSet):
        for name, value in vars(owner).items():
            out[(owner.__name__, name)] = id(value)
    return out


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_counted_output_is_identical(workload, tmp_path):
    jobs = [job for job in inputs.generate(workload, 3, 0, str(tmp_path))
            if job["id"] == ONE_JOB[workload]]
    before = _bindings()
    plain, _, _ = worker.run_jobs(jobs)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _, _ = worker.run_jobs(jobs, tracer)
    finally:
        tracer.restore()
    assert _bindings() == before

    counter = spans.Counter()
    counter.install()
    try:
        counted, _, _ = worker.run_jobs(jobs)
    finally:
        counter.restore()
    assert _bindings() == before

    for result in (plain[0], traced[0], counted[0]):
        assert inputs.check_job(jobs[0], result["exit"], result["stdout"]) == []
        assert result["sha256"] == plain[0]["sha256"]
    assert tracer.spans and tracer.spans[0][0] == "cli.main"
    assert all(span[4] == jobs[0]["id"] for span in tracer.spans)
    assert counter.counts["scalars.mul"] > 0
    metrics = spans.layer_metrics(tracer.spans, counter.counts, dict.fromkeys(
        ("out_bytes", "spans", "traced_pass_s", "untraced_pass_s", "overhead_s"), 0))
    assert list(metrics) == [m[0] for m in spans.PER_LAYER]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in spans.PER_LAYER]
