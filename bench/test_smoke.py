"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest bench/test_smoke.py -q

The tiny sizes (--small) keep each run to a few seconds; they check the
harness and its output contract, not performance.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["disambiguate_gen", "disambiguate_parse", "serve"]
MR_COUNT = 2018  # grammar-valid MRs a full-space parse ranks


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_scheduled_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        generate_calls = values["translator.generate_topk.calls"]
        if workload == "disambiguate_parse":
            assert generate_calls == 0
        else:
            assert generate_calls >= 1
        if workload == "serve":
            assert values["parse.serialize_per_parse"] >= MR_COUNT
        assert values["trace_overhead"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_excludes_direct_children():
    tracer = tracing.Tracer()
    with tracer.recording("op"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
            with tracer.span("inner"):
                sum(range(10_000))
    summary = tracer.summary("op")
    outer, inner = summary["outer"], summary["inner"]
    assert inner["calls"] == 2 and outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert inner["self_s"] == pytest.approx(inner["s"])


def test_uninstall_restores_the_library():
    class Layer:
        @staticmethod
        def work(x):
            return x + 1

    original = Layer.work
    tracer = tracing.Tracer()
    tracer.wrap_span(Layer, "work", "layer.work")
    tracer.wrap_count(Layer, "work", "layer.work.count")
    with tracer.recording("op"):
        assert Layer.work(1) == 2
    assert Layer.work(1) == 2  # outside a recording nothing is counted
    tracer.uninstall()
    assert Layer.work is original
    assert tracer.count("op", "layer.work.count") == 1
    assert tracer.summary("op")["layer.work"]["calls"] == 1


def test_timed_probes_inside_the_block_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.timed() as timing:
        end = time.perf_counter() + 4 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timing.probes) >= 3  # before, inside, after
    assert 0 < timing.wall_s < 4 * speed.PROBE_INTERVAL_S + 0.05
    assert timing.scaled_s > 0
