"""Benchmark entry point: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload disambiguate_gen --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory, never from an installed copy.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones (set-up time and time
of one op, both scaled to a reference machine speed by speed.py, and peak
memory); with --trace 1 they are the per-layer ones, measured
by wrapping the library's public functions (see tracer.py).  The line
before it is the run's full record: environment, fingerprints, the
workload's own numbers (quality, per-request latencies) and, when traced,
every span.

The exit status is 0 when every operation succeeded and every check held,
1 when an operation failed or a check did not hold, and 2 when the library
cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # for validating a claim on inputs it was not tuned on
MIN_OPS = 3  # per measured phase, even when the time is up sooner


def load_library() -> bool:
    """Import sportscaster from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("sportscaster")
    except ImportError as err:
        print(f"cannot import sportscaster from {src}: {err}", file=sys.stderr)
        return False
    if not Path(package.__file__).resolve().is_relative_to(src):
        print(f"sportscaster was imported from {package.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


class Run:
    """Counts operations and failures, and collects the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: str | None = None  # of the first op's outputs
        self.probes: list[float] = []  # speed.probe_s samples of every timed unit

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def setups(self, workload, tracer):
        """Run the set-up workload.setup_reps times; keep the first state.

        Returns the wall times, the speed-scaled times and the state."""
        times, scaled, state, reference = [], [], None, None
        for _ in range(workload.setup_reps):
            self.attempted += 1
            recording = tracer.recording("setup") if tracer else contextlib.nullcontext()
            try:
                with recording, speed.timed() as timing:
                    candidate = workload.setup()
            except Exception:
                traceback.print_exc()
                self.fail("set-up raised")
                continue
            times.append(timing.wall_s)
            scaled.append(timing.scaled_s)
            self.probes.extend(timing.probes)
            fingerprint = workload.setup_fingerprint(candidate)
            if reference is None:
                state, reference = candidate, fingerprint
            elif fingerprint != reference:
                self.fail("set-up outputs differ between repetitions")
        return times, scaled, state

    def measure(self, workload, state, seconds, tracer):
        """Closed loop, one caller: repeat the op until `seconds` have passed.

        Returns the wall times, the speed-scaled times and the outcomes."""
        durations, scaled, outcomes = [], [], []
        start = time.perf_counter()
        while len(durations) < MIN_OPS or time.perf_counter() - start < seconds:
            index = len(durations)
            # Garbage left by the previous op and its checks is collected
            # here, outside the timed region, so it is not charged to this op.
            gc.collect()
            self.attempted += 1
            recording = tracer.recording("op") if tracer else contextlib.nullcontext()
            try:
                with recording, speed.timed() as timing:
                    raw = workload.op(state)
                outcome = workload.outcome(state, index, raw)
            except Exception:
                traceback.print_exc()
                self.fail(f"op {index} raised")
                break
            if outcome.problems:
                self.fail(f"op {index}: " + "; ".join(outcome.problems))
            if self.fingerprint is None:
                self.fingerprint = outcome.fingerprint
            elif outcome.fingerprint != self.fingerprint:
                self.fail(f"op {index}: outputs differ from the first op's")
            durations.append(timing.wall_s)
            scaled.append(timing.scaled_s)
            self.probes.extend(timing.probes)
            outcomes.append(outcome)
        return durations, scaled, outcomes


def measure_workload(run: Run, record: dict, workload, tracer, seconds: float) -> dict:
    """Set up, run the timed loop, check the outputs; return the metrics.

    Traced runs spend half of `seconds` untraced, for the overhead baseline,
    and half traced.
    """
    import workloads

    if tracer is not None:
        workloads.install(tracer)
    setup_times, setup_scaled, state = run.setups(workload, tracer)
    if state is None:
        return {}
    untraced: list[float] = []
    if tracer is None:
        durations, scaled, outcomes = run.measure(workload, state, seconds, None)
    else:
        tracer.uninstall()
        _, untraced, _ = run.measure(workload, state, seconds / 2, None)
        workloads.install(tracer)
        durations, scaled, outcomes = run.measure(workload, state, seconds / 2, tracer)
    if not outcomes:
        run.fail("no operation completed")
        return {}
    details, problems = workload.record(state, durations, outcomes)
    record.update(details)
    for problem in problems:
        run.fail(problem)
    record.update(
        setup_wall_s=statistics.median(setup_times), setup_samples=setup_times,
        setup_scaled_samples=setup_scaled,
        op_wall_s=statistics.median(durations), op_samples=durations,
        op_scaled_samples=scaled,
        probe_ms_median=1000 * statistics.median(run.probes),
    )
    if tracer is None:
        return {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "op_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    per_layer = workloads.layer_metrics(
        tracer, workload, len(setup_times), scaled, untraced, outcomes
    )
    for problem in workload.layer_problems(per_layer):
        run.fail(problem)
    record["spans"] = {"setup": tracer.summary("setup"), "op": tracer.summary("op")}
    return {
        name: {"value": value, "unit": workloads.unit_of(name)}
        for name, value in per_layer.items()
    }


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for checking a claim: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    env = environment() if load_library() else None
    if env is None:
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    run = Run()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **env}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        workload = workloads.make(args.workload, args.seed, args.small, Path(tmp))
        tracer = tracing.Tracer() if args.trace else None
        try:
            metrics = measure_workload(run, record, workload, tracer, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    correct = run.failed == 0 and bool(metrics)
    record.update(attempted=run.attempted, failed=run.failed,
                  failed_share=run.failed / max(run.attempted, 1), problems=run.problems)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
