#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` next to this directory.  One run repeats the workload's
iteration (set-up, then the timed step, then the output check) while
another fits in ``--seconds`` (at least three times).  It reports the
median set-up time and the median timed step, each iteration scaled to
a reference host speed by a calibration timed just before and after it
(calibrate.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced iteration and reports the per-layer metrics
of the traced ones (see layers.py); the traced run's spans are written
to ``.perfbench/spans-<workload>.json``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibrate
import layers
import workloads
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

#: Iterations per untraced run, however short ``--seconds`` is.
MIN_ITERATIONS = 3

#: End-to-end metrics with their units, as BENCHMARK.json lists them.
#: Every workload reports all of them: ``items_per_s`` counts grabs on
#: the study workloads and corpus rows on ``analysis``; ``wait_s`` is
#: the study call, or report + audit.
END_TO_END = {
    "setup_s": "s",
    "wait_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise SystemExit(f"perfbench: no program source at {SOURCE}")
    sys.path.insert(0, SOURCE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SOURCE}")


def _expected(workload: str) -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        peak /= 1024
    return peak / 1024


class Checker:
    """Collects output problems across a run's iterations."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.pinned = _expected(workload.name) if seed == workloads.DEFAULT_SEED else None
        self.first: dict | None = None
        self.problems: list[str] = []

    def check(self, iteration, label: str) -> None:
        output, problems = self.workload.verify(iteration)
        self.problems += [f"{label}: {problem}" for problem in problems]
        if self.first is None:
            self.first = output
            if self.pinned is not None and output != self.pinned:
                differing = sorted(key for key in set(output) | set(self.pinned)
                                   if output.get(key) != self.pinned.get(key))
                self.problems.append(f"{label}: output differs from expected.json "
                                     f"in {', '.join(differing)}")
        elif output != self.first:
            self.problems.append(f"{label}: output differs from the first iteration")


def _another(started: float, seconds: float, durations: list[float],
             minimum: int) -> bool:
    """Whether to start another iteration: until ``minimum`` are done,
    then while a typical iteration still ends within ``seconds``."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def run_plain(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, Checker, int]:
    checker = Checker(workload, seed)
    iterations, durations, calibrations = [], [], []
    started = time.perf_counter()
    while _another(started, seconds, durations, MIN_ITERATIONS):
        began = time.perf_counter()
        # Calibrate on both sides of the iteration's set-up and timed step.
        calibrations.append(calibrate.measure())
        iteration = workload.run(seed, workdir)
        calibrations.append(calibrate.measure())
        checker.check(iteration, f"iteration {len(iterations) + 1}")
        shutil.rmtree(iteration.directory, ignore_errors=True)
        iteration.detail.clear()
        iterations.append(iteration)
        durations.append(time.perf_counter() - began)
        waits = ", ".join(f"{wait:.3f}" for wait in iteration.waits)
        print(f"iteration {len(iterations)}: setup {iteration.setup_s:.3f} s, "
              f"wait {waits} s, {iteration.items} items, calibration "
              f"{calibrations[-2]:.3f} s before and {calibrations[-1]:.3f} s after")
    # Each iteration's times are scaled to the reference speed by the mean
    # of the two calibrations around it (see calibrate.py); the metrics
    # are medians over the run, as the fastest step was measured to be
    # no steadier.
    scales = [calibrate.REFERENCE_S / ((before + after) / 2)
              for before, after in zip(calibrations[::2], calibrations[1::2])]
    setup_s = statistics.median(it.setup_s * scale for it, scale in zip(iterations, scales))
    wait_s = statistics.median(wait * scale for it, scale in zip(iterations, scales)
                               for wait in it.waits)
    print("measured: setup {:.4f} s, wait {:.4f} s, calibration {:.4f} s (medians); "
          "scaled to the reference speed by {}".format(
              statistics.median(it.setup_s for it in iterations),
              statistics.median(wait for it in iterations for wait in it.waits),
              statistics.median(calibrations),
              ", ".join(f"{scale:.4f}" for scale in scales)))
    metrics = {
        "setup_s": setup_s,
        "wait_s": wait_s,
        "items_per_s": iterations[0].items / wait_s,
        "peak_rss_mib": _peak_rss_mib(),
    }
    print(f"{workload.name}: {len(iterations)} iterations in "
          f"{time.perf_counter() - started:.1f} s")
    return metrics, checker, sum(it.operations for it in iterations)


def run_traced(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, Checker, int]:
    from repro.obs.metrics import METRICS

    checker = Checker(workload, seed)
    recorder = SpanRecorder()
    samples = []
    within: dict[str, list[float]] = {}
    attempted = 0
    started = time.perf_counter()
    durations: list[float] = []
    while _another(started, seconds, durations, 1):
        began = time.perf_counter()
        pair = len(samples) + 1
        plain = workload.run(seed, workdir)
        checker.check(plain, f"untraced iteration {pair}")
        shutil.rmtree(plain.directory, ignore_errors=True)

        recorder.clear()
        base = METRICS.snapshot()
        try:
            layers.install(recorder)
            traced = workload.run(
                seed, workdir, span=lambda: recorder.span(layers.TIMED_SPAN))
        finally:
            recorder.unpatch()
        delta = METRICS.snapshot_delta(base)
        checker.check(traced, f"traced iteration {pair}")
        shutil.rmtree(traced.directory, ignore_errors=True)
        sink_records, sink_bytes = traced.detail.get("sink", (0, 0))
        sample = layers.layer_metrics(recorder, delta, sink_records=sink_records,
                                      sink_bytes=sink_bytes)
        sample["trace.overhead_ratio"] = sum(traced.waits) / sum(plain.waits)
        samples.append(sample)
        for name, (self_s, inclusive_s) in recorder.times_within(layers.TIMED_SPAN).items():
            entry = within.setdefault(name, [0.0, 0.0])
            entry[0] += self_s
            entry[1] += inclusive_s
        attempted += plain.operations + traced.operations
        durations.append(time.perf_counter() - began)
    recorder.dump(os.path.join(WORKDIR, f"spans-{workload.name}.json"))
    print(f"{workload.name}: {len(samples)} untraced/traced pairs in "
          f"{time.perf_counter() - started:.1f} s; "
          f"{len(recorder):,} spans in the last traced iteration")
    # Shares of the timed step, summed over the traced iterations; the
    # root span's self time is the unattributed remainder.
    timed = within.get(layers.TIMED_SPAN, [0.0, 0.0])[1] or 1.0
    print("timed step by span: self share, inclusive share, self seconds")
    for name, (self_s, inclusive_s) in sorted(within.items(), key=lambda item: -item[1][0]):
        print(f"  {self_s / timed:6.1%} {inclusive_s / timed:7.1%} {self_s:8.3f} s  {name}")
    return layers.median_metrics(samples), checker, attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}, whose "
                             "outputs are pinned)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(workloads.WORKLOADS)})")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    # One CPU for the program and the calibration children alike: the
    # host's CPUs drift in speed independently, and the calibration can
    # only stand for the CPU it ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORKDIR)
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = workdir
    try:
        runner = run_traced if args.trace else run_plain
        metrics, checker, attempted = runner(workload, seed, args.seconds, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not checker.problems
    failed = 0 if correct else attempted
    if args.trace:
        units = layers.PER_LAYER
    else:
        metrics["success_ratio"] = 1.0 - failed / attempted
        units = END_TO_END

    for problem in checker.problems:
        print(f"CHECK FAILED {problem}")
    summary = checker.first or {}
    for key, value in summary.items():
        if isinstance(value, str):
            print(f"output {key} {value}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
