"""Tests for the benchmark itself: python3 -m pytest perfbench/tests -q

They check the span arithmetic, that tracing leaves the program's
output bytes alone, that every input is a function of the seed, that
each workload runs and verifies at its smallest valid size, that
timings are scaled by the run's calibration, and that run.py and
BENCHMARK.json agree.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Smallest valid sizes: the ecosystem builder needs about 310 domains.
TINY = {
    "reference": {"population": 320, "days": 2, "probe_domains": 3},
    "sweep": {"population": 320, "days": 1},
    "chaos": {"population": 320, "days": 1},
    "analysis": {"domains": 40},
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans(monkeypatch):
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    monkeypatch.setattr(spans, "_clock", FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("c"):
            pass
    assert list(recorder.parents) == [-1, 0, 1, 0]
    assert recorder.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = recorder.summary()
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0
    assert recorder.durations("c") == [4.0]
    assert recorder.child_counts("root", "a") == 1
    assert recorder.child_counts("a", "c") == 0


def test_times_within_a_root(monkeypatch):
    # setup [0, 2];  root [3, 13] > a [4, 8] > a [5, 6];  root > b [9, 12]
    monkeypatch.setattr(spans, "_clock",
                        FakeClock([0, 2, 3, 4, 5, 6, 8, 9, 12, 13]))
    recorder = SpanRecorder()
    with recorder.span("setup"):
        pass
    with recorder.span("root"):
        with recorder.span("a"):
            with recorder.span("a"):
                pass
        with recorder.span("b"):
            pass
    within = recorder.times_within("root")
    assert within == {"root": [3.0, 10.0], "a": [4.0, 4.0], "b": [3.0, 3.0]}
    assert sum(self_s for self_s, _ in within.values()) == 10.0
    assert recorder.times_within("missing") == {}


def test_wrapped_calls_share_grab_ids_and_unpatch():
    class Target:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    original = Target.__dict__["inner"]
    recorder = SpanRecorder()
    recorder.patch(Target, "outer", "outer", grab=True)
    recorder.patch(Target, "inner", "inner", amount_arg=1)
    target = Target()
    assert target.outer(3) == 7
    assert target.outer(4) == 9
    assert list(recorder.grab_ids) == [0, 0, 1, 1]
    assert list(recorder.parents) == [-1, 0, -1, 2]
    assert recorder.amounts == {"inner": 7}
    recorder.unpatch()
    assert Target.__dict__["inner"] is original
    recorder.clear()
    assert len(recorder) == 0 and recorder.amounts == {}


def test_recorder_refuses_generators():
    def steps():
        yield 1

    with pytest.raises(TypeError):
        SpanRecorder().wrap(steps, "steps")


def test_tracing_is_byte_neutral(tmp_path):
    from repro.obs.metrics import METRICS

    workload = tiny("sweep")
    plain = workload.run(workloads.DEFAULT_SEED, str(tmp_path / "plain"))
    plain_output, problems = workload.verify(plain)
    assert problems == []

    recorder = SpanRecorder()
    base = METRICS.snapshot()
    try:
        layers.install(recorder)
        traced = workload.run(workloads.DEFAULT_SEED, str(tmp_path / "traced"),
                              span=lambda: recorder.span(layers.TIMED_SPAN))
    finally:
        recorder.unpatch()
    traced_output, problems = workload.verify(traced)
    assert problems == []
    assert traced_output == plain_output

    metrics = layers.layer_metrics(recorder, METRICS.snapshot_delta(base))
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["scanner.grabs"] == plain.operations
    assert metrics["hosting.build_calls"] == 1 + workload.shards
    assert 0 <= metrics["trace.unattributed_share"] < 0.2


def test_chaos_profile_is_a_function_of_the_seed():
    from repro.faults.plan import ImpairmentPlan

    profile = workloads.chaos_profile(7, 3)
    assert profile == workloads.chaos_profile(7, 3)
    assert profile != workloads.chaos_profile(8, 3)
    plan = ImpairmentPlan.from_profile(profile)
    assert {window.kind for window in plan.windows} == {
        "reset", "truncate", "latency", "outage", "flap", "nxdomain"}


def _corpus_bytes(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    first = corpus.generate(str(tmp_path / "a"), 5, 30)
    corpus.generate(str(tmp_path / "b"), 5, 30)
    corpus.generate(str(tmp_path / "c"), 6, 30)
    a, b, c = (_corpus_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a != c
    assert sorted(a) == sorted([f"{name}.jsonl" for name in corpus.CHANNEL_NAMES]
                               + ["meta.json"])
    assert first["rows"] == sum(first["channels"].values())


def test_corpus_rows_match_the_record_schema(tmp_path):
    from repro.scanner.records import CHANNELS

    corpus.generate(str(tmp_path), 5, 30)
    assert set(CHANNELS) == set(corpus.CHANNEL_NAMES)
    for channel, record_cls in CHANNELS.items():
        with open(tmp_path / f"{channel}.jsonl", encoding="utf-8") as fh:
            line = fh.readline()
        record = record_cls.from_json(line)
        assert record.to_json() == line.rstrip("\n")


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_runs_and_verifies_at_its_smallest_size(tmp_path, name):
    workload = tiny(name)
    first = workload.run(3, str(tmp_path))
    output, problems = workload.verify(first)
    assert problems == []
    assert first.operations > 0 and first.items > 0
    assert first.setup_s > 0 and min(first.waits) > 0
    again = workload.run(3, str(tmp_path))
    assert workload.verify(again)[0] == output


class FixedWorkload:
    """Stands in for a workload: fixed timings, verified output."""

    name = "fixed"

    def __init__(self, waits):
        self.waits = iter(waits)

    def run(self, seed, workdir):
        return workloads.Iteration(setup_s=1.0, waits=[next(self.waits)],
                                   operations=10, items=100,
                                   directory=os.path.join(workdir, "none"))

    def verify(self, iteration):
        return {"digest": "same"}, []


def test_timings_are_medians_scaled_by_the_calibration(monkeypatch, tmp_path):
    # The host runs at half the reference speed around the first and the
    # last iteration, and at the reference speed around the second.
    reference = run.calibrate.REFERENCE_S
    speeds = iter([2, 2, 1, 1, 2, 2])
    monkeypatch.setattr(run.calibrate, "measure", lambda: next(speeds) * reference)
    workload = FixedWorkload([4.0, 2.0, 3.0])
    metrics, checker, attempted = run.run_plain(workload, 2, 0.0, str(tmp_path))
    assert checker.problems == [] and attempted == 30
    # Scaled setups 0.5, 1.0, 0.5; scaled waits 2.0, 2.0, 1.5.
    assert metrics["setup_s"] == 0.5
    assert metrics["wait_s"] == 2.0
    assert metrics["items_per_s"] == 100 / 2.0


def test_calibration_work_is_fixed():
    assert run.calibrate.work() == run.calibrate.work()
    assert run.calibrate.measure() > 0


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    result = _run("--workload", "chaos", "--seed", "1", "--seconds", "0",
                  "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    lonely = tmp_path / "checkout"
    (lonely / "perfbench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (lonely / "perfbench" / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lonely, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
