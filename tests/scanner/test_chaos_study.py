"""Chaos-mode determinism: with a fixed chaos profile the study output
is a pure function of configuration — identical across repeat runs and
across worker counts, even though faults fire and retries back off."""

import hashlib
import os

import pytest

from repro.faults.plan import PROFILE_SCHEMA
from repro.faults.retry import RetryPolicy
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.scanner import StudyConfig, run_study_with_stats

SMALL_POPULATION = 320
SEED = 2016

#: Full-span windows so chaos is guaranteed to bite during the scans.
CHAOS_PROFILE = {
    "schema": PROFILE_SCHEMA,
    "seed": 7,
    "windows": [
        {"kind": "outage", "start_day": 0, "end_day": 2, "rate": 0.3},
        {"kind": "reset", "start_day": 0, "end_day": 2, "rate": 0.1,
         "period_seconds": 600.0},
        {"kind": "nxdomain", "start_day": 0, "end_day": 2, "rate": 0.05},
        {"kind": "latency", "start_day": 0, "end_day": 2, "rate": 0.05,
         "delay_seconds": 15.0, "period_seconds": 300.0},
    ],
}


def _config(**overrides) -> StudyConfig:
    return StudyConfig(
        days=2,
        seed=404,
        probe_domain_count=40,
        dhe_support_day=1,
        ecdhe_support_day=1,
        ticket_support_day=1,
        crossdomain_day=1,
        session_probe_day=1,
        ticket_probe_day=1,
        shards=2,
        chaos=CHAOS_PROFILE,
        retry=RetryPolicy(max_attempts=2, breaker_threshold=4),
        **overrides,
    )


def _dataset_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class TestChaosDeterminism:
    @pytest.fixture(scope="class")
    def chaos_runs(self, tmp_path_factory):
        runs = {}
        for label, workers in (("first", 1), ("second", 1), ("pooled", 2)):
            out = tmp_path_factory.mktemp(f"chaos-{label}")
            telemetry = tmp_path_factory.mktemp(f"chaos-{label}-telemetry")
            ecosystem = build_ecosystem(
                EcosystemConfig(population=SMALL_POPULATION, seed=SEED)
            )
            dataset, stats = run_study_with_stats(
                ecosystem, _config(workers=workers, stream_dir=str(out)),
                telemetry_dir=str(telemetry),
            )
            runs[label] = (out, telemetry, dataset, stats)
        return runs

    def test_same_profile_same_bytes(self, chaos_runs):
        first, _, _, _ = chaos_runs["first"]
        second, _, _, _ = chaos_runs["second"]
        assert _dataset_digest(first) == _dataset_digest(second)

    def test_workers_do_not_change_chaos_output(self, chaos_runs):
        serial, _, _, serial_stats = chaos_runs["first"]
        pooled, _, _, pooled_stats = chaos_runs["pooled"]
        assert _dataset_digest(serial) == _dataset_digest(pooled)
        assert serial_stats.grabs == pooled_stats.grabs

    def test_merged_metrics_are_worker_count_independent(self, chaos_runs):
        # Counters (failures by reason, retries, injected faults) merge
        # in shard order from per-shard deltas, so the totals depend
        # only on the shard layout, never on the worker pool.
        import json
        import os

        counters = {}
        for label in ("first", "pooled"):
            _, telemetry, _, _ = chaos_runs[label]
            with open(os.path.join(str(telemetry), "metrics.json")) as fh:
                counters[label] = json.load(fh)["counters"]
        assert counters["first"] == counters["pooled"]
        assert any(
            key.startswith("faults.injected") for key in counters["first"]
        )

    def test_chaos_actually_bit(self, chaos_runs):
        _, _, dataset, _ = chaos_runs["first"]
        failed = [o for o in dataset.ticket_daily if not o.success]
        assert failed, "chaos profile injected no failures"
        errors = " ".join(o.error for o in failed)
        assert "injected outage" in errors

    def test_grabs_exceed_schedule_under_retry(self, chaos_runs):
        # max_attempts=2 on retryable failures: the grab count must be
        # strictly larger than the number of observations recorded.
        _, _, dataset, stats = chaos_runs["first"]
        recorded = sum(
            len(getattr(dataset, name))
            for name in ("ticket_daily", "dhe_daily", "ecdhe_daily")
        )
        assert stats.grabs > recorded
