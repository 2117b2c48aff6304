"""Fast path vs the record-layer oracle: record identity.

The fast path (``fastpath``) is only admissible because it changes
NOTHING about study output — not under chaos, not at any concurrency,
not at any worker count.  This suite runs the same chaos-laden study through every execution shape and
pins byte-for-byte dataset equality plus merged-metric equality:

* ``oracle=True`` (record-layer exchange for every grab, in the same
  sweep) vs the default fast path;
* ``concurrency`` 1, 64, and 4096 (flush batch size must be
  invisible);
* ``workers`` 1, 2, and 4 (process pool must be invisible — sweeps
  run per shard, inside each worker).

Chaos + retry + breaker are enabled throughout so the equivalence
covers fault-impaired connections (a reset or a truncated first flight,
which the fast path injects at the same flight boundary as the oracle)
and retry backoff advancing virtual time past the next sweep tick.
"""

import hashlib
import json
import os

import pytest

from repro.faults.plan import PROFILE_SCHEMA
from repro.faults.retry import RetryPolicy
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.scanner import StudyConfig, run_study_with_stats

POPULATION = 320
ECOSYSTEM_SEED = 2016

#: Full-span windows so faults (and therefore retries and breaker
#: trips) fire during the study.
CHAOS_PROFILE = {
    "schema": PROFILE_SCHEMA,
    "seed": 7,
    "windows": [
        {"kind": "outage", "start_day": 0, "end_day": 2, "rate": 0.3},
        {"kind": "reset", "start_day": 0, "end_day": 2, "rate": 0.1,
         "period_seconds": 600.0},
        {"kind": "truncate", "start_day": 0, "end_day": 2, "rate": 0.1,
         "period_seconds": 600.0},
        {"kind": "nxdomain", "start_day": 0, "end_day": 2, "rate": 0.05},
        {"kind": "latency", "start_day": 0, "end_day": 2, "rate": 0.05,
         "delay_seconds": 15.0, "period_seconds": 300.0},
    ],
}


def _config(**overrides) -> StudyConfig:
    fields = dict(
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
    )
    fields.update(overrides)
    return StudyConfig(**fields)


def _dataset_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


#: label -> StudyConfig overrides
SHAPES = {
    "fast": {},
    "oracle": {"oracle": True},
    "conc1": {"concurrency": 1},
    "conc64": {"concurrency": 64},
    "conc4096": {"concurrency": 4096},
    "workers2": {"workers": 2},
    "workers4": {"workers": 4},
}


class TestScaleEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        out = {}
        for label, overrides in SHAPES.items():
            stream = tmp_path_factory.mktemp(f"scale-{label}")
            telemetry = tmp_path_factory.mktemp(f"scale-{label}-telemetry")
            ecosystem = build_ecosystem(
                EcosystemConfig(population=POPULATION, seed=ECOSYSTEM_SEED)
            )
            dataset, stats = run_study_with_stats(
                ecosystem, _config(stream_dir=str(stream), **overrides),
                telemetry_dir=str(telemetry),
            )
            out[label] = {
                "digest": _dataset_digest(stream),
                "telemetry": str(telemetry),
                "dataset": dataset,
                "stats": stats,
            }
        return out

    def test_fast_path_is_record_identical_to_oracle(self, runs):
        assert runs["fast"]["digest"] == runs["oracle"]["digest"]

    @pytest.mark.parametrize("label", ["conc1", "conc64", "conc4096"])
    def test_concurrency_does_not_change_output(self, runs, label):
        assert runs[label]["digest"] == runs["fast"]["digest"]

    @pytest.mark.parametrize("label", ["workers2", "workers4"])
    def test_workers_do_not_change_output(self, runs, label):
        assert runs[label]["digest"] == runs["fast"]["digest"]

    def test_merged_metrics_match_oracle(self, runs):
        # Every counter — grabs, failures by reason, retries, injected
        # faults, breaker transitions, ticket seals, cert validations,
        # cache hits — must agree between the fast path and the
        # record-layer oracle, not just the dataset bytes.
        counters = {}
        for label in ("fast", "oracle"):
            path = os.path.join(runs[label]["telemetry"], "metrics.json")
            with open(path) as fh:
                counters[label] = json.load(fh)["counters"]
        assert counters["fast"] == counters["oracle"]

    def test_chaos_retry_and_breaker_engaged_in_fast_path(self, runs):
        """The equivalence is not vacuous: faults fired, retries burned

        extra grabs, and virtual-time backoff ran on the fast path
        (latency faults + backoff advance the clock mid-sweep).
        """
        path = os.path.join(runs["fast"]["telemetry"], "metrics.json")
        with open(path) as fh:
            counters = json.load(fh)["counters"]
        for kind in ("reset", "truncate"):
            assert any(
                key.startswith("faults.injected") and kind in key for key in counters
            ), f"no {kind} fault fired"
        stats = runs["fast"]["stats"]
        dataset = runs["fast"]["dataset"]
        recorded = sum(
            len(getattr(dataset, name))
            for name in ("ticket_daily", "dhe_daily", "ecdhe_daily")
        )
        assert stats.grabs > recorded, "retry policy never retried"
        failed = [o for o in dataset.ticket_daily if not o.success]
        assert failed, "chaos profile injected no failures"
