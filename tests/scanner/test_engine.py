"""Sharded streaming scan-engine tests.

The load-bearing guarantee: ``workers`` is pure execution parallelism —
a sharded study merged from a process pool is byte-for-byte identical
to the same shards run serially in one process.  Only ``shards``
(the deterministic population partition) may change output.
"""

import hashlib
import os

import pytest

from repro.hosting import EcosystemConfig, build_ecosystem
from repro.scanner import (
    EVERY_DAY,
    Experiment,
    ExperimentRegistry,
    StudyConfig,
    StudyEngine,
    default_registry,
    run_study,
    run_study_with_stats,
    shard_of,
)

# The smallest population the ecosystem builder accepts (provider +
# notable floors) — the determinism fixture's "benchmark seed" corpus.
SMALL_POPULATION = 320
BENCH_SEED = 2016


def _small_config(**overrides) -> StudyConfig:
    settings = dict(
        days=2,
        seed=404,
        probe_domain_count=40,
        dhe_support_day=1,
        ecdhe_support_day=1,
        ticket_support_day=1,
        crossdomain_day=1,
        session_probe_day=1,
        ticket_probe_day=1,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


def _dataset_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class TestShardDeterminism:
    """run_study(workers=4) must equal run_study(workers=1), byte for byte."""

    @pytest.fixture(scope="class")
    def sharded_runs(self, tmp_path_factory):
        runs = {}
        for workers in (1, 4):
            out = tmp_path_factory.mktemp(f"workers-{workers}")
            ecosystem = build_ecosystem(
                EcosystemConfig(population=SMALL_POPULATION, seed=BENCH_SEED)
            )
            dataset, stats = run_study_with_stats(
                ecosystem,
                _small_config(shards=4, workers=workers, stream_dir=str(out)),
            )
            runs[workers] = (out, dataset, stats)
        return runs

    def test_jsonl_output_byte_identical(self, sharded_runs):
        serial_dir, _, _ = sharded_runs[1]
        pooled_dir, _, _ = sharded_runs[4]
        assert _dataset_digest(serial_dir) == _dataset_digest(pooled_dir)

    def test_stats_identical_except_workers(self, sharded_runs):
        _, _, serial = sharded_runs[1]
        _, _, pooled = sharded_runs[4]
        assert serial.grabs == pooled.grabs
        assert serial.scans_by_experiment == pooled.scans_by_experiment
        assert serial.records_by_channel == pooled.records_by_channel
        assert serial.workers == 1 and pooled.workers == 4

    def test_every_experiment_produced_records(self, sharded_runs):
        _, dataset, stats = sharded_runs[1]
        assert dataset.ticket_daily and dataset.dhe_daily and dataset.ecdhe_daily
        assert dataset.ticket_support and dataset.dhe_support and dataset.ecdhe_support
        assert dataset.ticket_30min and dataset.dhe_30min and dataset.ecdhe_30min
        assert dataset.session_probes and dataset.ticket_probes
        assert dataset.crossdomain_targets
        assert stats.grabs > 0
        for name in default_registry(_small_config()).names():
            assert stats.scans_by_experiment.get(name, 0) > 0, name

    def test_shards_partition_population(self, sharded_runs):
        _, dataset, _ = sharded_runs[1]
        # Each domain's daily stream comes from exactly one shard, and
        # the union covers the whole non-blacklisted list each day.
        day0 = [o for o in dataset.ticket_daily if o.day == 0]
        domains = [o.domain for o in day0]
        assert len(domains) == len(set(domains))
        per_shard = {shard_of(d, 4) for d in domains}
        assert per_shard == {0, 1, 2, 3}

    def test_streamed_dataset_roundtrips_through_load(self, sharded_runs):
        from repro.scanner import load_dataset

        serial_dir, dataset, _ = sharded_runs[1]
        loaded = load_dataset(str(serial_dir))
        assert loaded.ticket_daily == dataset.ticket_daily
        assert loaded.session_probes == dataset.session_probes
        assert loaded.list_sizes == dataset.list_sizes
        assert loaded.as_names == dataset.as_names


def test_shard_of_is_stable_and_total():
    names = [f"domain-{i}.example" for i in range(200)]
    for shard_count in (1, 2, 4, 7):
        assignments = [shard_of(name, shard_count) for name in names]
        assert set(assignments) <= set(range(shard_count))
        assert assignments == [shard_of(name, shard_count) for name in names]
    assert all(shard_of(name, 1) == 0 for name in names)


def test_default_registry_covers_paper_schedule():
    config = _small_config()
    registry = default_registry(config)
    assert registry.names() == [
        "daily-ticket", "daily-dhe", "daily-ecdhe",
        "support-dhe", "support-ecdhe", "support-ticket",
        "crossdomain", "probe-session_id", "probe-ticket",
    ]
    # Daily campaigns run every day; scheduled experiments on their day.
    assert 0 in registry.get("daily-ticket").schedule(config)
    assert 1 in registry.get("daily-ticket").schedule(config)
    assert registry.get("support-dhe").schedule(config) == frozenset((1,))
    assert registry.get("probe-ticket").schedule(config) == frozenset((1,))


def test_registry_rejects_duplicate_names():
    registry = ExperimentRegistry()
    registry.register(default_registry(_small_config()).get("crossdomain"))
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(default_registry(_small_config()).get("crossdomain"))


def test_disabled_experiments_have_empty_schedules():
    config = _small_config(
        run_probes=False, run_crossdomain=False, run_support_scans=False,
    )
    registry = default_registry(config)
    for name in ("support-dhe", "crossdomain", "probe-session_id"):
        schedule = registry.get(name).schedule(config)
        assert not any(day in schedule for day in range(config.days))


class _CountingExperiment(Experiment):
    """A plug-in experiment: counts its scheduled days, grabs one domain."""

    name = "counting"
    channels = ()

    def __init__(self):
        self.days_run = []
        self.finalized = False

    def schedule(self, config):
        return EVERY_DAY

    def run_day(self, ctx, day):
        self.days_run.append(day)
        if ctx.today_owned:
            rank, name = ctx.today_owned[0]
            ctx.grabber.grab(name, rank=rank)

    def finalize(self, ctx):
        self.finalized = True


def test_custom_experiment_plugs_into_engine():
    config = _small_config(
        days=3, run_probes=False, run_crossdomain=False, run_support_scans=False,
    )
    counting = _CountingExperiment()
    registry = ExperimentRegistry([counting])
    ecosystem = build_ecosystem(
        EcosystemConfig(population=SMALL_POPULATION, seed=9)
    )
    engine = StudyEngine(config, registry=registry)
    dataset, stats = engine.run(ecosystem)
    assert counting.days_run == [0, 1, 2]
    assert counting.finalized
    assert stats.scans_by_experiment == {"counting": 3}
    assert dataset.ticket_daily == []  # no paper experiments registered


def test_custom_registry_refuses_process_pool():
    config = _small_config(days=1, run_probes=False, run_crossdomain=False,
                           run_support_scans=False, shards=2, workers=2)
    engine = StudyEngine(config, registry=ExperimentRegistry([_CountingExperiment()]))
    ecosystem = build_ecosystem(
        EcosystemConfig(population=SMALL_POPULATION, seed=9)
    )
    with pytest.raises(ValueError, match="workers=1"):
        engine.run(ecosystem)


def test_serial_default_runs_on_callers_ecosystem(small_ecosystem_factory):
    """shards=1 scans the ecosystem object the caller passed."""
    ecosystem = small_ecosystem_factory()
    config = _small_config(days=1, run_probes=False, run_crossdomain=False,
                           run_support_scans=False)
    before = ecosystem.clock.now()
    dataset = run_study(ecosystem, config)
    assert ecosystem.clock.now() > before
    scanned = {o.domain for o in dataset.ticket_daily}
    expected = {
        name for _, name in ecosystem.alexa_list(0)
        if name not in ecosystem.blacklist
    }
    assert scanned <= expected | {name for _, name in ecosystem.alexa_list()}
    assert len(scanned) > 0
