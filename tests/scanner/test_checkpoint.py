"""Checkpoint/resume tests: a killed study continues byte-identically.

The contract under test: each shard is a pure function of (study
config, ecosystem config, shard_id, shard_count), so resuming from a
partial checkpoint re-executes only the missing shards and the merged
dataset directory carries no trace of the interruption.
"""

import hashlib
import json
import os

import pytest

from repro.faults.retry import RetryPolicy
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.scanner import (
    EVERY_DAY,
    CheckpointMismatch,
    CheckpointStore,
    Experiment,
    ExperimentRegistry,
    StudyAborted,
    StudyConfig,
    StudyEngine,
    run_study,
    run_study_with_stats,
)
from repro.scanner.checkpoint import (
    checkpoint_fingerprint,
    study_config_from_dict,
    study_config_to_dict,
)
from repro.scanner.engine import run_shard

SMALL_POPULATION = 320
SEED = 2016


def _config(**overrides) -> StudyConfig:
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


def _ecosystem():
    return build_ecosystem(
        EcosystemConfig(population=SMALL_POPULATION, seed=SEED)
    )


def _dataset_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class TestConfigRoundTrip:
    def test_execution_fields_are_excluded(self):
        config = _config(workers=8, stream_dir="/somewhere", shards=4)
        data = study_config_to_dict(config)
        assert "workers" not in data and "stream_dir" not in data
        assert data["shards"] == 4

    def test_round_trip_rebuilds_equivalent_config(self):
        config = _config(retry=RetryPolicy(max_attempts=3, breaker_threshold=5))
        rebuilt = study_config_from_dict(
            study_config_to_dict(config), workers=2, stream_dir="/elsewhere"
        )
        assert rebuilt.retry == config.retry
        assert rebuilt.days == config.days and rebuilt.seed == config.seed
        assert rebuilt.workers == 2 and rebuilt.stream_dir == "/elsewhere"

    def test_fingerprint_tracks_output_affecting_fields_only(self):
        ecosystem_config = EcosystemConfig(population=SMALL_POPULATION, seed=SEED)
        base = checkpoint_fingerprint(_config(), ecosystem_config, 4)
        same = checkpoint_fingerprint(
            _config(workers=16, stream_dir="/x"), ecosystem_config, 4
        )
        assert base == same
        assert base != checkpoint_fingerprint(_config(seed=405), ecosystem_config, 4)
        assert base != checkpoint_fingerprint(_config(), ecosystem_config, 2)


class TestResume:
    SHARDS = 4

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("uninterrupted")
        run_study(
            _ecosystem(), _config(shards=self.SHARDS), stream_dir=str(out)
        )
        return out

    def test_checkpoint_removed_after_clean_run(self, uninterrupted):
        assert not os.path.exists(os.path.join(str(uninterrupted), "checkpoint"))
        assert not os.path.exists(os.path.join(str(uninterrupted), "shards"))

    @pytest.mark.parametrize("payload_format", ["current", "parent-format"])
    def test_resumed_run_is_byte_identical(
        self, uninterrupted, tmp_path, payload_format
    ):
        out = str(tmp_path / "resumed")
        config = _config(shards=self.SHARDS)
        ecosystem = _ecosystem()

        # Simulate a run killed after shard 1 of 4 finished: checkpoint
        # exactly what the engine would have checkpointed, then resume.
        store = CheckpointStore(out)
        store.reset(checkpoint_fingerprint(config, ecosystem.config, self.SHARDS))
        partial = run_shard(
            _ecosystem(), config, shard_id=1, shard_count=self.SHARDS,
            stream_dir=os.path.join(out, "shards", "01"),
        )
        store.save_shard(partial)
        assert store.completed_shards() == [1]
        path = os.path.join(store.directory, "shard-01.json")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "spans" not in payload
        if payload_format == "parent-format":
            # Checkpoints written while the span tracer existed carry
            # its ring-buffer tail; resuming must ignore it.
            payload["spans"] = [{
                "name": "handshake", "start_s": 1.0, "duration_s": 0.001,
                "pid": 1, "attrs": {"domain": "example.com", "port": 443},
            }]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)

        run_study(ecosystem, config, stream_dir=out, resume=True)
        assert _dataset_digest(out) == _dataset_digest(str(uninterrupted))

    def test_resume_with_nothing_to_do_just_merges(self, uninterrupted, tmp_path):
        out = str(tmp_path / "complete")
        config = _config(shards=2)
        ecosystem = _ecosystem()
        store = CheckpointStore(out)
        store.reset(checkpoint_fingerprint(config, ecosystem.config, 2))
        for shard_id in range(2):
            store.save_shard(run_shard(
                _ecosystem(), config, shard_id=shard_id, shard_count=2,
                stream_dir=os.path.join(out, "shards", f"{shard_id:02d}"),
            ))
        _, stats = run_study_with_stats(
            ecosystem, config, stream_dir=out, resume=True
        )
        assert stats.grabs > 0
        assert not os.path.exists(os.path.join(out, "checkpoint"))

    def test_resume_without_checkpoint_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointMismatch, match="nothing to resume"):
            run_study(
                _ecosystem(), _config(shards=2),
                stream_dir=str(tmp_path / "empty"), resume=True,
            )

    def test_resume_requires_stream_dir(self):
        with pytest.raises(ValueError, match="stream_dir"):
            run_study(_ecosystem(), _config(shards=2), resume=True)

    def test_resume_under_different_config_is_refused(self, tmp_path):
        out = str(tmp_path / "drift")
        ecosystem = _ecosystem()
        store = CheckpointStore(out)
        store.reset(
            checkpoint_fingerprint(_config(shards=2), ecosystem.config, 2)
        )
        with pytest.raises(CheckpointMismatch, match="different study"):
            run_study(
                ecosystem, _config(shards=2, seed=405),
                stream_dir=out, resume=True,
            )


class _FlakyExperiment(Experiment):
    """Grabs one domain per day; optionally blows up on shard 1."""

    name = "flaky"
    channels = ()

    def __init__(self, fail: bool):
        self.fail = fail

    def schedule(self, config):
        return EVERY_DAY

    def run_day(self, ctx, day):
        if self.fail and ctx.shard_id == 1:
            raise RuntimeError("injected shard failure")
        if ctx.today_owned:
            rank, name = ctx.today_owned[0]
            ctx.grabber.grab(name, rank=rank)


class TestAbort:
    def _engine(self, fail: bool) -> StudyEngine:
        config = _config(
            days=1, run_probes=False, run_crossdomain=False,
            run_support_scans=False,
        )
        return StudyEngine(
            config, registry=ExperimentRegistry([_FlakyExperiment(fail)])
        )

    def test_shard_failure_keeps_siblings_checkpointed(self, tmp_path):
        out = str(tmp_path / "aborted")
        with pytest.raises(StudyAborted) as excinfo:
            self._engine(fail=True).run(
                _ecosystem(), shards=2, workers=1, stream_dir=out
            )
        aborted = excinfo.value
        assert aborted.failed_shards == [1]
        assert aborted.completed_shards == [0]
        assert aborted.checkpoint_dir == os.path.join(out, "checkpoint")
        assert CheckpointStore(out).completed_shards() == [0]
        assert "injected shard failure" in str(aborted)

        # A later resume (bug fixed) completes from the kept checkpoint
        # and produces the same bytes as a never-failed run.
        self._engine(fail=False).run(
            _ecosystem(), shards=2, workers=1, stream_dir=out, resume=True
        )
        clean = str(tmp_path / "clean")
        self._engine(fail=False).run(
            _ecosystem(), shards=2, workers=1, stream_dir=clean
        )
        assert _dataset_digest(out) == _dataset_digest(clean)

    def test_fail_fast_stops_dispatching(self, tmp_path):
        config = _config(
            days=1, run_probes=False, run_crossdomain=False,
            run_support_scans=False,
        )

        class _FailFirst(Experiment):
            name = "fail-first"
            channels = ()

            def schedule(self, config):
                return EVERY_DAY

            def run_day(self, ctx, day):
                if ctx.shard_id == 0:
                    raise RuntimeError("boom")

        engine = StudyEngine(config, registry=ExperimentRegistry([_FailFirst()]))
        out = str(tmp_path / "failfast")
        with pytest.raises(StudyAborted) as excinfo:
            engine.run(
                _ecosystem(), shards=3, workers=1,
                stream_dir=out, fail_fast=True,
            )
        # Shard 0 failed first; fail_fast stopped before shards 1 and 2.
        assert excinfo.value.failed_shards == [0]
        assert excinfo.value.completed_shards == []

    def test_unstreamed_abort_reports_no_checkpoint(self):
        with pytest.raises(StudyAborted, match="nothing was checkpointed") as excinfo:
            self._engine(fail=True).run(_ecosystem(), shards=2, workers=1)
        assert excinfo.value.checkpoint_dir is None
