"""Checkpoint/resume tests: a killed study continues byte-identically.

The contract under test: each shard is a pure function of (study
config, ecosystem config, shard_id, shard_count), so resuming from a
partial checkpoint re-executes only the missing shards and the merged
dataset directory carries no trace of the interruption.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import pytest

from repro.faults.retry import RetryPolicy
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.obs import load_manifest
from repro.obs.events import EVENTS
from repro.obs.exporter import LivePlane
from repro.obs.profiling import PROFILER
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
    fingerprint_digest,
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
        base = checkpoint_fingerprint(_config(shards=4), ecosystem_config)
        same = checkpoint_fingerprint(
            _config(shards=4, workers=16, stream_dir="/x", concurrency=7,
                    oracle=True),
            ecosystem_config,
        )
        assert base == same
        assert base != checkpoint_fingerprint(
            _config(shards=4, seed=405), ecosystem_config
        )
        assert base != checkpoint_fingerprint(_config(shards=2), ecosystem_config)

    @pytest.mark.parametrize("shards, digest", [
        (1, "84e72b6a334abe3feaa8584fc2ec7a9fc8ce9769a534f84fa2a6f44321c2a1fc"),
        (2, "565565ac14f240d1a12fa6f4ad19d4286b2aa3892d069ef54ae8212b5b4a8bd1"),
    ])
    def test_fingerprint_digest_is_pinned(self, shards, digest):
        """Checkpoints written by earlier releases must keep validating:
        the fingerprint keeps ``study.shards`` and a top-level
        ``shards``, and its canonical digest never moves."""
        ecosystem_config = EcosystemConfig(population=SMALL_POPULATION, seed=SEED)
        fingerprint = checkpoint_fingerprint(_config(shards=shards), ecosystem_config)
        assert fingerprint["shards"] == fingerprint["study"]["shards"] == shards
        assert fingerprint_digest(fingerprint) == digest


def test_checkpoint_file_bytes_equal_one_json_dump(tmp_path):
    """Checkpoints are encoded one top-level value (and one event) at a
    time, into exactly the bytes ``json.dump`` of the payload writes."""
    store = CheckpointStore(str(tmp_path))
    os.makedirs(store.directory)
    payload = {
        "schema": "repro-checkpoint/1",
        "meta": {"as_names": {15169: "Google"}, "day0_list": [(1, "a.com")]},
        "stats": {"grabs": 3, "seconds": 0.1 + 0.2},
        "events": [
            {"event": "scanner.retry", "domain": "bücher.example", "ts": 1.5},
            {"event": "shard.end", "values": [None, True, 1e-07, -0.0]},
        ],
        "profile": {},
    }
    for events in (payload["events"], []):
        case = {**payload, "events": events}
        store._write_json("case.json", case)
        expected = io.StringIO()
        json.dump(case, expected)
        with open(os.path.join(store.directory, "case.json"),
                  encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()


class TestResume:
    SHARDS = 4

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("uninterrupted")
        run_study(
            _ecosystem(), _config(shards=self.SHARDS, stream_dir=str(out))
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
        store.reset(checkpoint_fingerprint(config, ecosystem.config))
        partial = run_shard(
            _ecosystem(), config, shard_id=1,
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

        run_study(ecosystem, replace(config, stream_dir=out), resume=True)
        assert _dataset_digest(out) == _dataset_digest(str(uninterrupted))

    def test_resume_with_nothing_to_do_just_merges(self, uninterrupted, tmp_path):
        out = str(tmp_path / "complete")
        config = _config(shards=2)
        ecosystem = _ecosystem()
        store = CheckpointStore(out)
        store.reset(checkpoint_fingerprint(config, ecosystem.config))
        for shard_id in range(2):
            store.save_shard(run_shard(
                _ecosystem(), config, shard_id=shard_id,
                stream_dir=os.path.join(out, "shards", f"{shard_id:02d}"),
            ))
        telemetry = str(tmp_path / "telemetry")
        _, stats = run_study_with_stats(
            ecosystem, replace(config, stream_dir=out), resume=True,
            telemetry_dir=telemetry, profile=True,
        )
        assert stats.grabs > 0
        assert not os.path.exists(os.path.join(out, "checkpoint"))
        # No shard ran in this process, so none was profiled.
        assert load_manifest(telemetry)["profile"]["shards"] == 0

    def test_resume_without_checkpoint_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointMismatch, match="nothing to resume"):
            run_study(
                _ecosystem(),
                _config(shards=2, stream_dir=str(tmp_path / "empty")),
                resume=True,
            )

    def test_resume_requires_stream_dir(self):
        """Without a stream_dir the run streams into a fresh private
        directory, which never holds a checkpoint to resume."""
        with pytest.raises(CheckpointMismatch, match="nothing to resume"):
            run_study(_ecosystem(), _config(shards=2), resume=True)

    def test_resume_under_different_config_is_refused(self, tmp_path):
        out = str(tmp_path / "drift")
        ecosystem = _ecosystem()
        store = CheckpointStore(out)
        store.reset(checkpoint_fingerprint(_config(shards=2), ecosystem.config))
        with pytest.raises(CheckpointMismatch, match="different study"):
            run_study(
                ecosystem, _config(shards=2, seed=405, stream_dir=out),
                resume=True,
            )


class _FlakyExperiment(Experiment):
    """Grabs one domain per day; optionally blows up on one shard."""

    name = "flaky"
    channels = ()

    def __init__(self, fail: bool, failing_shard: int = 1,
                 failing_day: int = 0):
        self.fail = fail
        self.failing_shard = failing_shard
        self.failing_day = failing_day

    def schedule(self, config):
        return EVERY_DAY

    def run_day(self, ctx, day):
        if (self.fail and ctx.shard_id == self.failing_shard
                and day >= self.failing_day):
            raise RuntimeError("injected shard failure")
        if ctx.today_owned:
            rank, name = ctx.today_owned[0]
            ctx.grabber.grab(name, rank=rank)


class TestAbort:
    def _engine(
        self, fail: bool, failing_shard: int = 1, days: int = 1,
        failing_day: int = 0, **execution
    ) -> StudyEngine:
        config = _config(
            days=days, run_probes=False, run_crossdomain=False,
            run_support_scans=False, **execution,
        )
        return StudyEngine(config, registry=ExperimentRegistry(
            [_FlakyExperiment(fail, failing_shard, failing_day)]
        ))

    def test_shard_failure_keeps_siblings_checkpointed(self, tmp_path):
        out = str(tmp_path / "aborted")
        with pytest.raises(StudyAborted) as excinfo:
            self._engine(fail=True, shards=2, stream_dir=out).run(_ecosystem())
        aborted = excinfo.value
        assert aborted.failed_shards == [1]
        assert aborted.completed_shards == [0]
        assert aborted.checkpoint_dir == os.path.join(out, "checkpoint")
        assert CheckpointStore(out).completed_shards() == [0]
        assert "injected shard failure" in str(aborted)

        # A later resume (bug fixed) completes from the kept checkpoint
        # and produces the same bytes as a never-failed run.
        self._engine(fail=False, shards=2, stream_dir=out).run(
            _ecosystem(), resume=True
        )
        clean = str(tmp_path / "clean")
        self._engine(fail=False, shards=2, stream_dir=clean).run(_ecosystem())
        assert _dataset_digest(out) == _dataset_digest(clean)

    def test_failed_profiled_shard_lets_the_next_shard_run(self, tmp_path):
        """A shard that raises mid-study stops its profiler, so the next
        shard in the same process can start its own (on Python 3.12 a
        second active cProfile raises "Another profiling tool is already
        active")."""
        out = str(tmp_path / "profiled")
        engine = self._engine(fail=True, failing_shard=0, days=2,
                              failing_day=1, shards=2, workers=1,
                              stream_dir=out)
        before = sys.getprofile()
        with pytest.raises(StudyAborted) as excinfo:
            engine.run(_ecosystem(), telemetry_dir=str(tmp_path / "t"),
                       profile=True)
        assert excinfo.value.failed_shards == [0]
        assert excinfo.value.completed_shards == [1]
        assert CheckpointStore(out).completed_shards() == [1]
        assert sys.getprofile() is before
        assert PROFILER.enabled is False

    def test_failed_shard_turns_the_event_log_off(self, tmp_path):
        """The last shard raising leaves neither the event log nor the
        profiler on for whatever this process runs next."""
        engine = self._engine(fail=True, failing_shard=1, days=2,
                              failing_day=1, shards=2, workers=1,
                              stream_dir=str(tmp_path / "observed"))
        before = sys.getprofile()
        plane = LivePlane().start()
        try:
            with pytest.raises(StudyAborted):
                engine.run(_ecosystem(), telemetry_dir=str(tmp_path / "t"),
                           live=plane, profile=True)
        finally:
            plane.stop()
        assert EVENTS.enabled is False
        assert len(EVENTS) == 0
        assert sys.getprofile() is before
        assert PROFILER.enabled is False

    def test_fail_fast_stops_dispatching(self, tmp_path):
        out = str(tmp_path / "failfast")
        config = _config(
            days=1, run_probes=False, run_crossdomain=False,
            run_support_scans=False, shards=3, stream_dir=out,
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
        with pytest.raises(StudyAborted) as excinfo:
            engine.run(_ecosystem(), fail_fast=True)
        # Shard 0 failed first; fail_fast stopped before shards 1 and 2.
        assert excinfo.value.failed_shards == [0]
        assert excinfo.value.completed_shards == []

    def test_unstreamed_abort_reports_no_checkpoint(self):
        with pytest.raises(StudyAborted, match="nothing was checkpointed") as excinfo:
            self._engine(fail=True, shards=2).run(_ecosystem())
        assert excinfo.value.checkpoint_dir is None

    def test_unstreamed_abort_removes_its_private_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(StudyAborted):
            self._engine(fail=True, shards=2).run(_ecosystem())
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("streamed", [True, False])
    def test_single_shard_failure_aborts(self, tmp_path, streamed):
        """``shards=1`` takes the same shard runner: a failing experiment
        raises StudyAborted, not the experiment's own exception."""
        out = str(tmp_path / "single") if streamed else None
        engine = self._engine(fail=True, failing_shard=0, stream_dir=out)
        with pytest.raises(StudyAborted, match="injected shard failure") as excinfo:
            engine.run(_ecosystem())
        aborted = excinfo.value
        assert aborted.failed_shards == [0]
        assert aborted.completed_shards == []
        if streamed:
            assert aborted.checkpoint_dir == os.path.join(out, "checkpoint")
        else:
            assert aborted.checkpoint_dir is None


#: ``checkpoint/run.json`` exactly as the previous release wrote it for a
#: two-shard, daily-sweeps-only study over 320 domains (ecosystem seed
#: 2016), and the sha256 of that study's uninterrupted dataset directory.
EARLIER_RUN_JSON = (
    '{"schema": "repro-checkpoint/1", "fingerprint": {"ecosystem": '
    '{"blacklist_fraction": 0.004, "churn_daily_fraction": 0.008, '
    '"curve_name": "secp128r1", "dh_group_name": "test-256", '
    '"failure_rate": 0.012, "key_pool_size": 48, "lb_jitter_fraction": 0.05, '
    '"multi_ip_fraction": 0.08, "mx_google_fraction": 0.091, '
    '"population": 320, "reserve_fraction": 0.25, "rsa_bits": 512, '
    '"seed": 2016, "study_days": 63}, "shards": 2, "study": {"chaos": null, '
    '"crossdomain_day": 50, "days": 2, "dhe_support_day": 43, '
    '"ecdhe_support_day": 44, "probe_domain_count": 400, "retry": null, '
    '"run_crossdomain": false, "run_probes": false, '
    '"run_support_scans": false, "seed": 404, "session_probe_day": 56, '
    '"shards": 2, "support_scan_connections": 10, '
    '"support_scan_window": 21600.0, "ticket_probe_day": 58, '
    '"ticket_support_day": 46}}, "cli": {}}'
)
EARLIER_FINGERPRINT_DIGEST = (
    "82ff401b1963aeda55d8653f9cdb5637dbb8baae116838232697d55cb5baa4ee"
)
EARLIER_DATASET_DIGEST = (
    "0359d5fe57af99eec523eda63648e88a782ddac604326fdac3d13b5a8bf3f197"
)


def _earlier_stream(tmp_path, with_shard=True) -> str:
    """A stream directory holding the previous release's ``run.json``
    and, with ``with_shard``, shard 1's checkpoint (a run killed after
    shard 1 finished)."""
    stream = str(tmp_path / "stream")
    os.makedirs(os.path.join(stream, "checkpoint"))
    with open(os.path.join(stream, "checkpoint", "run.json"), "w") as fh:
        fh.write(EARLIER_RUN_JSON)
    if with_shard:
        fingerprint = json.loads(EARLIER_RUN_JSON)["fingerprint"]
        CheckpointStore(stream).save_shard(run_shard(
            build_ecosystem(EcosystemConfig(**fingerprint["ecosystem"])),
            study_config_from_dict(fingerprint["study"]), shard_id=1,
            stream_dir=os.path.join(stream, "shards", "01"),
        ))
    return stream


def test_earlier_checkpoint_resumes_byte_identically(tmp_path):
    """A run killed under the previous release (its ``run.json``, shard 1
    checkpointed) finishes via ``repro study --resume`` with the bytes
    that release wrote for the uninterrupted study."""
    from repro.cli import main

    fingerprint = json.loads(EARLIER_RUN_JSON)["fingerprint"]
    config = study_config_from_dict(fingerprint["study"])
    ecosystem_config = EcosystemConfig(**fingerprint["ecosystem"])
    assert fingerprint_digest(
        checkpoint_fingerprint(config, ecosystem_config)
    ) == EARLIER_FINGERPRINT_DIGEST
    stream = _earlier_stream(tmp_path)

    assert main(["study", "--resume", stream, "--out", stream, "-q"]) == 0
    assert _dataset_digest(stream) == EARLIER_DATASET_DIGEST


@pytest.mark.parametrize("settings", [
    ["--shards", "3", "--days", "5", "--population", "900"],
    ["--shards", "2"],  # the checkpoint's own value is refused too
    ["--seed", "2016"],
    ["--retries", "3"],
    ["--retry-budget", "5"],
    ["--breaker-threshold", "2"],
])
def test_resume_refuses_output_settings(tmp_path, capsys, settings):
    """An output-affecting option next to ``--resume`` would be silently
    overridden by the checkpoint, so the CLI refuses it in one line."""
    from repro.cli import main

    stream = _earlier_stream(tmp_path, with_shard=False)
    before = sorted(os.listdir(os.path.join(stream, "checkpoint")))
    out = str(tmp_path / "out")
    assert main(["study", "--resume", stream, "--out", out, "-q"]
                + settings) == 2
    captured = capsys.readouterr()
    flags = [arg for arg in settings if arg.startswith("--")]
    assert captured.err == (
        f"repro: error: {', '.join(flags)} cannot change a resumed study "
        "(--resume restores its settings from the checkpoint)\n"
    )
    assert captured.out == ""
    assert sorted(os.listdir(os.path.join(stream, "checkpoint"))) == before
    assert not os.path.exists(out)


def test_resume_accepts_execution_flags(tmp_path):
    """Execution-only options still apply to a resumed study, and the
    bytes stay those of the uninterrupted run."""
    from repro.cli import main

    stream = _earlier_stream(tmp_path)
    telemetry = str(tmp_path / "telemetry")
    assert main([
        "study", "--resume", stream, "--out", stream, "-q",
        "--workers", "2", "--concurrency", "64", "--oracle",
        "--telemetry-dir", telemetry, "--profile",
        "--events", str(tmp_path / "events.jsonl"), "--serve-metrics", "0",
    ]) == 0
    assert _dataset_digest(stream) == EARLIER_DATASET_DIGEST
    assert os.path.isdir(os.path.join(telemetry, "profile"))
