"""Run manifests: build, persist, load, and structural validation."""

import json

from repro.obs.manifest import (
    MANIFEST_NAME,
    SCHEMA,
    build_manifest,
    config_dict,
    git_describe,
    load_manifest,
    load_metrics,
    validate_manifest,
    write_manifest,
    write_metrics,
)
from repro.scanner import StudyConfig


def _valid_run() -> dict:
    return {
        "days": 2, "shards": 1, "workers": 1, "grabs": 10,
        "elapsed_seconds": 1.5,
    }


class TestBuild:
    def test_build_records_schema_config_and_seed(self):
        config = StudyConfig(
            days=2, seed=42,
            run_probes=False, run_crossdomain=False, run_support_scans=False,
        )
        manifest = build_manifest(study_config=config, run=_valid_run())
        assert manifest["schema"] == SCHEMA
        assert manifest["seed"] == 42
        assert manifest["config"]["study"]["days"] == 2
        assert json.dumps(manifest)  # whole manifest must be JSON-safe

    def test_config_dict_falls_back_to_repr_for_unserializable(self):
        class Odd:
            def __init__(self):
                self.fn = lambda: None

        projected = config_dict(Odd())
        assert isinstance(projected["fn"], str)

    def test_valid_manifest_passes_validation(self):
        manifest = build_manifest(
            run=_valid_run(),
            shards=[{"shard_id": 0, "elapsed_seconds": 1.0}],
            channels={"ticket_daily": 5},
        )
        assert validate_manifest(manifest) == []


class TestValidate:
    def test_wrong_schema_is_flagged(self):
        manifest = build_manifest(run=_valid_run())
        manifest["schema"] = "other/9"
        assert any("schema" in e for e in validate_manifest(manifest))

    def test_missing_run_fields_are_flagged(self):
        manifest = build_manifest(run={"days": 2})
        errors = validate_manifest(manifest)
        assert any("run.grabs" in e for e in errors)
        assert any("run.elapsed_seconds" in e for e in errors)

    def test_negative_channel_count_is_flagged(self):
        manifest = build_manifest(run=_valid_run(), channels={"x": -1})
        assert any("channels" in e for e in validate_manifest(manifest))

    def test_duplicate_shard_ids_are_flagged(self):
        manifest = build_manifest(
            run=_valid_run(),
            shards=[{"shard_id": 0}, {"shard_id": 0}],
        )
        assert any("duplicate shard_id" in e for e in validate_manifest(manifest))

    def test_shard_entry_count_must_match_run(self):
        run = _valid_run()
        run["shards"] = 2
        manifest = build_manifest(run=run, shards=[{"shard_id": 0}])
        assert any("run.shards=2" in e for e in validate_manifest(manifest))

    def test_non_positive_peak_rss_is_flagged(self):
        for bad in (0, -1.0, "12"):
            run = dict(_valid_run(), peak_rss_mib=bad)
            errors = validate_manifest(build_manifest(run=run))
            assert any("run.peak_rss_mib" in e for e in errors), bad

    def test_peak_rss_is_the_larger_of_process_and_children(self, monkeypatch):
        import resource
        from types import SimpleNamespace

        from repro.obs import manifest as obs_manifest

        maxrss = {resource.RUSAGE_SELF: 40 * 1024, resource.RUSAGE_CHILDREN: 60 * 1024}
        monkeypatch.setattr(
            obs_manifest.resource, "getrusage",
            lambda who: SimpleNamespace(ru_maxrss=maxrss[who]),
        )
        monkeypatch.setattr(obs_manifest.sys, "platform", "linux")
        assert obs_manifest.peak_rss_mib() == 60.0

    def test_non_dict_manifest(self):
        assert validate_manifest([]) == ["manifest is not a JSON object"]


class TestPersistence:
    def test_write_then_load_by_dir_and_by_file(self, tmp_path):
        manifest = build_manifest(run=_valid_run())
        path = write_manifest(str(tmp_path), manifest)
        assert path.endswith(MANIFEST_NAME)
        assert load_manifest(str(tmp_path)) == manifest
        assert load_manifest(path) == manifest

    def test_metrics_round_trip_and_missing_default(self, tmp_path):
        snapshot = {"counters": {"a": 1}, "gauges": {}, "histograms": {}}
        write_metrics(str(tmp_path), snapshot)
        assert load_metrics(str(tmp_path)) == snapshot
        assert load_metrics(str(tmp_path / "absent")) == {}


class TestGitDescribe:
    """Provenance lookup must degrade, never raise (satellite PR-8)."""

    def test_missing_git_binary(self, monkeypatch):
        import subprocess

        def boom(*args, **kwargs):
            raise FileNotFoundError("git: command not found")

        monkeypatch.setattr(subprocess, "run", boom)
        assert git_describe() == "unknown"

    def test_nonzero_exit(self, monkeypatch):
        import subprocess

        completed = subprocess.CompletedProcess(
            args=["git"], returncode=128, stdout="", stderr="not a repo"
        )
        monkeypatch.setattr(subprocess, "run", lambda *a, **kw: completed)
        assert git_describe() == "unknown"

    def test_timeout(self, monkeypatch):
        import subprocess

        def hang(*args, **kwargs):
            raise subprocess.TimeoutExpired(cmd=["git"], timeout=10)

        monkeypatch.setattr(subprocess, "run", hang)
        assert git_describe() == "unknown"

    def test_empty_stdout(self, monkeypatch):
        import subprocess

        completed = subprocess.CompletedProcess(
            args=["git"], returncode=0, stdout="\n", stderr=""
        )
        monkeypatch.setattr(subprocess, "run", lambda *a, **kw: completed)
        assert git_describe() == "unknown"

    def test_manifest_still_builds_without_git(self, monkeypatch):
        import subprocess

        def boom(*args, **kwargs):
            raise FileNotFoundError("git: command not found")

        monkeypatch.setattr(subprocess, "run", boom)
        manifest = build_manifest(run=_valid_run())
        assert manifest["git"]["describe"] == "unknown"
        assert validate_manifest(manifest) == []
