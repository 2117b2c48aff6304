"""CLI tests: each subcommand end to end on tiny inputs."""

import hashlib
import os
import shutil

import pytest

from repro.cli import main

ECO_ARGS = ["--population", "420", "--seed", "3"]


def test_scan_known_domain(capsys):
    assert main(["scan", "yahoo.com"] + ECO_ARGS) == 0
    out = capsys.readouterr().out
    assert "success:         True" in out
    assert "STEK id:" in out
    assert "forward secret:  True" in out


def test_scan_unknown_domain(capsys):
    assert main(["scan", "no-such-host.invalid"] + ECO_ARGS) == 1
    out = capsys.readouterr().out
    assert "nxdomain" in out


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-study")
    code = main([
        "study", "--days", "6", "--out", str(directory),
        "--population", "420", "--seed", "3",
    ])
    assert code == 0
    return directory


def test_study_writes_dataset(study_dir, capsys):
    assert (study_dir / "meta.json").exists()
    assert (study_dir / "ticket_daily.jsonl").exists()


def test_report_renders_tables(study_dir, capsys):
    assert main(["report", str(study_dir), "--min-days", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "prolonged STEK reuse" in out
    assert "Largest STEK service groups" in out
    assert "cloudflare" in out
    assert "yahoo.com" in out


def test_audit_renders_windows(study_dir, capsys):
    assert main(["audit", str(study_dir), "--worst", "5"]) == 0
    out = capsys.readouterr().out
    assert "window > 24 hours" in out
    assert "rotate STEKs daily" in out
    assert "mechanism" in out


#: sha256 of the ``report --min-days 2`` and ``audit --worst 5`` stdout
#: on the ``study_dir`` dataset.
REPORT_SHA256 = "418b3d074c22dfb61e0b9593fedded9f73584fffa1640665cfebf237880a8bf3"
AUDIT_SHA256 = "fa76eaf5cd60810dbe65d5ccc8bc14f535f47c69217d19143de9c165f3cc65be"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_report_streaming_flags_do_not_change_bytes(study_dir, capsys):
    assert main(["report", str(study_dir), "--min-days", "2"]) == 0
    streamed = capsys.readouterr().out
    assert main(["report", str(study_dir), "--min-days", "2",
                 "--workers", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr().out
    assert streamed == parallel
    assert sha256(streamed) == REPORT_SHA256


def test_audit_streaming_flags_do_not_change_bytes(study_dir, capsys):
    assert main(["audit", str(study_dir), "--worst", "5"]) == 0
    streamed = capsys.readouterr().out
    assert main(["audit", str(study_dir), "--worst", "5",
                 "--workers", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr().out
    assert streamed == parallel
    assert sha256(streamed) == AUDIT_SHA256


def test_streamed_report_leaves_partial_cache(study_dir):
    from repro.analysis import CACHE_DIR_NAME

    assert main(["report", str(study_dir), "--min-days", "2"]) == 0
    assert (study_dir / CACHE_DIR_NAME).is_dir()


def test_doc_table_prints_reference_and_exits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--doc-table"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "| Command | Option | Default | Description |" in out
    # Every subcommand appears, including the streaming analysis flags.
    for command in ("scan", "study", "report", "audit", "target", "stats"):
        assert f"`{command}`" in out
    assert "`--workers WORKERS`" in out


def test_target_analysis(capsys):
    code = main(["target", "google.com", "--horizon-hours", "36",
                 "--population", "420", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Nation-state target analysis: google.com" in out
    assert "retrospectively decrypted" in out


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


# --- telemetry: study --telemetry-dir and the stats subcommand ----------


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-telemetry")
    out, telemetry = root / "data", root / "telemetry"
    code = main([
        "study", "--days", "2", "--out", str(out),
        "--telemetry-dir", str(telemetry), "-q",
        "--population", "420", "--seed", "3",
    ])
    assert code == 0
    return out, telemetry


def test_study_quiet_suppresses_progress(telemetry_run, capsys):
    # The fixture ran with -q: no \r progress and no telemetry notice
    # may have reached stderr (results still go to stdout).
    assert "scanning day" not in capsys.readouterr().err


def test_progress_lines_by_shard_count(capsys):
    from repro.cli import _ProgressReporter

    reporter = _ProgressReporter(verbosity=0)
    for shards in (1, 2):
        for day in range(3):  # day == days marks the shard done
            reporter.shard(0, shards, day, 2)
    assert capsys.readouterr().err == (
        "\rscanning day 1/2\rscanning day 2/2"
        "\rshard 1/2: day 1/2\rshard 1/2: day 2/2\rshard 1/2 done        "
    )


def test_study_writes_telemetry_next_to_dataset(telemetry_run):
    out, telemetry = telemetry_run
    assert (telemetry / "manifest.json").exists()
    assert (telemetry / "metrics.json").exists()
    assert (telemetry / "metrics.prom").exists()
    assert not (telemetry / "trace.jsonl").exists()
    # ... and nothing leaked into the dataset directory.
    assert not (out / "manifest.json").exists()


def test_stats_renders_report(telemetry_run, capsys):
    _, telemetry = telemetry_run
    assert main(["stats", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "run manifest: study" in out
    assert "MiB" in out.split("peak RSS", 1)[1].splitlines()[0]
    assert "per-experiment grabs:" in out
    assert "cache effectiveness:" in out
    # The scan hot path's crypto cache: the per-STEK key-schedule cache
    # (the process-wide aes_for_key LRU no longer sees study traffic).
    assert "crypto.aes.stek_cipher" in out


def test_stats_accepts_parent_format_manifest(telemetry_run, tmp_path, capsys):
    """Manifests from before the tracer was retired list a ``trace``
    file and carry no ``peak_rss_mib``; they still validate and render."""
    from repro.obs import load_manifest, validate_manifest, write_manifest

    _, telemetry = telemetry_run
    old = tmp_path / "old-telemetry"
    shutil.copytree(telemetry, old)
    manifest = load_manifest(str(old))
    manifest["files"]["trace"] = "trace.jsonl"
    del manifest["run"]["peak_rss_mib"]
    write_manifest(str(old), manifest)
    (old / "trace.jsonl").write_text('{"name": "handshake"}\n')
    assert validate_manifest(manifest) == []
    assert main(["stats", str(old)]) == 0
    out = capsys.readouterr().out
    assert "run manifest: study" in out and "peak RSS" not in out


def test_stats_prometheus_exposition(telemetry_run, capsys):
    _, telemetry = telemetry_run
    assert main(["stats", str(telemetry), "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_scanner_grab_attempt_total counter" in out
    assert "repro_tls_server_handshake_total" in out


def test_stats_rejects_missing_directory(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope")]) == 1
    assert "cannot load manifest" in capsys.readouterr().err


def test_study_rejects_telemetry_dir_equal_to_out(tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "study", "--days", "2", "--out", str(out),
        "--telemetry-dir", str(out),
        "--population", "420", "--seed", "3",
    ])
    assert code == 2
    assert "must not be the dataset" in capsys.readouterr().err


def test_negative_seed_is_a_one_line_usage_error(tmp_path, capsys):
    code = main(["study", "--days", "2", "--out", str(tmp_path / "o"),
                 "--population", "420", "--seed", "-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "repro: error: seed must be >= 0, got -3\n"
    assert not (tmp_path / "o").exists()


def test_too_small_population_is_a_one_line_usage_error(capsys):
    assert main(["scan", "yahoo.com", "--population", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: population 50 too small")
    assert err.count("\n") == 1


def test_resume_with_empty_key_pool_exits_2(tmp_path, capsys):
    """A checkpoint naming key_pool_size=0 is refused, not a traceback."""
    from repro.hosting import EcosystemConfig
    from repro.scanner import CheckpointStore, StudyConfig
    from repro.scanner.checkpoint import checkpoint_fingerprint

    stream = str(tmp_path / "stream")
    config = StudyConfig(
        days=2, probe_domain_count=40, dhe_support_day=1,
        ecdhe_support_day=1, ticket_support_day=1, crossdomain_day=1,
        session_probe_day=1, ticket_probe_day=1, shards=2,
    )
    fingerprint = checkpoint_fingerprint(
        config, EcosystemConfig(population=420, seed=3)
    )
    fingerprint["ecosystem"]["key_pool_size"] = 0
    CheckpointStore(stream).reset(fingerprint)

    code = main(["study", "--resume", stream])
    assert code == 2
    err = capsys.readouterr().err
    assert "key_pool_size must be >= 1, got 0" in err
    assert err.count("\n") == 1


# --- chaos, retries, and resume -----------------------------------------


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-chaos")
    out, telemetry = root / "data", root / "telemetry"
    code = main([
        "study", "--days", "2", "--out", str(out), "--shards", "2",
        "--chaos", "7", "--retries", "2", "--breaker-threshold", "4",
        "--telemetry-dir", str(telemetry), "-q",
    ] + ECO_ARGS)
    assert code == 0
    return out, telemetry


def test_chaos_study_writes_dataset_without_checkpoint_residue(chaos_run):
    out, _ = chaos_run
    assert (out / "meta.json").exists()
    assert not (out / "checkpoint").exists()


def test_stats_show_failure_and_retry_sections(chaos_run, capsys):
    _, telemetry = chaos_run
    assert main(["stats", str(telemetry)]) == 0
    report = capsys.readouterr().out
    assert "failure breakdown:" in report
    assert "retry/backoff:" in report
    assert "mean attempts per grab" in report


def test_prometheus_exposes_failure_reasons(chaos_run, capsys):
    _, telemetry = chaos_run
    assert main(["stats", str(telemetry), "--prometheus"]) == 0
    exposition = capsys.readouterr().out
    assert "repro_scanner_grab_failure_total{reason=" in exposition
    assert "repro_scanner_grab_attempts_per_grab" in exposition


def test_bad_chaos_profile_exits_2(tmp_path, capsys):
    profile = tmp_path / "bad.json"
    profile.write_text('{"schema": "repro-chaos/999"}')
    code = main([
        "study", "--days", "2", "--out", str(tmp_path / "o"),
        "--chaos-profile", str(profile),
    ] + ECO_ARGS)
    assert code == 2
    assert "bad chaos profile" in capsys.readouterr().err


def test_bad_retry_policy_exits_2(tmp_path, capsys):
    code = main([
        "study", "--days", "2", "--out", str(tmp_path / "o"),
        "--retries", "2", "--retry-budget", "-1",
    ] + ECO_ARGS)
    assert code == 2
    assert "bad retry policy" in capsys.readouterr().err


def test_resume_without_checkpoint_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main([
        "study", "--days", "2", "--out", str(tmp_path / "o"),
        "--resume", str(empty),
    ] + ECO_ARGS)
    assert code == 2
    assert "cannot resume" in capsys.readouterr().err


def test_resume_refuses_conflicting_flags(tmp_path, capsys):
    from repro.hosting import EcosystemConfig
    from repro.scanner import CheckpointStore, StudyConfig
    from repro.scanner.checkpoint import checkpoint_fingerprint

    out = str(tmp_path / "o")
    assert main(["study", "--out", out, "--resume", str(tmp_path),
                 "--chaos", "3"] + ECO_ARGS) == 2
    assert "drop --chaos" in capsys.readouterr().err
    stream = str(tmp_path / "stream")
    CheckpointStore(stream).reset(checkpoint_fingerprint(
        StudyConfig(run_probes=False, run_crossdomain=False,
                    run_support_scans=False, days=2),
        EcosystemConfig(population=420, seed=3),
    ))
    assert main(["study", "--out", out, "--resume", stream]) == 2
    assert "would split the run" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_study_needs_out_or_resume(capsys):
    assert main(["study", "--days", "2"] + ECO_ARGS) == 2
    assert capsys.readouterr().err == (
        "repro: error: study needs --out DIR (or --resume DIR)\n"
    )


def test_resume_continues_a_partial_run(tmp_path, capsys):
    """Seed a one-of-two-shards checkpoint, then finish it via --resume."""
    from repro.hosting import EcosystemConfig, build_ecosystem
    from repro.scanner import CheckpointStore, StudyConfig
    from repro.scanner.checkpoint import checkpoint_fingerprint
    from repro.scanner.engine import run_shard

    stream = str(tmp_path / "stream")
    config = StudyConfig(
        days=2, probe_domain_count=40, dhe_support_day=1,
        ecdhe_support_day=1, ticket_support_day=1, crossdomain_day=1,
        session_probe_day=1, ticket_probe_day=1, shards=2,
    )
    ecosystem_config = EcosystemConfig(population=420, seed=3)
    store = CheckpointStore(stream)
    store.reset(checkpoint_fingerprint(config, ecosystem_config))
    store.save_shard(run_shard(
        build_ecosystem(ecosystem_config), config, shard_id=0,
        stream_dir=os.path.join(stream, "shards", "00"),
    ))

    assert main(["study", "--resume", stream, "-q"]) == 0
    assert f"dataset saved to {stream}" in capsys.readouterr().out
    assert os.path.exists(os.path.join(stream, "meta.json"))
    assert not os.path.exists(os.path.join(stream, "checkpoint"))


class _Killed(BaseException):
    """Stands in for a kill: nothing in the study may catch it."""


def _directory_digest(directory) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_default_study_killed_after_a_checkpoint_resumes_identically(
    tmp_path, monkeypatch
):
    """A plain ``repro study --out X`` streams into X: stopped right after
    shard 0 is checkpointed, ``--resume X`` finishes it byte-identically."""
    from repro.scanner import CheckpointStore

    args = ["study", "--days", "2", "--shards", "2", "-q"] + ECO_ARGS
    clean = str(tmp_path / "clean")
    assert main(args + ["--out", clean]) == 0

    save_shard = CheckpointStore.save_shard

    def save_then_die(self, result):
        save_shard(self, result)
        raise _Killed

    killed = str(tmp_path / "killed")
    monkeypatch.setattr(CheckpointStore, "save_shard", save_then_die)
    with pytest.raises(_Killed):
        main(args + ["--out", killed])
    monkeypatch.undo()
    assert CheckpointStore(killed).completed_shards() == [0]
    assert not os.path.exists(os.path.join(killed, "meta.json"))

    assert main(["study", "--resume", killed, "-q"]) == 0
    assert _directory_digest(killed) == _directory_digest(clean)


def test_failing_single_shard_study_exits_3_with_resume_hint(
    tmp_path, capsys, monkeypatch
):
    """At the default --shards 1 a failing experiment aborts like any
    shard failure: exit 3, the resume hint, and a study.abort event."""
    from repro.obs.events import load_events
    from repro.scanner import DailySweepExperiment

    def fail(self, ctx, day):
        raise RuntimeError("injected sweep failure")

    monkeypatch.setattr(DailySweepExperiment, "run_day", fail)
    stream = str(tmp_path / "stream")
    events = str(tmp_path / "events.jsonl")
    code = main(["study", "--days", "2", "--out", stream,
                 "--events", events, "-q"] + ECO_ARGS)
    assert code == 3
    err = capsys.readouterr().err
    assert "injected sweep failure" in err
    assert f"resume with: repro study --resume {stream}\n" in err
    assert "study.abort" in [record["event"] for record in load_events(events)]


# -- PR-8: live observability plane ------------------------------------


@pytest.fixture(scope="module")
def observed_run(tmp_path_factory):
    """One tiny study with the full plane on: events + metrics + profile."""
    base = tmp_path_factory.mktemp("cli-obs")
    out = base / "dataset"
    telemetry = base / "telemetry"
    events = base / "events.jsonl"
    code = main([
        "study", "--days", "2", "--out", str(out), "--shards", "2",
        "--telemetry-dir", str(telemetry), "--events", str(events),
        "--serve-metrics", "0", "--profile", "-q",
        "--population", "420", "--seed", "3",
    ])
    assert code == 0
    return base


def test_events_validate_and_summary(observed_run, capsys):
    events = str(observed_run / "events.jsonl")
    assert main(["events", events, "--validate"]) == 0
    assert "repro-events/1 OK" in capsys.readouterr().out
    assert main(["events", events, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "shard.day" in out
    assert main(["events", events, "--level", "warning"]) == 0


def test_events_bad_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["events", str(bad)]) == 1
    assert "cannot load events" in capsys.readouterr().err


def test_events_corrupted_log_fails_validation(observed_run, tmp_path, capsys):
    import json

    source = (observed_run / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in source]
    records[1]["seq"] = 99
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["events", str(mangled), "--validate"]) == 1
    assert "seq" in capsys.readouterr().err


def test_stats_includes_profile_section(observed_run, capsys):
    assert main(["stats", str(observed_run / "telemetry")]) == 0
    out = capsys.readouterr().out
    assert "profiling" in out
    assert "time by phase" in out


def test_report_events_provenance(observed_run, capsys):
    assert main(["report", str(observed_run / "dataset"),
                 "--min-days", "2",
                 "--events", str(observed_run / "events.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "run provenance (from event log)" in out
    assert "chaos injections" in out


def test_watch_telemetry_dir(observed_run, capsys):
    assert main(["watch", str(observed_run / "telemetry")]) == 0
    out = capsys.readouterr().out
    assert "finished" in out


def test_watch_missing_target_exits_1(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "nothing")]) == 1


def test_watch_unreachable_url_exits_1(capsys):
    assert main(["watch", "http://127.0.0.1:1", "--once",
                 "--interval", "0.01"]) == 1


def test_profile_requires_telemetry_dir(tmp_path, capsys):
    assert main(["study", "--out", str(tmp_path / "o"), "--profile",
                 "-q"] + ECO_ARGS) == 2
    assert "--telemetry-dir" in capsys.readouterr().err


def test_watch_live_study_over_http(tmp_path, capsys):
    """`repro watch --once` against a LivePlane-backed server."""
    from repro.obs.exporter import LivePlane

    plane = LivePlane(serve_port=0).start()
    try:
        plane.study_started(shards=2, days=2, workers=1)
        plane.progress.day_completed(0, day=0, days=2, grabs=10)
        assert main(["watch", plane.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "days 1/4" in out
    finally:
        plane.stop()
