"""Command-line interface: run the measurement system from a shell.

Subcommands mirror the library's workflow:

* ``scan DOMAIN``   — one zgrab-style connection against a synthetic
  ecosystem, printing the crypto-shortcut signals.
* ``study``         — run the longitudinal study, streaming the dataset
  (JSONL) into a directory as it is scanned, so a killed run resumes
  with ``--resume DIR``; ``--shards``/``--workers`` shard the
  population across processes (output depends only on ``--shards``).
* ``report DIR``    — regenerate the paper's tables from a saved
  dataset.
* ``stats DIR``     — render the telemetry a study wrote with
  ``--telemetry-dir`` (run manifest, peak RSS, metrics, cache
  effectiveness);
  ``--prometheus`` emits the text exposition instead.
* ``audit DIR``     — vulnerability windows + §8.2 mitigation
  counterfactuals from a saved dataset.
* ``target DOMAIN`` — the §7.2 nation-state target analysis.
* ``watch TARGET``  — follow a running ``--serve-metrics`` study by
  URL (live progress/ETA line) or summarize a telemetry directory.
* ``events FILE``   — inspect/validate/summarize a ``repro-events/1``
  JSONL event log written by ``study --events``.

Every command takes ``--population`` and ``--seed`` so results are
reproducible; ecosystems are rebuilt deterministically rather than
persisted.

Example::

    python -m repro study --days 14 --population 500 --out run1/
    python -m repro report run1/
    python -m repro audit run1/
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Optional

from .crypto.rng import DeterministicRandom
from .faults import ImpairmentPlan, RetryPolicy, seeded_profile
from .hosting import EcosystemConfig, build_ecosystem
from .netsim.clock import HOUR
from .scanner import (
    CheckpointMismatch,
    CheckpointStore,
    StudyAborted,
    StudyConfig,
    ZGrabber,
    run_study_with_stats,
)
from .scanner.checkpoint import study_config_from_dict

log = logging.getLogger("repro")


class _StudySetting(argparse.Action):
    """Stores an output-affecting ``repro study`` option and notes that
    it was given: ``--resume`` restores every such setting from the
    checkpoint, so it refuses the ones listed in ``given_settings``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given_settings += (self.option_strings[0],)


def _add_ecosystem_arguments(parser: argparse.ArgumentParser,
                             action="store") -> None:
    parser.add_argument("--population", type=int, default=450, action=action,
                        help="ranked-list size (default 450)")
    parser.add_argument("--seed", type=int, default=2016, action=action,
                        help="deterministic ecosystem seed (default 2016)")


def _configure_logging(args) -> int:
    """Set up the ``repro`` logger from -v/-q; returns the verbosity.

    Results always go to stdout via ``print``; the logger carries
    *progress and diagnostics* to stderr.  Default verbosity 0 keeps
    the historical output (transient ``\\r`` progress on stderr), -q
    silences progress, -v switches to full per-event log lines.
    """
    verbosity = getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    level = (
        logging.WARNING if verbosity < 0
        else logging.INFO if verbosity == 0
        else logging.DEBUG
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)
    log.propagate = False
    return verbosity


class _ProgressReporter:
    """Scan-progress display honoring the -v/-q verbosity.

    * verbosity < 0 (-q): nothing.
    * verbosity = 0: the historical transient ``\\r`` line on stderr.
    * verbosity > 0 (-v): one DEBUG log line per event (CI-friendly;
      no carriage returns).
    """

    def __init__(self, verbosity: int) -> None:
        self.verbosity = verbosity

    def _emit(self, text: str) -> None:
        if self.verbosity < 0:
            return
        if self.verbosity > 0:
            log.debug(text.strip())
        else:
            print(f"\r{text}", end="", flush=True, file=sys.stderr)

    def shard(self, shard_id: int, shards: int, day: int, days: int) -> None:
        if shards == 1:
            if day < days:
                self._emit(f"scanning day {day + 1}/{days}")
        elif day >= days:
            self._emit(f"shard {shard_id + 1}/{shards} done        ")
        else:
            self._emit(f"shard {shard_id + 1}/{shards}: day {day + 1}/{days}")

    def close(self) -> None:
        if self.verbosity == 0:
            print(file=sys.stderr)


class UsageError(Exception):
    """A bad command-line value; :func:`main` reports it in one line."""


def _build(args) -> "object":
    try:
        return build_ecosystem(
            EcosystemConfig(population=args.population, seed=args.seed)
        )
    except ValueError as exc:  # bad seed, too small a population
        raise UsageError(str(exc)) from None


def cmd_scan(args) -> int:
    ecosystem = _build(args)
    grabber = ZGrabber(ecosystem, DeterministicRandom(args.seed + 1))
    observation = grabber.grab(args.domain)
    print(f"domain:          {observation.domain}")
    print(f"success:         {observation.success}")
    if not observation.success:
        print(f"error:           {observation.error}")
        return 1
    print(f"ip:              {observation.ip}")
    print(f"cipher:          {observation.cipher}")
    print(f"forward secret:  {observation.forward_secret}")
    print(f"cert trusted:    {observation.cert_trusted}")
    print(f"session id set:  {observation.session_id_set}")
    print(f"ticket issued:   {observation.ticket_issued}")
    if observation.ticket_issued:
        print(f"ticket hint:     {observation.ticket_hint}s")
        print(f"ticket format:   {observation.ticket_format}")
        print(f"STEK id:         {observation.stek_id}")
    if observation.kex_public:
        print(f"kex value:       {observation.kex_public[:32]}…")
    return 0


def _scaled_day(paper_day: int, days: int) -> int:
    """Scale a paper-schedule day into a shorter study, staying in range."""
    return min(days - 1, max(1, int(paper_day * days / 63)))


def _chaos_profile(args) -> Optional[dict]:
    """The chaos profile selected by --chaos/--chaos-profile, or None."""
    if args.chaos_profile:
        with open(args.chaos_profile, "r", encoding="utf-8") as fh:
            profile = json.load(fh)
        ImpairmentPlan.from_profile(profile)  # reject bad files up front
        return profile
    if args.chaos is not None:
        return seeded_profile(args.chaos, args.days)
    return None


def _retry_policy(args) -> Optional[RetryPolicy]:
    """The RetryPolicy from --retries/--retry-budget/--breaker-threshold,
    or None when every knob is at its no-op default."""
    if args.retries <= 1 and args.retry_budget is None and not args.breaker_threshold:
        return None
    return RetryPolicy(
        max_attempts=max(args.retries, 1),
        retry_budget=args.retry_budget,
        breaker_threshold=args.breaker_threshold,
    )


def _resumed_study(args) -> tuple["object", StudyConfig]:
    """Rebuild (ecosystem, config) from a stream directory's checkpoint.

    Everything output-affecting comes from the checkpoint fingerprint —
    the original study configuration and ecosystem knobs — so a resume
    cannot accidentally merge shards from two different studies; only
    execution knobs (``--workers``, ``--concurrency``, ``--oracle``)
    are taken from the new invocation.  An output-affecting option
    given next to ``--resume`` would be ignored, so it is refused, and
    so is an ``--out`` other than the resumed directory.
    """
    store = CheckpointStore(args.resume)
    state = store.load_run_state()
    if args.given_settings:
        raise UsageError(
            f"{', '.join(args.given_settings)} cannot change a resumed study "
            "(--resume restores its settings from the checkpoint)"
        )
    if args.out and os.path.abspath(args.out) != os.path.abspath(args.resume):
        raise UsageError(
            "--resume DIR finishes the dataset in DIR; a different --out "
            "would split the run"
        )
    fingerprint = state.get("fingerprint", {})
    config = study_config_from_dict(
        dict(fingerprint.get("study", {})),
        workers=args.workers,
        stream_dir=args.resume,
        concurrency=args.concurrency,
        oracle=args.oracle,
    )
    ecosystem_data = fingerprint.get("ecosystem") or {}
    if ecosystem_data:
        ecosystem = build_ecosystem(EcosystemConfig(**ecosystem_data))
    else:
        ecosystem = _build(args)
    return ecosystem, config


def cmd_study(args) -> int:
    out = args.resume or args.out
    if out is None:
        raise UsageError("study needs --out DIR (or --resume DIR)")
    if args.telemetry_dir and (
        os.path.abspath(args.telemetry_dir) == os.path.abspath(out)
    ):
        print("--telemetry-dir must not be the dataset --out directory "
              "(telemetry lives next to the dataset, not inside it)",
              file=sys.stderr)
        return 2
    if args.resume:
        if args.chaos is not None or args.chaos_profile:
            print("--resume takes its chaos profile from the checkpoint; "
                  "drop --chaos/--chaos-profile", file=sys.stderr)
            return 2
        try:
            ecosystem, config = _resumed_study(args)
        except (OSError, ValueError) as exc:
            print(f"cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        log.info("resuming study from %s (config restored from checkpoint)",
                 args.resume)
    else:
        try:
            chaos = _chaos_profile(args)
        except (OSError, ValueError) as exc:
            print(f"bad chaos profile: {exc}", file=sys.stderr)
            return 2
        try:
            retry = _retry_policy(args)
        except ValueError as exc:
            print(f"bad retry policy: {exc}", file=sys.stderr)
            return 2
        ecosystem = _build(args)
        config = StudyConfig(
            days=args.days,
            probe_domain_count=args.population,
            dhe_support_day=_scaled_day(43, args.days),
            ecdhe_support_day=_scaled_day(44, args.days),
            ticket_support_day=_scaled_day(46, args.days),
            crossdomain_day=_scaled_day(50, args.days),
            session_probe_day=_scaled_day(56, args.days),
            ticket_probe_day=_scaled_day(58, args.days),
            shards=args.shards,
            workers=args.workers,
            stream_dir=out,
            concurrency=args.concurrency,
            oracle=args.oracle,
            chaos=chaos,
            retry=retry,
        )
    profile_dir = None
    if args.profile:
        if not args.telemetry_dir:
            print("--profile requires --telemetry-dir (the aggregated "
                  "profile lands under <telemetry-dir>/profile/)",
                  file=sys.stderr)
            return 2
        profile_dir = os.path.join(args.telemetry_dir, "profile")

    live = None
    if args.serve_metrics is not None or args.events:
        from .obs.exporter import LivePlane

        live = LivePlane(
            serve_port=args.serve_metrics, events_path=args.events
        ).start()
        if live.url:
            log.info(
                "live observability plane at %s "
                "(endpoints: /metrics /progress /healthz /events)", live.url,
            )
        if args.events:
            log.info("streaming events to %s", args.events)

    reporter = _ProgressReporter(args.verbosity)
    try:
        dataset, stats = run_study_with_stats(
            ecosystem, config,
            shard_progress=reporter.shard,
            telemetry_dir=args.telemetry_dir,
            resume=bool(args.resume),
            fail_fast=args.fail_fast,
            live=live,
            profile_dir=profile_dir,
        )
    except StudyAborted as exc:
        reporter.close()
        if live is not None:
            live.study_aborted(str(exc))
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial checkpoint kept at {exc.checkpoint_dir}",
              file=sys.stderr)
        print(f"resume with: repro study --resume {out}", file=sys.stderr)
        return 3
    except CheckpointMismatch as exc:
        reporter.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if live is not None:
            live.stop()
    reporter.close()
    print(f"dataset saved to {out} "
          f"({len(dataset.ticket_daily):,} daily ticket observations)")
    print(stats.render())
    if args.telemetry_dir:
        log.info(
            "telemetry written to %s (inspect with `repro stats %s`)",
            args.telemetry_dir, args.telemetry_dir,
        )
    if args.events:
        log.info(
            "event log written to %s (inspect with `repro events %s`)",
            args.events, args.events,
        )
    return 0


def _analysis_result(args):
    """Run the streaming analysis engine per the report/audit flags."""
    from .analysis import analyze

    result = analyze(
        args.dataset,
        workers=max(args.workers, 1),
        use_cache=not args.no_cache,
    )
    log.info(
        "analysis: %d chunks (%d cached, %d folded) over %d channels "
        "with %d worker(s) in %.2fs",
        result.chunks, result.cache_hits, result.cache_misses,
        len(result.channel_rows), result.workers, result.elapsed_seconds,
    )
    return result


def cmd_report(args) -> int:
    from .analysis import render_report, report_inputs_from_analysis

    provenance = None
    if args.events:
        from .analysis import render_events_provenance
        from .obs.events import load_events, summarize_events

        try:
            summary = summarize_events(load_events(args.events))
        except (OSError, ValueError) as exc:
            print(f"cannot load events from {args.events}: {exc}",
                  file=sys.stderr)
            return 1
        provenance = render_events_provenance(summary, args.events)
    inputs = report_inputs_from_analysis(_analysis_result(args))
    print(render_report(inputs, min_days=args.min_days))
    if provenance is not None:
        print()
        print(provenance)
    return 0


def cmd_audit(args) -> int:
    from .analysis import audit_inputs_from_analysis, render_audit

    inputs = audit_inputs_from_analysis(_analysis_result(args))
    print(render_audit(inputs, worst=args.worst))
    return 0


def cmd_bench(args) -> int:
    from .bench import main as bench_main

    forwarded: list[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.out:
        forwarded += ["--out", args.out]
    return bench_main(forwarded)


def cmd_stats(args) -> int:
    from .obs import (
        load_manifest,
        load_metrics,
        render_prometheus,
        render_stats_report,
        validate_manifest,
    )

    try:
        manifest = load_manifest(args.telemetry)
    except (OSError, ValueError) as exc:
        print(f"cannot load manifest from {args.telemetry}: {exc}",
              file=sys.stderr)
        return 1
    directory = (
        args.telemetry if os.path.isdir(args.telemetry)
        else os.path.dirname(args.telemetry) or "."
    )
    errors = validate_manifest(manifest)
    for error in errors:
        print(f"manifest: {error}", file=sys.stderr)
    metrics = load_metrics(directory)
    if args.prometheus:
        print(render_prometheus(metrics), end="")
    else:
        print(render_stats_report(manifest, metrics))
        from .obs.profiling import load_profile_summary, render_profile_report

        summary = load_profile_summary(os.path.join(directory, "profile"))
        if summary is not None:
            print()
            print(render_profile_report(summary))
    return 1 if errors else 0


def _watch_http(args) -> int:
    """Poll a --serve-metrics study's /progress endpoint until done."""
    import urllib.error
    import urllib.request

    from .obs.progress import render_progress

    base = args.target.rstrip("/")
    progress_url = (
        base if base.endswith("/progress") else base + "/progress"
    )
    reached = False
    while True:
        try:
            with urllib.request.urlopen(progress_url, timeout=5) as response:
                snapshot = json.load(response)
        except (OSError, ValueError):
            if not reached:
                print(f"cannot reach {progress_url} — is the study running "
                      "with --serve-metrics?", file=sys.stderr)
                return 1
            # The study exited and took its endpoint with it: a normal
            # end of watch, not an error.
            print(file=sys.stderr)
            log.info("endpoint gone; the study has exited")
            return 0
        reached = True
        line = render_progress(snapshot)
        if args.once:
            print(line)
            return 0
        print(f"\r{line}", end="", flush=True, file=sys.stderr)
        state = snapshot.get("state")
        if state in ("done", "aborted"):
            print(file=sys.stderr)
            print(line)
            return 0 if state == "done" else 3
        time.sleep(max(args.interval, 0.1))


def _watch_dir(args) -> int:
    """Summarize a telemetry directory (or a checkpointed stream dir)."""
    from .obs import load_manifest
    from .obs.report import render_stats_report

    target = args.target
    try:
        manifest = load_manifest(target)
    except (OSError, ValueError):
        store = CheckpointStore(target)
        if store.exists():
            done = store.completed_shards()
            print(f"{target}: in-flight streamed run — "
                  f"{len(done)} shard(s) checkpointed "
                  f"({', '.join(str(s) for s in done) or 'none'})")
            return 0
        print(f"{target}: neither a telemetry directory (manifest.json) "
              "nor a checkpointed stream directory", file=sys.stderr)
        return 1
    # Headline only — `repro stats` renders the full report.
    print(render_stats_report(manifest, {}).splitlines()[0])
    run = manifest.get("run", {})
    if run:
        print(f"  finished: {run.get('grabs', 0):,} grabs over "
              f"{run.get('days', '?')} days in "
              f"{run.get('elapsed_seconds', 0.0):.2f}s")
    return 0


def cmd_watch(args) -> int:
    if args.target.startswith(("http://", "https://")):
        return _watch_http(args)
    return _watch_dir(args)


def cmd_events(args) -> int:
    from .obs.events import (
        level_at_least,
        load_events,
        render_event,
        render_summary,
        summarize_events,
        validate_events,
    )

    try:
        records = load_events(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot load events from {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.validate:
        errors = validate_events(records)
        for error in errors:
            print(f"events: {error}", file=sys.stderr)
        if errors:
            return 1
        print(f"{args.file}: {len(records):,} events, repro-events/1 OK")
        return 0
    if args.summary:
        print(render_summary(summarize_events(records)))
        return 0
    shown = 0
    for record in records:
        if level_at_least(record, args.level):
            print(render_event(record))
            shown += 1
    if shown == 0:
        log.info("no events at level >= %s", args.level)
    return 0


def cmd_target(args) -> int:
    from .nationstate import analyze_target, render_report

    ecosystem = _build(args)
    report = analyze_target(
        ecosystem, args.domain, rotation_horizon=args.horizon_hours * HOUR
    )
    print(render_report(report))
    return 0


def _escape_cell(text: str) -> str:
    return " ".join((text or "").split()).replace("|", "\\|")


def render_cli_table(parser: argparse.ArgumentParser) -> str:
    """The README CLI reference, generated from the argparse tree.

    One markdown table covering every subcommand and flag, so the
    documented interface can never drift from the implemented one —
    the ``docs-check`` CI job diffs this output against README.md.
    """
    lines = [
        "| Command | Option | Default | Description |",
        "| --- | --- | --- | --- |",
    ]
    sub_action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    command_help = {
        pseudo.dest: pseudo.help or ""
        for pseudo in sub_action._choices_actions
    }
    shared: list[tuple[str, str, str]] = []
    for name, sub in sub_action.choices.items():
        lines.append(
            f"| `{name}` |  |  | {_escape_cell(command_help.get(name, ''))} |"
        )
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                display = ", ".join(action.option_strings)
                if action.nargs != 0:
                    metavar = action.metavar or action.dest.upper()
                    display = f"{display} {metavar}"
                if action.default in (None, False):
                    default = ""
                elif action.default == 0 and action.nargs == 0:
                    default = ""
                else:
                    default = f"`{action.default}`"
            else:
                display = action.dest
                default = (
                    f"`{action.default}`" if action.default is not None
                    else "required"
                )
            row = (display, default, _escape_cell(action.help or ""))
            if action.dest in ("verbose", "quiet"):
                if row not in shared:
                    shared.append(row)
                continue
            lines.append(f"| | `{row[0]}` | {row[1]} | {row[2]} |")
    for display, default, help_text in shared:
        lines.append(
            f"| *(all commands)* | `{display}` | {default} | {help_text} |"
        )
    return "\n".join(lines)


class _DocTableAction(argparse.Action):
    """``--doc-table``: print the generated CLI reference and exit."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs["nargs"] = 0
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(render_cli_table(parser))
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLS crypto-shortcut measurement toolchain (IMC 2016 reproduction)",
    )
    parser.add_argument(
        "--doc-table", action=_DocTableAction,
        help="print the CLI reference as a markdown table and exit "
             "(README.md embeds this output; docs-check CI diffs it)",
    )
    # -v/-q live on the subcommands (argparse clobbers same-dest options
    # shared between the main parser and subparsers), via a parent.
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument("-v", "--verbose", action="count", default=0,
                           help="log per-event progress lines to stderr")
    verbosity.add_argument("-q", "--quiet", action="count", default=0,
                           help="suppress progress output")
    subparsers = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        """Adds every subcommand with the shared verbosity options."""

        @staticmethod
        def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
            return subparsers.add_parser(name, parents=[verbosity], **kwargs)

    sub = _Sub()

    scan = sub.add_parser("scan", help="one zgrab-style TLS connection")
    scan.add_argument("domain")
    _add_ecosystem_arguments(scan)
    scan.set_defaults(func=cmd_scan)

    study = sub.add_parser("study", help="run the longitudinal study")
    study.add_argument("--days", type=int, default=14, action=_StudySetting,
                       help="study length in days (default 14)")
    study.add_argument("--out", default=None, metavar="DIR",
                       help="dataset directory; records stream into it as "
                            "they are produced, so a killed run finishes "
                            "with --resume DIR (required unless --resume)")
    study.add_argument("--shards", type=int, default=1, action=_StudySetting,
                       help="deterministic population shards; the only "
                            "parallelism knob that affects output (default 1)")
    study.add_argument("--workers", type=int, default=1,
                       help="worker processes executing shards; never "
                            "affects output (default 1)")
    study.add_argument("--concurrency", type=int, default=1024,
                       metavar="N",
                       help="in-flight grabs admitted per event-loop batch "
                            "within each shard; execution-only, never "
                            "affects output (default 1024; see "
                            "docs/SCALING.md)")
    study.add_argument("--oracle", action="store_true",
                       help="run every grab as a record-layer exchange "
                            "(real records and crypto around the same "
                            "handshake decisions) instead of the fast "
                            "path, on the same event-loop sweep; output is "
                            "byte-identical, several times slower — the "
                            "reference for equivalence checks")
    study.add_argument("--telemetry-dir", default=None,
                       help="write a run manifest (grabs/sec, peak RSS) and "
                            "merged metrics here (must NOT be the dataset "
                            "directory; inspect with `repro stats`)")
    chaos = study.add_mutually_exclusive_group()
    chaos.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="inject a deterministic seeded fault schedule "
                            "(outages, latency spikes, handshake faults, "
                            "flapping backends, NXDOMAIN windows)")
    chaos.add_argument("--chaos-profile", default=None, metavar="FILE",
                       help="JSON repro-chaos/1 impairment profile "
                            "(see examples/chaos_profile.json)")
    study.add_argument("--retries", type=int, default=1, metavar="N",
                       action=_StudySetting,
                       help="connection attempts per grab with capped "
                            "exponential backoff on the virtual clock "
                            "(default 1 = never retry)")
    study.add_argument("--retry-budget", type=int, default=None, metavar="N",
                       action=_StudySetting,
                       help="cap total retries across the whole study "
                            "(default unlimited)")
    study.add_argument("--breaker-threshold", type=int, default=0, metavar="N",
                       action=_StudySetting,
                       help="open a per-domain circuit breaker after N "
                            "consecutive failed grabs (default 0 = disabled)")
    study.add_argument("--fail-fast", action="store_true",
                       help="abort the whole study on the first shard "
                            "failure instead of letting sibling shards "
                            "finish and checkpoint")
    study.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a killed study from DIR's checkpoint "
                            "and finish its dataset in DIR (config is "
                            "restored from the checkpoint; output is "
                            "byte-identical to an uninterrupted run)")
    study.add_argument("--serve-metrics", type=int, default=None,
                       metavar="PORT",
                       help="serve live /metrics (Prometheus), /progress, "
                            "/healthz, and /events on 127.0.0.1:PORT while "
                            "the study runs (0 picks a free port; watch "
                            "with `repro watch`)")
    study.add_argument("--events", default=None, metavar="FILE",
                       help="stream a structured repro-events/1 JSONL event "
                            "log to FILE (lifecycle, checkpoints, retries, "
                            "breaker trips, chaos injections; inspect with "
                            "`repro events`)")
    study.add_argument("--profile", action="store_true",
                       help="run each shard under cProfile with phase "
                            "timers and a slowest-grabs board, aggregated "
                            "into <telemetry-dir>/profile/ (requires "
                            "--telemetry-dir; surfaced by `repro stats`)")
    _add_ecosystem_arguments(study, action=_StudySetting)
    study.set_defaults(func=cmd_study, given_settings=())

    watch = sub.add_parser(
        "watch", help="follow a running --serve-metrics study, or "
                      "summarize a telemetry directory"
    )
    watch.add_argument("target",
                       help="base URL of a running study "
                            "(http://127.0.0.1:PORT) or a telemetry/"
                            "stream directory")
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="poll interval for URL targets (default 2)")
    watch.add_argument("--once", action="store_true",
                       help="print one status line and exit instead of "
                            "following until the study finishes")
    watch.set_defaults(func=cmd_watch)

    events = sub.add_parser(
        "events", help="inspect a repro-events/1 JSONL event log"
    )
    events.add_argument("file",
                        help="event log written by `repro study --events`")
    events.add_argument("--level", default="debug",
                        choices=("debug", "info", "warning", "error"),
                        help="minimum severity to print (default debug)")
    events.add_argument("--summary", action="store_true",
                        help="print per-event-type and per-level counts "
                             "instead of individual lines")
    events.add_argument("--validate", action="store_true",
                        help="check header/schema/sequence invariants; "
                             "nonzero exit if the log is malformed")
    events.set_defaults(func=cmd_events)

    stats = sub.add_parser(
        "stats", help="render a telemetry directory written by `repro study`"
    )
    stats.add_argument("telemetry",
                       help="telemetry directory (or manifest.json path)")
    stats.add_argument("--prometheus", action="store_true",
                       help="emit the Prometheus text exposition instead of "
                            "the human-readable report")
    stats.set_defaults(func=cmd_stats)

    def _add_analysis_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="analysis worker processes folding dataset "
                            "chunks; never affects output (default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the <dataset>/.analysis/ partial cache "
                            "(always re-fold every chunk)")

    report = sub.add_parser("report", help="render tables from a dataset")
    report.add_argument("dataset", help="directory written by `repro study`")
    report.add_argument("--min-days", type=int, default=7,
                        help="reuse-table threshold in days (default 7)")
    report.add_argument("--events", default=None, metavar="FILE",
                        help="append a provenance note summarizing the "
                             "producing run's event log (retries, chaos "
                             "injections, breaker trips)")
    _add_analysis_arguments(report)
    report.set_defaults(func=cmd_report)

    audit = sub.add_parser("audit", help="vulnerability windows + mitigations")
    audit.add_argument("dataset")
    audit.add_argument("--worst", type=int, default=0,
                       help="also list the N most exposed domains")
    _add_analysis_arguments(audit)
    audit.set_defaults(func=cmd_audit)

    bench = sub.add_parser("bench", help="primitive micro-benchmarks (ops/sec)")
    bench.add_argument("--quick", action="store_true",
                       help="short timing windows (CI smoke mode)")
    bench.add_argument("--out", default=None, help="write JSON report here")
    bench.set_defaults(func=cmd_bench)

    target = sub.add_parser("target", help="§7.2 nation-state target analysis")
    target.add_argument("domain", nargs="?", default="google.com")
    target.add_argument("--horizon-hours", type=float, default=48.0)
    _add_ecosystem_arguments(target)
    target.set_defaults(func=cmd_target)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.verbosity = _configure_logging(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Piped into `head` and the reader went away: not an error.
        # Point stdout at /dev/null so interpreter shutdown doesn't
        # raise again while flushing the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
