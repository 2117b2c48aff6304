"""The sharded, streaming scan engine.

:class:`StudyEngine` drives an :class:`ExperimentRegistry` over the
simulated study timeline.  The population is partitioned into
``shards`` deterministic shards (stable domain-name hash, see
:func:`repro.scanner.experiments.shard_of`); each shard runs the full
timeline against its *own* ecosystem view with its own
:class:`DeterministicRandom` fork keyed by ``(seed, shard_id)``, scans
only the domains it owns, and streams its records straight to JSONL
under the study's stream directory (``stream_dir``, or a private
temporary directory the returned dataset owns).

The merge step concatenates per-shard record streams in shard order,
so the merged output is **bit-for-bit identical** regardless of
``workers`` — one process running shards serially and a process pool
running them concurrently produce the same bytes.  ``workers`` is pure
execution parallelism; ``shards`` is the only knob that affects
output.  Every execution setting (``shards``, ``workers``,
``stream_dir``, ``concurrency``, ``oracle``) is read from the study
config.  With ``shards=1`` the one shard scans the caller's ecosystem;
otherwise each shard gets a freshly built view.

Why per-shard ecosystem views reproduce a coherent study: the
ecosystem's own evolution (list churn, STEK rotation schedules, DNS)
is driven by its internal seeded RNGs and virtual time, independent of
scan traffic, so every shard's view agrees on the population and on
view-independent metadata.  Scan-dependent server state (issued
tickets, cached sessions) only matters for the domains a shard
actually scans — and each domain is scanned by exactly one shard on
every study day.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto.rng import DeterministicRandom
from ..faults.inject import install_chaos
from ..faults.plan import ImpairmentPlan
from ..hosting.ecosystem import Ecosystem
from ..netsim.clock import DAY
from ..obs import manifest as obs_manifest
from ..obs.events import EVENTS, event_record
from ..obs.metrics import METRICS, cache_stats, merge_snapshots
from ..obs.profiling import (
    PROFILER,
    profile_summary,
    start_shard_profile,
    stop_shard_profile,
)
from ..obs.report import render_prometheus
from .checkpoint import CheckpointMismatch, CheckpointStore, checkpoint_fingerprint
from .datastore import concatenate_channels, open_channel_writers, write_meta
from .experiments import ExperimentRegistry, StudyContext, default_registry
from .grab import ZGrabber
from .records import CHANNELS

#: Every grab attempt, breaker skips included: the shard's per-day and
#: per-experiment grab counts are deltas of this one counter.
_GRAB_ATTEMPT = METRICS.counter("scanner.grab.attempt")


class StudyAborted(RuntimeError):
    """A study stopped before the merge (shard failure or kill switch).

    ``checkpoint_dir`` (unless the run streamed to a private temporary
    directory) points at the partial checkpoint so the caller can
    surface ``--resume``.
    """

    def __init__(
        self,
        message: str,
        *,
        checkpoint_dir: Optional[str] = None,
        completed_shards: tuple = (),
        failed_shards: tuple = (),
    ) -> None:
        super().__init__(message)
        self.checkpoint_dir = checkpoint_dir
        self.completed_shards = list(completed_shards)
        self.failed_shards = list(failed_shards)


@dataclass
class StudyStats:
    """Observability summary returned alongside a study dataset."""

    days: int
    shards: int
    workers: int
    grabs: int = 0
    scans_by_experiment: dict[str, int] = field(default_factory=dict)
    records_by_channel: dict[str, int] = field(default_factory=dict)
    # Wall-clock of the whole run (including shard merge), stamped by
    # StudyEngine.run; benchmarks report grabs/elapsed_seconds.  Not
    # merged: per-shard elapsed times overlap under workers > 1.
    elapsed_seconds: float = 0.0

    @property
    def grabs_per_sec(self) -> float:
        return self.grabs / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def merge(self, other: "StudyStats") -> None:
        self.grabs += other.grabs
        for name, count in other.scans_by_experiment.items():
            self.scans_by_experiment[name] = (
                self.scans_by_experiment.get(name, 0) + count
            )
        for name, count in other.records_by_channel.items():
            self.records_by_channel[name] = (
                self.records_by_channel.get(name, 0) + count
            )

    def render(self) -> str:
        lines = [
            f"study stats: {self.grabs:,} TLS grabs over {self.days} days "
            f"({self.shards} shard{'s' if self.shards != 1 else ''}, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''})",
        ]
        if self.elapsed_seconds > 0:
            lines.append(
                f"  elapsed {self.elapsed_seconds:.2f}s "
                f"({self.grabs_per_sec:,.1f} grabs/s)"
            )
        width = max((len(n) for n in self.scans_by_experiment), default=0)
        for name, count in self.scans_by_experiment.items():
            lines.append(f"  {name:<{width}}  {count:>10,} grabs")
        return "\n".join(lines)


@dataclass
class ShardResult:
    """Everything one shard's run produced, ready to merge."""

    shard_id: int
    shard_count: int
    stream_subdir: str
    meta: dict
    stats: StudyStats
    #: Metrics delta for *this shard's* activity only (see
    #: MetricsRegistry.snapshot_delta) — merged in shard order by the
    #: engine so the totals are worker-count independent.
    metrics: dict = field(default_factory=dict)
    #: Wall-clock seconds per study day (len == config.days).
    day_seconds: list = field(default_factory=list)
    #: Wall-clock of the whole shard run.
    elapsed_seconds: float = 0.0
    #: Profiling snapshot (phase timers, slowest grabs, pstats dump
    #: name) — empty unless the study ran with ``profile``.
    profile: dict = field(default_factory=dict)


class _StreamingSink:
    """Spills records to per-channel JSONL append writers as produced."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.writers = open_channel_writers(directory)

    def emit(self, channel: str, records) -> int:
        return self.writers[channel].append_many(records)

    def counts(self) -> dict[str, int]:
        return {name: writer.count for name, writer in self.writers.items()}

    def close(self) -> None:
        for writer in self.writers.values():
            writer.close()


def run_shard(
    ecosystem: Ecosystem,
    config,
    shard_id: int,
    stream_dir: str,
    registry: Optional[ExperimentRegistry] = None,
    push: Optional[Callable[[list, dict], None]] = None,
    profile_dir: Optional[str] = None,
) -> ShardResult:
    """Run every registered experiment over shard ``shard_id`` of
    ``config.shards``.

    This is the whole study when ``config.shards == 1``.  Records stream
    to per-channel JSONL files in ``stream_dir``.  The caller
    owns ecosystem/shard pairing: ``ecosystem`` must be a fresh view for
    this shard (the engine builds one per shard when ``shards > 1``).

    Hooks, all diagnostics-only (never output-affecting): ``push``
    turns the event log (:data:`~repro.obs.events.EVENTS`) on and is
    the shard's one report to an observer.  Each study day ends with
    ``push(events, metrics_delta)``: the day's records, ending in its
    ``shard.day``, and the metrics since the last push; the last push
    carries ``shard.end``.  ``profile_dir`` runs the shard under
    cProfile, dumps its stats there and fills ``ShardResult.profile``.
    A shard that raises still stops its profiler, turns the event log
    off and closes its channel files, so the next shard this process
    runs starts clean.
    """
    registry = registry if registry is not None else default_registry(config)
    shard_count = config.shards
    profile_handle = None
    sink = None
    try:
        if push is not None:
            EVENTS.enable()
            EVENTS.drain()  # discard leftovers from a reused process
            EVENTS.emit("shard.start", shard=shard_id, shards=shard_count)
        if profile_dir is not None:
            PROFILER.reset()
            PROFILER.enable()
        profile_handle = start_shard_profile(profile_dir)
        metrics_base = METRICS.snapshot()
        push_base = metrics_base
        shard_started = time.perf_counter()
        day_seconds: list = []
        if config.chaos:
            # Compiled per shard (plans are cheap); decisions are pure
            # hashes of (seed, window, target, time), so every shard sees
            # the same schedule regardless of worker or process layout.
            install_chaos(ecosystem, ImpairmentPlan.from_profile(config.chaos))
        rng = DeterministicRandom(config.seed)
        if shard_count > 1:
            rng = rng.fork(f"shard:{shard_id}/{shard_count}")
        # ``oracle`` runs every grab over the record-layer exchange instead
        # of the fast path (byte-identical output; see docs/SCALING.md).
        grabber = ZGrabber(
            ecosystem, rng.fork("grabber"), retry=config.retry,
            fast=not config.oracle,
        )
        sink = _StreamingSink(stream_dir)
        stats = StudyStats(days=config.days, shards=shard_count, workers=1)

        ctx = StudyContext(
            ecosystem=ecosystem,
            grabber=grabber,
            rng=rng,
            config=config,
            emit=sink.emit,
            shard_id=shard_id,
            shard_count=shard_count,
        )
        ctx.meta["day0_list"] = ecosystem.alexa_list(0)
        ranks = ctx.meta.setdefault("ranks", {})

        schedules = [(experiment, experiment.schedule(config)) for experiment in registry]
        for day in range(config.days):
            day_started = time.perf_counter()
            day_grabs_start = _GRAB_ATTEMPT.value
            day_start = day * DAY
            if ecosystem.clock.now() < day_start:
                with PROFILER.phase("ecosystem.advance"):
                    ecosystem.advance_to(day_start)

            full_list = ecosystem.alexa_list()
            ctx.full_list_size = len(full_list)
            ctx.today = [
                (rank, name) for rank, name in full_list
                if name not in ecosystem.blacklist
            ]
            for rank, name in ctx.today:
                ranks.setdefault(name, rank)
            if shard_count > 1:
                ctx.today_owned = [
                    (rank, name) for rank, name in ctx.today if ctx.owns(name)
                ]
            else:
                ctx.today_owned = ctx.today

            for experiment, scheduled_days in schedules:
                if day not in scheduled_days:
                    continue
                grabs_before = _GRAB_ATTEMPT.value
                with PROFILER.phase(f"experiment.{experiment.name}"):
                    experiment.run_day(ctx, day)
                day_grabs = _GRAB_ATTEMPT.value - grabs_before
                stats.scans_by_experiment[experiment.name] = (
                    stats.scans_by_experiment.get(experiment.name, 0) + day_grabs
                )
                METRICS.counter(
                    "experiment.grabs", experiment=experiment.name
                ).inc(day_grabs)
            day_seconds.append(round(time.perf_counter() - day_started, 6))
            if push is not None:
                EVENTS.emit(
                    "shard.day", shard=shard_id, day=day, days=config.days,
                    grabs=_GRAB_ATTEMPT.value - day_grabs_start,
                    seconds=day_seconds[-1],
                )
                # Diagnostics-only: the delta feeds the parent's live
                # gauges; the merged output still comes from the full-run
                # delta below, so pushes never affect final metrics.
                delta = METRICS.snapshot_delta(push_base)
                push_base = METRICS.snapshot()
                push(EVENTS.drain(), delta)

        with PROFILER.phase("finalize"):
            for experiment in registry:
                experiment.finalize(ctx)

        # End-of-study, view-independent metadata (identical in every shard).
        as_names = {}
        for autonomous_system in ecosystem.as_registry.all_systems():
            as_names[autonomous_system.asn] = autonomous_system.name
        ctx.meta["as_names"] = as_names
        if not ctx.meta.get("domain_asn"):
            with PROFILER.phase("metadata"):
                domain_asn = ctx.meta.setdefault("domain_asn", {})
                domain_ip = ctx.meta.setdefault("domain_ip", {})
                for rank, name in ecosystem.alexa_list():
                    try:
                        addresses = ecosystem.dns.resolve_all(name)
                    except KeyError:
                        continue
                    autonomous_system = ecosystem.as_registry.lookup(addresses[0])
                    if autonomous_system is not None:
                        domain_asn[name] = autonomous_system.asn
                    domain_ip[name] = str(addresses[0])
        # A probe scheduled late in the study may run past the nominal end;
        # only advance if the clock is still behind it.
        if ecosystem.clock.now() < config.days * DAY:
            ecosystem.advance_to(config.days * DAY)
        ctx.meta["always_present"] = [
            d.name for d in ecosystem.always_present_domains(config.days - 1)
        ]

        metrics = METRICS.snapshot_delta(metrics_base)
        counters = metrics["counters"]
        stats.grabs = counters.get("scanner.grab.attempt", 0)
        stats.records_by_channel = sink.counts()
        pstats_name = stop_shard_profile(profile_handle, profile_dir, shard_id)
        profile: dict = {}
        if profile_dir is not None:
            PROFILER.disable()
            profile = PROFILER.snapshot()
            if pstats_name is not None:
                profile["pstats"] = pstats_name
        if push is not None:
            retries = sum(value for key, value in counters.items()
                          if key.startswith("scanner.grab.retry{"))
            EVENTS.emit(
                "shard.end", shard=shard_id, grabs=stats.grabs, retries=retries,
            )
            push(EVENTS.drain(), METRICS.snapshot_delta(push_base))
        return ShardResult(
            shard_id=shard_id,
            shard_count=shard_count,
            stream_subdir=stream_dir,
            meta=ctx.meta,
            stats=stats,
            metrics=metrics,
            day_seconds=day_seconds,
            elapsed_seconds=round(time.perf_counter() - shard_started, 6),
            profile=profile,
        )
    finally:
        # Returned or raised, the shard leaves no process-wide state
        # behind: the next shard in this process starts its own profile
        # and event log.
        if profile_handle is not None:
            profile_handle.disable()
        if profile_dir is not None:
            PROFILER.disable()
        if push is not None:
            EVENTS.disable()
            EVENTS.drain()
        if sink is not None:
            sink.close()


def _shard_worker(args) -> ShardResult:
    """Process-pool entry point: rebuild the shard's view, run it.

    Rebuilding from ``EcosystemConfig`` (rather than pickling a live
    ecosystem) keeps the task payload tiny and guarantees every shard's
    view is the same deterministic function of the seed.  ``spool_dir``
    carries the shard's pushes across the process boundary (see
    :class:`repro.obs.exporter.SpoolPush`).
    """
    from ..hosting import build_ecosystem

    (
        ecosystem_config, study_config, shard_id, stream_dir,
        spool_dir, profile_dir,
    ) = args
    push = None
    if spool_dir is not None:
        from ..obs.exporter import SpoolPush

        push = SpoolPush(spool_dir, shard_id).push
    ecosystem = build_ecosystem(ecosystem_config)
    return run_shard(
        ecosystem,
        study_config,
        shard_id=shard_id,
        stream_dir=stream_dir,
        push=push,
        profile_dir=profile_dir,
    )


class StudyEngine:
    """Drives a registry of experiments over shards and merges results."""

    def __init__(
        self,
        config,
        registry: Optional[ExperimentRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry

    # -- public API --------------------------------------------------------

    def run(
        self,
        ecosystem: Ecosystem,
        telemetry_dir: Optional[str] = None,
        resume: bool = False,
        fail_fast: bool = False,
        live=None,
        profile: bool = False,
    ):
        """Run the study; returns ``(StudyDataset, StudyStats)``.

        The config's ``shards`` partitions the population
        (output-affecting); ``workers`` only parallelizes shard
        execution.  Records stream to JSONL as they are produced, into
        ``stream_dir`` or, when it is None, into a private temporary
        directory that the returned dataset owns and that is removed
        when the dataset is garbage collected; the dataset holds lazy
        views over that directory.
        ``telemetry_dir`` writes a run manifest (with the run's peak
        RSS), merged metrics snapshot and Prometheus exposition there
        after the merge.  Telemetry never touches the dataset: pass a
        directory *outside* ``stream_dir``.

        Each completed shard is checkpointed under
        ``<stream_dir>/checkpoint/`` (see :mod:`.checkpoint`);
        ``resume=True`` re-executes only the shards the checkpoint is
        missing, after verifying the stored configuration fingerprint.
        Because shards are pure functions of (config, shard_id), a
        resumed run's merged dataset is byte-identical to an
        uninterrupted one, and the merge removes the checkpoint so the
        finished directory carries no trace of the interruption.  On a
        shard failure the engine raises :class:`StudyAborted` carrying
        the checkpoint path (None for a private directory, which is
        removed); ``fail_fast`` stops dispatching new shards
        immediately instead of letting siblings finish and checkpoint.

        ``live`` accepts a :class:`repro.obs.exporter.LivePlane` (or
        anything with its ``take``/``shard_events`` surface), the one
        observer of a running study, and turns the event log on: the
        engine hands it one stream of event records — ``study.start``,
        each shard's per-day pushes with their metric deltas, the
        ``checkpoint.write``/``checkpoint.restored`` that closes each
        shard, then ``study.merge`` + ``study.end`` or, before raising
        :class:`StudyAborted`, ``study.abort``.  Each checkpoint stores
        its shard's records from the plane, so a resumed run replays
        them.  The caller owns the plane's lifecycle (start/stop).
        ``profile`` runs every
        shard under cProfile, dumps the stats under
        ``<telemetry_dir>/profile/`` and merges the summary into the
        manifest's ``profile`` section; it needs ``telemetry_dir``.
        Both are diagnostics-only: dataset bytes are identical with
        them on or off.
        """
        run_start = time.perf_counter()
        config = self.config
        if telemetry_dir is not None and config.stream_dir is not None and (
            os.path.abspath(telemetry_dir) == os.path.abspath(config.stream_dir)
        ):
            raise ValueError(
                "telemetry_dir must not be the dataset stream_dir "
                "(telemetry lives next to the dataset, not inside it)"
            )
        if profile and telemetry_dir is None:
            raise ValueError(
                "profile needs a telemetry_dir (the dumps land under "
                "<telemetry_dir>/profile/ and the summary in its manifest)"
            )
        profile_dir = (
            os.path.join(telemetry_dir, "profile") if profile else None
        )
        private = config.stream_dir is None
        stream_dir = (
            tempfile.mkdtemp(prefix="repro-study-") if private
            else config.stream_dir
        )
        store = CheckpointStore(stream_dir)
        try:
            restored: dict[int, tuple[ShardResult, list]] = {}
            fingerprint = checkpoint_fingerprint(
                config, getattr(ecosystem, "config", None)
            )
            if resume:
                if not store.exists():
                    raise CheckpointMismatch(
                        f"no checkpoint under {store.directory}; nothing to resume"
                    )
                store.validate(fingerprint)
                restored = store.load_completed()
            else:
                store.reset(fingerprint)
            todo = [
                shard_id for shard_id in range(config.shards)
                if shard_id not in restored
            ]

            if live is not None:
                live.take([event_record(
                    "study.start", shards=config.shards, days=config.days,
                    workers=config.workers, resumed=bool(restored),
                )])
            completed: list[ShardResult] = []
            for shard_id in sorted(restored):
                result, events = restored.pop(shard_id)
                completed.append(result)
                if live is not None:
                    live.take([*events, event_record(
                        "checkpoint.restored", shard=shard_id,
                    )], shard=shard_id)

            results, failures = self._run_shards(
                ecosystem, todo, store, fail_fast=fail_fast,
                live=live, profile_dir=profile_dir,
            )
            if failures:
                # A private directory is removed below, so nothing in it
                # can be resumed.
                aborted = self._aborted(
                    results, failures, None if private else store
                )
                if live is not None:
                    live.take([event_record(
                        "study.abort", level="error", message=str(aborted),
                    )])
                raise aborted from failures[0][1]
            results += completed
            dataset, stats = self._merge(results, stream_dir)
            store.clear()
        except BaseException:
            if private:
                shutil.rmtree(stream_dir, ignore_errors=True)
            raise
        if private:
            for name in CHANNELS:
                getattr(dataset, name).owner = dataset
            weakref.finalize(dataset, shutil.rmtree, stream_dir, True)
        stats.elapsed_seconds = time.perf_counter() - run_start
        if live is not None:
            live.take([
                event_record(
                    "study.merge", grabs=stats.grabs, shards=stats.shards,
                ),
                event_record(
                    "study.end", grabs=stats.grabs,
                    elapsed_s=round(stats.elapsed_seconds, 3),
                ),
            ])
        if telemetry_dir is not None:
            self._write_telemetry(
                telemetry_dir, ecosystem, results, stats, profile_dir
            )
        return dataset, stats

    # -- shard execution ---------------------------------------------------

    def _run_shards(
        self,
        ecosystem: Ecosystem,
        todo: list[int],
        store: CheckpointStore,
        fail_fast: bool = False,
        live=None,
        profile_dir: Optional[str] = None,
    ) -> tuple[list[ShardResult], list[tuple[int, BaseException]]]:
        """Execute the shards in ``todo``, checkpointing each completed
        shard as it lands; returns the results and the failures.  The
        shards run one after another in this process unless two or more
        can run at once (``workers`` and ``todo`` both above one), which
        takes a process pool.  Without ``fail_fast`` sibling shards still
        finish (and checkpoint) after a failure, so a later ``--resume``
        only repeats the broken shard."""
        config = self.config
        shards = config.shards
        pending = METRICS.gauge("engine.pending_shards")
        pending.set(len(todo))

        def subdir(shard_id: int) -> str:
            return os.path.join(store.stream_dir, "shards", f"{shard_id:02d}")

        results: list[ShardResult] = []
        failures: list[tuple[int, BaseException]] = []

        def record(result: ShardResult) -> None:
            shard_id = result.shard_id
            store.save_shard(
                result, live.shard_events(shard_id) if live is not None else ()
            )
            results.append(result)
            pending.set(len(todo) - len(results) - len(failures))
            if live is not None:
                live.take([event_record("checkpoint.write", shard=shard_id)],
                          shard=shard_id)

        if min(config.workers, len(todo)) <= 1:
            from ..hosting import build_ecosystem

            for shard_id in todo:
                # A single shard scans the caller's ecosystem (so callers
                # can read its ground truth afterwards); several shards
                # each scan a fresh view.
                view = (
                    ecosystem if shards == 1
                    else build_ecosystem(ecosystem.config)
                )
                try:
                    result = run_shard(
                        view,
                        config,
                        shard_id=shard_id,
                        stream_dir=subdir(shard_id),
                        registry=self.registry,
                        push=(
                            functools.partial(live.take, shard=shard_id)
                            if live is not None else None
                        ),
                        profile_dir=profile_dir,
                    )
                except Exception as exc:
                    failures.append((shard_id, exc))
                    if fail_fast:
                        break
                    continue
                record(result)
            return results, failures

        if self.registry is not None:
            raise ValueError(
                "custom experiment registries are not picklable across "
                "worker processes; run with workers=1 or register via "
                "default_registry"
            )
        spool_dir: Optional[str] = None
        poller = None
        if live is not None:
            from ..obs.exporter import SpoolPoller

            spool_dir = tempfile.mkdtemp(prefix="repro-obs-spool-")
            poller = SpoolPoller(spool_dir, live)
            poller.start()
        try:
            with ProcessPoolExecutor(
                max_workers=min(config.workers, len(todo))
            ) as pool:
                futures = {
                    pool.submit(_shard_worker, (
                        ecosystem.config, config, shard_id,
                        subdir(shard_id), spool_dir, profile_dir,
                    )): shard_id
                    for shard_id in todo
                }
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        exc = future.exception()
                        if exc is not None:
                            failures.append((futures[future], exc))
                            if fail_fast:
                                for leftover in outstanding:
                                    leftover.cancel()
                                outstanding = set()
                            continue
                        if poller is not None:
                            # The worker's last push landed before it
                            # returned: take it before the checkpoint.
                            poller.drain()
                        record(future.result())
        finally:
            if poller is not None:
                poller.stop()  # final drain included
            if spool_dir is not None:
                shutil.rmtree(spool_dir, ignore_errors=True)
        return results, failures

    @staticmethod
    def _aborted(
        results: list[ShardResult],
        failures: list[tuple[int, BaseException]],
        store: Optional[CheckpointStore],
    ) -> StudyAborted:
        """The :class:`StudyAborted` for ``failures``; ``store`` is the
        checkpoint a later resume can use (None when nothing is kept)."""
        failed_ids = sorted(shard_id for shard_id, _ in failures)
        causes = "; ".join(
            f"shard {shard_id}: {exc}" for shard_id, exc in failures
        )
        checkpoint_dir = store.directory if store is not None else None
        kept = (
            f"{len(store.completed_shards())} shard(s) checkpointed under "
            f"{checkpoint_dir}" if store is not None
            else "no stream_dir, so nothing was checkpointed"
        )
        return StudyAborted(
            f"study aborted: {len(failed_ids)} shard(s) failed ({causes}); "
            f"{kept}",
            checkpoint_dir=checkpoint_dir,
            completed_shards=tuple(sorted(r.shard_id for r in results)),
            failed_shards=tuple(failed_ids),
        )

    # -- merge -------------------------------------------------------------

    def _merge(self, results: list[ShardResult], stream_dir: str):
        """Concatenate the shards' channel files into ``stream_dir`` in
        shard order, write its ``meta.json`` and load the dataset."""
        from .study import StudyDataset, load_dataset

        config = self.config
        results = sorted(results, key=lambda r: r.shard_id)
        stats = StudyStats(
            days=config.days, shards=config.shards, workers=config.workers
        )
        for result in results:
            stats.merge(result.stats)

        concatenate_channels([r.stream_subdir for r in results], stream_dir)
        shutil.rmtree(os.path.join(stream_dir, "shards"), ignore_errors=True)
        # View-independent fields agree across shards; the ones a study
        # schedule skipped keep the dataset's defaults.
        shard_meta = results[0].meta
        meta = StudyDataset(days=config.days).meta()
        meta.update((name, shard_meta[name]) for name in meta if name in shard_meta)
        write_meta(stream_dir, meta)
        return load_dataset(stream_dir), stats

    # -- telemetry ---------------------------------------------------------

    #: Cache metric families summarized in the manifest's ``caches``
    #: section (each contributes ``<name>.{hit,miss}``).
    CACHE_FAMILIES = ("crypto.aes.stek_cipher", "x509.sig_memo")

    def merged_metrics(self, results: list[ShardResult]) -> dict:
        """Merge per-shard metric deltas in shard order (deterministic)."""
        ordered = sorted(results, key=lambda r: r.shard_id)
        merged = merge_snapshots(r.metrics for r in ordered)
        # Engine-level gauges live in *this* process; overlay their
        # final readings so the exported snapshot doesn't depend on
        # which process happened to run which shard.
        parent = METRICS.snapshot()
        for key, value in parent["gauges"].items():
            if key.startswith("engine."):
                merged["gauges"][key] = value
        merged["gauges"] = dict(sorted(merged["gauges"].items()))
        return merged

    def _write_telemetry(
        self,
        telemetry_dir: str,
        ecosystem: Ecosystem,
        results: list[ShardResult],
        stats: StudyStats,
        profile_dir: Optional[str] = None,
    ) -> None:
        """Write manifest.json / metrics.json / metrics.prom; with a
        ``profile_dir`` the manifest carries the merged profile too."""
        config = self.config
        ordered = sorted(results, key=lambda r: r.shard_id)
        merged = self.merged_metrics(ordered)

        counters = merged["counters"]
        failures = sum(
            value for key, value in counters.items()
            if key.startswith("scanner.grab.failure")
        )
        caches = {}
        for family in self.CACHE_FAMILIES:
            summary = cache_stats(merged, family)
            if summary is not None:
                caches[family] = summary

        manifest = obs_manifest.build_manifest(
            study_config=config,
            ecosystem_config=getattr(ecosystem, "config", None),
            run={
                "days": config.days,
                "shards": stats.shards,
                "workers": stats.workers,
                "grabs": stats.grabs,
                "failures": failures,
                "elapsed_seconds": round(stats.elapsed_seconds, 3),
                "grabs_per_sec": round(stats.grabs_per_sec, 1),
                "peak_rss_mib": obs_manifest.peak_rss_mib(),
            },
            shards=[
                {
                    "shard_id": result.shard_id,
                    "elapsed_seconds": result.elapsed_seconds,
                    "day_seconds": result.day_seconds,
                    "grabs": result.stats.grabs,
                }
                for result in ordered
            ],
            experiments=dict(stats.scans_by_experiment),
            channels={
                name: count
                for name, count in stats.records_by_channel.items()
                if count
            },
            caches=caches,
            profile=(
                profile_summary(profile_dir, [r.profile for r in ordered])
                if profile_dir is not None else None
            ),
        )
        obs_manifest.write_manifest(telemetry_dir, manifest)
        obs_manifest.write_metrics(telemetry_dir, merged)
        with open(
            os.path.join(telemetry_dir, obs_manifest.PROMETHEUS_NAME),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write(render_prometheus(merged))


__all__ = [
    "StudyEngine",
    "StudyStats",
    "StudyAborted",
    "ShardResult",
    "run_shard",
]
