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
from ..obs.events import EVENTS
from ..obs.metrics import (
    METRICS,
    cache_stats,
    merge_snapshots,
    reset_process_caches,
)
from ..obs.profiling import (
    PROFILER,
    start_shard_profile,
    stop_shard_profile,
    write_profile_summary,
)
from ..obs.report import render_prometheus
from .checkpoint import CheckpointMismatch, CheckpointStore, checkpoint_fingerprint
from .datastore import concatenate_channels, open_channel_writers, write_meta
from .experiments import ExperimentRegistry, StudyContext, default_registry
from .grab import ZGrabber
from .records import CHANNELS

ShardProgress = Callable[[int, int, int, int], None]


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
    #: Structured events drained from this shard's process (see
    #: repro.obs.events) — empty unless the live plane's event log is on.
    events: list = field(default_factory=list)
    #: Profiling snapshot (phase timers, slowest grabs, pstats dump
    #: name) — empty unless the study ran with a profile_dir.
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
    progress: Optional[Callable[[int, int], None]] = None,
    live_push: Optional[Callable[[int, int, int, dict], None]] = None,
    events: bool = False,
    profile_dir: Optional[str] = None,
) -> ShardResult:
    """Run every registered experiment over shard ``shard_id`` of
    ``config.shards``.

    This is the whole study when ``config.shards == 1``.  Records stream
    to per-channel JSONL files in ``stream_dir``.  The caller
    owns ecosystem/shard pairing: ``ecosystem`` must be a fresh view for
    this shard (the engine builds one per shard when ``shards > 1``).

    Hooks, all diagnostics-only (never output-affecting):
    ``progress(day, days)`` fires before each study day;
    ``live_push(day, days, day_grabs, metrics_delta)`` fires after each
    study day; ``events`` buffers structured events into the returned
    result; ``profile_dir`` runs the shard under cProfile and fills
    ``ShardResult.profile``.
    """
    registry = registry if registry is not None else default_registry(config)
    shard_count = config.shards
    # Start every shard from cold value-keyed caches so cache hit/miss
    # counters are a function of the shard alone, not of which shards
    # this process happened to run earlier (workers=1 reuses one
    # process; workers=N does not).  Output-safe: the caches are keyed
    # by value, so clearing only costs recomputation.
    reset_process_caches()
    if events:
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
        concurrency=config.concurrency,
    )
    ctx.meta["day0_list"] = ecosystem.alexa_list(0)
    ranks = ctx.meta.setdefault("ranks", {})

    schedules = [(experiment, experiment.schedule(config)) for experiment in registry]
    for day in range(config.days):
        day_started = time.perf_counter()
        day_grabs_start = grabber.grabs
        day_start = day * DAY
        if ecosystem.clock.now() < day_start:
            with PROFILER.phase("ecosystem.advance"):
                ecosystem.advance_to(day_start)
        if progress is not None:
            progress(day, config.days)

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
            grabs_before = grabber.grabs
            with PROFILER.phase(f"experiment.{experiment.name}"):
                experiment.run_day(ctx, day)
            day_grabs = grabber.grabs - grabs_before
            stats.scans_by_experiment[experiment.name] = (
                stats.scans_by_experiment.get(experiment.name, 0) + day_grabs
            )
            METRICS.counter(
                "experiment.grabs", experiment=experiment.name
            ).inc(day_grabs)
        day_seconds.append(round(time.perf_counter() - day_started, 6))
        day_total_grabs = grabber.grabs - day_grabs_start
        if events:
            EVENTS.emit(
                "shard.day", shard=shard_id, day=day, days=config.days,
                grabs=day_total_grabs, seconds=day_seconds[-1],
            )
        if live_push is not None:
            # Diagnostics-only: the delta feeds the parent's live
            # gauges; the merged output still comes from the full-run
            # delta below, so pushes never affect final metrics.
            delta = METRICS.snapshot_delta(push_base)
            push_base = METRICS.snapshot()
            live_push(day, config.days, day_total_grabs, delta)

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

    stats.grabs = grabber.grabs
    stats.records_by_channel = sink.counts()
    sink.close()
    pstats_name = stop_shard_profile(profile_handle, profile_dir, shard_id)
    profile: dict = {}
    if profile_dir is not None:
        PROFILER.disable()
        profile = PROFILER.snapshot()
        if pstats_name is not None:
            profile["pstats"] = pstats_name
    if events:
        EVENTS.emit(
            "shard.end", shard=shard_id, grabs=stats.grabs,
            retries=grabber.retries,
        )
    shard_events = EVENTS.drain() if events else []
    if events:
        EVENTS.disable()
    return ShardResult(
        shard_id=shard_id,
        shard_count=shard_count,
        stream_subdir=stream_dir,
        meta=ctx.meta,
        stats=stats,
        metrics=METRICS.snapshot_delta(metrics_base),
        day_seconds=day_seconds,
        elapsed_seconds=round(time.perf_counter() - shard_started, 6),
        events=shard_events,
        profile=profile,
    )


def _shard_worker(args) -> ShardResult:
    """Process-pool entry point: rebuild the shard's view, run it.

    Rebuilding from ``EcosystemConfig`` (rather than pickling a live
    ecosystem) keeps the task payload tiny and guarantees every shard's
    view is the same deterministic function of the seed.  ``spool_dir``
    carries the live plane's push protocol across the process boundary
    (see :class:`repro.obs.exporter.SpoolPush`).
    """
    from ..hosting import build_ecosystem

    (
        ecosystem_config, study_config, shard_id, stream_dir,
        spool_dir, events, profile_dir,
    ) = args
    live_push = None
    if spool_dir is not None:
        from ..obs.exporter import SpoolPush

        live_push = SpoolPush(spool_dir, shard_id).push
    ecosystem = build_ecosystem(ecosystem_config)
    return run_shard(
        ecosystem,
        study_config,
        shard_id=shard_id,
        stream_dir=stream_dir,
        live_push=live_push,
        events=events,
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
        shard_progress: Optional[ShardProgress] = None,
        telemetry_dir: Optional[str] = None,
        resume: bool = False,
        fail_fast: bool = False,
        live=None,
        profile_dir: Optional[str] = None,
    ):
        """Run the study; returns ``(StudyDataset, StudyStats)``.

        The config's ``shards`` partitions the population
        (output-affecting); ``workers`` only parallelizes shard
        execution.  Records stream to JSONL as they are produced, into
        ``stream_dir`` or, when it is None, into a private temporary
        directory that the returned dataset owns and that is removed
        when the dataset is garbage collected; the dataset holds lazy
        views over that directory.
        ``shard_progress(shard_id, shards, day, days)`` fires before each
        study day of a shard run in this process, and with
        ``day == days`` when any shard completes.
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
        anything with its hook surface): the engine feeds it study /
        shard / day completions and metric deltas while running.  The
        caller owns the plane's lifecycle (start/stop) — on
        :class:`StudyAborted` the caller should invoke
        ``live.study_aborted``.  ``profile_dir`` runs every shard under
        cProfile and aggregates the dumps there after the merge.  Both
        are diagnostics-only: dataset bytes are identical with them on
        or off.
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
        private = config.stream_dir is None
        stream_dir = (
            tempfile.mkdtemp(prefix="repro-study-") if private
            else config.stream_dir
        )
        store = CheckpointStore(stream_dir)
        try:
            completed: dict[int, ShardResult] = {}
            fingerprint = checkpoint_fingerprint(
                config, getattr(ecosystem, "config", None)
            )
            if resume:
                if not store.exists():
                    raise CheckpointMismatch(
                        f"no checkpoint under {store.directory}; nothing to resume"
                    )
                store.validate(fingerprint)
                completed = store.load_completed()
            else:
                store.reset(fingerprint)
            todo = [
                shard_id for shard_id in range(config.shards)
                if shard_id not in completed
            ]

            if live is not None:
                live.study_started(
                    shards=config.shards, days=config.days,
                    workers=config.workers, resumed=bool(completed),
                )
                for shard_id in sorted(completed):
                    live.record_shard(completed[shard_id], restored=True)
            events = live is not None and live.events_enabled

            results, failures = self._run_shards(
                ecosystem, todo, store, shard_progress, fail_fast=fail_fast,
                live=live, events=events, profile_dir=profile_dir,
            )
            if failures:
                # A private directory is removed below, so nothing in it
                # can be resumed.
                raise self._aborted(
                    results, failures, None if private else store
                ) from failures[0][1]
            results += completed.values()
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
        if profile_dir is not None:
            ordered = sorted(results, key=lambda r: r.shard_id)
            write_profile_summary(
                profile_dir, [result.profile for result in ordered]
            )
        if live is not None:
            live.study_finished(stats)
        if telemetry_dir is not None:
            self._write_telemetry(telemetry_dir, ecosystem, results, stats)
        return dataset, stats

    # -- shard execution ---------------------------------------------------

    def _run_shards(
        self,
        ecosystem: Ecosystem,
        todo: list[int],
        store: CheckpointStore,
        shard_progress: Optional[ShardProgress],
        fail_fast: bool = False,
        live=None,
        events: bool = False,
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
            store.save_shard(result)
            results.append(result)
            pending.set(len(todo) - len(results) - len(failures))
            if live is not None:
                live.record_shard(result, checkpointed=True)
            if shard_progress is not None:
                shard_progress(result.shard_id, shards, config.days, config.days)

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
                        progress=(
                            functools.partial(shard_progress, shard_id, shards)
                            if shard_progress is not None else None
                        ),
                        live_push=(
                            functools.partial(live.day_completed, shard_id)
                            if live is not None else None
                        ),
                        events=events,
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
                        subdir(shard_id), spool_dir, events, profile_dir,
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
    #: section (each contributes ``<name>.{hit,miss[,eviction]}``).
    CACHE_FAMILIES = (
        "crypto.aes.key_cache",
        "crypto.aes.stek_cipher",
        "crypto.ec.shared_memo",
        "tls.kex.params_cache",
        "x509.sig_memo",
    )

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
    ) -> None:
        """Write manifest.json / metrics.json / metrics.prom."""
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
