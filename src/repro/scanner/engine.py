"""The sharded, streaming scan engine.

:class:`StudyEngine` drives an :class:`ExperimentRegistry` over the
simulated study timeline.  The population is partitioned into
``shards`` deterministic shards (stable domain-name hash, see
:func:`repro.scanner.experiments.shard_of`); each shard runs the full
timeline against its *own* ecosystem view with its own
:class:`DeterministicRandom` fork keyed by ``(seed, shard_id)``, scans
only the domains it owns, and either accumulates records in memory or
streams them straight to JSONL (``stream_dir``).

The merge step concatenates per-shard record streams in shard order,
so the merged output is **bit-for-bit identical** regardless of
``workers`` — one process running shards serially and a process pool
running them concurrently produce the same bytes.  ``workers`` is pure
execution parallelism; ``shards`` is the only knob that affects
output.  With ``shards=1`` the engine runs the registry against the
caller's ecosystem on the legacy single-stream path.

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

import os
import shutil
import time
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
from .datastore import (
    concatenate_channels,
    open_channel_views,
    open_channel_writers,
    write_meta,
)
from .experiments import ExperimentRegistry, StudyContext, default_registry
from .grab import ZGrabber
from .records import CHANNELS

ShardProgress = Callable[[int, int, int, int], None]


class StudyAborted(RuntimeError):
    """A study stopped before the merge (shard failure or kill switch).

    ``checkpoint_dir`` (when the run streamed to disk) points at the
    partial checkpoint so the caller can surface ``--resume``.
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
    channels: Optional[dict[str, list]]    # None when streamed to disk
    stream_subdir: Optional[str]
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


class _MemorySink:
    """Accumulates records per channel in plain lists."""

    def __init__(self) -> None:
        self.channels: dict[str, list] = {name: [] for name in CHANNELS}

    def emit(self, channel: str, records) -> int:
        bucket = self.channels[channel]
        before = len(bucket)
        bucket.extend(records)
        return len(bucket) - before

    def counts(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self.channels.items()}

    def close(self) -> None:
        pass


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
    shard_id: int = 0,
    shard_count: int = 1,
    stream_dir: Optional[str] = None,
    registry: Optional[ExperimentRegistry] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    live_push: Optional[Callable[[int, int, int, dict], None]] = None,
    events: bool = False,
    profile_dir: Optional[str] = None,
) -> ShardResult:
    """Run every registered experiment over one shard's timeline.

    This is the whole study when ``shard_count == 1``.  The caller owns
    ecosystem/shard pairing: ``ecosystem`` must be a fresh view for
    this shard (the engine rebuilds views per shard; see
    :func:`_shard_worker`).

    Live-plane hooks, all diagnostics-only (never output-affecting):
    ``live_push(day, days, day_grabs, metrics_delta)`` fires after each
    study day; ``events`` buffers structured events into the returned
    result; ``profile_dir`` runs the shard under cProfile and fills
    ``ShardResult.profile``.
    """
    registry = registry if registry is not None else default_registry(config)
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
    chaos = getattr(config, "chaos", None)
    if chaos:
        # Compiled per shard (plans are cheap); decisions are pure
        # hashes of (seed, window, target, time), so every shard sees
        # the same schedule regardless of worker or process layout.
        install_chaos(ecosystem, ImpairmentPlan.from_profile(chaos))
    rng = DeterministicRandom(config.seed)
    if shard_count > 1:
        rng = rng.fork(f"shard:{shard_id}/{shard_count}")
    # ``oracle`` selects the blocking reference exchange and the
    # one-at-a-time sweep loop; the default is the event-driven fast
    # path (byte-identical output; see docs/SCALING.md).
    oracle = bool(getattr(config, "oracle", False))
    grabber = ZGrabber(
        ecosystem, rng.fork("grabber"), retry=getattr(config, "retry", None),
        fast=not oracle,
    )
    sink = _StreamingSink(stream_dir) if stream_dir else _MemorySink()
    stats = StudyStats(days=config.days, shards=shard_count, workers=1)

    ctx = StudyContext(
        ecosystem=ecosystem,
        grabber=grabber,
        rng=rng,
        config=config,
        emit=sink.emit,
        shard_id=shard_id,
        shard_count=shard_count,
        concurrency=None if oracle else getattr(config, "concurrency", 1024),
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
        channels=sink.channels if isinstance(sink, _MemorySink) else None,
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
        ecosystem_config, study_config, shard_id, shard_count, stream_dir,
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
        shard_count=shard_count,
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
        progress: Optional[Callable[[int, int], None]] = None,
        shard_progress: Optional[ShardProgress] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        stream_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
        resume: bool = False,
        fail_fast: bool = False,
        live=None,
        profile_dir: Optional[str] = None,
    ):
        """Run the study; returns ``(StudyDataset, StudyStats)``.

        ``shards`` partitions the population (output-affecting);
        ``workers`` only parallelizes shard execution.  ``stream_dir``
        switches the storage layer to streaming JSONL: records spill to
        disk as produced and the returned dataset holds lazy views.
        ``telemetry_dir`` writes a run manifest (with the run's peak
        RSS), merged metrics snapshot and Prometheus exposition there
        after the merge.  Telemetry never touches the dataset: pass a
        directory *outside* ``stream_dir``.

        Streamed runs checkpoint each completed shard under
        ``<stream_dir>/checkpoint/`` (see :mod:`.checkpoint`);
        ``resume=True`` re-executes only the shards the checkpoint is
        missing, after verifying the stored configuration fingerprint.
        Because shards are pure functions of (config, shard_id), a
        resumed run's merged dataset is byte-identical to an
        uninterrupted one, and the merge removes the checkpoint so the
        finished directory carries no trace of the interruption.  On a
        shard failure the engine raises :class:`StudyAborted` carrying
        the checkpoint path; ``fail_fast`` stops dispatching new shards
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
        from .study import StudyDataset  # local import to avoid a cycle

        run_start = time.perf_counter()
        config = self.config
        shards = shards if shards is not None else getattr(config, "shards", 1)
        workers = workers if workers is not None else getattr(config, "workers", 1)
        stream_dir = stream_dir if stream_dir is not None else getattr(
            config, "stream_dir", None
        )
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if telemetry_dir is not None and stream_dir is not None and (
            os.path.abspath(telemetry_dir) == os.path.abspath(stream_dir)
        ):
            raise ValueError(
                "telemetry_dir must not be the dataset stream_dir "
                "(telemetry lives next to the dataset, not inside it)"
            )

        store = CheckpointStore(stream_dir) if stream_dir is not None else None
        fingerprint = checkpoint_fingerprint(
            config, getattr(ecosystem, "config", None), shards
        )
        completed: dict[int, ShardResult] = {}
        if resume:
            if store is None:
                raise ValueError(
                    "resume requires a stream_dir: checkpoints live under "
                    "<stream_dir>/checkpoint/"
                )
            if not store.exists():
                raise CheckpointMismatch(
                    f"no checkpoint under {store.directory}; nothing to resume"
                )
            store.validate(fingerprint)
            completed = store.load_completed()
        elif store is not None:
            store.reset(fingerprint)
        todo = [
            shard_id for shard_id in range(shards) if shard_id not in completed
        ]

        if live is not None:
            live.study_started(
                shards=shards, days=config.days, workers=workers,
                resumed=bool(completed),
            )
            for shard_id in sorted(completed):
                live.record_shard(completed[shard_id], restored=True)
        events = live is not None and live.events_enabled

        if not todo:
            results = list(completed.values())
        elif shards == 1:
            live_push = None
            if live is not None:
                live_push = (
                    lambda day, days, grabs, delta:
                    live.day_completed(0, day, days, grabs, delta)
                )
            result = run_shard(
                ecosystem,
                config,
                shard_id=0,
                shard_count=1,
                stream_dir=os.path.join(stream_dir, "shards", "00")
                if stream_dir else None,
                registry=self.registry,
                progress=progress,
                live_push=live_push,
                events=events,
                profile_dir=profile_dir,
            )
            if store is not None:
                store.save_shard(result)
            if live is not None:
                live.record_shard(result, checkpointed=store is not None)
            results = [result]
        else:
            results = list(completed.values()) + self._run_sharded(
                ecosystem, shards, workers, stream_dir, shard_progress,
                todo=todo, store=store, fail_fast=fail_fast,
                live=live, events=events, profile_dir=profile_dir,
            )

        dataset, stats = self._merge(results, stream_dir, workers)
        if store is not None:
            store.clear()
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

    # -- sharded execution -------------------------------------------------

    def _run_sharded(
        self,
        ecosystem: Ecosystem,
        shards: int,
        workers: int,
        stream_dir: Optional[str],
        shard_progress: Optional[ShardProgress],
        todo: Optional[list[int]] = None,
        store: Optional[CheckpointStore] = None,
        fail_fast: bool = False,
        live=None,
        events: bool = False,
        profile_dir: Optional[str] = None,
    ) -> list[ShardResult]:
        """Execute the shards in ``todo`` (default: all), checkpointing
        each completed shard as it lands.  Raises :class:`StudyAborted`
        if any shard fails; without ``fail_fast`` sibling shards still
        finish (and checkpoint) first, so a later ``--resume`` only
        repeats the broken shard."""
        config = self.config
        todo = list(range(shards)) if todo is None else list(todo)
        pending = METRICS.gauge("engine.pending_shards")
        pending.set(len(todo))

        def subdir(shard_id: int) -> Optional[str]:
            if stream_dir is None:
                return None
            return os.path.join(stream_dir, "shards", f"{shard_id:02d}")

        results: list[ShardResult] = []
        failures: list[tuple[int, BaseException]] = []

        def record(result: ShardResult) -> None:
            if store is not None:
                store.save_shard(result)
            results.append(result)
            pending.set(len(todo) - len(results) - len(failures))
            if live is not None:
                live.record_shard(result, checkpointed=store is not None)
            if shard_progress is not None:
                shard_progress(result.shard_id, shards, config.days, config.days)

        if workers == 1:
            from ..hosting import build_ecosystem

            for shard_id in todo:
                view = build_ecosystem(ecosystem.config)

                def day_progress(day, days, _sid=shard_id):
                    if shard_progress is not None:
                        shard_progress(_sid, shards, day, days)

                live_push = None
                if live is not None:
                    live_push = (
                        lambda day, days, grabs, delta, _sid=shard_id:
                        live.day_completed(_sid, day, days, grabs, delta)
                    )
                try:
                    result = run_shard(
                        view,
                        config,
                        shard_id=shard_id,
                        shard_count=shards,
                        stream_dir=subdir(shard_id),
                        registry=self.registry,
                        progress=day_progress,
                        live_push=live_push,
                        events=events,
                        profile_dir=profile_dir,
                    )
                except Exception as exc:
                    failures.append((shard_id, exc))
                    if fail_fast:
                        break
                    continue
                record(result)
            return self._finish_sharded(results, failures, store)

        if self.registry is not None:
            raise ValueError(
                "custom experiment registries are not picklable across "
                "worker processes; run with workers=1 or register via "
                "default_registry"
            )
        spool_dir: Optional[str] = None
        poller = None
        if live is not None:
            import tempfile

            from ..obs.exporter import SpoolPoller

            spool_dir = tempfile.mkdtemp(prefix="repro-obs-spool-")
            poller = SpoolPoller(spool_dir, live)
            poller.start()
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
                futures = {
                    pool.submit(_shard_worker, (
                        ecosystem.config, config, shard_id, shards,
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
        return self._finish_sharded(results, failures, store)

    @staticmethod
    def _finish_sharded(
        results: list[ShardResult],
        failures: list[tuple[int, BaseException]],
        store: Optional[CheckpointStore],
    ) -> list[ShardResult]:
        if not failures:
            return results
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
        raise StudyAborted(
            f"study aborted: {len(failed_ids)} shard(s) failed ({causes}); "
            f"{kept}",
            checkpoint_dir=checkpoint_dir,
            completed_shards=tuple(sorted(r.shard_id for r in results)),
            failed_shards=tuple(failed_ids),
        ) from failures[0][1]

    # -- merge -------------------------------------------------------------

    def _merge(
        self,
        results: list[ShardResult],
        stream_dir: Optional[str],
        workers: int,
    ):
        from .study import StudyDataset

        config = self.config
        results = sorted(results, key=lambda r: r.shard_id)
        meta = results[0].meta  # view-independent fields agree across shards
        merged_meta = {
            "days": config.days,
            "day0_list": meta["day0_list"],
            "always_present": meta["always_present"],
            "ranks": meta["ranks"],
            "crossdomain_targets": meta.get("crossdomain_targets", []),
            "domain_asn": meta.get("domain_asn", {}),
            "domain_ip": meta.get("domain_ip", {}),
            "as_names": meta["as_names"],
            "list_sizes": meta.get("list_sizes", {}),
        }

        stats = StudyStats(
            days=config.days, shards=results[0].shard_count, workers=workers
        )
        for result in results:
            stats.merge(result.stats)

        dataset = StudyDataset(days=config.days)
        dataset.day0_list = merged_meta["day0_list"]
        dataset.always_present = merged_meta["always_present"]
        dataset.ranks = merged_meta["ranks"]
        dataset.crossdomain_targets = merged_meta["crossdomain_targets"]
        dataset.domain_asn = merged_meta["domain_asn"]
        dataset.domain_ip = merged_meta["domain_ip"]
        dataset.as_names = merged_meta["as_names"]
        dataset.list_sizes = merged_meta["list_sizes"]

        if stream_dir is not None:
            part_dirs = [r.stream_subdir for r in results]
            concatenate_channels(part_dirs, stream_dir)
            shutil.rmtree(os.path.join(stream_dir, "shards"), ignore_errors=True)
            write_meta(stream_dir, merged_meta)
            for name, view in open_channel_views(stream_dir).items():
                setattr(dataset, name, view)
        else:
            for name in CHANNELS:
                merged: list = []
                for result in results:
                    merged.extend(result.channels[name])
                setattr(dataset, name, merged)
        return dataset, stats

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
