"""The pluggable experiment registry driving the measurement study.

Every measurement the paper reports — daily longitudinal sweeps,
10-connection support scans, 30-minute scans, 24-hour resumption
probes, the cross-domain cache probe — is one :class:`Experiment`
registered with an :class:`ExperimentRegistry`.  The study engine
(:mod:`repro.scanner.engine`) drives registered experiments over the
simulated timeline; nothing in the engine knows *which* experiments
exist, so resumption-style follow-up studies (Sy et al.'s tracking
probes, new cipher offers, new probe cadences) plug in as new
registrations instead of edits to a monolithic day loop.

An experiment implements three hooks:

* ``schedule(config)`` — the set of study days it acts on (any object
  supporting ``in``; :data:`EVERY_DAY` is a convenience sentinel);
* ``run_day(ctx, day)`` — perform the day's scanning through the
  :class:`StudyContext`, emitting records to ``ctx.emit`` and metadata
  to ``ctx.meta``;
* ``finalize(ctx)`` — optional end-of-study work.

Experiments see the world only through the context.  In a sharded run
each shard owns a stable subset of the population (``ctx.owns``) and
experiments scan only owned domains, which is what makes the shard
merge deterministic: a domain's entire observation stream comes from
exactly one shard, whichever worker executed it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..crypto.rng import DeterministicRandom
from ..hosting.ecosystem import Ecosystem
from ..netsim.clock import HOUR
from ..tls.ciphers import (
    CipherSuite,
    DHE_ONLY_OFFER,
    ECDHE_FIRST_OFFER,
    MODERN_BROWSER_OFFER,
)
from .crossdomain import CrossDomainConfig, ProbeTarget, cross_domain_cache_probe
from .grab import ZGrabber
from .resumption import ProbeConfig, resumption_probe
from .schedule import SweepConfig, sweep, thirty_minute_scan


class _EveryDay:
    """Schedule sentinel: the experiment runs on every study day."""

    def __contains__(self, day: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "EVERY_DAY"


EVERY_DAY = _EveryDay()


def shard_of(name: str, shard_count: int) -> int:
    """Stable shard assignment for a domain name.

    Keyed on the name (not the day's rank) so a domain is scanned by
    the same shard — hence the same ecosystem view — on every study
    day, preserving identifier-span continuity across days.
    """
    if shard_count <= 1:
        return 0
    return zlib.crc32(name.encode("utf-8")) % shard_count


@dataclass
class StudyContext:
    """Everything an experiment may touch during a shard's run.

    ``today`` is the full non-blacklisted ranked list for the current
    day; ``today_owned`` is the subset this shard scans.  ``emit``
    routes records to the shard's streaming JSONL writers; ``meta`` accumulates small view-independent
    metadata (ranks, list sizes, whois knowledge) merged from shard 0.
    """

    ecosystem: Ecosystem
    grabber: ZGrabber
    rng: DeterministicRandom
    config: "StudyConfig"  # noqa: F821 — import cycle; see study.py
    emit: Callable[[str, Iterable], int]
    #: Event-loop admission batch size for sweeps.  Execution-only:
    #: never changes dataset bytes, only buffering granularity.
    concurrency: int
    shard_id: int = 0
    shard_count: int = 1
    today: list[tuple[int, str]] = field(default_factory=list)
    today_owned: list[tuple[int, str]] = field(default_factory=list)
    full_list_size: int = 0
    meta: dict = field(default_factory=dict)

    def owns(self, name: str) -> bool:
        return shard_of(name, self.shard_count) == self.shard_id


class Experiment:
    """Base experiment: override ``schedule`` and ``run_day``."""

    name: str = "experiment"
    #: channels this experiment writes (informational / for stats)
    channels: tuple[str, ...] = ()

    def schedule(self, config) -> object:
        """Days this experiment acts on (must support ``day in ...``)."""
        return EVERY_DAY

    def run_day(self, ctx: StudyContext, day: int) -> None:
        raise NotImplementedError

    def finalize(self, ctx: StudyContext) -> None:
        """End-of-study hook (optional)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ExperimentRegistry:
    """Ordered collection of experiments; order is execution order.

    Registration order is load-bearing for determinism: experiments
    sharing a study day run in the order they were registered, exactly
    as the paper's campaigns interleaved on the real timeline.
    """

    def __init__(self, experiments: Iterable[Experiment] = ()) -> None:
        self._experiments: list[Experiment] = []
        self._by_name: dict[str, Experiment] = {}
        for experiment in experiments:
            self.register(experiment)

    def register(self, experiment: Experiment) -> Experiment:
        if experiment.name in self._by_name:
            raise ValueError(f"duplicate experiment name {experiment.name!r}")
        self._experiments.append(experiment)
        self._by_name[experiment.name] = experiment
        return experiment

    def get(self, name: str) -> Experiment:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [experiment.name for experiment in self._experiments]

    def __iter__(self):
        return iter(self._experiments)

    def __len__(self) -> int:
        return len(self._experiments)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


# ---------------------------------------------------------------------------
# The paper's experiments, as registry entries
# ---------------------------------------------------------------------------


class DailySweepExperiment(Experiment):
    """One single-connection sweep per day (§4.3/§4.4 longitudinal scans)."""

    def __init__(
        self,
        name: str,
        channel: str,
        offer: tuple[CipherSuite, ...],
        window_seconds: float,
        offer_tickets: bool = True,
        label: str = "daily",
    ) -> None:
        self.name = name
        self.channels = (channel,)
        self.channel = channel
        self.offer = offer
        self.window_seconds = window_seconds
        self.offer_tickets = offer_tickets
        self.label = label

    def run_day(self, ctx: StudyContext, day: int) -> None:
        # Completed batches stream straight to the shard sink instead of
        # accumulating the whole day in memory (flat in population).
        sweep(
            ctx.grabber,
            ctx.today_owned,
            SweepConfig(
                offer=self.offer,
                connections_per_domain=1,
                window_seconds=self.window_seconds,
                offer_tickets=self.offer_tickets,
                label=self.label,
            ),
            concurrency=ctx.concurrency,
            sink=lambda batch: ctx.emit(self.channel, batch),
        )


class SupportScanExperiment(Experiment):
    """Table 1's 10-connection support scan plus the 30-minute scan.

    Also records the day's list sizes (full list, post-blacklist) under
    ``meta["list_sizes"][kind]`` — the Table 1 waterfall header.
    """

    def __init__(
        self,
        kind: str,
        day_field: str,
        offer: tuple[CipherSuite, ...],
        offer_tickets: bool = False,
        window_seconds: Optional[float] = None,
    ) -> None:
        self.name = f"support-{kind}"
        self.kind = kind
        self.day_field = day_field
        self.offer = offer
        self.offer_tickets = offer_tickets
        self.window_seconds = window_seconds  # None -> config.support_scan_window
        self.channels = (f"{kind}_support", f"{kind}_30min")

    def schedule(self, config) -> frozenset:
        if not config.run_support_scans:
            return frozenset()
        return frozenset((getattr(config, self.day_field),))

    def run_day(self, ctx: StudyContext, day: int) -> None:
        config = ctx.config
        window = (
            self.window_seconds
            if self.window_seconds is not None
            else config.support_scan_window
        )
        ctx.meta.setdefault("list_sizes", {})[self.kind] = (
            ctx.full_list_size,
            len(ctx.today),
        )
        sweep(
            ctx.grabber,
            ctx.today_owned,
            SweepConfig(
                offer=self.offer,
                offer_tickets=self.offer_tickets,
                connections_per_domain=config.support_scan_connections,
                window_seconds=window,
                label=f"{self.kind}-support",
            ),
            concurrency=ctx.concurrency,
            sink=lambda batch: ctx.emit(f"{self.kind}_support", batch),
        )
        thirty_minute_scan(
            ctx.grabber,
            ctx.today_owned,
            self.offer,
            concurrency=ctx.concurrency,
            sink=lambda batch: ctx.emit(f"{self.kind}_30min", batch),
        )


class CrossDomainExperiment(Experiment):
    """The §5.1 cross-domain session-cache probe.

    Builds the scanner's whois/DNS view of the *whole* day's list (the
    by-IP/by-AS peer pools must be global so a shard can offer its
    origins' sessions to peers in any shard), then probes only owned
    origins.  Edges are therefore partitioned by origin shard and the
    merge is plain concatenation.
    """

    name = "crossdomain"
    channels = ("cache_edges",)

    def schedule(self, config) -> frozenset:
        if not config.run_crossdomain:
            return frozenset()
        return frozenset((config.crossdomain_day,))

    def run_day(self, ctx: StudyContext, day: int) -> None:
        ecosystem = ctx.ecosystem
        targets = []
        domain_ip = ctx.meta.setdefault("domain_ip", {})
        domain_asn = ctx.meta.setdefault("domain_asn", {})
        for rank, name in ctx.today:
            try:
                addresses = ecosystem.dns.resolve_all(name)
            except KeyError:
                continue
            ip = addresses[0]
            autonomous_system = ecosystem.as_registry.lookup(ip)
            asn = autonomous_system.asn if autonomous_system else None
            targets.append(ProbeTarget(domain=name, ip=str(ip), asn=asn))
            domain_ip[name] = str(ip)
            if asn is not None:
                domain_asn[name] = asn
        ctx.meta["crossdomain_targets"] = [t.domain for t in targets]
        origins = [t for t in targets if ctx.owns(t.domain)]
        ctx.emit(
            "cache_edges",
            cross_domain_cache_probe(
                ctx.grabber,
                targets,
                ctx.rng.fork("crossdomain"),
                CrossDomainConfig(),
                origins=origins,
            ),
        )


class ResumptionProbeExperiment(Experiment):
    """The §4.1/§4.2 24-hour resumption-lifetime probes."""

    def __init__(self, mechanism: str, channel: str, day_field: str) -> None:
        self.name = f"probe-{mechanism}"
        self.mechanism = mechanism
        self.channel = channel
        self.channels = (channel,)
        self.day_field = day_field

    def schedule(self, config) -> frozenset:
        if not config.run_probes:
            return frozenset()
        return frozenset((getattr(config, self.day_field),))

    def run_day(self, ctx: StudyContext, day: int) -> None:
        candidates = ctx.today[: ctx.config.probe_domain_count]
        targets = [(rank, name) for rank, name in candidates if ctx.owns(name)]
        ctx.emit(
            self.channel,
            resumption_probe(
                ctx.grabber, targets, ProbeConfig(mechanism=self.mechanism)
            ),
        )


def default_registry(config) -> ExperimentRegistry:
    """The paper's full experiment schedule (T1–T7, F1–F8, probes).

    Registration order reproduces the original monolithic loop's
    per-day ordering: daily campaigns, support scans (DHE, ECDHE,
    ticket), cross-domain probe, session-ID probe, ticket probe.
    """
    registry = ExperimentRegistry()
    registry.register(DailySweepExperiment(
        "daily-ticket", "ticket_daily", MODERN_BROWSER_OFFER,
        window_seconds=2 * HOUR, offer_tickets=True, label="ticket",
    ))
    registry.register(DailySweepExperiment(
        "daily-dhe", "dhe_daily", DHE_ONLY_OFFER,
        window_seconds=1.5 * HOUR, offer_tickets=False, label="dhe",
    ))
    registry.register(DailySweepExperiment(
        "daily-ecdhe", "ecdhe_daily", ECDHE_FIRST_OFFER,
        window_seconds=1.5 * HOUR, offer_tickets=False, label="ecdhe",
    ))
    registry.register(SupportScanExperiment(
        "dhe", "dhe_support_day", DHE_ONLY_OFFER, window_seconds=5 * HOUR,
    ))
    registry.register(SupportScanExperiment(
        "ecdhe", "ecdhe_support_day", ECDHE_FIRST_OFFER, window_seconds=5 * HOUR,
    ))
    registry.register(SupportScanExperiment(
        "ticket", "ticket_support_day", MODERN_BROWSER_OFFER,
        offer_tickets=True, window_seconds=None,
    ))
    registry.register(CrossDomainExperiment())
    registry.register(ResumptionProbeExperiment(
        "session_id", "session_probes", "session_probe_day",
    ))
    registry.register(ResumptionProbeExperiment(
        "ticket", "ticket_probes", "ticket_probe_day",
    ))
    return registry


__all__ = [
    "EVERY_DAY",
    "shard_of",
    "StudyContext",
    "Experiment",
    "ExperimentRegistry",
    "DailySweepExperiment",
    "SupportScanExperiment",
    "CrossDomainExperiment",
    "ResumptionProbeExperiment",
    "default_registry",
]
