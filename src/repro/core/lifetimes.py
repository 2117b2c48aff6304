"""Resumption-lifetime analysis (paper §4.1/§4.2, Figures 1 and 2).

Turns the 24-hour probe results into the distributions the paper
plots: how long session IDs and session tickets were actually honored,
what fraction of sites support each mechanism, and how advertised
ticket lifetime hints compare with honored lifetimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netsim.clock import HOUR, MINUTE
from ..scanner.records import ResumptionProbeResult
from .aggregate import ShardAggregate, fold_records
from .cdf import CDF


@dataclass
class ResumptionSupport:
    """Headline support rates for one mechanism."""

    mechanism: str
    probed: int
    handshake_ok: int
    issued: int                 # set a session ID / issued a ticket
    resumed_at_1s: int
    honored_any: int            # ever successfully resumed

    @property
    def issue_rate(self) -> float:
        return self.issued / self.handshake_ok if self.handshake_ok else 0.0

    @property
    def resume_rate(self) -> float:
        return self.resumed_at_1s / self.handshake_ok if self.handshake_ok else 0.0


def support_summary(
    probes: Iterable[ResumptionProbeResult], mechanism: str
) -> ResumptionSupport:
    """Compute §4.1/§4.2's headline counts from probe results."""
    probes = list(probes)
    return ResumptionSupport(
        mechanism=mechanism,
        probed=len(probes),
        handshake_ok=sum(1 for p in probes if p.handshake_ok),
        issued=sum(1 for p in probes if p.issued),
        resumed_at_1s=sum(1 for p in probes if p.resumed_at_1s),
        honored_any=sum(1 for p in probes if p.max_success_delay is not None),
    )


def honored_lifetime_cdf(
    probes: Iterable[ResumptionProbeResult],
    probe_ceiling_seconds: float = 24 * HOUR,
) -> CDF:
    """CDF of honored resumption lifetimes over resuming domains.

    Domains still resuming at the 24-hour cutoff contribute the ceiling
    value (the paper's figures are likewise right-censored at 24 h).
    """
    values = []
    for probe in probes:
        if probe.max_success_delay is None:
            continue
        if probe.hit_probe_ceiling:
            values.append(probe_ceiling_seconds)
        else:
            values.append(probe.max_success_delay)
    return CDF(values)


def hint_cdf(probes: Iterable[ResumptionProbeResult]) -> CDF:
    """CDF of advertised ticket lifetime hints (specified ones only)."""
    return CDF(
        float(p.ticket_hint)
        for p in probes
        if p.ticket_hint is not None and p.ticket_hint > 0
    )


def unspecified_hint_count(probes: Iterable[ResumptionProbeResult]) -> int:
    """Domains leaving the hint unspecified (hint = 0), per RFC 5077."""
    return sum(1 for p in probes if p.issued and (p.ticket_hint or 0) == 0)


@dataclass
class LifetimeBuckets:
    """The headline fractions the paper quotes for Figures 1/2."""

    under_5_minutes: float
    at_most_1_hour: float
    at_most_10_hours: float
    at_least_24_hours: float
    resuming_domains: int


def lifetime_buckets(
    probes: Iterable[ResumptionProbeResult],
    probe_ceiling_seconds: float = 24 * HOUR,
) -> LifetimeBuckets:
    cdf = honored_lifetime_cdf(probes, probe_ceiling_seconds)
    return LifetimeBuckets(
        under_5_minutes=cdf.fraction_less(5 * MINUTE),
        at_most_1_hour=cdf.fraction_at_most(1 * HOUR),
        at_most_10_hours=cdf.fraction_at_most(10 * HOUR),
        at_least_24_hours=cdf.fraction_at_least(probe_ceiling_seconds),
        resuming_domains=len(cdf),
    )


class LifetimeAggregate(ShardAggregate):
    """Per-domain honored resumption lifetime, in seconds.

    Probes that never resumed are skipped; probes still resuming at the
    24-hour cutoff contribute the probe ceiling; a domain's value is
    the max across its probes.
    """

    def __init__(self, name: str, channel: str = "session_probes",
                 probe_ceiling_seconds: float = 24 * HOUR) -> None:
        self.name = name
        self.channels = (channel,)
        self.probe_ceiling_seconds = probe_ceiling_seconds

    def _params(self) -> dict:
        return {"probe_ceiling_seconds": self.probe_ceiling_seconds}

    def zero(self) -> dict:
        return {}

    def fold(self, state: dict, channel: str, rows: Iterable[dict]) -> dict:
        ceiling = self.probe_ceiling_seconds
        for row in rows:
            if row["max_success_delay"] is None:
                continue
            value = ceiling if row["hit_probe_ceiling"] else row["max_success_delay"]
            state[row["domain"]] = max(state.get(row["domain"], 0.0), value)
        return state

    def merge(self, left: dict, right: dict) -> dict:
        for domain, value in right.items():
            left[domain] = max(left.get(domain, 0.0), value)
        return left

    def finalize(self, state: dict, meta: dict) -> dict:
        return state


def session_lifetime_by_domain(
    probes: Iterable[ResumptionProbeResult],
    probe_ceiling_seconds: float = 24 * HOUR,
) -> dict[str, float]:
    """domain -> honored lifetime in seconds (for the §6 windows)."""
    return fold_records(
        LifetimeAggregate("session_lifetimes",
                          probe_ceiling_seconds=probe_ceiling_seconds),
        probes,
    )


__all__ = [
    "ResumptionSupport",
    "support_summary",
    "honored_lifetime_cdf",
    "hint_cdf",
    "unspecified_hint_count",
    "LifetimeBuckets",
    "lifetime_buckets",
    "LifetimeAggregate",
    "session_lifetime_by_domain",
]
