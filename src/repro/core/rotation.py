"""Offline rotation-interval estimation from longitudinal scans.

§7.2 measures Google's 14-hour STEK rotation with dedicated hourly
probes.  At population scale only daily observations exist, but the
same inference works offline: the sequence of identifier *changes* in
a domain's daily scans bounds its rotation interval, and the span
distribution classifies its policy.

These estimators feed operator-facing reporting ("this domain appears
to rotate roughly weekly") and the `repro` CLI's audit output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .aggregate import ShardAggregate, fold_records, secret_fields
from .spans import DomainSpans
from ..scanner.records import ScanObservation


@dataclass(frozen=True)
class RotationEstimate:
    """One domain's inferred key-rotation behavior."""

    domain: str
    observed_keys: int
    observation_days: int
    estimated_interval_days: Optional[float]  # None = no rotation observed
    policy: str  # "daily" | "multi-day" | "static"

    @property
    def rotates(self) -> bool:
        return self.estimated_interval_days is not None


class RotationAggregate(ShardAggregate):
    """Per-domain day -> STEK identifier maps for rotation inference.

    State: ``{domain: {str(day): stek_id}}`` over successful
    connections that were issued a ticket carrying a STEK identifier
    (string day keys so the state JSON-round-trips; ``finalize``
    restores ints).  Later rows overwrite earlier ones per (domain, day).
    """

    def __init__(self, name: str, channel: str = "ticket_daily") -> None:
        self.name = name
        self.channels = (channel,)

    def zero(self) -> dict:
        return {}

    def fold(self, state: dict, channel: str, rows: Iterable[dict]) -> dict:
        gate, wanted, key = secret_fields("stek")
        for row in rows:
            if not row["success"] or row[gate] != wanted or not row[key]:
                continue
            by_day = state.get(row["domain"])
            if by_day is None:
                by_day = state[row["domain"]] = {}
            by_day[str(row["day"])] = row[key]
        return state

    def merge(self, left: dict, right: dict) -> dict:
        for domain, by_day in right.items():
            mine = left.get(domain)
            if mine is None:
                left[domain] = by_day
            else:
                mine.update(by_day)
        return left

    def finalize(self, state: dict, meta: dict) -> dict:
        return {
            domain: {int(day): key for day, key in by_day.items()}
            for domain, by_day in state.items()
        }


def estimate_rotation(
    observations: Iterable[ScanObservation],
    domains: Optional[set] = None,
) -> dict[str, RotationEstimate]:
    """Estimate each domain's STEK rotation from daily ticket scans.

    With one sample per day the estimate is day-granular: a domain
    showing a fresh identifier every day rotates at least daily
    (sub-daily rotation is indistinguishable from daily here — the
    paper's hourly probes exist precisely to split that case); a domain
    showing one identifier throughout is "static".
    """
    per_domain = fold_records(RotationAggregate("stek_rotation"), observations)
    return estimates_from_day_keys(per_domain, domains)


def estimates_from_day_keys(
    per_domain: Mapping[str, Mapping[int, str]],
    domains: Optional[set] = None,
) -> dict[str, RotationEstimate]:
    """Rotation estimates from per-domain ``{day: identifier}`` maps.

    The maps are the finalized :class:`RotationAggregate` state (each
    (domain, day) cell is written by exactly one scan, so shard merges
    commute).
    """
    estimates: dict[str, RotationEstimate] = {}
    for domain, by_day in per_domain.items():
        if domains is not None and domain not in domains:
            continue
        days = sorted(by_day)
        keys = [by_day[d] for d in days]
        distinct = len(set(keys))
        if distinct == 1:
            estimates[domain] = RotationEstimate(
                domain=domain,
                observed_keys=1,
                observation_days=len(days),
                estimated_interval_days=None,
                policy="static",
            )
            continue
        change_days = [
            days[i] for i in range(1, len(days)) if keys[i] != keys[i - 1]
        ]
        if len(change_days) >= 2:
            gaps = sorted(
                b - a for a, b in zip(change_days, change_days[1:])
            )
            interval = float(gaps[len(gaps) // 2])
        else:
            # One observed change: the interval is at least the longer
            # stable stretch around it.
            interval = float(max(change_days[0] - days[0],
                                 days[-1] - change_days[0]))
        interval = max(interval, 1.0)
        policy = "daily" if interval <= 2.0 else "multi-day"
        estimates[domain] = RotationEstimate(
            domain=domain,
            observed_keys=distinct,
            observation_days=len(days),
            estimated_interval_days=interval,
            policy=policy,
        )
    return estimates


def rotation_policy_histogram(
    estimates: Mapping[str, RotationEstimate]
) -> dict[str, int]:
    """Domains per inferred rotation policy class."""
    histogram: dict[str, int] = {}
    for estimate in estimates.values():
        histogram[estimate.policy] = histogram.get(estimate.policy, 0) + 1
    return histogram


def consistent_with_spans(
    estimates: Mapping[str, RotationEstimate],
    spans: Mapping[str, DomainSpans],
) -> bool:
    """Cross-check: a domain's max span can't exceed what its estimated
    rotation interval allows (static domains excepted)."""
    for domain, estimate in estimates.items():
        if estimate.estimated_interval_days is None:
            continue
        entry = spans.get(domain)
        if entry is None:
            continue
        if entry.max_span_days > estimate.estimated_interval_days + 1:
            return False
    return True


__all__ = ["RotationEstimate", "RotationAggregate", "estimate_rotation",
           "estimates_from_day_keys", "rotation_policy_histogram",
           "consistent_with_spans"]
