"""Secret-lifetime span estimation from daily scans (paper §4.3, §4.4).

The central estimator: for each ``(domain, identifier)`` pair — where
the identifier is a STEK key name or an (EC)DHE public value — the
lifetime *span* is the gap between the first and last study day it was
observed.  The paper argues first/last-seen is the right estimator
because Internet scanning jitters (A-record rotation, load balancers
without affinity, missed connections) interleave other identifiers
between sightings of a long-lived one; colliding or flip-flopping
identifiers are overwhelmingly unlikely, so intermediate noise should
not split a span.

The consecutive-days estimator the paper rejects is implemented too,
for the ablation benchmark that quantifies exactly how much it
undercounts under jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .aggregate import ShardAggregate, fold_records, secret_fields
from .cdf import CDF
from ..scanner.records import ScanObservation


@dataclass(slots=True)
class IdentifierSpan:
    """One identifier's observed lifetime at one domain."""

    domain: str
    identifier: str
    first_day: int
    last_day: int
    observations: int

    @property
    def span_days(self) -> int:
        """First-seen to last-seen gap, in days (0 = seen on one day)."""
        return self.last_day - self.first_day

    @property
    def days_inclusive(self) -> int:
        """Inclusive day count, the paper's table convention: a key seen
        on the first and last day of a 63-day study shows "63 days"."""
        return self.span_days + 1


@dataclass(slots=True)
class DomainSpans:
    """All identifier spans for one domain."""

    domain: str
    spans: list[IdentifierSpan] = field(default_factory=list)

    @property
    def max_span_days(self) -> int:
        return max((span.span_days for span in self.spans), default=0)

    @property
    def max_days_inclusive(self) -> int:
        return max((span.days_inclusive for span in self.spans), default=0)

    @property
    def ever_observed(self) -> bool:
        return bool(self.spans)


def _extract_stek(observation: ScanObservation) -> Optional[str]:
    return observation.stek_id if observation.ticket_issued else None


class SpanAggregate(ShardAggregate):
    """First/last-seen identifier spans, the estimator of this module.

    State: ``{domain: {identifier: [first_day, last_day, count]}}``
    over successful connections.  ``first_day`` is first-seen in
    *stream* order (so ``merge`` keeps the left value), ``last_day`` is
    the max, ``count`` the sum.

    >>> agg = SpanAggregate("stek_spans", "ticket_daily", kind="stek")
    >>> rows = [
    ...     {"domain": "a.test", "day": 0, "success": True,
    ...      "ticket_issued": True, "stek_id": "k1"},
    ...     {"domain": "a.test", "day": 5, "success": True,
    ...      "ticket_issued": True, "stek_id": "k1"},
    ...     {"domain": "a.test", "day": 9, "success": False,
    ...      "ticket_issued": True, "stek_id": "k1"},
    ... ]
    >>> left = agg.fold(agg.zero(), "ticket_daily", rows[:1])
    >>> right = agg.fold(agg.zero(), "ticket_daily", rows[1:])
    >>> spans = agg.finalize(agg.merge(left, right), {})
    >>> spans["a.test"].max_span_days  # day 9 failed, so the span is 0..5
    5
    """

    def __init__(self, name: str, channel: str, kind: str) -> None:
        if kind not in ("stek", "dhe", "ecdhe"):
            raise ValueError(f"unknown span kind {kind!r}")
        self.name = name
        self.channels = (channel,)
        self.kind = kind

    def _params(self) -> dict:
        return {"kind": self.kind}

    def zero(self) -> dict:
        return {}

    def fold(self, state: dict, channel: str, rows: Iterable[dict]) -> dict:
        gate, wanted, key = secret_fields(self.kind)
        for row in rows:
            if not row["success"] or row[gate] != wanted:
                continue
            identifier = row[key]
            if not identifier:
                continue
            by_id = state.get(row["domain"])
            if by_id is None:
                by_id = state[row["domain"]] = {}
            entry = by_id.get(identifier)
            if entry is None:
                by_id[identifier] = [row["day"], row["day"], 1]
            else:
                if row["day"] > entry[1]:
                    entry[1] = row["day"]
                entry[2] += 1
        return state

    def merge(self, left: dict, right: dict) -> dict:
        for domain, by_id in right.items():
            left_ids = left.get(domain)
            if left_ids is None:
                left[domain] = by_id
                continue
            for identifier, entry in by_id.items():
                mine = left_ids.get(identifier)
                if mine is None:
                    left_ids[identifier] = entry
                else:
                    if entry[1] > mine[1]:
                        mine[1] = entry[1]
                    mine[2] += entry[2]
        return left

    def finalize(self, state: dict, meta: dict) -> dict:
        # Positional construction: this builds one IdentifierSpan per
        # (domain, identifier) of the corpus on every pass.
        return {
            domain: DomainSpans(domain, [
                IdentifierSpan(domain, identifier, first, last, count)
                for identifier, (first, last, count) in by_id.items()
            ])
            for domain, by_id in state.items()
        }


def collect_spans(
    observations: Iterable[ScanObservation],
    kind: str,
    domains: Optional[set[str]] = None,
) -> dict[str, DomainSpans]:
    """First/last-seen spans per (domain, identifier) of ``kind``
    (``"stek"``, ``"dhe"`` or ``"ecdhe"``).

    ``domains`` restricts the analysis (the paper restricts to domains
    present in the Top Million every day of the study).  Accepts any
    iterable (including a streamed dataset view) and never
    materializes it.
    """
    channel = "ticket_daily" if kind == "stek" else f"{kind}_daily"
    spans = fold_records(SpanAggregate(f"{kind}_spans", channel, kind),
                         observations)
    if domains is None:
        return spans
    return {domain: entry for domain, entry in spans.items()
            if domain in domains}


def stek_spans(
    observations: Iterable[ScanObservation],
    domains: Optional[set[str]] = None,
) -> dict[str, DomainSpans]:
    """STEK-identifier spans from the daily ticket scans (Fig. 3)."""
    return collect_spans(observations, "stek", domains)


def kex_spans(
    observations: Iterable[ScanObservation],
    domains: Optional[set[str]] = None,
    *,
    kind: str,
) -> dict[str, DomainSpans]:
    """(EC)DHE-value spans from the daily key-exchange scans (Fig. 5),
    counting only handshakes of ``kind`` (``"dhe"`` or ``"ecdhe"``)."""
    return collect_spans(observations, kind, domains)


def consecutive_spans(
    observations: Iterable[ScanObservation],
    identifier_fn: Callable[[ScanObservation], Optional[str]] = _extract_stek,
    domains: Optional[set[str]] = None,
) -> dict[str, DomainSpans]:
    """The jitter-fragile estimator: count only *consecutive* scan days.

    A single missed day or load-balancer flip splits one long span into
    several short ones.  Kept for the span-estimator ablation.
    """
    per_key_days: dict[tuple[str, str], set[int]] = {}
    for observation in observations:
        if not observation.success:
            continue
        if domains is not None and observation.domain not in domains:
            continue
        identifier = identifier_fn(observation)
        if not identifier:
            continue
        per_key_days.setdefault((observation.domain, identifier), set()).add(
            observation.day
        )
    result: dict[str, DomainSpans] = {}
    for (domain, identifier), days in per_key_days.items():
        entry = result.setdefault(domain, DomainSpans(domain=domain))
        for first, last, count in _runs(sorted(days)):
            entry.spans.append(
                IdentifierSpan(
                    domain=domain,
                    identifier=identifier,
                    first_day=first,
                    last_day=last,
                    observations=count,
                )
            )
    return result


def _runs(days: list[int]) -> Iterable[tuple[int, int, int]]:
    """Maximal runs of consecutive integers as (first, last, length)."""
    if not days:
        return
    start = previous = days[0]
    for day in days[1:]:
        if day == previous + 1:
            previous = day
            continue
        yield (start, previous, previous - start + 1)
        start = previous = day
    yield (start, previous, previous - start + 1)


def max_span_cdf(spans: dict[str, DomainSpans]) -> CDF:
    """CDF of per-domain maximum identifier spans, in days."""
    return CDF(entry.max_span_days for entry in spans.values())


def span_fractions(
    spans: dict[str, DomainSpans], thresholds_days: Iterable[int] = (1, 7, 30)
) -> dict[int, float]:
    """Fraction of domains whose max span meets each threshold."""
    cdf = max_span_cdf(spans)
    return {t: cdf.fraction_at_least(t) for t in thresholds_days}


def reuse_within_scan(observations: Iterable[ScanObservation]) -> dict[str, dict[str, int]]:
    """Per-domain identifier repetition counts within one multi-connection
    scan (Table 1's "≥2x same server KEX value" / "all same" rows)."""
    per_domain: dict[str, dict[str, int]] = {}
    for observation in observations:
        if not observation.success or not observation.kex_public:
            continue
        bucket = per_domain.setdefault(observation.domain, {})
        bucket[observation.kex_public] = bucket.get(observation.kex_public, 0) + 1
    return per_domain


__all__ = [
    "IdentifierSpan",
    "DomainSpans",
    "SpanAggregate",
    "collect_spans",
    "stek_spans",
    "kex_spans",
    "consecutive_spans",
    "max_span_cdf",
    "span_fractions",
    "reuse_within_scan",
]
