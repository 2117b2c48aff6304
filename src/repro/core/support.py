"""Support-scan analysis: the counts behind Table 1.

From a 10-connection scan with one cipher offer, derive the paper's
waterfall: list size → non-blacklisted → browser-trusted TLS → supports
the mechanism → repeated the same secret value at least twice → always
presented the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .aggregate import ShardAggregate, fold_records, secret_fields
from ..scanner.records import ScanObservation


@dataclass
class SupportWaterfall:
    """One section of Table 1."""

    label: str
    list_size: int
    non_blacklisted: int
    browser_trusted: int
    supporting: int          # completed the mechanism's handshake / issued
    repeated_value: int      # ≥2 connections with the same secret value
    always_same_value: int   # every successful connection had one value

    def rows(self) -> list[tuple[str, int]]:
        support_label = {
            "dhe": "Support DHE ciphers",
            "ecdhe": "Support ECDHE ciphers",
            "ticket": "Issue session tickets",
        }.get(self.label, "Support mechanism")
        value_label = "STEK ID" if self.label == "ticket" else "server KEX value"
        return [
            ("Alexa 1M domains", self.list_size),
            ("Non-blacklisted domains", self.non_blacklisted),
            ("Browser-trusted TLS domains", self.browser_trusted),
            (support_label, self.supporting),
            (f">= 2x same {value_label}", self.repeated_value),
            (f"All same {value_label}", self.always_same_value),
        ]


class SupportAggregate(ShardAggregate):
    """Per-domain trust flag + secret-value tally from a support scan.

    State: ``{domain: [browser_trusted, {value: count}]}`` over
    successful connections — everything :func:`waterfall_from_tallies`
    needs, without keeping per-connection value lists in memory.
    """

    def __init__(self, name: str, channel: str, kind: str) -> None:
        if kind not in ("dhe", "ecdhe", "ticket"):
            raise ValueError(f"unknown support kind {kind!r}")
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
            if not row["success"]:
                continue
            entry = state.get(row["domain"])
            if entry is None:
                entry = state[row["domain"]] = [False, {}]
            if row["cert_trusted"]:
                entry[0] = True
            if row[gate] == wanted:
                value = row[key]
                if value:
                    entry[1][value] = entry[1].get(value, 0) + 1
        return state

    def merge(self, left: dict, right: dict) -> dict:
        for domain, (trusted, tally) in right.items():
            entry = left.get(domain)
            if entry is None:
                left[domain] = [trusted, tally]
                continue
            if trusted:
                entry[0] = True
            for value, count in tally.items():
                entry[1][value] = entry[1].get(value, 0) + count
        return left

    def finalize(self, state: dict, meta: dict) -> dict:
        return {
            "trusted": {domain: bool(entry[0]) for domain, entry in state.items()},
            "tallies": {domain: entry[1] for domain, entry in state.items()},
        }


def support_waterfall(
    observations: Iterable[ScanObservation],
    kind: str,
    list_size: int,
    non_blacklisted: int,
    trusted_domains: Optional[set] = None,
) -> SupportWaterfall:
    """Compute one Table 1 section from a multi-connection scan.

    ``kind`` is "dhe", "ecdhe", or "ticket".  Counts follow the paper:
    *browser-trusted* = any successful connection with a trusted cert;
    *supporting* = among trusted, completed the kind's key exchange (or
    issued a ticket); the value rows count trusted supporters whose
    secret values repeated within the scan.

    A restricted-offer scan (DHE-only) cannot measure general trust —
    non-DHE servers refuse the handshake outright — so the paper takes
    the trusted-domain population from a full scan.  Pass that set as
    ``trusted_domains`` for such sections.
    """
    folded = fold_records(
        SupportAggregate(f"{kind}_waterfall", f"{kind}_support", kind),
        observations,
    )
    return waterfall_from_tallies(
        folded["tallies"], folded["trusted"], kind, list_size,
        non_blacklisted, trusted_domains=trusted_domains,
    )


def waterfall_from_tallies(
    tallies: Mapping[str, Mapping[str, int]],
    trusted: Mapping[str, bool],
    kind: str,
    list_size: int,
    non_blacklisted: int,
    trusted_domains: Optional[set] = None,
) -> SupportWaterfall:
    """Build one Table 1 section from per-domain value tallies.

    ``tallies`` maps every domain that completed at least one
    connection to its counts of repeated secret values (may be empty
    for a domain that never presented one); ``trusted`` carries each
    such domain's browser-trust flag: the finalized
    :class:`SupportAggregate` state.
    """
    if kind not in ("dhe", "ecdhe", "ticket"):
        raise ValueError(f"unknown support kind {kind!r}")
    if trusted_domains is not None:
        browser_trusted = [d for d in trusted_domains]
        eligible = [d for d in browser_trusted if d in tallies]
    else:
        browser_trusted = [d for d, ok in trusted.items() if ok]
        eligible = browser_trusted
    supporting = repeated = always_same = 0
    for domain in eligible:
        tally = tallies.get(domain)
        if not tally:
            continue
        supporting += 1
        if max(tally.values()) >= 2:
            repeated += 1
        if len(tally) == 1 and sum(tally.values()) >= 2:
            always_same += 1
    return SupportWaterfall(
        label=kind,
        list_size=list_size,
        non_blacklisted=non_blacklisted,
        browser_trusted=len(browser_trusted),
        supporting=supporting,
        repeated_value=repeated,
        always_same_value=always_same,
    )


__all__ = ["SupportWaterfall", "SupportAggregate", "support_waterfall",
           "waterfall_from_tallies"]
