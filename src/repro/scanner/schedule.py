"""Scan scheduling: daily sweeps and multi-connection support scans.

The paper's longitudinal measurements are daily single-connection
sweeps over the Top Million (one per cipher offer); its support and
sharing measurements are 10-connection scans within a few-hour window
plus a single-connection scan in a 30-minute window.  Both patterns
are one :func:`sweep`, spreading connections across a virtual time
window so server-side rotations and cache expiries interleave
realistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..netsim.clock import HOUR, MINUTE
from ..tls.ciphers import CipherSuite, MODERN_BROWSER_OFFER
from .grab import ZGrabber
from .records import ScanObservation


@dataclass
class SweepConfig:
    """One pass over a domain list."""

    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER
    connections_per_domain: int = 1
    window_seconds: float = 4 * HOUR
    offer_tickets: bool = True
    label: str = "sweep"


def sweep(
    grabber: ZGrabber,
    domains: Sequence[tuple[int, str]],
    config: SweepConfig,
    *,
    concurrency: int,
    sink: Optional[Callable[[list[ScanObservation]], object]] = None,
) -> list[ScanObservation]:
    """Scan ``domains`` (rank, name) within the configured time window.

    Connections are issued in domain order with the window divided
    evenly; for multi-connection scans, each domain's connections are
    spaced across the whole window (the paper's 10 connections over six
    hours), not fired back-to-back.

    Each grab starts at its window tick, or later if an earlier grab's
    retry backoff has already moved the clock past it: the clock never
    rewinds, so the grab runs at ``max(tick, now)``.

    ``sink`` receives the observations in schedule order, in batches of
    ``concurrency`` (the streaming engine's per-shard emit); the batch
    size only sets how many observations are buffered before each
    flush, never the bytes.  Without ``sink``, all observations are
    returned as one list.
    """
    ecosystem = grabber.ecosystem
    observations: list[ScanObservation] = []
    flush = sink if sink is not None else observations.extend
    if not domains:
        if sink is not None:
            flush([])
        return observations
    total = len(domains) * config.connections_per_domain
    step = config.window_seconds / max(total, 1)
    clock = ecosystem.clock
    start = clock.now()
    window = max(1, int(concurrency))
    batch: list[ScanObservation] = []
    for tick, (rank, name) in enumerate(
        pair for _ in range(config.connections_per_domain) for pair in domains
    ):
        ecosystem.advance_to(max(start + tick * step, clock.now()))
        batch.append(
            grabber.grab(
                name,
                rank=rank,
                offer=config.offer,
                offer_tickets=config.offer_tickets,
            )
        )
        if len(batch) >= window:
            flush(batch)
            batch = []
    if batch:
        flush(batch)
    return observations


def thirty_minute_scan(
    grabber: ZGrabber,
    domains: Sequence[tuple[int, str]],
    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
    *,
    concurrency: int,
    sink: Optional[Callable[[list[ScanObservation]], object]] = None,
) -> list[ScanObservation]:
    """The paper's single-connection scan in a 30-minute window (§5.2)."""
    return sweep(
        grabber,
        domains,
        SweepConfig(
            offer=offer,
            connections_per_domain=1,
            window_seconds=30 * MINUTE,
            label="30min",
        ),
        concurrency=concurrency,
        sink=sink,
    )


__all__ = ["SweepConfig", "sweep", "thirty_minute_scan"]
