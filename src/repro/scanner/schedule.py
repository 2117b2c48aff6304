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
from ..netsim.eventloop import EventLoop, Wait
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

    Grabs are admitted onto a :class:`~repro.netsim.eventloop.EventLoop`
    in batches of ``concurrency`` in-flight tasks.  Every grab is
    scheduled at its window tick and the loop resumes tasks in
    ``(due, admission)`` order, at ``max(due, now)``, so the batch size
    never changes output bytes, only how many observations are buffered
    before each flush (memory).

    ``sink`` receives observation batches as they complete (the
    streaming engine's per-shard emit); without it, all observations
    are returned as one list.
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
    start = ecosystem.clock.now()
    schedule = (
        (tick, rank, name)
        for tick, (rank, name) in enumerate(
            (pair for _ in range(config.connections_per_domain) for pair in domains)
        )
    )
    window = max(1, int(concurrency))
    loop = EventLoop(ecosystem.clock.now, ecosystem.advance_to)
    batch: list[ScanObservation] = []

    def one_grab(due: float, rank: int, name: str):
        """Continuation for one scheduled grab: park until its window
        tick, then run the grab to completion."""
        yield Wait.until(due)
        batch.append(
            grabber.grab(
                name,
                rank=rank,
                offer=config.offer,
                offer_tickets=config.offer_tickets,
            )
        )

    exhausted = False
    while not exhausted:
        admitted = 0
        for tick, rank, name in schedule:
            loop.spawn(one_grab(start + tick * step, rank, name))
            admitted += 1
            if admitted >= window:
                break
        else:
            exhausted = True
        if admitted:
            loop.run()
            flush(batch)
            batch = []
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
