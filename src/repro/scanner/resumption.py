"""Resumption-lifetime probes (paper §4.1 and §4.2).

For each domain: complete one full handshake, then attempt to resume
the *original* session one second later and every five minutes
afterwards, until the site fails to resume or 24 hours elapse.  For
session tickets, reissued tickets are ignored — the probe keeps
offering the ticket from the first connection, exactly as the paper
does.

Probes for all domains run interleaved on one virtual timeline — one
continuation per domain on a :class:`repro.netsim.eventloop.EventLoop`
— the way the real measurement ran concurrently against every site, so
a 24-hour experiment costs 24 virtual hours total rather than 24 hours
per domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..netsim.clock import HOUR, MINUTE
from ..netsim.eventloop import EventLoop, Wait
from ..tls.ciphers import CipherSuite, MODERN_BROWSER_OFFER
from ..tls.session import SessionState
from ..tls.ticket import Ticket
from .grab import ZGrabber
from .records import ResumptionProbeResult


@dataclass
class ProbeConfig:
    """Probe cadence (defaults mirror the paper's §4.1/§4.2 method)."""

    mechanism: str = "session_id"        # or "ticket"
    first_retry_seconds: float = 1.0
    interval_seconds: float = 5 * MINUTE
    max_duration_seconds: float = 24 * HOUR
    stagger_seconds: float = 10 * MINUTE  # initial handshakes spread
    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER
    connect_retries: int = 3              # tolerate transient failures


@dataclass
class _ProbeState:
    domain: str
    rank: int
    result: ResumptionProbeResult
    session: Optional[SessionState] = None
    session_id: bytes = b""
    ticket: Ticket = b""
    started_at: float = 0.0
    attempt_count: int = 0


def _attempt_connect(grabber: ZGrabber, state: _ProbeState, config: ProbeConfig):
    """One connection with transient-failure retries.

    The initial handshake goes through here too: its state still holds
    no session ID, no ticket and no session, which are ``connect``'s
    own defaults, so it offers nothing to resume.
    """
    for _ in range(config.connect_retries):
        result, _, error = grabber.connect(
            state.domain,
            offer=config.offer,
            session_id=state.session_id if config.mechanism == "session_id" else b"",
            ticket=state.ticket if config.mechanism == "ticket" else b"",
            saved_session=state.session,
            offer_tickets=config.mechanism == "ticket",
        )
        if result is not None:
            return result
        if error == "nxdomain":
            return None
    return None


def resumption_probe(
    grabber: ZGrabber,
    domains: list[tuple[int, str]],
    config: Optional[ProbeConfig] = None,
) -> list[ResumptionProbeResult]:
    """Run the 24-hour resumption-lifetime experiment for ``domains``."""
    config = config or ProbeConfig()
    if config.mechanism not in ("session_id", "ticket"):
        raise ValueError(f"unknown mechanism {config.mechanism!r}")
    ecosystem = grabber.ecosystem
    start = ecosystem.clock.now()
    loop = EventLoop(ecosystem.clock.now, ecosystem.advance_to)

    def probe_task(state: _ProbeState):
        # Phase 0: the initial full handshake; then one resumption
        # attempt per wake-up until failure or the 24-hour ceiling.
        _run_initial_handshake(grabber, state, config)
        if not _probe_continues(state):
            return
        state.started_at = ecosystem.clock.now()
        yield Wait.until(state.started_at + config.first_retry_seconds)
        while True:
            elapsed = ecosystem.clock.now() - state.started_at
            if elapsed > config.max_duration_seconds:
                state.result.hit_probe_ceiling = True
                return
            if not _run_resumption_attempt(grabber, state, config, elapsed):
                return
            next_due = ecosystem.clock.now() + config.interval_seconds
            if next_due - state.started_at > config.max_duration_seconds:
                state.result.hit_probe_ceiling = True
                return
            yield Wait.until(next_due)

    states: list[_ProbeState] = []
    stagger = config.stagger_seconds / max(len(domains), 1)
    for index, (rank, name) in enumerate(domains):
        state = _ProbeState(
            domain=name,
            rank=rank,
            result=ResumptionProbeResult(
                domain=name, rank=rank, mechanism=config.mechanism
            ),
        )
        states.append(state)
        loop.spawn(probe_task(state), at=start + index * stagger,
                   label=f"probe:{name}")
    loop.run()
    return [state.result for state in states]


def _run_initial_handshake(grabber: ZGrabber, state: _ProbeState, config: ProbeConfig) -> None:
    result = _attempt_connect(grabber, state, config)
    if result is None or not result.ok:
        return
    state.result.handshake_ok = True
    state.session = result.session
    if config.mechanism == "session_id":
        state.session_id = result.session_id
        state.result.issued = bool(result.session_id)
    else:
        if result.new_ticket is not None:
            state.ticket = result.new_ticket.ticket
            state.result.issued = True
            state.result.ticket_hint = result.new_ticket.lifetime_hint_seconds


def _probe_continues(state: _ProbeState) -> bool:
    return state.result.handshake_ok and state.result.issued


def _run_resumption_attempt(
    grabber: ZGrabber, state: _ProbeState, config: ProbeConfig, elapsed: float
) -> bool:
    state.result.attempts += 1
    result = _attempt_connect(grabber, state, config)
    if result is None or not result.ok:
        # Persistent connect failure: treat as end of probe (the paper's
        # "site failed to resume" condition includes unreachable sites).
        return False
    if result.resumed:
        state.result.max_success_delay = elapsed
        if elapsed <= config.first_retry_seconds + 1:
            state.result.resumed_at_1s = True
        return True
    return False


__all__ = ["ProbeConfig", "resumption_probe"]
