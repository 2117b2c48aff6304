"""zgrab-style single-connection TLS grabs.

:class:`ZGrabber` wraps DNS resolution, connection routing, the TLS
client handshake, and record extraction into one call that never
raises: every failure mode (NXDOMAIN, timeout, handshake failure,
certificate problems) becomes a :class:`ScanObservation` with
``success=False`` and an error string — exactly how an Internet-wide
scanner has to behave.

Failures carry a *reason* from the taxonomy below; with a
:class:`repro.faults.RetryPolicy` the grabber retries retryable
reasons with capped exponential backoff on the **virtual** clock and
trips a per-domain circuit breaker.  The default policy is a single
attempt with no breaker — byte-identical to the historical scanner.

Failure taxonomy (the ``reason`` label on ``scanner.grab.failure``):

* ``nxdomain``         — DNS says the name does not exist
* ``connect_timeout``  — transient no-response (netsim flat rate)
* ``no_backend``       — endpoint routable but no process serving it
* ``outage``           — chaos-plan outage window
* ``reset``/``truncate`` — injected mid-handshake faults
* ``handshake``        — the TLS handshake itself failed
* ``breaker_open``     — skipped: the domain's circuit breaker is open
"""

from __future__ import annotations

import time
from typing import Optional

from ..crypto.rng import DeterministicRandom
from ..faults.retry import DEFAULT_RETRY_POLICY, RETRYABLE_REASONS, CircuitBreaker
from ..hosting.ecosystem import Ecosystem
from ..netsim.dns import NXDomainError
from ..netsim.network import ConnectTimeout
from ..obs.events import EVENTS
from ..obs.metrics import DEFAULT_SECONDS_BUCKETS, METRICS
from ..obs.profiling import PROFILER
from ..tls.ciphers import CipherSuite, MODERN_BROWSER_OFFER
from ..tls.client import HandshakeResult, TLSClient
from ..tls.constants import KeyExchangeKind
from ..tls.fastpath import fast_handshake
from ..tls.session import SessionState
from ..tls.ticket import Ticket, extract_key_name, sniff_ticket_format
from ..tls.wire import DecodeError
from .records import ScanObservation

_KEX_NAMES = {
    KeyExchangeKind.RSA: "rsa",
    KeyExchangeKind.DHE: "dhe",
    KeyExchangeKind.ECDHE: "ecdhe",
}

#: Every reason a grab can fail for (see module docstring).
FAILURE_REASONS = (
    "nxdomain",
    "connect_timeout",
    "no_backend",
    "outage",
    "reset",
    "truncate",
    "handshake",
    "breaker_open",
)

# Prebound instruments: connect() is the hot path (one call per grab),
# so the dict lookups happen once at import, not per connection.
_GRAB_TOTAL = METRICS.counter("scanner.grab.attempt")
_GRAB_FAILURE = {
    reason: METRICS.counter("scanner.grab.failure", reason=reason)
    for reason in FAILURE_REASONS
}
_GRAB_RETRY = {
    reason: METRICS.counter("scanner.grab.retry", reason=reason)
    for reason in sorted(RETRYABLE_REASONS)
}
_GRAB_SECONDS = METRICS.histogram(
    "scanner.grab.seconds", bounds=DEFAULT_SECONDS_BUCKETS
)
_GRAB_ATTEMPTS = METRICS.histogram(
    "scanner.grab.attempts_per_grab", bounds=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
)
_BREAKER_OPEN = METRICS.gauge("scanner.breaker.open")
_BREAKER_OPENED = METRICS.counter("scanner.breaker.opened")
_BREAKER_CLOSED = METRICS.counter("scanner.breaker.closed")


class ZGrabber:
    """A scanning client bound to one ecosystem."""

    def __init__(
        self,
        ecosystem: Ecosystem,
        rng: DeterministicRandom,
        retry=None,
        fast: bool = True,
    ) -> None:
        self.ecosystem = ecosystem
        self._rng = rng
        #: Use the fast handshake (repro.tls.fastpath) for every grab
        #: but captures; False forces the record-layer exchange.
        #: Output bytes are identical either way — the oracle is kept
        #: selectable for equivalence tests and `study --oracle`.
        self.fast = fast
        self.client = TLSClient(
            rng.fork("tls-client"),
            ecosystem.trust_store,
            ecosystem.clock.now,
            reuse_client_ephemerals=True,
        )
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._breaker = (
            CircuitBreaker(self.retry.breaker_threshold,
                           self.retry.breaker_cooldown_seconds)
            if self.retry.breaker_threshold > 0 else None
        )
        self._retries_left = self.retry.retry_budget
        #: Connection attempts (the StudyStats "grabs" counter).
        self.grabs = 0
        #: Attempts that never reached a completed handshake.
        self.failures = 0
        #: Retries taken (0 under the default single-attempt policy).
        self.retries = 0

    # -- low-level ---------------------------------------------------------

    def connect(
        self,
        domain: str,
        offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
        session_id: bytes = b"",
        ticket: Ticket = b"",
        saved_session: Optional[SessionState] = None,
        offer_tickets: bool = True,
        capture: bool = False,
        ip=None,
        port: int = 443,
    ) -> tuple[Optional[HandshakeResult], str, str]:
        """Resolve, route, and handshake.  Returns (result, ip, error).

        ``port`` selects the TLS service (443 HTTPS, 465/993/995 for the
        mail protocols the §7.2 analysis cross-checks).  Retryable
        failures are re-attempted per the grabber's retry policy; the
        returned triple reflects the final attempt."""
        policy = self.retry
        clock = self.ecosystem.clock
        breaker = self._breaker
        if breaker is not None and not breaker.allow(domain, clock.now()):
            # Skipped grabs still count as grabs so record/stat parity
            # with the attempted schedule is preserved.
            self.grabs += 1
            self.failures += 1
            _GRAB_TOTAL.value += 1
            _GRAB_FAILURE["breaker_open"].value += 1
            return None, "", "breaker open"
        attempts = 0
        while True:
            attempts += 1
            result, address, error, reason = self._attempt(
                domain, offer, session_id, ticket, saved_session,
                offer_tickets, capture, ip, port,
            )
            if reason is None or attempts >= policy.max_attempts:
                break
            if reason not in RETRYABLE_REASONS or not self._take_retry_token():
                break
            self.retries += 1
            _GRAB_RETRY[reason].value += 1
            if EVENTS.enabled:
                EVENTS.emit(
                    "scanner.retry", level="warning",
                    domain=domain, reason=reason, attempt=attempts,
                )
            # Backoff advances *virtual* time through the ecosystem so
            # scheduled events (STEK rotations, churn) fire while the
            # scanner waits, just as during a real scan.
            self.ecosystem.advance_to(clock.now() + policy.backoff_delay(attempts))
        if breaker is not None:
            transition = breaker.record(domain, reason is None, clock.now())
            if transition == "opened":
                _BREAKER_OPENED.value += 1
                if EVENTS.enabled:
                    EVENTS.emit("breaker.opened", level="warning", domain=domain)
            elif transition == "closed":
                _BREAKER_CLOSED.value += 1
                if EVENTS.enabled:
                    EVENTS.emit("breaker.closed", domain=domain)
            _BREAKER_OPEN.set(breaker.open_count)
        if policy.enabled:
            _GRAB_ATTEMPTS.observe(float(attempts))
        return result, address, error

    def _take_retry_token(self) -> bool:
        if self._retries_left is None:
            return True
        if self._retries_left <= 0:
            return False
        self._retries_left -= 1
        return True

    def _attempt(
        self, domain, offer, session_id, ticket, saved_session,
        offer_tickets, capture, ip, port,
    ) -> tuple[Optional[HandshakeResult], str, str, Optional[str]]:
        """One attempt: (result, ip, error, failure_reason-or-None)."""
        self.grabs += 1
        _GRAB_TOTAL.value += 1
        started = time.perf_counter()
        try:
            address = (
                ip if ip is not None
                else self.ecosystem.dns.resolve(domain, self._rng)
            )
        except NXDomainError:
            self.failures += 1
            _GRAB_FAILURE["nxdomain"].value += 1
            elapsed = time.perf_counter() - started
            _GRAB_SECONDS.observe(elapsed)
            PROFILER.observe_grab(domain, elapsed)
            return None, "", "nxdomain", "nxdomain"
        try:
            server = self.ecosystem.network.connect(address, port, domain=domain)
        except ConnectTimeout as exc:
            self.failures += 1
            reason = getattr(exc, "reason", "connect_timeout")
            _GRAB_FAILURE[reason].value += 1
            elapsed = time.perf_counter() - started
            _GRAB_SECONDS.observe(elapsed)
            PROFILER.observe_grab(domain, elapsed)
            return None, str(address), f"connect: {exc}", reason
        # Captures need real record flights; everything else,
        # fault-injected connections included, skips the
        # unobservable crypto with identical draws and side effects.
        if self.fast and not capture:
            result = fast_handshake(
                self.client,
                server,
                server_name=domain,
                offer=offer,
                session_id=session_id,
                ticket=ticket,
                saved_session=saved_session,
                offer_tickets=offer_tickets,
            )
        else:
            result = self.client.connect(
                server,
                server_name=domain,
                offer=offer,
                session_id=session_id,
                ticket=ticket,
                saved_session=saved_session,
                offer_tickets=offer_tickets,
                capture=capture,
            )
        reason = None
        if not result.ok:
            self.failures += 1
            reason = getattr(server, "injected_fault", None) or "handshake"
            _GRAB_FAILURE[reason].value += 1
        elapsed = time.perf_counter() - started
        _GRAB_SECONDS.observe(elapsed)
        PROFILER.observe_grab(domain, elapsed)
        return result, str(address), result.error, reason

    # -- observation construction -------------------------------------------

    def grab(
        self,
        domain: str,
        rank: int = 0,
        offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
        offer_tickets: bool = True,
    ) -> ScanObservation:
        """One fresh-connection grab, recorded as a ScanObservation."""
        clock = self.ecosystem.clock
        observation = ScanObservation(
            domain=domain,
            day=clock.day_index,
            timestamp=clock.now(),
            rank=rank,
        )
        result, address, error = self.connect(
            domain, offer=offer, offer_tickets=offer_tickets
        )
        observation.ip = address
        if result is None or not result.ok:
            observation.error = error or "handshake failed"
            return observation
        self._fill_from_result(observation, result)
        return observation

    @staticmethod
    def _fill_from_result(observation: ScanObservation, result: HandshakeResult) -> None:
        observation.success = True
        assert result.cipher_suite is not None
        observation.cipher = result.cipher_suite.name
        observation.kex_kind = _KEX_NAMES[result.cipher_suite.kex]
        observation.forward_secret = result.cipher_suite.forward_secret
        observation.cert_trusted = result.certificate_trusted
        observation.cert_error = result.certificate_error
        observation.session_id_set = bool(result.session_id)
        observation.resumed = result.resumed
        observation.resumed_via = result.resumed_via
        observation.ticket_extension = result.server_supports_tickets
        if result.new_ticket is not None:
            observation.ticket_issued = True
            observation.ticket_hint = result.new_ticket.lifetime_hint_seconds
            ticket = result.new_ticket.ticket
            try:
                ticket_format = sniff_ticket_format(ticket)
                observation.ticket_format = ticket_format.value
                observation.stek_id = extract_key_name(ticket, ticket_format).hex()
            except DecodeError:
                observation.ticket_format = "unknown"
        if result.server_kex_public:
            observation.kex_public = result.server_kex_public.hex()


__all__ = ["ZGrabber", "FAILURE_REASONS"]
