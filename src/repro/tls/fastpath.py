"""Draw-identical fast handshakes for the event-driven scan core.

The blocking client/server exchange serializes real records, runs the
PRF, computes shared secrets, and signs key-exchange parameters on
every connection.  None of those bytes reach the study dataset: a
:class:`~repro.scanner.records.ScanObservation` records *decisions*
(negotiated suite, resumption outcome, ticket/STEK identity, the
server's key-exchange public value, certificate validity) — not
transcripts.  This module replays exactly those decisions against the
same server-side state (session caches, STEK stores, ephemeral-key
caches) while skipping the unobservable crypto.

The one invariant that makes this safe is **draw identity**: every
:class:`~repro.crypto.rng.DeterministicRandom` stream (client,
per-server, network, grabber) must consume *the same draws in the same
order* as the blocking path, because any skipped or reordered draw
changes every subsequent random value and therefore dataset bytes.
The per-connection draw order replicated here (audited against
``client.py``/``server.py``; the golden-digest and oracle-equivalence
tests enforce it):

* client stream — ``client_random`` (32 B); then, full handshakes
  only: RSA premaster (48 B) or first-use (EC)DHE keypair generation.
* server stream — nothing on negotiation failure (strict SNI, no
  common cipher); otherwise ``server_random`` (32 B), then
  abbreviated: fresh session ID iff issuing on a ticket resume, then
  the reissued ticket's seal IV; full: fresh session ID, ephemeral
  keypair regeneration per the reuse policy, then the new ticket's
  seal IV.

Master secrets are replaced by one placeholder value: they never
appear in dataset bytes, and Finished verification succeeds
identically (both sides derive from the same session state).  Tickets
are issued as :class:`~repro.tls.ticket.SealedTicket` values: the IV
is drawn and the cleartext head (STEK identity, framing, exact wire
length) fixed at issue, and the state is encrypted only if the
ticket's bytes are needed — on resumption, which opens the real
sealed bytes, or never on a scan that only reads the head.
Connections that need real transcripts — captures for the passive
adversary, or fault-injected flights whose error strings depend on
record structure — are delegated to the blocking oracle by the
grabber.
"""

from __future__ import annotations

from typing import Optional

from ..crypto import dh, ec
from ..obs.metrics import METRICS
from .ciphers import CipherSuite, MODERN_BROWSER_OFFER, select_suite
from .client import HandshakeResult, TLSClient
from .constants import (
    AlertDescription,
    KeyExchangeKind,
    ProtocolVersion,
    SESSION_ID_LENGTH,
)
from .errors import HandshakeFailure, TLSError
from .messages import NewSessionTicket
from .server import TLSServer
from .session import SessionState
from .ticket import SealedTicket, Ticket
from .wire import DecodeError

#: Stand-in master secret (48 bytes, like the PRF output).  Used
#: consistently on both sides of every fast connection, so resumption
#: Finished checks pass exactly when they would with the real value.
PLACEHOLDER_MASTER = b"repro-fastpath-placeholder-master".ljust(48, b"\x00")

_KEX_NAME = {
    KeyExchangeKind.RSA: "rsa",
    KeyExchangeKind.DHE: "dhe",
    KeyExchangeKind.ECDHE: "ecdhe",
}

# Prebound instruments (one dict lookup per import, not per grab) —
# the same label sets the blocking path emits.
_SERVER_HS = {
    (kind, kex): METRICS.counter("tls.server.handshake", kind=kind, kex=kex)
    for kind in ("full", "abbreviated")
    for kex in _KEX_NAME.values()
}
_CLIENT_HS = {
    (kind, kex): METRICS.counter("tls.client.handshake", kind=kind, kex=kex)
    for kind in ("full", "abbreviated")
    for kex in _KEX_NAME.values()
}
_FAIL_SNI = METRICS.counter("tls.server.handshake_failure", reason="sni")
_FAIL_NO_CIPHER = METRICS.counter("tls.server.handshake_failure", reason="no_cipher")


def fast_handshake(
    client: TLSClient,
    server: TLSServer,
    server_name: str = "",
    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
    session_id: bytes = b"",
    ticket: Ticket = b"",
    saved_session: Optional[SessionState] = None,
    offer_tickets: bool = True,
) -> HandshakeResult:
    """One TLS connection on the fast path; mirrors ``TLSClient.connect``.

    Returns the same :class:`HandshakeResult` (minus capture/record
    handles) the blocking exchange would, with the same RNG draws,
    cache side effects, counters, and error strings.
    """
    if (session_id or ticket) and saved_session is None:
        raise ValueError("resumption offers require the saved session state")
    result = HandshakeResult(ok=False, domain=server_name,
                             offered_session_id=session_id)
    try:
        _exchange(client, server, server_name, offer, session_id, ticket,
                  saved_session, offer_tickets, result)
    except (TLSError, DecodeError, ValueError) as exc:
        result.ok = False
        if not result.error:
            result.error = f"{type(exc).__name__}: {exc}"
    return result


def _exchange(
    client: TLSClient,
    server: TLSServer,
    server_name: str,
    offer: tuple[CipherSuite, ...],
    session_id: bytes,
    ticket: Ticket,
    saved_session: Optional[SessionState],
    offer_tickets: bool,
    result: HandshakeResult,
) -> None:
    crng = client._rng
    result.client_random = crng.random_bytes(32)

    # -- server: ClientHello processing (decisions, no wire) ---------------
    config = server.config
    now = server._now()
    certificate, _private_key = config.certificate_for(server_name)
    if (
        config.strict_sni
        and server_name
        and not certificate.matches_hostname(server_name)
    ):
        server.failed_handshakes += 1
        _FAIL_SNI.value += 1
        raise HandshakeFailure(f"unrecognized server name {server_name!r}",
                               AlertDescription.UNRECOGNIZED_NAME)
    suite = select_suite(
        list(offer), config.supported_suites, config.server_cipher_preference
    )
    if suite is None:
        server.failed_handshakes += 1
        _FAIL_NO_CIPHER.value += 1
        raise HandshakeFailure("no mutually supported cipher suite")

    srng = server._rng
    result.server_random = srng.random_bytes(32)
    session, via = server.resume_lookup(ticket, session_id, now)
    if session is not None:
        _abbreviated(client, server, session, via, session_id, ticket,
                     saved_session, offer_tickets, now, result)
    else:
        _full(client, server, suite, certificate, server_name, ticket,
              offer_tickets, now, result)


def _abbreviated(
    client: TLSClient,
    server: TLSServer,
    session: SessionState,
    via: str,
    offered_session_id: bytes,
    ticket: Ticket,
    saved_session: Optional[SessionState],
    offer_tickets: bool,
    now: float,
    result: HandshakeResult,
) -> None:
    config = server.config
    policy = config.ticket_policy
    client_offers_tickets = bool(ticket) or offer_tickets
    reissue = (
        via == "ticket"
        and config.stek_store is not None
        and policy.reissue_on_resume
        and client_offers_tickets
    )
    if via == "session_id":
        new_session_id = offered_session_id
    elif config.issue_session_ids:
        new_session_id = server._rng.random_bytes(SESSION_ID_LENGTH)
    else:
        new_session_id = b""
    fresh_ticket: Optional[SealedTicket] = None
    if reissue:
        assert config.stek_store is not None
        fresh_ticket = config.stek_store.issue(session, server._rng, now=now)

    # Finished exchange: both sides hold the same master secret by
    # construction (the ticket/cache state came from the session the
    # client saved), so verification succeeds — effects only.
    kex_name = _KEX_NAME[session.cipher_suite.kex]
    server.resumptions += 1
    _SERVER_HS[("abbreviated", kex_name)].value += 1

    result.cipher_suite = session.cipher_suite
    result.session_id = new_session_id
    result.server_supports_tickets = reissue
    if fresh_ticket is not None:
        result.new_ticket = NewSessionTicket(
            lifetime_hint_seconds=policy.lifetime_hint_seconds,
            ticket=fresh_ticket,
        )
    result.ok = True
    result.resumed = True
    result.resumed_via = "ticket" if ticket else "session_id"
    _CLIENT_HS[("abbreviated", kex_name)].value += 1
    result.session = saved_session


def _full(
    client: TLSClient,
    server: TLSServer,
    suite: CipherSuite,
    certificate,
    server_name: str,
    ticket: Ticket,
    offer_tickets: bool,
    now: float,
    result: HandshakeResult,
) -> None:
    config = server.config
    srng = server._rng
    will_issue_ticket = (
        config.stek_store is not None and (bool(ticket) or offer_tickets)
    )
    new_session_id = (
        srng.random_bytes(SESSION_ID_LENGTH) if config.issue_session_ids else b""
    )
    if suite.kex == KeyExchangeKind.DHE:
        keypair = server.kex_cache.get_dh(config.dh_group, srng, now)
        server_kex_public = dh.int_to_group_bytes(config.dh_group, keypair.public)
    elif suite.kex == KeyExchangeKind.ECDHE:
        keypair = server.kex_cache.get_ec(config.curve, srng, now)
        server_kex_public = ec.encode_point(config.curve, keypair.public)
    else:
        server_kex_public = b""

    # -- client: certificate + key exchange --------------------------------
    result.certificate = certificate
    if client.trust_store is not None:
        validation = client.trust_store.validate(
            certificate, server_name or None, client._now()
        )
        result.certificate_trusted = bool(validation)
        result.certificate_error = validation.reason
    result.server_kex_kind = suite.kex
    if suite.kex == KeyExchangeKind.RSA:
        premaster = client._rng.random_bytes(48)
        if int.from_bytes(premaster, "big") >= certificate.public_key.n:
            raise HandshakeFailure("server RSA key too small for premaster")
    elif suite.kex == KeyExchangeKind.DHE:
        if not 1 < keypair.public < config.dh_group.prime - 1:
            # The blocking client validates through a "negotiated" group
            # built from the wire parameters; replicate its message.
            raise dh.InvalidPublicValue("public value out of range for negotiated")
        if client.reuse_client_ephemerals:
            if config.dh_group.prime not in client._dh_keypairs:
                client._dh_keypairs[config.dh_group.prime] = dh.generate_keypair(
                    config.dh_group, client._rng
                )
        else:
            # generate_keypair's only draw; the pow() result is unobserved.
            client._rng.randrange(2, config.dh_group.prime - 1)
        result.server_kex_public = server_kex_public
    elif suite.kex == KeyExchangeKind.ECDHE:
        if client.reuse_client_ephemerals:
            if config.curve.name not in client._ec_keypairs:
                client._ec_keypairs[config.curve.name] = ec.generate_keypair(
                    config.curve, client._rng
                )
        else:
            client._rng.randrange(1, config.curve.n)
        result.server_kex_public = server_kex_public

    # -- server: session establishment + ticket issuance -------------------
    session = SessionState(
        master_secret=PLACEHOLDER_MASTER,
        cipher_suite=suite,
        version=ProtocolVersion.TLS12,
        created_at=now,
        domain=server_name,
    )
    if config.session_cache is not None and new_session_id:
        config.session_cache.store(new_session_id, session, now)
    new_ticket: Optional[SealedTicket] = None
    if will_issue_ticket:
        assert config.stek_store is not None
        new_ticket = config.stek_store.issue(session, srng, now=now)
    kex_name = _KEX_NAME[suite.kex]
    server.full_handshakes += 1
    _SERVER_HS[("full", kex_name)].value += 1

    # -- client: record the outcome ----------------------------------------
    result.cipher_suite = suite
    result.session_id = new_session_id
    result.server_supports_tickets = will_issue_ticket
    if new_ticket is not None:
        result.new_ticket = NewSessionTicket(
            lifetime_hint_seconds=config.ticket_policy.lifetime_hint_seconds,
            ticket=new_ticket,
        )
    result.ok = True
    _CLIENT_HS[("full", kex_name)].value += 1
    result.session = session


__all__ = ["fast_handshake", "PLACEHOLDER_MASTER"]
