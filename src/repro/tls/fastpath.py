"""Fast handshakes for the scan core.

The record-layer exchange (``TLSClient.connect`` against
``TLSServer.accept``/``finish_*``) serializes real records, runs the
PRF, computes shared secrets, and signs key-exchange parameters on
every connection.  None of those bytes reach the study dataset: a
:class:`~repro.scanner.records.ScanObservation` records *decisions*
(negotiated suite, resumption outcome, ticket/STEK identity, the
server's key-exchange public value, certificate validity) — not
transcripts.

:func:`fast_handshake` is the second driver of the same decision
steps — :meth:`TLSClient.start`, :meth:`TLSServer.negotiate`,
:meth:`TLSClient.key_exchange`, :meth:`TLSServer.establish` — with
no records in between.  Every draw is made inside those steps, so the
client and server streams consume the same draws in the same order as
the record-layer exchange by construction.  What it skips:

* master secrets: one placeholder value stands in, on both sides of
  every fast connection, so resumption Finished checks (on either
  driver) pass exactly when they would with the real value;
* signatures and shared secrets: the client's key-exchange step reads
  an unsigned ServerKeyExchange, and its deferred crypto never runs;
* ticket bodies: issued tickets are
  :class:`~repro.tls.ticket.SealedTicket` values whose cleartext head
  is all the scanner reads; the body is sealed only if a resumption
  opens it.

Only capture-mode grabs (the passive adversary needs real records) and
``study --oracle`` take the record-layer exchange.
"""

from __future__ import annotations

from typing import Optional

from ..crypto import dh, ec
from ..crypto.rsa import RSAPrivateKey
from .ciphers import CipherSuite, MODERN_BROWSER_OFFER
from .client import HANDSHAKE_ERRORS, HandshakeResult, ServerKeyExchange, TLSClient
from .constants import VERIFY_DATA_LENGTH
from .keyexchange import KeyPair
from .messages import NewSessionTicket, ServerKeyExchangeDHE, ServerKeyExchangeECDHE
from .server import ServerConnection, TLSServer
from .session import SessionState
from .ticket import Ticket

#: Stand-in master secret (48 bytes, like the PRF output).
PLACEHOLDER_MASTER = b"repro-fastpath-placeholder-master".ljust(48, b"\x00")


class _ZeroSigner:
    """Signs like ``key`` at its signature length, with all-zero bytes."""

    def __init__(self, key: RSAPrivateKey) -> None:
        self.byte_length = key.byte_length

    def sign(self, message: bytes) -> int:
        return 0


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
    handles) the record-layer exchange would, with the same RNG draws,
    cache side effects, counters, and error strings.
    """
    result = client.start(server_name, session_id, ticket, saved_session)
    try:
        conn = server.negotiate(
            result.client_random, server_name, offer, session_id, ticket,
            bool(ticket) or offer_tickets,
        )
        result.server_random = conn.server_random
        result.cipher_suite = conn.cipher_suite
        result.session_id = conn.session_id
        result.server_supports_tickets = conn.issue_ticket
        resumed = conn.resumed
        if not resumed:
            client.key_exchange(
                result, conn.certificate, server_name, _unsigned_kex(conn.kex_keypair)
            )
        server.establish(conn, PLACEHOLDER_MASTER)
        if conn.ticket is not None:
            result.new_ticket = NewSessionTicket(
                lifetime_hint_seconds=server.config.ticket_policy.lifetime_hint_seconds,
                ticket=conn.ticket,
            )
        if resumed:
            client.resumed(result, saved_session, ticket)
        else:
            client.established(result, conn.session)
    except HANDSHAKE_ERRORS as exc:
        result.fail(exc)
    return result


def _unsigned_kex(keypair: Optional[KeyPair]) -> Optional[ServerKeyExchange]:
    """What the client reads from the ServerKeyExchange, less the signature."""
    if keypair is None:
        return None
    if isinstance(keypair, dh.DHKeyPair):
        group = keypair.group
        return ServerKeyExchangeDHE(group.prime, group.generator, keypair.public, b"")
    curve = keypair.curve
    point = ec.encode_point(curve, keypair.public)
    return ServerKeyExchangeECDHE(ec.NAMED_CURVE_IDS[curve.name], point, b"")


def placeholder_flight(server: TLSServer, conn: ServerConnection) -> bytes:
    """The payload of ``conn``'s first flight, at its exact wire length.

    The real serializer, with same-length placeholders for the
    ServerKeyExchange signature, the reissued ticket and the Finished,
    so it costs no RSA signature, ticket seal or PRF.
    """
    ticket = bytes(len(conn.ticket)) if conn.ticket is not None else b""
    return server.first_flight(
        conn, _ZeroSigner(conn.private_key), ticket,
        lambda transcript: bytes(VERIFY_DATA_LENGTH),
    )


__all__ = ["fast_handshake", "placeholder_flight", "PLACEHOLDER_MASTER"]
