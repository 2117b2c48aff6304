"""The nation-state adversary model (paper §7).

A :class:`PassiveCollector` plays XKEYSCORE/TEMPORA: it stores raw TLS
wire bytes from observed connections — it never sees plaintext or any
endpoint secrets.  A :class:`NationStateAttacker` later obtains
server-side secrets (a STEK, a session cache snapshot, or a cached
Diffie-Hellman value — by intrusion, implant, or legal compulsion) and
attempts *retrospective decryption* of the recorded ciphertext.

Everything here works from the recorded bytes alone:

* the session ticket is lifted from the cleartext NewSessionTicket (or
  the ClientHello's session-ticket extension on resumed connections);
* client/server randoms come from the recorded hellos;
* with a stolen STEK the ticket opens to the session master secret,
  the connection keys re-derive, and application records decrypt;
* with a stolen DH exponent the premaster is recomputed from the
  recorded ClientKeyExchange, which yields the same keys.

This is the paper's central harm argument made executable: if any of
these secrets outlives the connection, "forward secret" ciphertext is
retroactively readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto import dh, ec
from ..crypto.prf import derive_master_secret
from ..tls.ciphers import CipherSuite
from ..tls.client import CapturedFlight
from ..tls.constants import ContentType, ExtensionType, KeyExchangeKind, ProtocolVersion
from ..tls.extensions import find_extension
from ..tls.messages import (
    ClientHello,
    ClientKeyExchange,
    NewSessionTicket,
    ServerHello,
    ServerKeyExchangeDHE,
    ServerKeyExchangeECDHE,
    parse_handshake,
)
from ..tls.record import TLSRecord, decrypt_recorded_record, parse_records
from ..tls.session import SessionCache, SessionState, derive_connection_keys
from ..tls.ticket import STEK, TicketFormat, open_ticket, sniff_ticket_format
from ..wireformat import DecodeError


@dataclass
class RecordedConnection:
    """One connection's wire capture, parsed for later exploitation."""

    domain: str
    timestamp: float
    client_random: bytes = b""
    server_random: bytes = b""
    cipher_suite: Optional[CipherSuite] = None
    offered_ticket: bytes = b""          # from the ClientHello extension
    issued_ticket: bytes = b""           # from NewSessionTicket
    offered_session_id: bytes = b""
    server_session_id: bytes = b""
    client_kex_public: bytes = b""       # from ClientKeyExchange
    server_kex_dhe: Optional[ServerKeyExchangeDHE] = None
    server_kex_ecdhe: Optional[ServerKeyExchangeECDHE] = None
    app_records: list[tuple[bool, int, TLSRecord]] = field(default_factory=list)
    # (from_client, per-direction sequence number, record)

    @property
    def best_ticket(self) -> bytes:
        """The ticket an attacker would target for this connection."""
        return self.offered_ticket or self.issued_ticket


def reconstruct_connection(
    domain: str, timestamp: float, flights: list[CapturedFlight]
) -> RecordedConnection:
    """Parse raw captured flights into a :class:`RecordedConnection`.

    This is strictly passive: only bytes on the wire are consulted.
    """
    recorded = RecordedConnection(domain=domain, timestamp=timestamp)
    sequences = {True: 0, False: 0}
    kex_hint: Optional[str] = None
    for flight in flights:
        for record in parse_records(flight.data):
            if record.content_type is ContentType.APPLICATION_DATA:
                recorded.app_records.append(
                    (flight.from_client, sequences[flight.from_client], record)
                )
                sequences[flight.from_client] += 1
                continue
            if record.content_type is not ContentType.HANDSHAKE:
                continue
            payload = record.payload
            while payload:
                try:
                    message, payload = parse_handshake(payload, kex_hint=kex_hint)
                except DecodeError:
                    break
                if isinstance(message, ClientHello):
                    recorded.client_random = message.random
                    recorded.offered_session_id = message.session_id
                    ticket = find_extension(
                        message.extensions, ExtensionType.SESSION_TICKET
                    )
                    if ticket:
                        recorded.offered_ticket = ticket
                elif isinstance(message, ServerHello):
                    recorded.server_random = message.random
                    recorded.server_session_id = message.session_id
                    recorded.cipher_suite = message.cipher_suite
                    kex_hint = {
                        KeyExchangeKind.DHE: "dhe",
                        KeyExchangeKind.ECDHE: "ecdhe",
                    }.get(message.cipher_suite.kex)
                elif isinstance(message, NewSessionTicket):
                    recorded.issued_ticket = message.ticket
                elif isinstance(message, ClientKeyExchange):
                    recorded.client_kex_public = message.exchange_data
                elif isinstance(message, ServerKeyExchangeDHE):
                    recorded.server_kex_dhe = message
                elif isinstance(message, ServerKeyExchangeECDHE):
                    recorded.server_kex_ecdhe = message
    return recorded


class PassiveCollector:
    """A bulk-interception buffer of TLS connections."""

    def __init__(self) -> None:
        self.connections: list[RecordedConnection] = []

    def intercept(
        self, domain: str, timestamp: float, flights: list[CapturedFlight]
    ) -> RecordedConnection:
        """Record one connection's flights from the wire."""
        recorded = reconstruct_connection(domain, timestamp, flights)
        self.connections.append(recorded)
        return recorded

    def __len__(self) -> int:
        return len(self.connections)


@dataclass
class DecryptionOutcome:
    """Result of one retrospective decryption attempt."""

    success: bool
    method: str = ""                  # "stek" | "session_cache" | "dh"
    master_secret: bytes = b""
    plaintexts: list[bytes] = field(default_factory=list)
    detail: str = ""


class NationStateAttacker:
    """Holds stolen server-side secrets and decrypts recorded traffic."""

    def __init__(self) -> None:
        self.stolen_steks: list[STEK] = []
        self.stolen_sessions: list[SessionState] = []
        self.stolen_dh_privates: list[dh.DHKeyPair] = []
        self.stolen_ec_privates: list[ec.ECKeyPair] = []

    # -- theft primitives (what the intrusion/subpoena yields) ----------

    def steal_steks(self, steks: list[STEK]) -> None:
        """Add exfiltrated STEKs (e.g. ``store.all_keys`` at theft time)."""
        self.stolen_steks.extend(steks)

    def steal_session_cache(self, cache: SessionCache, now: float) -> int:
        """Snapshot a compromised session cache's live sessions."""
        sessions = cache.live_sessions(now)
        self.stolen_sessions.extend(sessions)
        return len(sessions)

    def steal_kex_values(
        self,
        dh_keypair: Optional[dh.DHKeyPair] = None,
        ec_keypair: Optional[ec.ECKeyPair] = None,
    ) -> None:
        """Add a server's cached ephemeral private values."""
        if dh_keypair is not None:
            self.stolen_dh_privates.append(dh_keypair)
        if ec_keypair is not None:
            self.stolen_ec_privates.append(ec_keypair)

    # -- retrospective decryption ------------------------------------------

    def decrypt(self, recorded: RecordedConnection) -> DecryptionOutcome:
        """Try every stolen secret against one recorded connection."""
        for attempt in (
            self._try_stek,
            self._try_session_cache,
            self._try_dh,
        ):
            outcome = attempt(recorded)
            if outcome.success:
                return outcome
        return DecryptionOutcome(success=False, detail="no stolen secret applies")

    def decrypt_all(self, collector: PassiveCollector) -> list[DecryptionOutcome]:
        return [self.decrypt(c) for c in collector.connections]

    def _finish(
        self, recorded: RecordedConnection, session: SessionState, method: str
    ) -> DecryptionOutcome:
        keys = derive_connection_keys(
            session, recorded.client_random, recorded.server_random
        )
        plaintexts = []
        for from_client, sequence, record in recorded.app_records:
            try:
                plaintexts.append(
                    decrypt_recorded_record(
                        keys, record, sequence, from_client,
                        suite=recorded.cipher_suite,
                    )
                )
            except DecodeError:
                return DecryptionOutcome(
                    success=False, method=method,
                    detail="recovered keys failed record authentication",
                )
        return DecryptionOutcome(
            success=True,
            method=method,
            master_secret=session.master_secret,
            plaintexts=plaintexts,
        )

    def _try_stek(self, recorded: RecordedConnection) -> DecryptionOutcome:
        ticket = recorded.best_ticket
        if not ticket or not recorded.client_random:
            return DecryptionOutcome(success=False)
        try:
            ticket_format = sniff_ticket_format(ticket)
        except DecodeError:
            return DecryptionOutcome(success=False)
        for stek in self.stolen_steks:
            if len(stek.key_name) != _key_name_length(ticket_format):
                continue
            contents = open_ticket(stek, ticket, ticket_format)
            if contents is None:
                continue
            return self._finish(recorded, contents.session, "stek")
        return DecryptionOutcome(success=False)

    def _try_session_cache(self, recorded: RecordedConnection) -> DecryptionOutcome:
        if not recorded.server_session_id:
            return DecryptionOutcome(success=False)
        for session in self.stolen_sessions:
            outcome = self._finish(recorded, session, "session_cache")
            if outcome.success:
                return outcome
        return DecryptionOutcome(success=False)

    def _try_dh(self, recorded: RecordedConnection) -> DecryptionOutcome:
        if not recorded.client_kex_public or recorded.cipher_suite is None:
            return DecryptionOutcome(success=False)
        if recorded.server_kex_dhe is not None:
            for keypair in self.stolen_dh_privates:
                if keypair.public != recorded.server_kex_dhe.dh_public:
                    continue
                client_public = int.from_bytes(recorded.client_kex_public, "big")
                try:
                    premaster = keypair.shared_secret_bytes(client_public)
                except dh.InvalidPublicValue:
                    continue
                return self._finish_premaster(recorded, premaster, "dh")
        if recorded.server_kex_ecdhe is not None:
            for keypair in self.stolen_ec_privates:
                expected = ec.encode_point(keypair.curve, keypair.public)
                if expected != recorded.server_kex_ecdhe.point:
                    continue
                try:
                    point = ec.decode_point(keypair.curve, recorded.client_kex_public)
                    premaster = keypair.shared_secret_bytes(point)
                except (ValueError, ec.NotOnCurveError):
                    continue
                return self._finish_premaster(recorded, premaster, "dh")
        return DecryptionOutcome(success=False)

    def _finish_premaster(
        self, recorded: RecordedConnection, premaster: bytes, method: str
    ) -> DecryptionOutcome:
        assert recorded.cipher_suite is not None
        master = derive_master_secret(
            premaster, recorded.client_random, recorded.server_random
        )
        session = SessionState(
            master_secret=master,
            cipher_suite=recorded.cipher_suite,
            version=ProtocolVersion.TLS12,
            created_at=recorded.timestamp,
            domain=recorded.domain,
        )
        return self._finish(recorded, session, method)


def _key_name_length(ticket_format: TicketFormat) -> int:
    return 4 if ticket_format is TicketFormat.MBEDTLS else 16


__all__ = [
    "RecordedConnection",
    "reconstruct_connection",
    "PassiveCollector",
    "NationStateAttacker",
    "DecryptionOutcome",
]
