"""The TLS 1.2 server state machine.

One :class:`TLSServer` models one server *process* (or one SSL
terminator worker): it owns an ephemeral-key cache, points at a session
cache and a STEK store (both of which may be shared with other servers
— that sharing is the paper's §5 subject), and serves whatever
certificate its operator configured.

Every handshake decision is made by two steps that work on decoded
values: :meth:`TLSServer.negotiate` (the first flight) and
:meth:`TLSServer.establish` (after the client's last flight).  The
synchronous, flight-oriented exchange API decodes real records, calls
those steps and serializes their outcome:

    flight, conn = server.accept(client_hello_bytes)
    # full handshake:
    flight2 = server.finish_full(conn, client_flight_bytes)
    # abbreviated handshake:
    server.finish_abbreviated(conn, client_finished_bytes)
    # then, optionally:
    reply = server.handle_application_record(conn, record_bytes)

Finished values are PRF-derived from the running transcript, and
resumption semantics (RFC 5077 ticket-over-session-ID precedence,
ticket reissue, cache expiry) follow the behaviors the paper measures.
The fast path (:mod:`repro.tls.fastpath`) calls the same two steps
without the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..crypto import dh, ec
from ..crypto.mac import sha256, constant_time_equal
from ..crypto.prf import derive_master_secret, verify_data
from ..crypto.rng import DeterministicRandom
from ..crypto.rsa import RSAPrivateKey
from ..obs.metrics import METRICS
from ..wireformat import DecodeError
from ..x509 import X509Certificate
from .ciphers import CipherSuite, KeyExchangeKind, select_suite
from .constants import (
    AlertDescription,
    ExtensionType,
    ProtocolVersion,
    SESSION_ID_LENGTH,
)
from .errors import HandshakeFailure
from .extensions import decode_server_name, encode_session_ticket, find_extension
from .keyexchange import (
    EphemeralKeyCache,
    KexReusePolicy,
    KeyPair,
    build_dhe_kex,
    build_ecdhe_kex,
)
from .messages import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    parse_handshake,
    serialize_handshake,
)
from .record import RecordCipher, handshake_record, new_record_cipher, parse_records, serialize_records
from .session import SessionCache, SessionState, derive_connection_keys
from .ticket import SealedTicket, STEKStore, Ticket, TicketFormat

# Prebound instruments: negotiate/establish run once per handshake on
# every driver, so the label lookups happen once at import.
_HANDSHAKES = {
    (resumed, kex): METRICS.counter(
        "tls.server.handshake",
        kind="abbreviated" if resumed else "full",
        kex=kex.name.lower(),
    )
    for resumed in (False, True)
    for kex in KeyExchangeKind
}
_FAIL_SNI = METRICS.counter("tls.server.handshake_failure", reason="sni")
_FAIL_NO_CIPHER = METRICS.counter("tls.server.handshake_failure", reason="no_cipher")

# ServerHelloDone is always the same four bytes.
_SERVER_HELLO_DONE_BYTES = serialize_handshake(ServerHelloDone())


@dataclass
class TicketPolicy:
    """Session-ticket issuance and acceptance policy.

    ``lifetime_hint_seconds`` is the advertised hint (0 means
    "unspecified", which RFC 5077 leaves to client policy — 14,663 of
    the paper's domains did this).  ``accept_window_seconds`` is how
    long the server actually honors a ticket after issuance; the paper
    measures these independently because they routinely disagree.
    """

    lifetime_hint_seconds: int = 300
    accept_window_seconds: float = 300.0
    reissue_on_resume: bool = True
    ticket_format: TicketFormat = TicketFormat.RFC5077


@dataclass
class ServerConfig:
    """Operator-visible configuration of one TLS server."""

    certificate: X509Certificate
    private_key: RSAPrivateKey
    supported_suites: tuple[CipherSuite, ...]
    # Session-ID resumption: a server may issue IDs without caching
    # (Nginx's default), cache with a lifetime (Apache: 300 s), or not
    # issue at all.
    session_cache: Optional[SessionCache] = None
    issue_session_ids: bool = True
    # Ticket resumption: None disables the extension entirely.
    stek_store: Optional[STEKStore] = None
    ticket_policy: TicketPolicy = field(default_factory=TicketPolicy)
    # Key exchange parameters and reuse policy.
    dh_group: dh.DHGroup = dh.TEST_GROUP
    curve: ec.Curve = ec.P256
    kex_policy: KexReusePolicy = field(default_factory=KexReusePolicy)
    # Independent ECDHE reuse policy; None means "same as kex_policy".
    kex_policy_ec: Optional[KexReusePolicy] = None
    server_cipher_preference: bool = True
    # Whether this endpoint requires SNI to match its certificate.
    strict_sni: bool = False
    # SSL-terminator style virtual hosting: per-hostname certificates
    # tried before the default ``certificate``.  Keys may be exact names
    # or wildcard patterns; all domains still share this process's
    # session cache, STEK store, and ephemeral values — the paper's §5
    # cross-domain exposure.
    sni_certificates: dict[str, tuple[X509Certificate, RSAPrivateKey]] = field(
        default_factory=dict
    )

    def certificate_for(self, sni: str) -> tuple[X509Certificate, RSAPrivateKey]:
        """Select the certificate/key pair to present for an SNI value."""
        if sni:
            exact = self.sni_certificates.get(sni.lower())
            if exact is not None:
                return exact
            for cert, key in self.sni_certificates.values():
                if cert.matches_hostname(sni):
                    return cert, key
        return self.certificate, self.private_key


@dataclass(slots=True)
class ServerConnection:
    """One connection's server-side decisions, then its state between flights.

    :meth:`TLSServer.negotiate` fills in the decisions and
    :meth:`TLSServer.establish` completes them; ``transcript`` and
    ``record_cipher`` belong to the record-layer exchange alone.
    """

    client_random: bytes
    server_random: bytes
    sni: str
    cipher_suite: CipherSuite
    certificate: X509Certificate
    private_key: RSAPrivateKey
    #: ``"ticket"`` or ``"session_id"`` when resuming; None on a full handshake.
    resumed_via: Optional[str]
    #: The resumed session, or a full handshake's once established.
    session: Optional[SessionState]
    session_id: bytes = b""
    #: A resumption reissues its ticket with the first flight; a full
    #: handshake sends a new one after establishment.
    issue_ticket: bool = False
    ticket: Optional[SealedTicket] = None
    kex_keypair: Optional[KeyPair] = None
    transcript: bytes = b""
    record_cipher: Optional[RecordCipher] = None
    completed: bool = False

    @property
    def resumed(self) -> bool:
        return self.resumed_via is not None


class TLSServer:
    """A single TLS server process with configurable crypto shortcuts."""

    def __init__(
        self,
        config: ServerConfig,
        rng: DeterministicRandom,
        now_fn: Callable[[], float],
        kex_cache: Optional[EphemeralKeyCache] = None,
    ) -> None:
        self.config = config
        self._rng = rng
        self._now = now_fn
        # A shared cache models SSL terminators presenting one (EC)DHE
        # value across many server processes/domains (paper §5.3).
        self.kex_cache = kex_cache or EphemeralKeyCache(
            config.kex_policy, config.kex_policy_ec
        )

    # -- lifecycle -----------------------------------------------------

    def restart(self) -> None:
        """Simulate a process restart.

        Ephemeral KEX values are dropped, the in-memory session cache is
        cleared, and — if the STEK was randomly generated rather than
        loaded from a key file — the hosting layer is responsible for
        installing a fresh STEK (it owns rotation policy).
        """
        self.kex_cache.restart()
        if self.config.session_cache is not None:
            self.config.session_cache.clear()

    # -- handshake decisions ---------------------------------------------

    def negotiate(
        self,
        client_random: bytes,
        sni: str,
        suites: Sequence[CipherSuite],
        session_id: bytes,
        ticket: Ticket,
        offers_tickets: bool,
    ) -> ServerConnection:
        """Make every first-flight decision from the client's decoded offers.

        In draw order: the strict-SNI and cipher checks (no draw when
        they fail), ``server_random``, the resumption lookup, then a
        resumption's session ID and reissued ticket, or a full
        handshake's session ID and (EC)DHE keypair.  Both exchange
        drivers, :meth:`accept` and
        :func:`~repro.tls.fastpath.fast_handshake`, call this, so their
        draws and side effects agree by construction.
        """
        config = self.config
        now = self._now()
        certificate, private_key = config.certificate_for(sni)
        if config.strict_sni and sni and not certificate.matches_hostname(sni):
            _FAIL_SNI.value += 1
            raise HandshakeFailure(f"unrecognized server name {sni!r}",
                                   AlertDescription.UNRECOGNIZED_NAME)
        suite = select_suite(suites, config.supported_suites, config.server_cipher_preference)
        if suite is None:
            _FAIL_NO_CIPHER.value += 1
            raise HandshakeFailure("no mutually supported cipher suite")

        server_random = self._rng.random_bytes(32)
        session, via = self.resume_lookup(ticket, session_id, now)
        conn = ServerConnection(
            client_random, server_random, sni, suite, certificate, private_key, via, session,
        )
        if session is None:
            conn.issue_ticket = offers_tickets and config.stek_store is not None
            if config.issue_session_ids:
                conn.session_id = self._rng.random_bytes(SESSION_ID_LENGTH)
            if suite.kex == KeyExchangeKind.DHE:
                conn.kex_keypair = self.kex_cache.get_dh(config.dh_group, self._rng, now)
            elif suite.kex == KeyExchangeKind.ECDHE:
                conn.kex_keypair = self.kex_cache.get_ec(config.curve, self._rng, now)
            return conn
        conn.cipher_suite = session.cipher_suite
        # On session-ID resumption the server echoes the ID; on ticket
        # resumption OpenSSL-style stacks send a fresh (uncached) ID.
        if via == "session_id":
            conn.session_id = session_id
        elif config.issue_session_ids:
            conn.session_id = self._rng.random_bytes(SESSION_ID_LENGTH)
        # A ticket resumption implies a STEK store and a ticket offer.
        conn.issue_ticket = via == "ticket" and config.ticket_policy.reissue_on_resume
        if conn.issue_ticket:
            conn.ticket = config.stek_store.issue(session, self._rng, now=now)
        return conn

    def resume_lookup(
        self, ticket: Ticket, session_id: bytes, now: float
    ) -> tuple[Optional[SessionState], Optional[str]]:
        """RFC 5077 §3.4: a non-empty ticket takes precedence over the ID."""
        if ticket and self.config.stek_store is not None:
            contents = self.config.stek_store.open(ticket)
            if contents is not None:
                window = self.config.ticket_policy.accept_window_seconds
                if now - contents.issued_at <= window:
                    METRICS.counter("tls.server.resumption_accepted", via="ticket").inc()
                    return contents.session, "ticket"
            METRICS.counter("tls.server.resumption_rejected", via="ticket").inc()
            return None, None  # bad/expired ticket: fall through to full handshake
        if session_id and self.config.session_cache is not None:
            session = self.config.session_cache.lookup(session_id, now)
            if session is not None:
                METRICS.counter(
                    "tls.server.resumption_accepted", via="session_id"
                ).inc()
                return session, "session_id"
            METRICS.counter("tls.server.resumption_rejected", via="session_id").inc()
        return None, None

    def establish(self, conn: ServerConnection, master_secret: bytes) -> None:
        """Make the decisions that follow the client's finished flight.

        A full handshake's session is created with ``master_secret``,
        cached under its session ID and sealed into the ticket sent
        after it; a resumption keeps its session (``master_secret`` is
        unused).  Either way the handshake is counted.
        """
        resumed = conn.resumed
        if not resumed:
            now = self._now()
            session = conn.session = SessionState(
                master_secret=master_secret,
                cipher_suite=conn.cipher_suite,
                version=ProtocolVersion.TLS12,
                created_at=now,
                domain=conn.sni,
            )
            if self.config.session_cache is not None and conn.session_id:
                self.config.session_cache.store(conn.session_id, session, now)
            if conn.issue_ticket:
                conn.ticket = self.config.stek_store.issue(session, self._rng, now=now)
        _HANDSHAKES[resumed, conn.cipher_suite.kex].value += 1
        conn.completed = True

    def first_flight(
        self,
        conn: ServerConnection,
        signing_key: RSAPrivateKey,
        ticket: bytes,
        finished: Callable[[bytes], bytes],
    ) -> bytes:
        """Serialize the handshake messages of ``conn``'s first flight.

        ``signing_key`` signs the ServerKeyExchange, ``ticket`` is the
        reissued ticket's bytes and ``finished`` maps the transcript to
        a resumption's Finished verify_data.  :meth:`accept` passes the
        real values; a fault that cuts the flight passes same-length
        placeholders, since only the length matters there.
        """
        server_hello = ServerHello(
            version=ProtocolVersion.TLS12,
            random=conn.server_random,
            session_id=conn.session_id,
            cipher_suite=conn.cipher_suite,
            extensions=[encode_session_ticket(b"")] if conn.issue_ticket else [],
        )
        payload = serialize_handshake(server_hello)
        if conn.resumed:
            if conn.ticket is not None:
                payload += serialize_handshake(NewSessionTicket(
                    lifetime_hint_seconds=self.config.ticket_policy.lifetime_hint_seconds,
                    ticket=ticket,
                ))
            verify = finished(conn.transcript + payload)
            return payload + serialize_handshake(Finished(verify_data=verify))
        parts = [
            payload,
            serialize_handshake(Certificate(chain=[conn.certificate.serialize()])),
        ]
        keypair = conn.kex_keypair
        if keypair is not None:
            build = build_dhe_kex if isinstance(keypair, dh.DHKeyPair) else build_ecdhe_kex
            parts.append(serialize_handshake(
                build(keypair, signing_key, conn.client_random, conn.server_random)
            ))
        parts.append(_SERVER_HELLO_DONE_BYTES)
        return b"".join(parts)

    # -- handshake: record-layer exchange ---------------------------------

    def accept(self, client_hello_bytes: bytes) -> tuple[bytes, ServerConnection]:
        """Process a ClientHello record; return our flight and the context.

        Raises :class:`HandshakeFailure` on negotiation failure (the
        scanner records these as handshake errors, like a fatal alert).
        """
        records = parse_records(client_hello_bytes)
        if len(records) != 1:
            raise HandshakeFailure("expected exactly one ClientHello record",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        try:
            message, remainder = parse_handshake(records[0].payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(message, ClientHello):
            raise HandshakeFailure("first message must be ClientHello",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        client_hello = message
        if client_hello.version < ProtocolVersion.TLS10:
            raise HandshakeFailure("client version too old")

        sni_data = find_extension(client_hello.extensions, ExtensionType.SERVER_NAME)
        ticket = find_extension(client_hello.extensions, ExtensionType.SESSION_TICKET)
        conn = self.negotiate(
            client_hello.random,
            decode_server_name(sni_data) if sni_data is not None else "",
            client_hello.cipher_suites,
            client_hello.session_id,
            ticket or b"",
            ticket is not None,
        )
        conn.transcript = serialize_handshake(client_hello)
        payload = self.first_flight(
            conn,
            conn.private_key,
            bytes(conn.ticket) if conn.ticket is not None else b"",
            lambda transcript: verify_data(
                conn.session.master_secret, b"server finished", sha256(transcript)
            ),
        )
        conn.transcript += payload
        return serialize_records([handshake_record(payload)]), conn

    def finish_full(self, conn: ServerConnection, client_flight: bytes) -> bytes:
        """Process ClientKeyExchange + Finished; return NST? + Finished."""
        if conn.resumed or conn.completed:
            raise HandshakeFailure("connection not awaiting a full-handshake flight",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        records = parse_records(client_flight)
        payload = b"".join(r.payload for r in records)
        try:
            cke, remainder = parse_handshake(payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if not isinstance(cke, ClientKeyExchange):
            raise HandshakeFailure("expected ClientKeyExchange",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        premaster = self._compute_premaster(conn, cke)
        master = derive_master_secret(premaster, conn.client_random, conn.server_random)
        conn.transcript += serialize_handshake(cke)

        try:
            client_finished, remainder = parse_handshake(remainder)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(client_finished, Finished):
            raise HandshakeFailure("expected Finished after ClientKeyExchange",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        self._verify_client_finished(client_finished, master, conn.transcript)
        conn.transcript += serialize_handshake(client_finished)

        self.establish(conn, master)
        payload = b""
        if conn.ticket is not None:
            payload = serialize_handshake(NewSessionTicket(
                lifetime_hint_seconds=self.config.ticket_policy.lifetime_hint_seconds,
                ticket=bytes(conn.ticket),
            ))
        conn.transcript += payload
        finished_bytes = serialize_handshake(Finished(
            verify_data=verify_data(master, b"server finished", sha256(conn.transcript))
        ))
        conn.transcript += finished_bytes
        self._start_records(conn)
        return serialize_records([handshake_record(payload + finished_bytes)])

    def finish_abbreviated(self, conn: ServerConnection, client_finished_bytes: bytes) -> None:
        """Verify the client Finished that closes an abbreviated handshake."""
        if not conn.resumed or conn.completed or conn.session is None:
            raise HandshakeFailure("connection not awaiting an abbreviated Finished",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        records = parse_records(client_finished_bytes)
        payload = b"".join(r.payload for r in records)
        try:
            message, remainder = parse_handshake(payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(message, Finished):
            raise HandshakeFailure("expected Finished",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        self._verify_client_finished(message, conn.session.master_secret, conn.transcript)
        conn.transcript += serialize_handshake(message)
        self.establish(conn, conn.session.master_secret)
        self._start_records(conn)

    def _verify_client_finished(self, message: Finished, master: bytes, transcript: bytes) -> None:
        expected = verify_data(master, b"client finished", sha256(transcript))
        if not constant_time_equal(message.verify_data, expected):
            METRICS.counter(
                "tls.server.handshake_failure", reason="finished_verify"
            ).inc()
            raise HandshakeFailure("client Finished verification failed",
                                   AlertDescription.DECRYPT_ERROR)

    def _start_records(self, conn: ServerConnection) -> None:
        keys = derive_connection_keys(conn.session, conn.client_random, conn.server_random)
        conn.record_cipher = new_record_cipher(keys, is_client=False, suite=conn.cipher_suite)

    def _compute_premaster(self, conn: ServerConnection, cke: ClientKeyExchange) -> bytes:
        kex = conn.cipher_suite.kex
        if kex == KeyExchangeKind.DHE:
            client_public = int.from_bytes(cke.exchange_data, "big")
            try:
                return conn.kex_keypair.shared_secret_bytes(client_public)
            except dh.InvalidPublicValue as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        if kex == KeyExchangeKind.ECDHE:
            try:
                point = ec.decode_point(conn.kex_keypair.curve, cke.exchange_data)
                return conn.kex_keypair.shared_secret_bytes(point)
            except (ValueError, ec.NotOnCurveError) as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        # Static RSA: the client encrypted the premaster to our public key.
        ciphertext = int.from_bytes(cke.exchange_data, "big")
        try:
            plain = conn.private_key.decrypt_raw(ciphertext)
        except ValueError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        premaster = plain.to_bytes(48, "big")
        return premaster

    # -- application data -------------------------------------------------

    def handle_application_record(self, conn: ServerConnection, record_bytes: bytes) -> bytes:
        """Decrypt a request record and return an encrypted echo response.

        The simulated application protocol is a trivial HTTP-ish echo;
        its purpose is to give the passive-adversary model real
        ciphertext to capture and later decrypt.
        """
        if not conn.completed or conn.record_cipher is None:
            raise HandshakeFailure("handshake not complete",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        records = parse_records(record_bytes)
        if len(records) != 1:
            raise HandshakeFailure("expected one application record",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        request = conn.record_cipher.unprotect(records[0])
        body = b"HTTP/1.1 200 OK\r\nServer: repro\r\n\r\nechoed:" + request
        response = conn.record_cipher.protect(body)
        return serialize_records([response])


__all__ = ["TLSServer", "ServerConfig", "ServerConnection", "TicketPolicy"]
