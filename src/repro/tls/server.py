"""The TLS 1.2 server state machine.

One :class:`TLSServer` models one server *process* (or one SSL
terminator worker): it owns an ephemeral-key cache, points at a session
cache and a STEK store (both of which may be shared with other servers
— that sharing is the paper's §5 subject), and serves whatever
certificate its operator configured.

The exchange API is synchronous and flight-oriented, matching how the
scanner drives connections:

    flight, conn = server.accept(client_hello_bytes)
    # full handshake:
    flight2 = server.finish_full(conn, client_flight_bytes)
    # abbreviated handshake:
    server.finish_abbreviated(conn, client_finished_bytes)
    # then, optionally:
    reply = server.handle_application_record(conn, record_bytes)

All handshake bytes are real serialized TLS records; Finished values
are PRF-derived from the running transcript, and resumption semantics
(RFC 5077 ticket-over-session-ID precedence, ticket reissue, cache
expiry) follow the behaviors the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto import dh, ec
from ..crypto.mac import sha256, constant_time_equal
from ..crypto.prf import derive_master_secret, verify_data
from ..crypto.rng import DeterministicRandom
from ..crypto.rsa import RSAPrivateKey
from ..obs.metrics import METRICS
from ..x509 import X509Certificate
from .ciphers import CipherSuite, KeyExchangeKind, select_suite
from .constants import (
    AlertDescription,
    ExtensionType,
    HandshakeType,
    ProtocolVersion,
    SESSION_ID_LENGTH,
)
from .errors import HandshakeFailure
from .extensions import (
    decode_server_name,
    encode_session_ticket,
    find_extension,
    has_extension,
)
from .keyexchange import (
    EphemeralKeyCache,
    KexReusePolicy,
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
from .ticket import STEKStore, Ticket, TicketFormat
from .wire import DecodeError

# Per-server static flight parts.  ServerHelloDone is always the same
# four bytes, and the serialized Certificate message depends only on
# the certificate presented — both are recomputed per full handshake
# in a naive implementation, which a scan performs millions of times.
_SERVER_HELLO_DONE_BYTES = serialize_handshake(ServerHelloDone())
_CERT_MSG_CACHE: dict[X509Certificate, bytes] = {}
_CERT_MSG_CACHE_MAX = 8192


def _certificate_message_bytes(certificate: X509Certificate) -> bytes:
    encoded = _CERT_MSG_CACHE.get(certificate)
    if encoded is None:
        encoded = serialize_handshake(Certificate(chain=[certificate.serialize()]))
        if len(_CERT_MSG_CACHE) >= _CERT_MSG_CACHE_MAX:
            _CERT_MSG_CACHE.clear()
        _CERT_MSG_CACHE[certificate] = encoded
    return encoded


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


@dataclass
class ServerConnection:
    """Per-connection server state between flights."""

    client_hello: ClientHello
    server_random: bytes
    cipher_suite: CipherSuite
    session_id: bytes
    sni: str
    transcript: bytes
    resumed: bool
    certificate: Optional[X509Certificate] = None
    private_key: Optional[RSAPrivateKey] = None
    resumed_via: Optional[str] = None
    session: Optional[SessionState] = None
    kex_dh: Optional[dh.DHKeyPair] = None
    kex_ec: Optional[ec.ECKeyPair] = None
    will_issue_ticket: bool = False
    record_cipher: Optional[RecordCipher] = None
    completed: bool = False


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
        # Counters used by tests and the hosting layer.
        self.full_handshakes = 0
        self.resumptions = 0
        self.failed_handshakes = 0

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

    # -- handshake: first flight ----------------------------------------

    def accept(self, client_hello_bytes: bytes) -> tuple[bytes, ServerConnection]:
        """Process a ClientHello record; return our flight and the context.

        Raises :class:`HandshakeFailure` on negotiation failure (the
        scanner records these as handshake errors, like a fatal alert).
        """
        now = self._now()
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

        sni = ""
        sni_data = find_extension(client_hello.extensions, ExtensionType.SERVER_NAME)
        if sni_data is not None:
            sni = decode_server_name(sni_data)
        certificate, private_key = self.config.certificate_for(sni)
        if self.config.strict_sni and sni and not certificate.matches_hostname(sni):
            self.failed_handshakes += 1
            METRICS.counter("tls.server.handshake_failure", reason="sni").inc()
            raise HandshakeFailure(f"unrecognized server name {sni!r}",
                                   AlertDescription.UNRECOGNIZED_NAME)

        suite = select_suite(
            client_hello.cipher_suites,
            self.config.supported_suites,
            self.config.server_cipher_preference,
        )
        if suite is None:
            self.failed_handshakes += 1
            METRICS.counter("tls.server.handshake_failure", reason="no_cipher").inc()
            raise HandshakeFailure("no mutually supported cipher suite")

        server_random = self._rng.random_bytes(32)
        transcript = serialize_handshake(client_hello)

        resumed_session, resumed_via = self._try_resume(client_hello, now)
        if resumed_session is not None:
            return self._accept_abbreviated(
                client_hello, resumed_session, resumed_via, server_random, transcript, now, sni
            )
        return self._accept_full(
            client_hello, suite, server_random, transcript, now, sni,
            certificate, private_key,
        )

    def _client_offers_tickets(self, client_hello: ClientHello) -> bool:
        return has_extension(client_hello.extensions, ExtensionType.SESSION_TICKET)

    def _try_resume(
        self, client_hello: ClientHello, now: float
    ) -> tuple[Optional[SessionState], Optional[str]]:
        ticket = find_extension(client_hello.extensions, ExtensionType.SESSION_TICKET)
        return self.resume_lookup(ticket or b"", client_hello.session_id, now)

    def resume_lookup(
        self, ticket: Ticket, session_id: bytes, now: float
    ) -> tuple[Optional[SessionState], Optional[str]]:
        """RFC 5077 §3.4: a non-empty ticket takes precedence over the ID.

        Shared resumption decision: :meth:`accept` calls it with the
        decoded ClientHello offers, and the draw-identical fast path
        (:mod:`repro.tls.fastpath`) with the client's raw offers —
        both must see the same cache/STEK side effects and metrics.
        """
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

    def _accept_abbreviated(
        self,
        client_hello: ClientHello,
        session: SessionState,
        resumed_via: str,
        server_random: bytes,
        transcript: bytes,
        now: float,
        sni: str,
    ) -> tuple[bytes, ServerConnection]:
        policy = self.config.ticket_policy
        reissue = (
            resumed_via == "ticket"
            and self.config.stek_store is not None
            and policy.reissue_on_resume
            and self._client_offers_tickets(client_hello)
        )
        extensions = []
        if reissue:
            extensions.append(encode_session_ticket(b""))
        # On session-ID resumption the server echoes the ID; on ticket
        # resumption OpenSSL-style stacks send a fresh (uncached) ID.
        if resumed_via == "session_id":
            session_id = client_hello.session_id
        elif self.config.issue_session_ids:
            session_id = self._rng.random_bytes(SESSION_ID_LENGTH)
        else:
            session_id = b""
        server_hello = ServerHello(
            version=ProtocolVersion.TLS12,
            random=server_random,
            session_id=session_id,
            cipher_suite=session.cipher_suite,
            extensions=extensions,
        )
        parts = [serialize_handshake(server_hello)]
        if reissue:
            assert self.config.stek_store is not None
            fresh = self.config.stek_store.issue(session, self._rng, now=now)
            parts.append(
                serialize_handshake(
                    NewSessionTicket(
                        lifetime_hint_seconds=policy.lifetime_hint_seconds,
                        ticket=bytes(fresh),
                    )
                )
            )
        transcript += b"".join(parts)
        finished = Finished(
            verify_data=verify_data(
                session.master_secret, b"server finished", sha256(transcript)
            )
        )
        finished_bytes = serialize_handshake(finished)
        parts.append(finished_bytes)
        transcript += finished_bytes

        conn = ServerConnection(
            client_hello=client_hello,
            server_random=server_random,
            cipher_suite=session.cipher_suite,
            session_id=session_id,
            sni=sni,
            transcript=transcript,
            resumed=True,
            resumed_via=resumed_via,
            session=session,
        )
        flight = serialize_records([handshake_record(b"".join(parts))])
        return flight, conn

    def _accept_full(
        self,
        client_hello: ClientHello,
        suite: CipherSuite,
        server_random: bytes,
        transcript: bytes,
        now: float,
        sni: str,
        certificate: X509Certificate,
        private_key: RSAPrivateKey,
    ) -> tuple[bytes, ServerConnection]:
        will_issue_ticket = (
            self.config.stek_store is not None
            and self._client_offers_tickets(client_hello)
        )
        extensions = []
        if will_issue_ticket:
            extensions.append(encode_session_ticket(b""))
        session_id = (
            self._rng.random_bytes(SESSION_ID_LENGTH)
            if self.config.issue_session_ids
            else b""
        )
        server_hello = ServerHello(
            version=ProtocolVersion.TLS12,
            random=server_random,
            session_id=session_id,
            cipher_suite=suite,
            extensions=extensions,
        )
        parts = [
            serialize_handshake(server_hello),
            _certificate_message_bytes(certificate),
        ]

        conn = ServerConnection(
            client_hello=client_hello,
            server_random=server_random,
            cipher_suite=suite,
            session_id=session_id,
            sni=sni,
            transcript=transcript,
            resumed=False,
            certificate=certificate,
            private_key=private_key,
            will_issue_ticket=will_issue_ticket,
        )
        if suite.kex == KeyExchangeKind.DHE:
            keypair = self.kex_cache.get_dh(self.config.dh_group, self._rng, now)
            conn.kex_dh = keypair
            parts.append(serialize_handshake(
                build_dhe_kex(keypair, private_key, client_hello.random, server_random)
            ))
        elif suite.kex == KeyExchangeKind.ECDHE:
            keypair = self.kex_cache.get_ec(self.config.curve, self._rng, now)
            conn.kex_ec = keypair
            parts.append(serialize_handshake(
                build_ecdhe_kex(keypair, private_key, client_hello.random, server_random)
            ))
        parts.append(_SERVER_HELLO_DONE_BYTES)
        payload = b"".join(parts)
        conn.transcript += payload
        flight = serialize_records([handshake_record(payload)])
        return flight, conn

    # -- handshake: second flight ----------------------------------------

    def finish_full(self, conn: ServerConnection, client_flight: bytes) -> bytes:
        """Process ClientKeyExchange + Finished; return NST? + Finished."""
        if conn.resumed or conn.completed:
            raise HandshakeFailure("connection not awaiting a full-handshake flight",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        now = self._now()
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
        master = derive_master_secret(
            premaster, conn.client_hello.random, conn.server_random
        )
        conn.transcript += serialize_handshake(cke)

        try:
            client_finished, remainder = parse_handshake(remainder)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(client_finished, Finished):
            raise HandshakeFailure("expected Finished after ClientKeyExchange",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        expected = verify_data(master, b"client finished", sha256(conn.transcript))
        if not constant_time_equal(client_finished.verify_data, expected):
            self.failed_handshakes += 1
            METRICS.counter(
                "tls.server.handshake_failure", reason="finished_verify"
            ).inc()
            raise HandshakeFailure("client Finished verification failed",
                                   AlertDescription.DECRYPT_ERROR)
        conn.transcript += serialize_handshake(client_finished)

        session = SessionState(
            master_secret=master,
            cipher_suite=conn.cipher_suite,
            version=ProtocolVersion.TLS12,
            created_at=now,
            domain=conn.sni,
        )
        conn.session = session

        if self.config.session_cache is not None and conn.session_id:
            self.config.session_cache.store(conn.session_id, session, now)

        parts = []
        if conn.will_issue_ticket:
            assert self.config.stek_store is not None
            ticket = self.config.stek_store.issue(session, self._rng, now=now)
            parts.append(
                serialize_handshake(
                    NewSessionTicket(
                        lifetime_hint_seconds=self.config.ticket_policy.lifetime_hint_seconds,
                        ticket=bytes(ticket),
                    )
                )
            )
        conn.transcript += b"".join(parts)
        finished = Finished(
            verify_data=verify_data(master, b"server finished", sha256(conn.transcript))
        )
        finished_bytes = serialize_handshake(finished)
        parts.append(finished_bytes)
        conn.transcript += finished_bytes
        conn.completed = True
        self.full_handshakes += 1
        METRICS.counter(
            "tls.server.handshake",
            kind="full",
            kex=conn.cipher_suite.kex.name.lower(),
        ).inc()

        keys = derive_connection_keys(session, conn.client_hello.random, conn.server_random)
        conn.record_cipher = new_record_cipher(keys, is_client=False, suite=conn.cipher_suite)

        return serialize_records([handshake_record(b"".join(parts))])

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
        expected = verify_data(
            conn.session.master_secret, b"client finished", sha256(conn.transcript)
        )
        if not constant_time_equal(message.verify_data, expected):
            self.failed_handshakes += 1
            METRICS.counter(
                "tls.server.handshake_failure", reason="finished_verify"
            ).inc()
            raise HandshakeFailure("client Finished verification failed",
                                   AlertDescription.DECRYPT_ERROR)
        conn.transcript += serialize_handshake(message)
        conn.completed = True
        self.resumptions += 1
        METRICS.counter(
            "tls.server.handshake",
            kind="abbreviated",
            kex=conn.cipher_suite.kex.name.lower(),
        ).inc()
        keys = derive_connection_keys(
            conn.session, conn.client_hello.random, conn.server_random
        )
        conn.record_cipher = new_record_cipher(keys, is_client=False, suite=conn.cipher_suite)

    def _compute_premaster(self, conn: ServerConnection, cke: ClientKeyExchange) -> bytes:
        kex = conn.cipher_suite.kex
        if kex == KeyExchangeKind.DHE:
            assert conn.kex_dh is not None
            client_public = int.from_bytes(cke.exchange_data, "big")
            try:
                return conn.kex_dh.shared_secret_bytes(client_public)
            except dh.InvalidPublicValue as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        if kex == KeyExchangeKind.ECDHE:
            assert conn.kex_ec is not None
            try:
                point = ec.decode_point(conn.kex_ec.curve, cke.exchange_data)
                return conn.kex_ec.shared_secret_bytes(point)
            except (ValueError, ec.NotOnCurveError) as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        # Static RSA: the client encrypted the premaster to our public key.
        ciphertext = int.from_bytes(cke.exchange_data, "big")
        private_key = conn.private_key or self.config.private_key
        try:
            plain = private_key.decrypt_raw(ciphertext)
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
