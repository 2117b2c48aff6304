"""The TLS 1.2 client used by the measurement toolchain.

The client's handshake decisions are steps on decoded values —
:meth:`TLSClient.start` (``client_random``),
:meth:`TLSClient.key_exchange` (certificate validation, then the RSA
premaster or our (EC)DHE keypair), :meth:`TLSClient.established` and
:meth:`TLSClient.resumed` — shared by two drivers:
:meth:`TLSClient.connect`, which drives a server's flight-oriented
exchange API with real serialized records, and the fast path
(:func:`repro.tls.fastpath.fast_handshake`), which calls the server's
decision steps directly.  Either returns a :class:`HandshakeResult`
capturing everything the paper's scanner records per connection:

* negotiated cipher suite and key-exchange family,
* the server's (EC)DHE public value (the §4.4 reuse signal),
* the session ID and whether the server honored a resumption offer,
* any issued session ticket with its lifetime hint and STEK identifier,
* the certificate and whether it chains to the trust store,
* the client-side session state needed to attempt later resumptions,
* with :meth:`TLSClient.connect`, a full capture of the records
  exchanged (for the passive adversary).

Failures come back as ``ok=False`` results with an error string — a
scanner must keep scanning when a server misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Union

from ..crypto import dh, ec
from ..crypto.mac import sha256, constant_time_equal
from ..crypto.prf import derive_master_secret, verify_data
from ..crypto.rng import DeterministicRandom
from ..obs.metrics import METRICS
from ..wireformat import DecodeError
from ..x509 import TrustStore, X509Certificate
from .ciphers import CipherSuite, KeyExchangeKind, MODERN_BROWSER_OFFER
from .constants import ExtensionType, ProtocolVersion
from .errors import HandshakeFailure, TLSError
from .extensions import (
    encode_point_formats,
    encode_server_name,
    encode_session_ticket,
    encode_supported_groups,
    has_extension,
)
from .keyexchange import verify_kex_signature
from .messages import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    ServerKeyExchangeDHE,
    ServerKeyExchangeECDHE,
    parse_handshake,
    serialize_handshake,
)
from .record import RecordCipher, handshake_record, new_record_cipher, parse_records, serialize_records
from .session import SessionState, derive_connection_keys
from .ticket import Ticket

ServerKeyExchange = Union[ServerKeyExchangeDHE, ServerKeyExchangeECDHE]


class ServerExchange(Protocol):
    """The flight-oriented exchange surface a client connects to."""

    def accept(self, client_hello_bytes: bytes) -> tuple[bytes, object]: ...
    def finish_full(self, conn: object, client_flight: bytes) -> bytes: ...
    def finish_abbreviated(self, conn: object, client_finished_bytes: bytes) -> None: ...
    def handle_application_record(self, conn: object, record_bytes: bytes) -> bytes: ...


@dataclass
class CapturedFlight:
    """One direction's bytes, as a passive on-path observer sees them."""

    from_client: bool
    data: bytes


@dataclass
class HandshakeResult:
    """Everything one scanned connection tells us."""

    ok: bool
    error: str = ""
    domain: str = ""
    cipher_suite: Optional[CipherSuite] = None
    resumed: bool = False
    resumed_via: Optional[str] = None  # "session_id" | "ticket"
    session_id: bytes = b""
    offered_session_id: bytes = b""
    new_ticket: Optional[NewSessionTicket] = None
    server_supports_tickets: bool = False
    server_kex_kind: Optional[KeyExchangeKind] = None
    server_kex_public: bytes = b""  # raw DH Ys / EC point — the reuse signal
    certificate: Optional[X509Certificate] = None
    certificate_trusted: bool = False
    certificate_error: str = ""
    session: Optional[SessionState] = None
    client_random: bytes = b""
    server_random: bytes = b""
    captured: list[CapturedFlight] = field(default_factory=list)
    # Internal handles for follow-up application-data exchanges.
    _server: Optional[ServerExchange] = None
    _server_conn: object = None
    _record_cipher: Optional[RecordCipher] = None

    @property
    def forward_secret_kex(self) -> bool:
        """Did this connection use a nominally forward-secret exchange?"""
        return self.cipher_suite is not None and self.cipher_suite.forward_secret

    def fail(self, exc: Exception) -> None:
        """Record the error that ended this connection attempt."""
        self.ok = False
        self.error = f"{type(exc).__name__}: {exc}"


#: The exceptions a handshake turns into a recorded error string.
HANDSHAKE_ERRORS = (TLSError, DecodeError, ValueError)

# Prebound instruments: one dict lookup per import, not per handshake.
_HANDSHAKES = {
    (resumed, kex): METRICS.counter(
        "tls.client.handshake",
        kind="abbreviated" if resumed else "full",
        kex=kex.name.lower(),
    )
    for resumed in (False, True)
    for kex in KeyExchangeKind
}


class TLSClient:
    """A scanning TLS client with a trust store and deterministic randomness."""

    def __init__(
        self,
        rng: DeterministicRandom,
        trust_store: Optional[TrustStore] = None,
        now_fn=None,
        reuse_client_ephemerals: bool = False,
    ) -> None:
        self._rng = rng
        self.trust_store = trust_store
        self._now = now_fn or (lambda: 0.0)
        # Scanner-side optimization: reuse *our own* (EC)DHE keypair
        # across connections.  Client-side reuse affects none of the
        # server-observable signals the study measures (the server's
        # value, tickets, session IDs) but collapses one scalar
        # multiplication per connection — and lets the shared-secret
        # memo absorb another whenever the scanned server reuses too.
        self.reuse_client_ephemerals = reuse_client_ephemerals
        self._ec_keypairs: dict[str, ec.ECKeyPair] = {}
        self._dh_keypairs: dict[int, dh.DHKeyPair] = {}

    # -- public API -------------------------------------------------------

    def connect(
        self,
        server: ServerExchange,
        server_name: str = "",
        offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
        session_id: bytes = b"",
        ticket: Ticket = b"",
        saved_session: Optional[SessionState] = None,
        offer_tickets: bool = True,
        capture: bool = False,
    ) -> HandshakeResult:
        """Perform one TLS connection, optionally offering resumption.

        ``session_id``/``ticket`` offer resumption of ``saved_session``
        (which must be provided when either is non-empty, since an
        honoring server never re-sends the master secret).
        """
        result = self.start(server_name, session_id, ticket, saved_session)
        try:
            self._exchange(
                server, server_name, offer, session_id, ticket,
                saved_session, offer_tickets, capture, result,
            )
        except HANDSHAKE_ERRORS as exc:
            result.fail(exc)
        return result

    def exchange_data(self, result: HandshakeResult, request: bytes) -> bytes:
        """Send one encrypted request over an established connection."""
        if not result.ok or result._record_cipher is None or result._server is None:
            raise TLSError("connection not established")
        record = result._record_cipher.protect(request)
        request_bytes = serialize_records([record])
        result.captured.append(CapturedFlight(from_client=True, data=request_bytes))
        response_bytes = result._server.handle_application_record(
            result._server_conn, request_bytes
        )
        result.captured.append(CapturedFlight(from_client=False, data=response_bytes))
        records = parse_records(response_bytes)
        return result._record_cipher.unprotect(records[0])

    # -- handshake decisions ------------------------------------------------

    def start(
        self,
        server_name: str,
        session_id: bytes,
        ticket: Ticket,
        saved_session: Optional[SessionState],
    ) -> HandshakeResult:
        """Open a connection attempt: check the offers, draw ``client_random``."""
        if (session_id or ticket) and saved_session is None:
            raise ValueError("resumption offers require the saved session state")
        return HandshakeResult(
            ok=False, domain=server_name, offered_session_id=session_id,
            client_random=self._rng.random_bytes(32),
        )

    def key_exchange(
        self,
        result: HandshakeResult,
        certificate: X509Certificate,
        server_name: str,
        kex_message: Optional[ServerKeyExchange],
    ) -> Callable[[], tuple[bytes, bytes]]:
        """Make the client's full-handshake decisions, in draw order.

        Validates ``certificate`` and the server's DHE value, then draws
        the RSA premaster or takes our ephemeral keypair.  Returns the
        deferred crypto, a call giving (premaster, ClientKeyExchange
        data), which only the record-layer exchange makes; it decodes
        and checks the server's EC point.
        """
        result.certificate = certificate
        if self.trust_store is not None:
            validation = self.trust_store.validate(
                certificate, server_name or None, self._now()
            )
            result.certificate_trusted = bool(validation)
            result.certificate_error = validation.reason
        kex = result.cipher_suite.kex
        result.server_kex_kind = kex
        if kex == KeyExchangeKind.RSA:
            return self._rsa_premaster(certificate)
        if kex_message is None:
            raise HandshakeFailure("missing ServerKeyExchange for (EC)DHE suite")
        if isinstance(kex_message, ServerKeyExchangeDHE):
            group = dh.DHGroup("negotiated", kex_message.dh_p, kex_message.dh_g)
            server_public = kex_message.dh_public
            dh.validate_public_value(group, server_public)
            result.server_kex_public = dh.int_to_group_bytes(group, server_public)
            keypair = self._ephemeral(self._dh_keypairs, group.prime, dh.generate_keypair, group)
            return lambda: (
                keypair.shared_secret_bytes(server_public),
                dh.int_to_group_bytes(group, keypair.public),
            )
        curve_name = ec.NAMED_CURVE_BY_ID.get(kex_message.named_curve)
        if curve_name is None:
            raise HandshakeFailure(f"unknown named curve {kex_message.named_curve}")
        curve = ec.CURVES_BY_NAME[curve_name]
        result.server_kex_public = kex_message.point
        keypair = self._ephemeral(self._ec_keypairs, curve.name, ec.generate_keypair, curve)
        return lambda: (
            keypair.shared_secret_bytes(ec.decode_point(curve, kex_message.point)),
            ec.encode_point(curve, keypair.public),
        )

    def established(self, result: HandshakeResult, session: SessionState) -> None:
        """Record a completed full handshake and its new session."""
        result.session = session
        result.ok = True
        _HANDSHAKES[False, session.cipher_suite.kex].value += 1

    def resumed(
        self, result: HandshakeResult, session: SessionState, offered_ticket: Ticket
    ) -> None:
        """Record a completed resumption of ``session``."""
        result.session = session
        result.ok = True
        result.resumed = True
        result.resumed_via = "ticket" if offered_ticket else "session_id"
        _HANDSHAKES[True, session.cipher_suite.kex].value += 1

    def _rsa_premaster(self, certificate: X509Certificate) -> Callable[[], tuple[bytes, bytes]]:
        premaster = self._rng.random_bytes(48)
        key = certificate.public_key
        value = int.from_bytes(premaster, "big")
        if value >= key.n:
            # 48 bytes always fits below a >=512-bit modulus; guard anyway.
            raise HandshakeFailure("server RSA key too small for premaster")
        return lambda: (premaster, pow(value, key.e, key.n).to_bytes(key.byte_length, "big"))

    def _ephemeral(self, cache: dict, key, generate, params):
        """Our (EC)DHE keypair: fresh, or per-parameter when reusing."""
        if not self.reuse_client_ephemerals:
            return generate(params, self._rng)
        keypair = cache.get(key)
        if keypair is None:
            keypair = cache[key] = generate(params, self._rng)
        return keypair

    # -- record-layer exchange ------------------------------------------------

    def _exchange(
        self,
        server: ServerExchange,
        server_name: str,
        offer: tuple[CipherSuite, ...],
        session_id: bytes,
        ticket: Ticket,
        saved_session: Optional[SessionState],
        offer_tickets: bool,
        capture: bool,
        result: HandshakeResult,
    ) -> None:
        """The handshake over real records, filling in ``result``.

        ``result`` comes from :meth:`start`.  Every draw is made by the
        decision steps (:meth:`start`, :meth:`key_exchange`, and the
        server's ``negotiate`` and ``establish``), which the fast path
        calls in the same order, so both drivers produce byte-identical
        results.  Protocol errors raise; :meth:`connect` converts them
        to ``result.error``.
        """
        extensions = []
        if server_name:
            extensions.append(encode_server_name(server_name))
        extensions.append(encode_supported_groups(sorted(ec.NAMED_CURVE_IDS.values())))
        extensions.append(encode_point_formats())
        if ticket:
            extensions.append(encode_session_ticket(ticket))
        elif offer_tickets:
            extensions.append(encode_session_ticket(b""))

        client_hello = ClientHello(
            version=ProtocolVersion.TLS12,
            random=result.client_random,
            session_id=session_id,
            cipher_suites=list(offer),
            extensions=extensions,
        )
        transcript = serialize_handshake(client_hello)
        ch_bytes = serialize_records([handshake_record(transcript)])
        if capture:
            result.captured.append(CapturedFlight(from_client=True, data=ch_bytes))

        flight, server_conn = server.accept(ch_bytes)
        if capture:
            result.captured.append(CapturedFlight(from_client=False, data=flight))
        records = parse_records(flight)
        payload = b"".join(r.payload for r in records)

        message, payload = parse_handshake(payload)
        if not isinstance(message, ServerHello):
            raise HandshakeFailure("expected ServerHello")
        server_hello = message
        result.server_random = server_hello.random
        result.cipher_suite = server_hello.cipher_suite
        result.session_id = server_hello.session_id
        result.server_supports_tickets = has_extension(
            server_hello.extensions, ExtensionType.SESSION_TICKET
        )
        kex_hint = {
            KeyExchangeKind.DHE: "dhe",
            KeyExchangeKind.ECDHE: "ecdhe",
        }.get(server_hello.cipher_suite.kex)
        transcript += serialize_handshake(server_hello)

        # Collect the rest of the server's first flight.
        messages = []
        while payload:
            message, payload = parse_handshake(payload, kex_hint=kex_hint)
            messages.append(message)

        if messages and isinstance(messages[-1], Finished):
            self._finish_abbreviated(
                server, server_conn, messages, saved_session,
                ticket, transcript, capture, result,
            )
        else:
            self._finish_full(
                server, server_conn, messages, server_name,
                transcript, capture, result,
            )

    def _finish_abbreviated(
        self,
        server: ServerExchange,
        server_conn: object,
        messages: list,
        saved_session: Optional[SessionState],
        offered_ticket: Ticket,
        transcript: bytes,
        capture: bool,
        result: HandshakeResult,
    ) -> None:
        if saved_session is None:
            raise HandshakeFailure("server resumed a session we did not offer")
        session = saved_session
        for message in messages[:-1]:
            if isinstance(message, NewSessionTicket):
                result.new_ticket = message
                transcript += serialize_handshake(message)
            else:
                raise HandshakeFailure(
                    f"unexpected {type(message).__name__} in abbreviated flight"
                )
        server_finished = messages[-1]
        expected = verify_data(
            session.master_secret, b"server finished", sha256(transcript)
        )
        if not constant_time_equal(server_finished.verify_data, expected):
            raise HandshakeFailure("server Finished verification failed")
        transcript += serialize_handshake(server_finished)

        finished = Finished(
            verify_data=verify_data(
                session.master_secret, b"client finished", sha256(transcript)
            )
        )
        finished_bytes = serialize_records(
            [handshake_record(serialize_handshake(finished))]
        )
        if capture:
            result.captured.append(CapturedFlight(from_client=True, data=finished_bytes))
        server.finish_abbreviated(server_conn, finished_bytes)

        self.resumed(result, session, offered_ticket)
        self._start_records(result, server, server_conn)

    def _finish_full(
        self,
        server: ServerExchange,
        server_conn: object,
        messages: list,
        server_name: str,
        transcript: bytes,
        capture: bool,
        result: HandshakeResult,
    ) -> None:
        certificate_msg = None
        kex_message = None
        saw_done = False
        for message in messages:
            if isinstance(message, Certificate):
                certificate_msg = message
            elif isinstance(message, (ServerKeyExchangeDHE, ServerKeyExchangeECDHE)):
                kex_message = message
            elif isinstance(message, ServerHelloDone):
                saw_done = True
            else:
                raise HandshakeFailure(
                    f"unexpected {type(message).__name__} in server flight"
                )
            transcript += serialize_handshake(message)
        if certificate_msg is None or not saw_done:
            raise HandshakeFailure("incomplete server flight")
        if not certificate_msg.chain:
            raise HandshakeFailure("empty certificate chain")
        certificate = X509Certificate.parse(certificate_msg.chain[0])
        if kex_message is not None and not verify_kex_signature(
            kex_message, certificate.public_key, result.client_random, result.server_random
        ):
            raise HandshakeFailure("ServerKeyExchange signature invalid")
        premaster, exchange_data = self.key_exchange(
            result, certificate, server_name, kex_message
        )()

        cke = ClientKeyExchange(exchange_data=exchange_data)
        transcript += serialize_handshake(cke)
        master = derive_master_secret(premaster, result.client_random, result.server_random)
        finished = Finished(
            verify_data=verify_data(master, b"client finished", sha256(transcript))
        )
        transcript += serialize_handshake(finished)
        flight = serialize_records(
            [handshake_record(serialize_handshake(cke) + serialize_handshake(finished))]
        )
        if capture:
            result.captured.append(CapturedFlight(from_client=True, data=flight))

        reply = server.finish_full(server_conn, flight)
        if capture:
            result.captured.append(CapturedFlight(from_client=False, data=reply))
        records = parse_records(reply)
        payload = b"".join(r.payload for r in records)
        server_finished = None
        while payload:
            message, payload = parse_handshake(payload)
            if isinstance(message, NewSessionTicket):
                result.new_ticket = message
                transcript += serialize_handshake(message)
            elif isinstance(message, Finished):
                server_finished = message
            else:
                raise HandshakeFailure(
                    f"unexpected {type(message).__name__} in final flight"
                )
        if server_finished is None:
            raise HandshakeFailure("missing server Finished")
        expected = verify_data(master, b"server finished", sha256(transcript))
        if not constant_time_equal(server_finished.verify_data, expected):
            raise HandshakeFailure("server Finished verification failed")

        self.established(result, SessionState(
            master_secret=master,
            cipher_suite=result.cipher_suite,
            version=ProtocolVersion.TLS12,
            created_at=self._now(),
            domain=server_name,
        ))
        self._start_records(result, server, server_conn)

    @staticmethod
    def _start_records(result: HandshakeResult, server: ServerExchange, server_conn) -> None:
        keys = derive_connection_keys(result.session, result.client_random, result.server_random)
        result._record_cipher = new_record_cipher(
            keys, is_client=True, suite=result.session.cipher_suite
        )
        result._server = server
        result._server_conn = server_conn


__all__ = [
    "HANDSHAKE_ERRORS",
    "TLSClient",
    "HandshakeResult",
    "CapturedFlight",
    "ServerExchange",
]
