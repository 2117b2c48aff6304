"""TLS handshake message structures and their wire codecs (RFC 5246 §7.4).

Every message serializes to and parses from real handshake framing
(1-byte type, 3-byte length, body).  Certificates travel as opaque
byte strings at this layer — the X.509 model in :mod:`repro.x509`
interprets them — so the dependency points the same way as in real
stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..wireformat import ByteReader, ByteWriter, DecodeError
from .constants import (
    HandshakeType,
    ProtocolVersion,
    RANDOM_LENGTH,
    VERIFY_DATA_LENGTH,
)
from .ciphers import CipherSuite, SUITES_BY_CODE
from .extensions import Extension, decode_extensions, encode_extensions

if TYPE_CHECKING:
    from .ticket import Ticket


@dataclass
class ClientHello:
    """ClientHello (RFC 5246 §7.4.1.2)."""

    version: ProtocolVersion
    random: bytes
    session_id: bytes
    cipher_suites: list[CipherSuite]
    extensions: list[Extension] = field(default_factory=list)
    compression_methods: bytes = b"\x00"
    # Suites offered with codepoints we do not implement are preserved
    # so negotiation statistics remain faithful.
    unknown_cipher_codes: list[int] = field(default_factory=list)

    handshake_type = HandshakeType.CLIENT_HELLO

    def serialize_body(self) -> bytes:
        if len(self.random) != RANDOM_LENGTH:
            raise ValueError("client random must be 32 bytes")
        writer = ByteWriter()
        writer.u16(self.version)
        writer.raw(self.random)
        writer.vec8(self.session_id)
        suites = ByteWriter()
        for suite in self.cipher_suites:
            suites.u16(suite.code)
        for code in self.unknown_cipher_codes:
            suites.u16(code)
        writer.vec16(suites.getvalue())
        writer.vec8(self.compression_methods)
        writer.raw(encode_extensions(self.extensions))
        return writer.getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "ClientHello":
        reader = ByteReader(body)
        version = ProtocolVersion(reader.u16())
        random = reader.raw(RANDOM_LENGTH)
        session_id = reader.vec8()
        if len(session_id) > 32:
            raise DecodeError("session id longer than 32 bytes")
        suite_block = ByteReader(reader.vec16())
        suites: list[CipherSuite] = []
        unknown: list[int] = []
        while suite_block.remaining:
            code = suite_block.u16()
            suite = SUITES_BY_CODE.get(code)
            if suite is None:
                unknown.append(code)
            else:
                suites.append(suite)
        compression = reader.vec8()
        extensions = decode_extensions(reader)
        reader.expect_end()
        return cls(
            version=version,
            random=random,
            session_id=session_id,
            cipher_suites=suites,
            extensions=extensions,
            compression_methods=compression,
            unknown_cipher_codes=unknown,
        )


@dataclass
class ServerHello:
    """ServerHello (RFC 5246 §7.4.1.3)."""

    version: ProtocolVersion
    random: bytes
    session_id: bytes
    cipher_suite: CipherSuite
    extensions: list[Extension] = field(default_factory=list)
    compression_method: int = 0

    handshake_type = HandshakeType.SERVER_HELLO

    def serialize_body(self) -> bytes:
        writer = ByteWriter()
        writer.u16(self.version)
        writer.raw(self.random)
        writer.vec8(self.session_id)
        writer.u16(self.cipher_suite.code)
        writer.u8(self.compression_method)
        writer.raw(encode_extensions(self.extensions))
        return writer.getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "ServerHello":
        reader = ByteReader(body)
        version = ProtocolVersion(reader.u16())
        random = reader.raw(RANDOM_LENGTH)
        session_id = reader.vec8()
        code = reader.u16()
        suite = SUITES_BY_CODE.get(code)
        if suite is None:
            raise DecodeError(f"server selected unknown cipher suite {code:#06x}")
        compression = reader.u8()
        extensions = decode_extensions(reader)
        reader.expect_end()
        return cls(
            version=version,
            random=random,
            session_id=session_id,
            cipher_suite=suite,
            extensions=extensions,
            compression_method=compression,
        )


@dataclass
class Certificate:
    """Certificate chain message; entries are opaque DER-like blobs."""

    chain: list[bytes]

    handshake_type = HandshakeType.CERTIFICATE

    def serialize_body(self) -> bytes:
        inner = ByteWriter()
        for cert in self.chain:
            inner.vec24(cert)
        return ByteWriter().vec24(inner.getvalue()).getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "Certificate":
        reader = ByteReader(body)
        inner = ByteReader(reader.vec24())
        reader.expect_end()
        chain = []
        while inner.remaining:
            chain.append(inner.vec24())
        return cls(chain=chain)


@dataclass
class ServerKeyExchangeDHE:
    """ServerKeyExchange for DHE (RFC 5246 §7.4.3): p, g, Ys + signature."""

    dh_p: int
    dh_g: int
    dh_public: int
    signature: bytes
    # Memoized params encoding: the signature and the serialized body
    # both cover it.  init=False keeps dataclasses.replace() from
    # carrying a stale memo onto a field-modified copy.
    _params: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    handshake_type = HandshakeType.SERVER_KEY_EXCHANGE
    kex_name = "dhe"

    def params_bytes(self) -> bytes:
        """The ServerDHParams that the signature covers."""
        if self._params is None:
            writer = ByteWriter()
            writer.vec16(_int_bytes(self.dh_p))
            writer.vec16(_int_bytes(self.dh_g))
            writer.vec16(_int_bytes(self.dh_public))
            self._params = writer.getvalue()
        return self._params

    def serialize_body(self) -> bytes:
        return self.params_bytes() + ByteWriter().vec16(self.signature).getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "ServerKeyExchangeDHE":
        reader = ByteReader(body)
        dh_p = int.from_bytes(reader.vec16(), "big")
        dh_g = int.from_bytes(reader.vec16(), "big")
        dh_public = int.from_bytes(reader.vec16(), "big")
        signature = reader.vec16()
        reader.expect_end()
        return cls(dh_p=dh_p, dh_g=dh_g, dh_public=dh_public, signature=signature)


@dataclass
class ServerKeyExchangeECDHE:
    """ServerKeyExchange for ECDHE (RFC 4492 §5.4): named curve + point."""

    named_curve: int
    point: bytes  # uncompressed SEC1 encoding
    signature: bytes
    _params: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    handshake_type = HandshakeType.SERVER_KEY_EXCHANGE
    kex_name = "ecdhe"
    CURVE_TYPE_NAMED = 3

    def params_bytes(self) -> bytes:
        if self._params is None:
            writer = ByteWriter()
            writer.u8(self.CURVE_TYPE_NAMED)
            writer.u16(self.named_curve)
            writer.vec8(self.point)
            self._params = writer.getvalue()
        return self._params

    def serialize_body(self) -> bytes:
        return self.params_bytes() + ByteWriter().vec16(self.signature).getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "ServerKeyExchangeECDHE":
        reader = ByteReader(body)
        curve_type = reader.u8()
        if curve_type != cls.CURVE_TYPE_NAMED:
            raise DecodeError("only named curves are supported")
        named_curve = reader.u16()
        point = reader.vec8()
        signature = reader.vec16()
        reader.expect_end()
        return cls(named_curve=named_curve, point=point, signature=signature)


@dataclass
class ServerHelloDone:
    """Empty ServerHelloDone marker."""

    handshake_type = HandshakeType.SERVER_HELLO_DONE

    def serialize_body(self) -> bytes:
        return b""

    @classmethod
    def parse_body(cls, body: bytes) -> "ServerHelloDone":
        if body:
            raise DecodeError("ServerHelloDone must be empty")
        return cls()


@dataclass
class ClientKeyExchange:
    """ClientKeyExchange; payload interpretation depends on the suite."""

    exchange_data: bytes

    handshake_type = HandshakeType.CLIENT_KEY_EXCHANGE

    def serialize_body(self) -> bytes:
        return ByteWriter().vec16(self.exchange_data).getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "ClientKeyExchange":
        reader = ByteReader(body)
        data = reader.vec16()
        reader.expect_end()
        return cls(exchange_data=data)


@dataclass
class NewSessionTicket:
    """NewSessionTicket (RFC 5077 §3.3): lifetime hint + opaque ticket.

    The fast path hands over the issued :class:`~repro.tls.ticket.SealedTicket`
    unserialized; only bytes are ever serialized.
    """

    lifetime_hint_seconds: int
    ticket: Ticket

    handshake_type = HandshakeType.NEW_SESSION_TICKET

    def serialize_body(self) -> bytes:
        return ByteWriter().u32(self.lifetime_hint_seconds).vec16(self.ticket).getvalue()

    @classmethod
    def parse_body(cls, body: bytes) -> "NewSessionTicket":
        reader = ByteReader(body)
        hint = reader.u32()
        ticket = reader.vec16()
        reader.expect_end()
        return cls(lifetime_hint_seconds=hint, ticket=ticket)


@dataclass
class Finished:
    """Finished (RFC 5246 §7.4.9): 12-byte verify_data."""

    verify_data: bytes

    handshake_type = HandshakeType.FINISHED

    def serialize_body(self) -> bytes:
        if len(self.verify_data) != VERIFY_DATA_LENGTH:
            raise ValueError("verify_data must be 12 bytes")
        return self.verify_data

    @classmethod
    def parse_body(cls, body: bytes) -> "Finished":
        if len(body) != VERIFY_DATA_LENGTH:
            raise DecodeError("Finished body must be 12 bytes")
        return cls(verify_data=body)


HandshakeMessage = Union[
    ClientHello,
    ServerHello,
    Certificate,
    ServerKeyExchangeDHE,
    ServerKeyExchangeECDHE,
    ServerHelloDone,
    ClientKeyExchange,
    NewSessionTicket,
    Finished,
]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")


def serialize_handshake(message: HandshakeMessage) -> bytes:
    """Frame a handshake message: type(1) + length(3) + body."""
    body = message.serialize_body()
    return ByteWriter().u8(message.handshake_type).u24(len(body)).raw(body).getvalue()


def parse_handshake(
    data: bytes, kex_hint: Optional[str] = None
) -> tuple[HandshakeMessage, bytes]:
    """Parse one framed handshake message; returns (message, remainder).

    ``kex_hint`` disambiguates ServerKeyExchange, whose body layout
    depends on the negotiated suite ("dhe" or "ecdhe").
    """
    reader = ByteReader(data)
    msg_type = reader.u8()
    body = reader.vec24()
    remainder = reader.rest()
    parsers = {
        HandshakeType.CLIENT_HELLO: ClientHello.parse_body,
        HandshakeType.SERVER_HELLO: ServerHello.parse_body,
        HandshakeType.CERTIFICATE: Certificate.parse_body,
        HandshakeType.SERVER_HELLO_DONE: ServerHelloDone.parse_body,
        HandshakeType.CLIENT_KEY_EXCHANGE: ClientKeyExchange.parse_body,
        HandshakeType.NEW_SESSION_TICKET: NewSessionTicket.parse_body,
        HandshakeType.FINISHED: Finished.parse_body,
    }
    if msg_type == HandshakeType.SERVER_KEY_EXCHANGE:
        if kex_hint == "dhe":
            return ServerKeyExchangeDHE.parse_body(body), remainder
        if kex_hint == "ecdhe":
            return ServerKeyExchangeECDHE.parse_body(body), remainder
        raise DecodeError("ServerKeyExchange requires a kex hint")
    try:
        parser = parsers[HandshakeType(msg_type)]
    except (ValueError, KeyError) as exc:
        raise DecodeError(f"unsupported handshake type {msg_type}") from exc
    return parser(body), remainder


__all__ = [
    "ClientHello",
    "ServerHello",
    "Certificate",
    "ServerKeyExchangeDHE",
    "ServerKeyExchangeECDHE",
    "ServerHelloDone",
    "ClientKeyExchange",
    "NewSessionTicket",
    "Finished",
    "HandshakeMessage",
    "serialize_handshake",
    "parse_handshake",
]
