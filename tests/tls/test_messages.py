"""Handshake message serialization/parsing tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.tls.ciphers import (
    MODERN_BROWSER_OFFER,
    TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
)
from repro.tls.constants import HandshakeType, ProtocolVersion
from repro.tls.extensions import encode_server_name, encode_session_ticket
from repro.tls.messages import (
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
from repro.wireformat import DecodeError

RNG = DeterministicRandom(55)
RANDOM = RNG.random_bytes(32)


def roundtrip(message, kex_hint=None):
    data = serialize_handshake(message)
    parsed, rest = parse_handshake(data, kex_hint=kex_hint)
    assert rest == b""
    return parsed


def test_client_hello_roundtrip():
    hello = ClientHello(
        version=ProtocolVersion.TLS12,
        random=RANDOM,
        session_id=b"\xaa" * 32,
        cipher_suites=list(MODERN_BROWSER_OFFER),
        extensions=[encode_server_name("x.com"), encode_session_ticket(b"t")],
    )
    parsed = roundtrip(hello)
    assert parsed.version == ProtocolVersion.TLS12
    assert parsed.random == RANDOM
    assert parsed.session_id == b"\xaa" * 32
    assert parsed.cipher_suites == list(MODERN_BROWSER_OFFER)
    assert parsed.extensions == hello.extensions


def test_client_hello_empty_session_id():
    hello = ClientHello(
        version=ProtocolVersion.TLS12,
        random=RANDOM,
        session_id=b"",
        cipher_suites=list(MODERN_BROWSER_OFFER),
    )
    assert roundtrip(hello).session_id == b""


def test_client_hello_unknown_suites_preserved():
    hello = ClientHello(
        version=ProtocolVersion.TLS12,
        random=RANDOM,
        session_id=b"",
        cipher_suites=[TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA],
        unknown_cipher_codes=[0x1301, 0x00FF],
    )
    parsed = roundtrip(hello)
    assert parsed.unknown_cipher_codes == [0x1301, 0x00FF]
    assert parsed.cipher_suites == [TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA]


def test_client_hello_bad_random_length():
    hello = ClientHello(
        version=ProtocolVersion.TLS12,
        random=b"short",
        session_id=b"",
        cipher_suites=[],
    )
    with pytest.raises(ValueError):
        hello.serialize_body()


def test_server_hello_roundtrip():
    hello = ServerHello(
        version=ProtocolVersion.TLS12,
        random=RANDOM,
        session_id=b"\xbb" * 32,
        cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
        extensions=[encode_session_ticket(b"")],
    )
    parsed = roundtrip(hello)
    assert parsed.cipher_suite is TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    assert parsed.session_id == b"\xbb" * 32


def test_server_hello_unknown_cipher_rejected():
    data = serialize_handshake(
        ServerHello(
            version=ProtocolVersion.TLS12,
            random=RANDOM,
            session_id=b"",
            cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
        )
    )
    # Patch the cipher code bytes to an unknown value (0x9999).
    mutated = bytearray(data)
    # body: type(1)+len(3)+version(2)+random(32)+sid_len(1)=39; cipher at 39..41
    mutated[4 + 2 + 32 + 1 : 4 + 2 + 32 + 3] = b"\x99\x99"
    with pytest.raises(DecodeError):
        parse_handshake(bytes(mutated))


def test_certificate_roundtrip():
    message = Certificate(chain=[b"cert-one", b"cert-two-bytes"])
    parsed = roundtrip(message)
    assert parsed.chain == [b"cert-one", b"cert-two-bytes"]


def test_certificate_empty_chain():
    assert roundtrip(Certificate(chain=[])).chain == []


def test_ske_dhe_roundtrip():
    message = ServerKeyExchangeDHE(
        dh_p=0xFFFF1,
        dh_g=2,
        dh_public=0x12345,
        signature=b"sig-bytes",
    )
    parsed = roundtrip(message, kex_hint="dhe")
    assert parsed.dh_p == 0xFFFF1
    assert parsed.dh_g == 2
    assert parsed.dh_public == 0x12345
    assert parsed.signature == b"sig-bytes"


def test_ske_ecdhe_roundtrip():
    message = ServerKeyExchangeECDHE(
        named_curve=23, point=b"\x04" + bytes(64), signature=b"s"
    )
    parsed = roundtrip(message, kex_hint="ecdhe")
    assert parsed.named_curve == 23
    assert parsed.point == b"\x04" + bytes(64)


def test_ske_requires_hint():
    data = serialize_handshake(
        ServerKeyExchangeDHE(dh_p=23, dh_g=5, dh_public=8, signature=b"")
    )
    with pytest.raises(DecodeError):
        parse_handshake(data)


def test_ske_params_bytes_excludes_signature():
    a = ServerKeyExchangeDHE(dh_p=23, dh_g=5, dh_public=8, signature=b"one")
    b = ServerKeyExchangeDHE(dh_p=23, dh_g=5, dh_public=8, signature=b"different")
    assert a.params_bytes() == b.params_bytes()


def test_server_hello_done_roundtrip():
    assert isinstance(roundtrip(ServerHelloDone()), ServerHelloDone)


def test_server_hello_done_rejects_payload():
    data = bytearray(serialize_handshake(ServerHelloDone()))
    data[3] = 1  # claim a 1-byte body
    data.append(0)
    with pytest.raises(DecodeError):
        parse_handshake(bytes(data))


def test_client_key_exchange_roundtrip():
    message = ClientKeyExchange(exchange_data=b"\x04" + bytes(32))
    assert roundtrip(message).exchange_data == b"\x04" + bytes(32)


def test_new_session_ticket_roundtrip():
    message = NewSessionTicket(lifetime_hint_seconds=100800, ticket=b"enc")
    parsed = roundtrip(message)
    assert parsed.lifetime_hint_seconds == 100800
    assert parsed.ticket == b"enc"


def test_finished_roundtrip_and_length_check():
    message = Finished(verify_data=bytes(12))
    assert roundtrip(message).verify_data == bytes(12)
    with pytest.raises(ValueError):
        Finished(verify_data=bytes(11)).serialize_body()


def test_parse_handshake_multiple_messages():
    data = serialize_handshake(ServerHelloDone()) + serialize_handshake(
        Finished(verify_data=bytes(12))
    )
    first, rest = parse_handshake(data)
    assert isinstance(first, ServerHelloDone)
    second, rest = parse_handshake(rest)
    assert isinstance(second, Finished)
    assert rest == b""


def test_parse_handshake_unknown_type():
    data = bytes([99, 0, 0, 0])
    with pytest.raises(DecodeError):
        parse_handshake(data)


def test_handshake_framing_layout():
    data = serialize_handshake(Finished(verify_data=bytes(12)))
    assert data[0] == HandshakeType.FINISHED
    assert int.from_bytes(data[1:4], "big") == 12
    assert len(data) == 4 + 12
