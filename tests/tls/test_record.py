"""Record layer and application-data protection tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.tls.ciphers import TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
from repro.tls.constants import ContentType, ProtocolVersion
from repro.tls.record import (
    RecordCipher,
    TLSRecord,
    decrypt_recorded_record,
    handshake_record,
    parse_records,
    serialize_records,
)
from repro.tls.session import SessionState, derive_connection_keys
from repro.wireformat import DecodeError


def make_keys(seed=5):
    rng = DeterministicRandom(seed)
    session = SessionState(
        master_secret=rng.random_bytes(48),
        cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
        version=ProtocolVersion.TLS12,
        created_at=0.0,
    )
    return derive_connection_keys(session, rng.random_bytes(32), rng.random_bytes(32))


def test_record_roundtrip():
    records = [
        handshake_record(b"payload-one"),
        TLSRecord(ContentType.ALERT, ProtocolVersion.TLS12, b"\x02\x28"),
    ]
    parsed = parse_records(serialize_records(records))
    assert parsed == records


def test_record_layout():
    record = handshake_record(b"abc")
    data = record.serialize()
    assert data[0] == ContentType.HANDSHAKE
    assert int.from_bytes(data[1:3], "big") == ProtocolVersion.TLS12
    assert int.from_bytes(data[3:5], "big") == 3
    assert data[5:] == b"abc"


def test_parse_records_rejects_unknown_type():
    with pytest.raises(DecodeError):
        parse_records(b"\x63\x03\x03\x00\x00")


def test_parse_records_rejects_truncation():
    data = handshake_record(b"abcdef").serialize()
    with pytest.raises(DecodeError):
        parse_records(data[:-2])


def test_oversized_record_rejected():
    record = TLSRecord(ContentType.HANDSHAKE, ProtocolVersion.TLS12, bytes(20000))
    with pytest.raises(ValueError):
        record.serialize()


def test_protect_unprotect_roundtrip():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    server = RecordCipher(keys, is_client=False)
    record = client.protect(b"GET / HTTP/1.1")
    assert record.content_type is ContentType.APPLICATION_DATA
    assert server.unprotect(record) == b"GET / HTTP/1.1"


def test_bidirectional_sequences():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    server = RecordCipher(keys, is_client=False)
    for i in range(5):
        assert server.unprotect(client.protect(b"c%d" % i)) == b"c%d" % i
        assert client.unprotect(server.protect(b"s%d" % i)) == b"s%d" % i


def test_ciphertext_is_not_plaintext():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    record = client.protect(b"super secret content here")
    assert b"super secret" not in record.payload


def test_tampered_record_rejected():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    server = RecordCipher(keys, is_client=False)
    record = client.protect(b"data")
    bad = TLSRecord(
        record.content_type,
        record.version,
        bytes([record.payload[0] ^ 1]) + record.payload[1:],
    )
    with pytest.raises(DecodeError):
        server.unprotect(bad)


def test_replay_detected_by_sequence():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    server = RecordCipher(keys, is_client=False)
    record = client.protect(b"once")
    assert server.unprotect(record) == b"once"
    with pytest.raises(DecodeError):
        server.unprotect(record)  # receiver sequence advanced


def test_unprotect_wrong_content_type():
    keys = make_keys()
    server = RecordCipher(keys, is_client=False)
    with pytest.raises(DecodeError):
        server.unprotect(handshake_record(b"x"))


def test_unprotect_too_short():
    keys = make_keys()
    server = RecordCipher(keys, is_client=False)
    with pytest.raises(DecodeError):
        server.unprotect(
            TLSRecord(ContentType.APPLICATION_DATA, ProtocolVersion.TLS12, b"short")
        )


def test_offline_decryption_matches():
    """The attacker's offline path decrypts captured records."""
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    server = RecordCipher(keys, is_client=False)
    c0 = client.protect(b"client msg 0")
    c1 = client.protect(b"client msg 1")
    s0 = server.protect(b"server msg 0")
    assert decrypt_recorded_record(keys, c0, 0, from_client=True) == b"client msg 0"
    assert decrypt_recorded_record(keys, c1, 1, from_client=True) == b"client msg 1"
    assert decrypt_recorded_record(keys, s0, 0, from_client=False) == b"server msg 0"


def test_offline_decryption_wrong_keys_fails():
    keys = make_keys(1)
    wrong = make_keys(2)
    client = RecordCipher(keys, is_client=True)
    record = client.protect(b"data")
    with pytest.raises(DecodeError):
        decrypt_recorded_record(wrong, record, 0, from_client=True)


def test_offline_decryption_wrong_sequence_fails():
    keys = make_keys()
    client = RecordCipher(keys, is_client=True)
    record = client.protect(b"data")
    with pytest.raises(DecodeError):
        decrypt_recorded_record(keys, record, 3, from_client=True)
