"""CBC (MAC-then-encrypt) record protection tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.tls.ciphers import (
    TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
)
from repro.tls.constants import ProtocolVersion
from repro.tls.record import (
    CBCRecordCipher,
    RecordCipher,
    TLSRecord,
    decrypt_recorded_record,
    new_record_cipher,
)
from repro.tls.session import SessionState, derive_connection_keys
from repro.wireformat import DecodeError


def make_keys(seed=5, suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA):
    rng = DeterministicRandom(seed)
    session = SessionState(
        master_secret=rng.random_bytes(48),
        cipher_suite=suite,
        version=ProtocolVersion.TLS12,
        created_at=0.0,
    )
    return derive_connection_keys(session, rng.random_bytes(32), rng.random_bytes(32))


def pair(keys=None):
    keys = keys or make_keys()
    return CBCRecordCipher(keys, is_client=True), CBCRecordCipher(keys, is_client=False)


def test_factory_selects_mode():
    keys = make_keys()
    assert isinstance(
        new_record_cipher(keys, True, TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA),
        CBCRecordCipher,
    )
    assert isinstance(
        new_record_cipher(keys, True, TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256),
        RecordCipher,
    )
    assert isinstance(new_record_cipher(keys, True, None), RecordCipher)


def test_cbc_roundtrip():
    client, server = pair()
    for i in range(5):
        message = b"message %d with some length to it" % i
        assert server.unprotect(client.protect(message)) == message


def test_cbc_payload_structure():
    client, _ = pair()
    record = client.protect(b"hello")
    # explicit IV (16) + at least one AES block of ciphertext.
    assert len(record.payload) >= 16 + 16
    assert (len(record.payload) - 16) % 16 == 0
    assert b"hello" not in record.payload


def test_cbc_explicit_iv_differs_per_record():
    client, _ = pair()
    a = client.protect(b"same plaintext")
    b = client.protect(b"same plaintext")
    assert a.payload[:16] != b.payload[:16]
    assert a.payload != b.payload


def test_cbc_tamper_detected():
    client, server = pair()
    record = client.protect(b"data")
    mutated = TLSRecord(
        record.content_type, record.version,
        record.payload[:20] + bytes([record.payload[20] ^ 1]) + record.payload[21:],
    )
    with pytest.raises(DecodeError):
        server.unprotect(mutated)


def test_cbc_replay_detected():
    client, server = pair()
    record = client.protect(b"once")
    assert server.unprotect(record) == b"once"
    with pytest.raises(DecodeError):
        server.unprotect(record)


def test_cbc_short_record_rejected():
    _, server = pair()
    with pytest.raises(DecodeError):
        server.unprotect(
            TLSRecord(record_type(), ProtocolVersion.TLS12, bytes(8))
        )


def record_type():
    from repro.tls.constants import ContentType

    return ContentType.APPLICATION_DATA


def test_offline_cbc_decryption():
    keys = make_keys()
    client, _ = pair(keys)
    first = client.protect(b"first message")
    second = client.protect(b"second message")
    suite = TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    assert decrypt_recorded_record(keys, first, 0, True, suite) == b"first message"
    assert decrypt_recorded_record(keys, second, 1, True, suite) == b"second message"


def test_offline_cbc_wrong_keys():
    keys = make_keys(1)
    wrong = make_keys(2)
    client, _ = pair(keys)
    record = client.protect(b"data")
    with pytest.raises(DecodeError):
        decrypt_recorded_record(
            wrong, record, 0, True, TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
        )


def test_cbc_end_to_end_handshake_and_attack():
    """A CBC-suite connection round-trips and falls to STEK theft."""
    from helpers import make_rig
    from repro.nationstate.adversary import NationStateAttacker, reconstruct_connection
    from repro.tls.ciphers import ECDHE_SUITES, RSA_SUITES

    cbc_only = tuple(s for s in ECDHE_SUITES if "_CBC_" in s.name) + RSA_SUITES
    rig = make_rig(suites=cbc_only)
    result = rig.client.connect(rig.server, "example.com", capture=True)
    assert result.ok
    assert "_CBC_" in result.cipher_suite.name
    reply = rig.client.exchange_data(result, b"GET /cbc")
    assert b"GET /cbc" in reply

    recorded = reconstruct_connection("example.com", 0.0, result.captured)
    attacker = NationStateAttacker()
    attacker.steal_steks(rig.stek_store.all_keys)
    outcome = attacker.decrypt(recorded)
    assert outcome.success
    assert any(b"GET /cbc" in p for p in outcome.plaintexts)
