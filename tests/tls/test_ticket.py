"""RFC 5077 ticket and STEK tests."""

import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.modes import cbc_encrypt
from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import METRICS
from repro.tls.ciphers import TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
from repro.tls.constants import ProtocolVersion
from repro.tls.session import SessionState
from repro.tls.ticket import (
    STEK,
    STEKStore,
    SealedTicket,
    TicketFormat,
    extract_key_name,
    generate_stek,
    open_ticket,
    seal_ticket,
    sniff_ticket_format,
    sniff_ticket_head,
)
from repro.wireformat import DecodeError

RNG = DeterministicRandom(88)


def make_session(domain="example.com"):
    return SessionState(
        master_secret=RNG.random_bytes(48),
        cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
        version=ProtocolVersion.TLS12,
        created_at=1234.0,
        domain=domain,
    )


def test_stek_validation():
    with pytest.raises(ValueError):
        STEK(key_name=bytes(16), aes_key=bytes(8), hmac_key=bytes(32), created_at=0)
    with pytest.raises(ValueError):
        STEK(key_name=bytes(16), aes_key=bytes(16), hmac_key=bytes(16), created_at=0)


def test_generate_stek_fields():
    stek = generate_stek(RNG, now=9.0)
    assert len(stek.key_name) == 16
    assert len(stek.aes_key) == 16
    assert len(stek.hmac_key) == 32
    assert stek.created_at == 9.0
    short = generate_stek(RNG, now=9.0, key_name_length=4)
    assert len(short.key_name) == 4


def test_seal_open_roundtrip():
    stek = generate_stek(RNG, 0.0)
    session = make_session()
    ticket = seal_ticket(stek, session, RNG, issued_at=55.0)
    contents = open_ticket(stek, ticket)
    assert contents is not None
    assert contents.session == session
    assert contents.issued_at == 55.0


def test_issued_at_defaults_to_session_creation():
    stek = generate_stek(RNG, 0.0)
    session = make_session()
    ticket = seal_ticket(stek, session, RNG)
    assert open_ticket(stek, ticket).issued_at == session.created_at


def test_ticket_is_opaque():
    stek = generate_stek(RNG, 0.0)
    session = make_session()
    ticket = seal_ticket(stek, session, RNG)
    assert session.master_secret not in ticket


def test_wrong_stek_cannot_open():
    stek = generate_stek(RNG, 0.0)
    other = generate_stek(RNG, 0.0)
    ticket = seal_ticket(stek, make_session(), RNG)
    assert open_ticket(other, ticket) is None


def test_same_key_material_different_name_fails():
    stek = generate_stek(RNG, 0.0)
    renamed = STEK(
        key_name=RNG.random_bytes(16),
        aes_key=stek.aes_key,
        hmac_key=stek.hmac_key,
        created_at=0.0,
    )
    ticket = seal_ticket(stek, make_session(), RNG)
    assert open_ticket(renamed, ticket) is None


def test_tampered_ticket_rejected():
    stek = generate_stek(RNG, 0.0)
    ticket = bytearray(seal_ticket(stek, make_session(), RNG))
    ticket[20] ^= 0x01  # flip a bit in the IV
    assert open_ticket(stek, bytes(ticket)) is None
    ticket2 = bytearray(seal_ticket(stek, make_session(), RNG))
    ticket2[-1] ^= 0x01  # flip a MAC bit
    assert open_ticket(stek, bytes(ticket2)) is None


def test_truncated_ticket_rejected():
    stek = generate_stek(RNG, 0.0)
    ticket = seal_ticket(stek, make_session(), RNG)
    assert open_ticket(stek, ticket[:20]) is None
    assert open_ticket(stek, b"") is None


def test_key_name_visible_in_clear():
    stek = generate_stek(RNG, 0.0)
    ticket = seal_ticket(stek, make_session(), RNG)
    assert extract_key_name(ticket, TicketFormat.RFC5077) == stek.key_name


@pytest.mark.parametrize("fmt,name_len", [
    (TicketFormat.RFC5077, 16),
    (TicketFormat.MBEDTLS, 4),
    (TicketFormat.SCHANNEL, 16),
])
def test_all_formats_roundtrip(fmt, name_len):
    stek = generate_stek(RNG, 0.0, key_name_length=name_len)
    session = make_session()
    ticket = seal_ticket(stek, session, RNG, ticket_format=fmt)
    assert sniff_ticket_format(ticket) is fmt
    assert extract_key_name(ticket, fmt) == stek.key_name
    assert open_ticket(stek, ticket, fmt).session == session


def test_format_name_length_mismatch_rejected():
    stek = generate_stek(RNG, 0.0, key_name_length=16)
    with pytest.raises(ValueError):
        seal_ticket(stek, make_session(), RNG, ticket_format=TicketFormat.MBEDTLS)


def test_sniff_rejects_garbage():
    with pytest.raises(DecodeError):
        sniff_ticket_format(b"not-a-ticket")


def test_store_issue_and_open():
    store = STEKStore(generate_stek(RNG, 0.0))
    session = make_session()
    before = METRICS.snapshot()
    ticket = store.issue(session, RNG, now=10.0)
    contents = store.open(ticket)
    assert contents.session == session
    assert contents.issued_at == 10.0
    counters = METRICS.snapshot_delta(before)["counters"]
    assert counters["tls.ticket.seal"] == 1
    assert counters["tls.ticket.open"] == 1


def test_store_rotation_retains_previous():
    store = STEKStore(generate_stek(RNG, 0.0), retain=1)
    old_ticket = store.issue(make_session(), RNG, now=0.0)
    store.rotate(generate_stek(RNG, 100.0))
    assert store.open(old_ticket) is not None  # previous key retained
    store.rotate(generate_stek(RNG, 200.0))
    assert store.open(old_ticket) is None      # now beyond retention


def test_store_retain_zero_drops_immediately():
    store = STEKStore(generate_stek(RNG, 0.0), retain=0)
    old_ticket = store.issue(make_session(), RNG, now=0.0)
    store.rotate(generate_stek(RNG, 1.0))
    assert store.open(old_ticket) is None


def test_store_all_keys_order():
    first = generate_stek(RNG, 0.0)
    second = generate_stek(RNG, 1.0)
    store = STEKStore(first, retain=2)
    store.rotate(second)
    assert store.all_keys[0] is second
    assert store.all_keys[1] is first


def test_store_new_tickets_use_current_key():
    store = STEKStore(generate_stek(RNG, 0.0))
    store.rotate(generate_stek(RNG, 10.0))
    ticket = store.issue(make_session(), RNG, now=11.0)
    assert extract_key_name(ticket, TicketFormat.RFC5077) == store.current.key_name


def test_store_invalid_retain():
    with pytest.raises(ValueError):
        STEKStore(generate_stek(RNG, 0.0), retain=-1)


def test_stolen_stek_decrypts_old_tickets():
    """The core §6.1 harm: anyone with the STEK recovers master secrets."""
    store = STEKStore(generate_stek(RNG, 0.0))
    session = make_session()
    ticket = store.issue(session, RNG, now=0.0)
    stolen = store.current  # exfiltrated key material
    contents = open_ticket(stolen, ticket)
    assert contents.session.master_secret == session.master_secret


# -- sealed on first use: the lazy ticket is the eager one ------------------

_FORMATS = [(TicketFormat.RFC5077, 16), (TicketFormat.MBEDTLS, 4), (TicketFormat.SCHANNEL, 16)]
_ASCII_DOMAINS = st.text(st.characters(min_codepoint=0, max_codepoint=127), max_size=253)


def _reference_seal(stek, session, iv, ticket_format, issued_at):
    """RFC 5077 §4 sealing written out from the primitives and ``hmac``."""
    domain = session.domain.encode("ascii")
    state = b"".join((
        int(session.version).to_bytes(2, "big"),
        session.cipher_suite.code.to_bytes(2, "big"),
        session.master_secret,
        int(session.created_at).to_bytes(4, "big"),
        int(issued_at).to_bytes(4, "big"),
        len(domain).to_bytes(2, "big"),
        domain,
    ))
    encrypted = cbc_encrypt(stek.aes_key, iv, state)
    mac = hmac.new(stek.hmac_key, stek.key_name + iv + encrypted, "sha256").digest()
    header = b"\x30\x82DPAPI" if ticket_format is TicketFormat.SCHANNEL else b""
    return header + stek.key_name + iv + len(encrypted).to_bytes(2, "big") + encrypted + mac


def _counts():
    return (
        METRICS.counter("tls.ticket.seal").value,
        METRICS.counter("crypto.aes.stek_cipher.hit").value,
        METRICS.counter("crypto.aes.stek_cipher.miss").value,
    )


@given(
    fmt=st.sampled_from(_FORMATS),
    domain=_ASCII_DOMAINS,
    seed=st.integers(0, 2**32),
    materialize=st.sampled_from(["at_once", "after_rotate"]),
)
@settings(max_examples=120, deadline=None)
def test_issued_ticket_equals_eager_seal(fmt, domain, seed, materialize):
    ticket_format, name_len = fmt
    stek = generate_stek(DeterministicRandom(seed), 0.0, key_name_length=name_len)
    session = SessionState(
        master_secret=DeterministicRandom(seed + 1).random_bytes(48),
        cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
        version=ProtocolVersion.TLS12,
        created_at=1234.0,
        domain=domain,
    )
    reference_rng = DeterministicRandom(seed + 2)
    reference = _reference_seal(
        stek, session, reference_rng.random_bytes(16), ticket_format, 77.0
    )
    eager = seal_ticket(stek, session, DeterministicRandom(seed + 2), ticket_format, 77.0)
    assert eager == reference
    store = STEKStore(stek, ticket_format)
    issue_rng = DeterministicRandom(seed + 2)
    issued = store.issue(session, issue_rng, now=77.0)
    assert isinstance(issued, SealedTicket)

    # The IV is drawn at issue, and everything observable is fixed
    # before any encryption.
    assert issue_rng.random_bytes(8) == reference_rng.random_bytes(8)
    assert len(issued) == len(eager)
    assert eager.startswith(issued.head)
    assert sniff_ticket_format(issued) is sniff_ticket_format(eager) is ticket_format
    assert sniff_ticket_head(issued.head, len(issued)) is ticket_format
    assert extract_key_name(issued, ticket_format) == extract_key_name(eager, ticket_format)

    if materialize == "after_rotate":
        store.rotate(generate_stek(DeterministicRandom(seed + 3), 1.0, name_len))
    before = _counts()
    sealed = bytes(issued)
    assert sealed == eager
    assert bytes(issued) is sealed  # memoized
    assert _counts() == before  # sealing the body counts nothing
    assert issued == eager and hash(issued) == hash(eager)


@pytest.mark.parametrize("fmt,name_len", _FORMATS)
def test_issue_counts_one_seal_and_one_cipher_lookup(fmt, name_len):
    stek = generate_stek(RNG, 0.0, key_name_length=name_len)
    store = STEKStore(stek, fmt)
    for expected in ((1, 0, 1), (1, 1, 0)):  # cold, then warm schedule
        start = _counts()
        store.issue(make_session(), RNG)
        assert tuple(b - a for a, b in zip(start, _counts())) == expected


def test_open_authenticates_issued_tickets():
    """Opening seals the real bytes and checks them: no shortcut to the state."""
    stek = generate_stek(RNG, 0.0)
    forged = STEK(
        key_name=stek.key_name,
        aes_key=stek.aes_key,
        hmac_key=RNG.random_bytes(32),
        created_at=0.0,
    )
    ticket = STEKStore(stek).issue(make_session(), RNG, now=3.0)
    assert open_ticket(forged, ticket) is None
    assert STEKStore(forged).open(ticket) is None
    assert open_ticket(stek, ticket).issued_at == 3.0
