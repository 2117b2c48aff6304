"""Fuzz-style property tests: parsers must fail closed.

Every byte-level parser in the TLS stack must raise ``DecodeError`` (or
a domain error) on malformed input — never ``IndexError``/``KeyError``/
unbounded allocation — because the scanner feeds them whatever the
network returns.
"""

from hypothesis import given, settings, strategies as st

import pytest

from helpers import make_rig

from repro.tls.errors import HandshakeFailure
from repro.tls.messages import parse_handshake
from repro.tls.record import parse_records
from repro.tls.ticket import (
    TicketFormat,
    extract_key_name,
    generate_stek,
    open_ticket,
    sniff_ticket_format,
    sniff_ticket_head,
)
from repro.wireformat import DecodeError
from repro.crypto.rng import DeterministicRandom
from repro.x509 import X509Certificate


@given(data=st.binary(max_size=400))
@settings(max_examples=150, deadline=None)
def test_parse_records_fails_closed(data):
    try:
        records = parse_records(data)
    except (DecodeError, ValueError):
        return
    total = sum(len(r.payload) + 5 for r in records)
    assert total == len(data)


@given(data=st.binary(max_size=400), hint=st.sampled_from([None, "dhe", "ecdhe"]))
@settings(max_examples=150, deadline=None)
def test_parse_handshake_fails_closed(data, hint):
    try:
        parse_handshake(data, kex_hint=hint)
    except (DecodeError, ValueError):
        pass


@given(data=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_sniff_ticket_format_fails_closed(data):
    try:
        sniff_ticket_format(data)
    except DecodeError:
        pass


@given(head=st.binary(max_size=80), length=st.integers(-1, 2**17))
@settings(max_examples=150, deadline=None)
def test_sniff_ticket_head_fails_closed(head, length):
    try:
        sniff_ticket_head(head, length)
    except DecodeError:
        pass


@given(data=st.binary(max_size=64), ticket_format=st.sampled_from(list(TicketFormat)))
@settings(max_examples=150, deadline=None)
def test_extract_key_name_fails_closed(data, ticket_format):
    try:
        extract_key_name(data, ticket_format)
    except DecodeError:
        pass


@given(data=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_open_ticket_never_accepts_garbage(data):
    stek = generate_stek(DeterministicRandom(1), 0.0)
    assert open_ticket(stek, data, TicketFormat.RFC5077) is None


@given(data=st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_certificate_parse_fails_closed(data):
    try:
        X509Certificate.parse(data)
    except (DecodeError, ValueError, UnicodeDecodeError, OverflowError):
        pass


@given(data=st.binary(min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_server_accept_fails_closed(data):
    """Random bytes to a server: HandshakeFailure or DecodeError only."""
    rig = make_rig(seed=7)
    try:
        rig.server.accept(data)
    except (HandshakeFailure, DecodeError, ValueError):
        pass


def test_fuzzed_client_hello_mutations():
    """Bit-flip a valid ClientHello everywhere; server must never crash
    with a non-protocol exception."""
    rig = make_rig(seed=8)
    from repro.tls.ciphers import MODERN_BROWSER_OFFER
    from repro.tls.constants import ProtocolVersion
    from repro.tls.extensions import encode_server_name, encode_session_ticket
    from repro.tls.messages import ClientHello, serialize_handshake
    from repro.tls.record import handshake_record, serialize_records

    hello = ClientHello(
        version=ProtocolVersion.TLS12,
        random=bytes(32),
        session_id=b"\x01" * 32,
        cipher_suites=list(MODERN_BROWSER_OFFER),
        extensions=[encode_server_name("example.com"), encode_session_ticket(b"t" * 40)],
    )
    baseline = serialize_records([handshake_record(serialize_handshake(hello))])
    for index in range(0, len(baseline), 3):
        mutated = bytearray(baseline)
        mutated[index] ^= 0xFF
        try:
            flight, conn = rig.server.accept(bytes(mutated))
        except (HandshakeFailure, DecodeError, ValueError, UnicodeDecodeError):
            continue
        assert flight  # parsed fine despite the flip — also acceptable
