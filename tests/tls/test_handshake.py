"""Full client-server handshake integration tests."""

import pytest

from helpers import make_rig, server_handshakes

from repro.crypto import ec
from repro.obs.metrics import METRICS
from repro.tls.ciphers import (
    DHE_ONLY_OFFER,
    ECDHE_FIRST_OFFER,
    MODERN_BROWSER_OFFER,
    RSA_SUITES,
)
from repro.tls.constants import KeyExchangeKind
from repro.tls.errors import HandshakeFailure
from repro.tls.keyexchange import KexReusePolicy, ReuseMode


def test_full_handshake_succeeds():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com")
    assert result.ok, result.error
    assert not result.resumed
    assert result.certificate_trusted
    assert result.session is not None
    assert len(result.session_id) == 32


def test_ecdhe_negotiated_from_modern_offer():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com")
    assert result.cipher_suite.kex == KeyExchangeKind.ECDHE
    assert result.forward_secret_kex
    assert result.server_kex_public.startswith(b"\x04")


def test_dhe_only_offer():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com", offer=DHE_ONLY_OFFER)
    assert result.ok
    assert result.cipher_suite.kex == KeyExchangeKind.DHE


def test_rsa_only_server():
    rig = make_rig(suites=RSA_SUITES)
    result = rig.client.connect(rig.server, "example.com")
    assert result.ok
    assert result.cipher_suite.kex == KeyExchangeKind.RSA
    assert not result.forward_secret_kex
    assert result.server_kex_public == b""


def test_no_common_suite_fails():
    rig = make_rig(suites=RSA_SUITES)
    result = rig.client.connect(rig.server, "example.com", offer=DHE_ONLY_OFFER)
    assert not result.ok
    assert "cipher" in result.error


def test_ticket_issued_when_offered():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com", offer_tickets=True)
    assert result.server_supports_tickets
    assert result.new_ticket is not None
    assert result.new_ticket.lifetime_hint_seconds == 300


def test_no_ticket_when_not_offered():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com", offer_tickets=False)
    assert not result.server_supports_tickets
    assert result.new_ticket is None


def test_no_ticket_when_server_has_no_stek():
    rig = make_rig(tickets=False)
    result = rig.client.connect(rig.server, "example.com", offer_tickets=True)
    assert result.ok
    assert result.new_ticket is None


def test_untrusted_certificate_flagged():
    rig = make_rig()
    rig.client.trust_store = type(rig.trust)()  # empty store
    result = rig.client.connect(rig.server, "example.com")
    assert result.ok  # handshake completes; trust is a client policy
    assert not result.certificate_trusted
    assert "untrusted issuer" in result.certificate_error


def test_hostname_mismatch_flagged():
    rig = make_rig()
    result = rig.client.connect(rig.server, "other-site.net")
    assert result.ok
    assert not result.certificate_trusted
    assert "hostname" in result.certificate_error


def test_wildcard_hostname_matches():
    rig = make_rig()
    result = rig.client.connect(rig.server, "www.example.com")
    assert result.certificate_trusted


def test_application_data_roundtrip():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com")
    reply = rig.client.exchange_data(result, b"GET / HTTP/1.1")
    assert b"GET / HTTP/1.1" in reply
    assert reply.startswith(b"HTTP/1.1 200")


def test_fresh_kex_value_changes_per_connection():
    rig = make_rig()
    a = rig.client.connect(rig.server, "example.com")
    b = rig.client.connect(rig.server, "example.com")
    assert a.server_kex_public != b.server_kex_public


def test_process_lifetime_kex_value_is_stable():
    rig = make_rig(kex_policy=KexReusePolicy(ReuseMode.PROCESS_LIFETIME))
    a = rig.client.connect(rig.server, "example.com")
    rig.clock.advance(10_000)
    b = rig.client.connect(rig.server, "example.com")
    assert a.server_kex_public == b.server_kex_public


def test_timed_kex_value_rotates():
    rig = make_rig(kex_policy=KexReusePolicy(ReuseMode.TIMED, 3600.0))
    a = rig.client.connect(rig.server, "example.com")
    rig.clock.advance(600)
    b = rig.client.connect(rig.server, "example.com")
    assert a.server_kex_public == b.server_kex_public
    rig.clock.advance(3600)
    c = rig.client.connect(rig.server, "example.com")
    assert c.server_kex_public != a.server_kex_public


def test_server_counters():
    rig = make_rig()
    before = METRICS.snapshot()
    rig.client.connect(rig.server, "example.com")
    rig.client.connect(rig.server, "example.com")
    assert server_handshakes(before) == {"full": 2, "abbreviated": 0}


def test_handshake_on_p256():
    rig = make_rig(curve=ec.P256)
    result = rig.client.connect(rig.server, "example.com", offer=ECDHE_FIRST_OFFER)
    assert result.ok
    assert len(result.server_kex_public) == 65


def test_server_rejects_garbage_client_hello():
    rig = make_rig()
    with pytest.raises(HandshakeFailure):
        rig.server.accept(b"\x16\x03\x03\x00\x04garb")


def test_server_rejects_empty_input():
    rig = make_rig()
    with pytest.raises(HandshakeFailure):
        rig.server.accept(b"")


def test_no_session_id_when_disabled():
    rig = make_rig(issue_session_ids=False, cache_lifetime=None)
    result = rig.client.connect(rig.server, "example.com")
    assert result.ok
    assert result.session_id == b""


def test_captured_flights_populated():
    rig = make_rig()
    result = rig.client.connect(rig.server, "example.com", capture=True)
    assert len(result.captured) == 4  # CH, server flight, CKE+Fin, NST+Fin
    directions = [flight.from_client for flight in result.captured]
    assert directions == [True, False, True, False]
