"""Session-ID and ticket resumption semantics — the paper's mechanisms."""

import pytest

from helpers import make_rig, server_handshakes

from repro.obs.metrics import METRICS
from repro.tls.server import TicketPolicy
from repro.tls.ticket import TicketFormat, generate_stek


def full_handshake(rig, **kwargs):
    result = rig.client.connect(rig.server, "example.com", **kwargs)
    assert result.ok, result.error
    return result


# --- session-ID resumption ------------------------------------------------

def test_session_id_resumption():
    rig = make_rig(cache_lifetime=300.0)
    before = METRICS.snapshot()
    first = full_handshake(rig, offer_tickets=False)
    rig.clock.advance(10)
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id, saved_session=first.session,
        offer_tickets=False,
    )
    assert second.ok and second.resumed
    assert second.resumed_via == "session_id"
    assert second.session_id == first.session_id
    assert server_handshakes(before) == {"full": 1, "abbreviated": 1}


def test_session_id_expired_falls_back_to_full():
    rig = make_rig(cache_lifetime=300.0)
    first = full_handshake(rig, offer_tickets=False)
    rig.clock.advance(301)
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id, saved_session=first.session,
        offer_tickets=False,
    )
    assert second.ok and not second.resumed
    assert second.session_id != first.session_id


def test_unknown_session_id_falls_back_to_full():
    rig = make_rig(cache_lifetime=300.0)
    first = full_handshake(rig, offer_tickets=False)
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=b"\x42" * 32, saved_session=first.session,
        offer_tickets=False,
    )
    assert second.ok and not second.resumed


def test_nginx_style_ids_without_cache():
    """Issues session IDs but never resumes (cache disabled)."""
    rig = make_rig(cache_lifetime=None, issue_session_ids=True)
    first = full_handshake(rig, offer_tickets=False)
    assert first.session_id  # ID issued...
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id, saved_session=first.session,
        offer_tickets=False,
    )
    assert second.ok and not second.resumed  # ...but not honored


def test_resumed_connection_derives_fresh_keys():
    rig = make_rig(cache_lifetime=300.0)
    first = full_handshake(rig, offer_tickets=False)
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id, saved_session=first.session,
        offer_tickets=False,
    )
    assert second.server_random != first.server_random
    # Same master secret, fresh connection keys: app data still works.
    reply = rig.client.exchange_data(second, b"ping")
    assert b"ping" in reply


def test_resumption_requires_saved_session():
    rig = make_rig()
    with pytest.raises(ValueError):
        rig.client.connect(rig.server, "example.com", session_id=b"\x01" * 32)


def test_forged_session_id_cannot_hijack():
    """Offering another session's ID without its master secret fails."""
    rig = make_rig(cache_lifetime=300.0)
    victim = full_handshake(rig, offer_tickets=False)
    attacker_session = full_handshake(rig, offer_tickets=False).session
    result = rig.client.connect(
        rig.server, "example.com",
        session_id=victim.session_id,     # victim's ID
        saved_session=attacker_session,   # wrong master secret
        offer_tickets=False,
    )
    assert not result.ok  # server Finished cannot verify


# --- ticket resumption ------------------------------------------------------

def test_ticket_resumption():
    rig = make_rig(ticket_window=300.0)
    before = METRICS.snapshot()
    first = full_handshake(rig)
    rig.clock.advance(10)
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.ok and second.resumed
    assert second.resumed_via == "ticket"
    assert server_handshakes(before) == {"full": 1, "abbreviated": 1}


def test_ticket_reissued_on_resumption():
    rig = make_rig(ticket_window=300.0)
    first = full_handshake(rig)
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.new_ticket is not None
    assert second.new_ticket.ticket != first.new_ticket.ticket


def test_expired_ticket_full_handshake():
    rig = make_rig(ticket_window=300.0)
    first = full_handshake(rig)
    rig.clock.advance(301)
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.ok and not second.resumed


def test_original_ticket_window_measured_from_issuance():
    """Reissued tickets don't extend the original ticket's window."""
    rig = make_rig(ticket_window=300.0)
    first = full_handshake(rig)
    original = first.new_ticket.ticket
    rig.clock.advance(200)
    second = rig.client.connect(
        rig.server, "example.com", ticket=original, saved_session=first.session
    )
    assert second.resumed  # still within 300 s
    rig.clock.advance(200)  # 400 s after issuance
    third = rig.client.connect(
        rig.server, "example.com", ticket=original, saved_session=first.session
    )
    assert not third.resumed


def test_garbage_ticket_full_handshake():
    rig = make_rig()
    first = full_handshake(rig)
    result = rig.client.connect(
        rig.server, "example.com", ticket=b"garbage-bytes" * 4,
        saved_session=first.session,
    )
    assert result.ok and not result.resumed


def test_ticket_across_stek_rotation_with_retention():
    rig = make_rig(ticket_window=10_000.0, stek_retain=1)
    first = full_handshake(rig)
    rig.stek_store.rotate(generate_stek(rig.client._rng, rig.clock.now()))
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.resumed  # previous STEK retained


def test_ticket_dead_after_retention_exceeded():
    rig = make_rig(ticket_window=10_000.0, stek_retain=0)
    first = full_handshake(rig)
    rig.stek_store.rotate(generate_stek(rig.client._rng, rig.clock.now()))
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert not second.resumed


def test_ticket_takes_precedence_over_session_id():
    """RFC 5077 §3.4: a valid ticket wins over the session ID."""
    rig = make_rig(cache_lifetime=300.0, ticket_window=300.0)
    first = full_handshake(rig)
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id,
        ticket=first.new_ticket.ticket,
        saved_session=first.session,
    )
    assert second.resumed_via == "ticket"


def test_mbedtls_format_ticket_resumption():
    rig = make_rig(ticket_format=TicketFormat.MBEDTLS)
    first = full_handshake(rig)
    assert first.new_ticket is not None
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.resumed


def test_schannel_format_ticket_resumption():
    rig = make_rig(ticket_format=TicketFormat.SCHANNEL)
    first = full_handshake(rig)
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert second.resumed


def test_zero_window_issues_but_never_honors():
    """Models servers that issue tickets but don't resume them."""
    rig = make_rig(ticket_window=0.0)
    first = full_handshake(rig)
    assert first.new_ticket is not None
    rig.clock.advance(1)
    second = rig.client.connect(
        rig.server, "example.com",
        ticket=first.new_ticket.ticket, saved_session=first.session,
    )
    assert not second.resumed


def test_restart_clears_session_cache():
    rig = make_rig(cache_lifetime=10_000.0)
    first = full_handshake(rig, offer_tickets=False)
    rig.server.restart()
    second = rig.client.connect(
        rig.server, "example.com",
        session_id=first.session_id, saved_session=first.session,
        offer_tickets=False,
    )
    assert not second.resumed
