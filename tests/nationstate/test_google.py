"""§7.2 Google-style target analysis tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.nationstate.google import (
    analyze_target,
    count_shared_stek_domains,
    measure_mx_concentration,
    measure_stek_rotation,
    measure_ticket_acceptance,
    render_report,
    run_decryption_demo,
)
from repro.netsim.clock import HOUR
from repro.scanner import ZGrabber
from repro.tls.messages import NewSessionTicket


@pytest.fixture(scope="module")
def eco():
    return build_ecosystem(EcosystemConfig(population=420, seed=19, failure_rate=0.0))


@pytest.fixture()
def grabber(eco):
    return ZGrabber(eco, DeterministicRandom(31337))


def test_mx_concentration(eco):
    pointing, total = measure_mx_concentration(eco)
    assert total > 0
    # google-hosted domains always point there, plus ~9% of the rest.
    assert 0.05 < pointing / total < 0.35


def test_stek_rotation_measured_as_14h(eco, grabber):
    ids, rotation = measure_stek_rotation(grabber, "google.com", horizon=60 * HOUR)
    assert rotation is not None
    assert 13 * HOUR <= rotation <= 15 * HOUR
    assert len(set(ids)) >= 4  # several keys over 60 h


def test_ticket_acceptance_up_to_28h(eco, grabber):
    """Tickets are accepted for *up to* 28 hours: a 14 h rotation with
    one retained key honors a ticket for between 14 h and 28 h
    depending on where in the rotation cycle it was issued."""
    acceptance = measure_ticket_acceptance(grabber, "google.com")
    assert acceptance is not None
    assert 13 * HOUR <= acceptance <= 29 * HOUR


def test_mail_protocols_share_https_stek(eco, grabber):
    """§7.2: SMTPS/IMAPS/POP3S terminate on the same STEK as HTTPS."""
    from repro.nationstate.google import measure_cross_protocol_stek

    sharing = measure_cross_protocol_stek(grabber, "google.com")
    assert sharing == [465, 993, 995]


def test_non_mail_provider_has_no_mail_tls(eco, grabber):
    from repro.nationstate.google import measure_cross_protocol_stek

    assert measure_cross_protocol_stek(grabber, "yahoo.com") == []


def _mail_tickets_replaced_by(grabber, monkeypatch, ticket):
    """Make every mail-port grab come back with ``ticket`` as its ticket."""
    connect = grabber.connect

    def replacing(domain, **kwargs):
        result, address, error = connect(domain, **kwargs)
        if kwargs.get("port", 443) != 443 and result is not None and result.new_ticket:
            result.new_ticket = NewSessionTicket(300, ticket)
        return result, address, error

    monkeypatch.setattr(grabber, "connect", replacing)


def test_malformed_mail_ticket_is_skipped(eco, grabber, monkeypatch):
    from repro.nationstate.google import measure_cross_protocol_stek

    _mail_tickets_replaced_by(grabber, monkeypatch, b"\x01\x02")
    assert measure_cross_protocol_stek(grabber, "google.com") == []


def test_non_ticket_value_is_not_swallowed(eco, grabber, monkeypatch):
    from repro.nationstate.google import measure_cross_protocol_stek

    _mail_tickets_replaced_by(grabber, monkeypatch, 1234)
    with pytest.raises(TypeError):
        measure_cross_protocol_stek(grabber, "google.com")


def test_shared_stek_domain_count(eco, grabber):
    shared = count_shared_stek_domains(grabber, "google.com")
    google_domains = [d for d in eco.domains if d.provider == "google"]
    # All google-provider domains share one STEK store.
    assert shared >= len(google_domains) - 3  # tolerate scan jitter


def test_decryption_demo(eco, grabber):
    captured, decrypted, sample = run_decryption_demo(
        grabber, eco, "google.com", connections=4
    )
    assert captured == 4
    assert decrypted == 4
    assert b"GET /inbox" in sample


def test_yandex_never_rotates(eco):
    grabber = ZGrabber(eco, DeterministicRandom(999))
    ids, rotation = measure_stek_rotation(grabber, "yandex.ru", horizon=50 * HOUR)
    assert len(set(ids)) == 1  # one STEK the whole time
    assert rotation is None


def test_full_report(eco):
    report = analyze_target(eco, "google.com", rotation_horizon=40 * HOUR)
    assert report.connections_decrypted == report.connections_captured > 0
    assert report.mx_fraction > 0
    text = render_report(report)
    assert "google.com" in text
    assert "retrospectively decrypted" in text
    assert report.steks_per_day > 0
