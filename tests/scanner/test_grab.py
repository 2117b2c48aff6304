"""ZGrabber tests against a small ecosystem."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import METRICS
from repro.scanner import ZGrabber
from repro.tls.ciphers import DHE_ONLY_OFFER


@pytest.fixture(scope="module")
def grabber(request):
    factory = request.getfixturevalue("small_ecosystem_factory")
    ecosystem = factory()
    return ZGrabber(ecosystem, DeterministicRandom(500))


def first_domain(grabber, predicate):
    for domain in grabber.ecosystem.active_domains(0):
        if predicate(domain):
            return domain
    raise AssertionError("no matching domain")


def test_grab_success_fields(grabber):
    domain = first_domain(
        grabber,
        lambda d: d.https and d.behavior.trusted_cert and d.behavior.tickets
        and d.behavior.supports_ecdhe,
    )
    for _ in range(3):  # tolerate injected transient failures
        observation = grabber.grab(domain.name, rank=domain.rank)
        if observation.success:
            break
    assert observation.success
    assert observation.domain == domain.name
    assert observation.cipher is not None
    assert observation.kex_kind in ("rsa", "dhe", "ecdhe")
    assert observation.ip
    assert observation.ticket_issued
    assert observation.stek_id is not None
    assert observation.ticket_format is not None


def test_grab_nxdomain(grabber):
    observation = grabber.grab("no-such-name.invalid")
    assert not observation.success
    assert observation.error == "nxdomain"


def test_grab_dark_domain(grabber):
    domain = first_domain(grabber, lambda d: not d.https and d.ips)
    observation = grabber.grab(domain.name)
    assert not observation.success
    assert "connect" in observation.error


def test_grab_untrusted_cert_flagged(grabber):
    domain = first_domain(
        grabber, lambda d: d.https and not d.behavior.trusted_cert
    )
    for _ in range(4):
        observation = grabber.grab(domain.name)
        if observation.success:
            break
    assert observation.success
    assert not observation.cert_trusted
    assert observation.cert_error


def test_grab_stek_id_matches_ground_truth(grabber):
    domain = first_domain(
        grabber,
        lambda d: d.https and d.behavior.tickets and d.behavior.trusted_cert
        and not d.extra_stek_stores,
    )
    for _ in range(4):
        observation = grabber.grab(domain.name)
        if observation.success:
            break
    assert observation.stek_id == domain.stek_store.current.key_name.hex()


def test_grab_dhe_only_offer(grabber):
    domain = first_domain(
        grabber,
        lambda d: d.https and d.behavior.supports_dhe and d.behavior.trusted_cert,
    )
    for _ in range(4):
        observation = grabber.grab(domain.name, offer=DHE_ONLY_OFFER, offer_tickets=False)
        if observation.success:
            break
    assert observation.success
    assert observation.kex_kind == "dhe"
    assert observation.kex_public
    assert not observation.ticket_issued


def test_grab_dhe_only_against_non_dhe_server(grabber):
    domain = first_domain(
        grabber,
        lambda d: d.https and not d.behavior.supports_dhe and d.behavior.trusted_cert,
    )
    observations = [
        grabber.grab(domain.name, offer=DHE_ONLY_OFFER) for _ in range(3)
    ]
    assert all(not o.success for o in observations)


def test_grab_counts(grabber):
    attempts = METRICS.counter("scanner.grab.attempt")
    before = attempts.value
    grabber.grab("no-such-name.invalid")
    assert attempts.value == before + 1


def test_day_and_timestamp_recorded(grabber):
    ecosystem = grabber.ecosystem
    domain = first_domain(grabber, lambda d: d.https)
    observation = grabber.grab(domain.name)
    assert observation.day == ecosystem.clock.day_index
    assert observation.timestamp == ecosystem.clock.now()
