"""Chaos injection end-to-end: faults installed via ``install_chaos``
reach the grabber with the right taxonomy label, and the retry/breaker
machinery reacts on the virtual clock."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.faults.inject import ImpairedServer, install_chaos
from repro.faults.plan import ImpairmentMatch, ImpairmentPlan, ImpairmentWindow
from repro.faults.retry import RetryPolicy
from repro.netsim.clock import DAY
from repro.obs.metrics import METRICS
from repro.scanner import ZGrabber
from repro.tls.errors import HandshakeFailure


# -- ImpairedServer unit behavior -------------------------------------------


class _StubExchange:
    def accept(self, client_hello_bytes):
        return b"0123456789", "connection"

    def greeting(self):
        return "hello"


class TestImpairedServer:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported handshake fault"):
            ImpairedServer(_StubExchange(), "outage")

    def test_reset_raises_mid_handshake(self):
        server = ImpairedServer(_StubExchange(), "reset")
        assert server.injected_fault == "reset"
        with pytest.raises(HandshakeFailure, match="injected fault"):
            server.accept(b"hello")

    def test_truncate_halves_the_flight(self):
        server = ImpairedServer(_StubExchange(), "truncate")
        flight, connection = server.accept(b"hello")
        assert flight == b"01234"
        assert connection == "connection"

    def test_everything_else_delegates(self):
        server = ImpairedServer(_StubExchange(), "reset")
        assert server.greeting() == "hello"


# -- end-to-end through a real ecosystem ------------------------------------

ALWAYS = dict(start=0.0, end=1000 * DAY)


@pytest.fixture(scope="module")
def ecosystem(request):
    # failure_rate=0 so every failure below is the injected one.
    factory = request.getfixturevalue("small_ecosystem_factory")
    return factory(population=320, failure_rate=0.0)


def _grabber(ecosystem, retry=None):
    return ZGrabber(ecosystem, DeterministicRandom(910), retry=retry)


def _install(ecosystem, *windows, seed=5):
    return install_chaos(ecosystem, ImpairmentPlan(windows=tuple(windows), seed=seed))


def _first(ecosystem, predicate):
    for domain in ecosystem.active_domains(0):
        if predicate(domain):
            return domain
    raise AssertionError("no matching domain")


def _https(ecosystem):
    return _first(
        ecosystem,
        lambda d: d.https and d.behavior.trusted_cert and d.behavior.supports_ecdhe,
    )


def _failure_count(reason):
    return METRICS.counter("scanner.grab.failure", reason=reason).value


def _counted_since(before, family):
    """The growth of every ``family`` counter since snapshot ``before``."""
    return {
        key: value
        for key, value in METRICS.snapshot_delta(before)["counters"].items()
        if key == family or key.startswith(family + "{")
    }


class TestInstalledChaos:
    def test_outage_window_classified_as_outage(self, ecosystem):
        _install(ecosystem, ImpairmentWindow(kind="outage", rate=1.0, **ALWAYS))
        before = _failure_count("outage")
        observation = _grabber(ecosystem).grab(_https(ecosystem).name)
        assert not observation.success
        assert "injected outage" in observation.error
        assert _failure_count("outage") == before + 1

    def test_outage_scoped_to_one_domain(self, ecosystem):
        domains = [d for d in ecosystem.active_domains(0)
                   if d.https and d.behavior.trusted_cert
                   and d.behavior.supports_ecdhe][:2]
        assert len(domains) == 2
        down, up = domains
        _install(ecosystem, ImpairmentWindow(
            kind="outage", rate=1.0,
            match=ImpairmentMatch(domains=(down.name,)), **ALWAYS,
        ))
        grabber = _grabber(ecosystem)
        assert not grabber.grab(down.name).success
        assert grabber.grab(up.name).success

    def test_nxdomain_window_hides_existing_name(self, ecosystem):
        target = _https(ecosystem)
        _install(ecosystem, ImpairmentWindow(
            kind="nxdomain", rate=1.0,
            match=ImpairmentMatch(domains=(target.name,)), **ALWAYS,
        ))
        grabber = _grabber(ecosystem)
        observation = grabber.grab(target.name)
        assert not observation.success
        assert observation.error == "nxdomain"
        # Unmatched names still resolve.
        other = _first(
            ecosystem,
            lambda d: d.https and d.behavior.trusted_cert
            and d.behavior.supports_ecdhe and d.name != target.name,
        )
        assert grabber.grab(other.name).success

    def test_total_flap_is_no_backend(self, ecosystem):
        _install(ecosystem, ImpairmentWindow(
            kind="flap", down_fraction=1.0, **ALWAYS,
        ))
        before = _failure_count("no_backend")
        observation = _grabber(ecosystem).grab(_https(ecosystem).name)
        assert not observation.success
        assert "no live backend" in observation.error
        assert _failure_count("no_backend") == before + 1

    def test_reset_window_classified_as_reset(self, ecosystem):
        _install(ecosystem, ImpairmentWindow(kind="reset", rate=1.0, **ALWAYS))
        before = _failure_count("reset")
        injected = METRICS.counter("faults.injected", kind="reset").value
        observation = _grabber(ecosystem).grab(_https(ecosystem).name)
        assert not observation.success
        assert "injected fault" in observation.error
        assert _failure_count("reset") == before + 1
        assert METRICS.counter("faults.injected", kind="reset").value == injected + 1

    def test_truncate_window_classified_as_truncate(self, ecosystem):
        _install(ecosystem, ImpairmentWindow(kind="truncate", rate=1.0, **ALWAYS))
        before = _failure_count("truncate")
        observation = _grabber(ecosystem).grab(_https(ecosystem).name)
        assert not observation.success
        assert _failure_count("truncate") == before + 1

    def test_latency_window_advances_the_virtual_clock(self, ecosystem):
        _install(ecosystem, ImpairmentWindow(
            kind="latency", rate=1.0, delay_seconds=20.0, **ALWAYS,
        ))
        started = ecosystem.clock.now()
        observation = _grabber(ecosystem).grab(_https(ecosystem).name)
        assert observation.success  # latency delays, never fails
        assert ecosystem.clock.now() >= started + 20.0


class TestGrabberRetry:
    def test_retries_backoff_on_virtual_clock(self, ecosystem):
        _install(ecosystem)  # empty plan: only the dark domain fails
        dark = _first(ecosystem, lambda d: not d.https and d.ips)
        grabber = _grabber(ecosystem, retry=RetryPolicy(max_attempts=3))
        started = ecosystem.clock.now()
        before = METRICS.snapshot()
        observation = grabber.grab(dark.name)
        assert not observation.success
        assert sum(_counted_since(before, "scanner.grab.retry").values()) == 2
        assert _counted_since(before, "scanner.grab.attempt") == {
            "scanner.grab.attempt": 3
        }
        # Capped exponential on the *virtual* clock: 2s then 4s.
        assert ecosystem.clock.now() == pytest.approx(started + 6.0)

    def test_retry_budget_is_global_across_grabs(self, ecosystem):
        _install(ecosystem)
        dark = _first(ecosystem, lambda d: not d.https and d.ips)
        grabber = _grabber(
            ecosystem, retry=RetryPolicy(max_attempts=3, retry_budget=1)
        )
        before = METRICS.snapshot()
        grabber.grab(dark.name)
        grabber.grab(dark.name)
        assert sum(_counted_since(before, "scanner.grab.retry").values()) == 1

    def test_breaker_opens_and_skips(self, ecosystem):
        _install(ecosystem)
        dark = _first(ecosystem, lambda d: not d.https and d.ips)
        grabber = _grabber(ecosystem, retry=RetryPolicy(breaker_threshold=2))
        before = METRICS.snapshot()
        assert "connect" in grabber.grab(dark.name).error
        assert "connect" in grabber.grab(dark.name).error
        skipped = grabber.grab(dark.name)
        assert skipped.error == "breaker open"
        # The skip still counts as a grab (schedule parity) and a failure.
        assert _counted_since(before, "scanner.grab.attempt") == {
            "scanner.grab.attempt": 3
        }
        failures = _counted_since(before, "scanner.grab.failure")
        assert sum(failures.values()) == 3
        assert failures["scanner.grab.failure{reason=breaker_open}"] == 1

    def test_nonretryable_reason_is_not_retried(self, ecosystem):
        _install(ecosystem)
        grabber = _grabber(ecosystem, retry=RetryPolicy(max_attempts=4))
        before = METRICS.snapshot()
        observation = grabber.grab("no-such-name.invalid")
        assert observation.error == "nxdomain"
        assert _counted_since(before, "scanner.grab.retry") == {}
        assert _counted_since(before, "scanner.grab.attempt") == {
            "scanner.grab.attempt": 1
        }
