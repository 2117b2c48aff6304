"""Sweep scheduling tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.netsim.clock import HOUR
from repro.scanner import SweepConfig, ZGrabber, sweep, thirty_minute_scan

#: Small enough that the larger sweeps below span several admission batches.
CONCURRENCY = 16


@pytest.fixture()
def ecosystem(small_ecosystem_factory):
    return small_ecosystem_factory(population=380, seed=21)


@pytest.fixture()
def grabber(ecosystem):
    return ZGrabber(ecosystem, DeterministicRandom(777))


def test_sweep_scans_every_domain_once(grabber):
    domains = grabber.ecosystem.alexa_list()[:50]
    observations = sweep(
        grabber, domains, SweepConfig(window_seconds=HOUR), concurrency=CONCURRENCY
    )
    assert len(observations) == 50
    assert {o.domain for o in observations} == {name for _, name in domains}


def test_sweep_spreads_over_window(grabber):
    domains = grabber.ecosystem.alexa_list()[:40]
    start = grabber.ecosystem.clock.now()
    observations = sweep(
        grabber, domains, SweepConfig(window_seconds=2 * HOUR),
        concurrency=CONCURRENCY,
    )
    elapsed = observations[-1].timestamp - start
    assert 1.5 * HOUR < elapsed <= 2 * HOUR


def test_sweep_multi_connection(grabber):
    domains = grabber.ecosystem.alexa_list()[:20]
    observations = sweep(
        grabber, domains, SweepConfig(connections_per_domain=3, window_seconds=HOUR),
        concurrency=CONCURRENCY,
    )
    assert len(observations) == 60
    per_domain = {}
    for o in observations:
        per_domain.setdefault(o.domain, 0)
        per_domain[o.domain] += 1
    assert all(count == 3 for count in per_domain.values())


def test_sweep_empty_list(grabber):
    assert sweep(grabber, [], SweepConfig(), concurrency=CONCURRENCY) == []


def test_sweep_records_ranks(grabber):
    domains = grabber.ecosystem.alexa_list()[:10]
    observations = sweep(
        grabber, domains, SweepConfig(window_seconds=60), concurrency=CONCURRENCY
    )
    for (rank, name), observation in zip(domains, observations):
        assert observation.rank == rank
        assert observation.domain == name


def test_thirty_minute_scan_duration(grabber):
    ecosystem = grabber.ecosystem
    start = ecosystem.clock.now()
    observations = thirty_minute_scan(
        grabber, ecosystem.alexa_list()[:25], concurrency=CONCURRENCY
    )
    assert len(observations) == 25
    assert ecosystem.clock.now() - start <= 30 * 60 + 1
