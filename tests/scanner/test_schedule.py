"""Sweep scheduling tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.faults.retry import RetryPolicy
from repro.netsim.clock import HOUR
from repro.obs.metrics import METRICS
from repro.scanner import SweepConfig, ZGrabber, sweep, thirty_minute_scan

#: Small enough that the larger sweeps below span several flush batches.
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


def test_retry_backoff_past_the_next_tick_delays_it(small_ecosystem_factory):
    """A grab never starts before the clock: when one grab's retry
    backoff (2 s + 4 s) runs past the next 1-s tick, the next grab
    starts when the backoff ends.  Flushes hold at most ``concurrency``
    observations and concatenate to schedule order."""
    ecosystem = small_ecosystem_factory(population=320, failure_rate=0.0)
    dark = next(d for d in ecosystem.active_domains(0) if not d.https and d.ips)
    served = [(rank, name) for rank, name in ecosystem.alexa_list()
              if name != dark.name][:9]
    domains = [(0, dark.name)] + served
    grabber = ZGrabber(ecosystem, DeterministicRandom(5),
                       retry=RetryPolicy(max_attempts=3))
    clock = ecosystem.clock
    start = clock.now()
    ends = []
    grab = grabber.grab

    def grab_and_note_end(*args, **kwargs):
        observation = grab(*args, **kwargs)
        ends.append(clock.now() - start)
        return observation

    grabber.grab = grab_and_note_end
    batches = []
    before = METRICS.snapshot()
    sweep(grabber, domains, SweepConfig(window_seconds=len(domains)),
          concurrency=3, sink=batches.append)
    counters = METRICS.snapshot_delta(before)["counters"]

    observations = [o for batch in batches for o in batch]
    assert [len(batch) for batch in batches] == [3, 3, 3, 1]
    assert [(o.rank, o.domain) for o in observations] == domains
    assert sum(value for key, value in counters.items()
               if key.startswith("scanner.grab.retry{")) == 2
    starts = [o.timestamp - start for o in observations]
    assert starts[:2] == [0.0, 6.0]
    assert starts == [max(float(tick), ends[tick - 1] if tick else 0.0)
                      for tick in range(len(domains))]
