"""Cross-domain session-cache probing tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import METRICS
from repro.scanner import CrossDomainConfig, ProbeTarget, ZGrabber, cross_domain_cache_probe


@pytest.fixture()
def ecosystem(small_ecosystem_factory):
    return small_ecosystem_factory(population=380, seed=44, failure_rate=0.0)


@pytest.fixture()
def grabber(ecosystem):
    return ZGrabber(ecosystem, DeterministicRandom(909))


def targets_for(ecosystem, domains):
    targets = []
    for domain in domains:
        address = ecosystem.dns.resolve_all(domain.name)[0]
        autonomous_system = ecosystem.as_registry.lookup(address)
        targets.append(
            ProbeTarget(
                domain=domain.name,
                ip=str(address),
                asn=autonomous_system.asn if autonomous_system else None,
            )
        )
    return targets


def test_provider_domains_share_cache(ecosystem, grabber):
    cloudflare = [d for d in ecosystem.domains if d.provider == "cloudflare"][:12]
    # Restrict to one cache group so every pair genuinely shares.
    cache_id = id(cloudflare[0].session_cache)
    group = [d for d in cloudflare if id(d.session_cache) == cache_id][:8]
    edges = cross_domain_cache_probe(
        grabber, targets_for(ecosystem, group), DeterministicRandom(1)
    )
    assert edges
    names = {d.name for d in group}
    for edge in edges:
        assert edge.origin in names and edge.acceptor in names


def test_independent_domains_never_link(ecosystem, grabber):
    independents = [
        d for d in ecosystem.domains
        if d.provider is None and d.https and d.behavior.resumes_session_ids
        and d.behavior.trusted_cert
    ][:10]
    edges = cross_domain_cache_probe(
        grabber, targets_for(ecosystem, independents), DeterministicRandom(2)
    )
    assert edges == []


def test_distinct_cache_groups_never_link(ecosystem, grabber):
    cloudflare = [d for d in ecosystem.domains if d.provider == "cloudflare"]
    groups = {}
    for domain in cloudflare:
        groups.setdefault(id(domain.session_cache), []).append(domain)
    group_a, group_b = list(groups.values())[:2]
    mixed = group_a[:4] + group_b[:4]
    edges = cross_domain_cache_probe(
        grabber, targets_for(ecosystem, mixed), DeterministicRandom(3)
    )
    a_names = {d.name for d in group_a}
    for edge in edges:
        # Edges must stay within one true cache group.
        assert (edge.origin in a_names) == (edge.acceptor in a_names)


def test_fanout_limits_respected(ecosystem, grabber):
    cloudflare = [d for d in ecosystem.domains if d.provider == "cloudflare"][:20]
    config = CrossDomainConfig(max_same_as=2, max_same_ip=2)
    attempts = METRICS.counter("scanner.grab.attempt")
    before = attempts.value
    cross_domain_cache_probe(
        grabber, targets_for(ecosystem, cloudflare), DeterministicRandom(4), config
    )
    # Each origin costs 1 handshake + at most 4 peer probes.
    assert attempts.value - before <= len(cloudflare) * 5


def test_edge_annotations(ecosystem, grabber):
    cloudflare = [d for d in ecosystem.domains if d.provider == "cloudflare"][:8]
    edges = cross_domain_cache_probe(
        grabber, targets_for(ecosystem, cloudflare), DeterministicRandom(5)
    )
    for edge in edges:
        assert edge.via_same_ip != edge.via_same_as  # exactly one route


def test_probe_handles_unreachable_targets(ecosystem, grabber):
    targets = [ProbeTarget(domain="dead.example", ip="10.99.99.99", asn=None)]
    assert cross_domain_cache_probe(grabber, targets, DeterministicRandom(6)) == []
