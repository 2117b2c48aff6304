"""Network fabric tests (routing, failures, load balancing)."""

import pytest

from helpers import make_rig

from repro.crypto.rng import DeterministicRandom
from repro.netsim.address import IPv4Address
from repro.netsim.network import (
    ConnectTimeout,
    Endpoint,
    Network,
    NoLiveBackend,
)
from repro.obs.metrics import METRICS

IP = IPv4Address.parse("10.0.0.1")
OTHER = IPv4Address.parse("10.0.0.2")


def make_network(failure_rate=0.0, seed=1):
    return Network(DeterministicRandom(seed), failure_rate=failure_rate)


def server():
    return make_rig().server


def test_register_and_connect():
    network = make_network()
    backend = server()
    network.register(Endpoint(ip=IP, backends=[backend]))
    before = METRICS.snapshot()
    assert network.connect(IP) is backend
    # A clean connect injects and counts nothing.
    assert METRICS.snapshot_delta(before)["counters"] == {}


def test_connect_unroutable():
    network = make_network()
    with pytest.raises(ConnectTimeout, match="no route"):
        network.connect(OTHER)


def test_duplicate_endpoint_rejected():
    network = make_network()
    network.register(Endpoint(ip=IP, backends=[server()]))
    with pytest.raises(ValueError):
        network.register(Endpoint(ip=IP, backends=[server()]))


def test_distinct_ports_coexist():
    network = make_network()
    a, b = server(), server()
    network.register(Endpoint(ip=IP, port=443, backends=[a]))
    network.register(Endpoint(ip=IP, port=8443, backends=[b]))
    assert network.connect(IP, 443) is a
    assert network.connect(IP, 8443) is b


def test_dead_endpoint_times_out():
    network = make_network()
    network.register(Endpoint(ip=IP, backends=[]))
    with pytest.raises(ConnectTimeout):
        network.connect(IP)


def test_failure_injection_rate():
    network = make_network(failure_rate=0.3, seed=5)
    network.register(Endpoint(ip=IP, backends=[server()]))
    failures = 0
    for _ in range(500):
        try:
            network.connect(IP)
        except ConnectTimeout:
            failures += 1
    assert 90 < failures < 220  # ~150 expected


def test_failure_rate_validation():
    with pytest.raises(ValueError):
        make_network(failure_rate=1.0)
    with pytest.raises(ValueError):
        make_network(failure_rate=-0.1)


def test_affinity_endpoint_always_first_backend():
    network = make_network()
    a, b = server(), server()
    network.register(Endpoint(ip=IP, backends=[a, b], affinity=True))
    assert all(network.connect(IP) is a for _ in range(20))


def test_no_affinity_sprays_backends():
    network = make_network(seed=9)
    a, b = server(), server()
    network.register(Endpoint(ip=IP, backends=[a, b], affinity=False))
    picked = {id(network.connect(IP)) for _ in range(40)}
    assert picked == {id(a), id(b)}


def test_endpoint_lookup():
    network = make_network()
    endpoint = Endpoint(ip=IP, backends=[server()])
    network.register(endpoint)
    assert network.endpoint_at(IP) is endpoint
    assert network.endpoint_at(OTHER) is None
    assert len(network) == 1
    assert network.endpoints() == [endpoint]


# -- failure determinism and classification ---------------------------------


def _failure_sequence(seed, failure_rate, attempts=300):
    """Which of ``attempts`` identical connects fail, as a bool list."""
    network = Network(DeterministicRandom(seed), failure_rate=failure_rate)
    network.register(Endpoint(ip=IP, backends=[server()]))
    out = []
    for _ in range(attempts):
        try:
            network.connect(IP)
            out.append(False)
        except ConnectTimeout:
            out.append(True)
    return out


def test_same_seed_and_rate_give_identical_failure_sequence():
    first = _failure_sequence(seed=11, failure_rate=0.25)
    second = _failure_sequence(seed=11, failure_rate=0.25)
    assert first == second
    assert any(first) and not all(first)


def test_different_seed_changes_failure_sequence():
    assert _failure_sequence(11, 0.25) != _failure_sequence(12, 0.25)


def test_timeout_reasons_label_the_taxonomy():
    network = make_network()
    network.register(Endpoint(ip=IP, backends=[]))
    with pytest.raises(ConnectTimeout) as unroutable:
        network.connect(OTHER)
    assert unroutable.value.reason == "connect_timeout"
    with pytest.raises(NoLiveBackend) as dead:
        network.connect(IP)
    assert dead.value.reason == "no_backend"
    # NoLiveBackend is still a ConnectTimeout, so legacy handlers that
    # catch the base class keep working.
    assert isinstance(dead.value, ConnectTimeout)


def test_pick_backend_live_restriction():
    rng = DeterministicRandom(3)
    a, b, c = server(), server(), server()
    endpoint = Endpoint(ip=IP, backends=[a, b, c], affinity=False)
    assert endpoint.pick_backend(rng, live=[2]) is c
    with pytest.raises(NoLiveBackend):
        endpoint.pick_backend(rng, live=[])


def test_no_affinity_spray_is_roughly_uniform():
    rng = DeterministicRandom(17)
    backends = [server() for _ in range(4)]
    endpoint = Endpoint(ip=IP, backends=backends, affinity=False)
    counts = {id(backend): 0 for backend in backends}
    for _ in range(4000):
        counts[id(endpoint.pick_backend(rng))] += 1
    # ~1000 each; a skewed balancer would break the paper's §4.3
    # STEK-span jitter model.
    assert all(800 < count < 1200 for count in counts.values())
