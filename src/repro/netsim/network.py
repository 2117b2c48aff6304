"""The network fabric: connecting a scanner to simulated endpoints.

An :class:`Endpoint` is what listens on an (IP, port): one or more TLS
server *processes* behind an optional load balancer.  Balancers without
client affinity pick a random backend per connection — the source of
the measurement jitter the paper has to tolerate when estimating STEK
spans (§4.3).

:class:`Network` routes ``connect()`` calls by IP and injects
transient failures (timeouts) at a configurable rate, modeling "the
server failing to respond to one of our connections."  Structured
misbehavior — outage windows, latency spikes, flapping backends — comes
from an impairment plan installed via :meth:`Network.install_impairments`
(see :mod:`repro.faults`; the hook is duck-typed so this module never
imports that package).  Plan decisions are pure functions of virtual
time and never consume ``rng``, so installing a plan does not perturb
the deterministic draw sequence existing behavior depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.rng import DeterministicRandom
from ..obs.metrics import METRICS
from ..tls.server import TLSServer
from .address import IPv4Address

HTTPS_PORT = 443

_INJECTED_OUTAGE = METRICS.counter("faults.injected", kind="outage")
_INJECTED_LATENCY = METRICS.counter("faults.injected", kind="latency")
_INJECTED_FLAP = METRICS.counter("faults.injected", kind="flap")


class ConnectTimeout(ConnectionError):
    """The simulated connection attempt failed (no response).

    ``reason`` is the grab failure-taxonomy label; subclasses refine it.
    """

    reason = "connect_timeout"


class NoLiveBackend(ConnectTimeout):
    """The endpoint exists but no backend process is serving it.

    Distinct from a transient timeout: the host is routable yet dead,
    which a scanner must classify differently (persistent, not noise).
    """

    reason = "no_backend"


class InjectedOutage(ConnectTimeout):
    """A chaos-plan outage window swallowed this connection."""

    reason = "outage"


@dataclass
class Endpoint:
    """Servers reachable at one (IP, port).

    ``backends`` share the listening socket; ``affinity=False`` models
    a load balancer that sprays connections across processes, which is
    how distinct STEKs/session caches show up behind one IP.
    """

    ip: IPv4Address
    port: int = HTTPS_PORT
    backends: list[TLSServer] = field(default_factory=list)
    affinity: bool = True

    def add_backend(self, server: TLSServer) -> None:
        self.backends.append(server)

    def pick_backend(
        self,
        rng: DeterministicRandom,
        live: Optional[list[int]] = None,
    ) -> TLSServer:
        """Pick the serving backend; ``live`` (from a flap window)
        restricts the choice to those backend indices."""
        backends = (
            self.backends if live is None
            else [self.backends[index] for index in live]
        )
        if not backends:
            raise NoLiveBackend(f"{self.ip}:{self.port} has no live backend")
        if self.affinity or len(backends) == 1:
            return backends[0]
        return rng.choice(backends)


class Network:
    """Routes connections from the scanner to endpoints by IP."""

    def __init__(
        self,
        rng: DeterministicRandom,
        failure_rate: float = 0.0,
        clock=None,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure rate must be in [0, 1)")
        self._rng = rng
        self.failure_rate = failure_rate
        self._endpoints: dict[tuple[int, int], Endpoint] = {}
        self._plan = None
        self._clock = clock

    def install_impairments(self, plan, clock) -> None:
        """Attach an impairment plan (duck-typed; see repro.faults.plan)
        and the virtual clock its schedule is evaluated against."""
        self._plan = plan
        self._clock = clock

    def register(self, endpoint: Endpoint) -> None:
        key = (endpoint.ip.value, endpoint.port)
        if key in self._endpoints:
            raise ValueError(f"endpoint {endpoint.ip}:{endpoint.port} already registered")
        self._endpoints[key] = endpoint

    def endpoint_at(self, ip: IPv4Address, port: int = HTTPS_PORT) -> Optional[Endpoint]:
        return self._endpoints.get((ip.value, port))

    def connect(
        self, ip: IPv4Address, port: int = HTTPS_PORT, domain: str = ""
    ) -> TLSServer:
        """Open a connection; returns the backend server process.

        Raises :class:`ConnectTimeout` (or a refining subclass) for
        unroutable addresses, dead endpoints, and injected failures.
        ``domain`` is the name being scanned, if any — impairment plans
        use it to scope faults per provider.
        """
        plan = self._plan
        now = self._clock.now() if (plan is not None and self._clock is not None) else 0.0
        if plan is not None:
            fault = plan.connect_fault(now, str(ip), port, domain)
            if fault is not None:
                kind, delay = fault
                if kind == "outage":
                    _INJECTED_OUTAGE.value += 1
                    raise InjectedOutage(f"injected outage at {ip}:{port}")
                if kind == "latency":
                    _INJECTED_LATENCY.value += 1
                    if self._clock is not None:
                        self._clock.advance(delay)
                        now = self._clock.now()
        if self.failure_rate and self._rng.random() < self.failure_rate:
            raise ConnectTimeout(f"transient failure connecting to {ip}:{port}")
        endpoint = self._endpoints.get((ip.value, port))
        if endpoint is None:
            raise ConnectTimeout(f"no route to {ip}:{port}")
        live = None
        if plan is not None:
            live = plan.live_backends(now, str(ip), port, len(endpoint.backends))
            if live is not None and len(live) < len(endpoint.backends):
                _INJECTED_FLAP.value += 1
        server = endpoint.pick_backend(self._rng, live=live)
        if plan is not None:
            server = plan.impair_server(server, now, str(ip), port, domain)
        return server

    def endpoints(self) -> list[Endpoint]:
        return list(self._endpoints.values())

    def __len__(self) -> int:
        return len(self._endpoints)


__all__ = [
    "Network",
    "Endpoint",
    "ConnectTimeout",
    "NoLiveBackend",
    "InjectedOutage",
    "HTTPS_PORT",
]
