"""Wiring an :class:`ImpairmentPlan` into a live ecosystem.

:func:`install_chaos` is the single entry point: it hands the plan to
the network fabric and the DNS zone (both expose a duck-typed
``install_impairments`` hook so :mod:`repro.netsim` never imports this
package).  :class:`ImpairedServer` is the handshake-level injector — a
per-connection wrapper around one backend that resets or truncates the
server's first flight, which is how mid-handshake faults reach the TLS
layer without the server code knowing about chaos at all.  It cuts the
flight at the boundary each exchange driver crosses: ``accept`` for
the record-layer exchange, ``negotiate`` for the fast path.
"""

from __future__ import annotations

from ..obs.events import EVENTS
from ..obs.metrics import METRICS
from ..tls.errors import HandshakeFailure
from ..tls.fastpath import placeholder_flight
from ..tls.record import handshake_record, parse_records, serialize_records
from .plan import KIND_RESET, KIND_TRUNCATE, ImpairmentPlan

_INJECTED_RESET = METRICS.counter("faults.injected", kind=KIND_RESET)
_INJECTED_TRUNCATE = METRICS.counter("faults.injected", kind=KIND_TRUNCATE)


class ImpairedServer:
    """One backend, one connection, one injected handshake fault.

    Wraps the server surface both exchange drivers use: ``accept`` and
    ``negotiate`` either raise (reset) or cut the first flight short
    (truncate); everything else delegates.  The grabber reads
    ``injected_fault`` to classify the resulting failure precisely
    instead of lumping it into the generic ``handshake`` bucket.
    """

    def __init__(self, inner, kind: str) -> None:
        if kind not in (KIND_RESET, KIND_TRUNCATE):
            raise ValueError(f"unsupported handshake fault kind {kind!r}")
        self._inner = inner
        self.injected_fault = kind

    def _inject(self) -> None:
        if EVENTS.enabled:
            EVENTS.emit("chaos.injected", kind=self.injected_fault)
        if self.injected_fault == KIND_RESET:
            _INJECTED_RESET.value += 1
            raise HandshakeFailure("injected fault: connection reset mid-handshake")
        _INJECTED_TRUNCATE.value += 1

    def accept(self, client_hello_bytes: bytes):
        self._inject()
        flight, connection = self._inner.accept(client_hello_bytes)
        return _cut(flight), connection

    def negotiate(self, *offers):
        """The fast path's first flight: it fails as the cut flight would.

        A reset raises before the server decides anything; a truncate
        lets it make every first-flight decision, then raises the
        error the client's record parser gives on the cut flight.
        """
        self._inject()
        connection = self._inner.negotiate(*offers)
        payload = placeholder_flight(self._inner, connection)
        parse_records(_cut(serialize_records([handshake_record(payload)])))
        raise AssertionError("a cut first flight always fails to parse")

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _cut(flight: bytes) -> bytes:
    # Drop the tail of the server's first flight: the client sees a
    # partial record stream and fails to decode it — exactly a
    # connection cut mid-flight.
    return flight[: max(1, len(flight) // 2)]


def install_chaos(ecosystem, plan: ImpairmentPlan) -> ImpairmentPlan:
    """Install ``plan``'s hooks into ``ecosystem``'s network and DNS."""
    ecosystem.network.install_impairments(plan, ecosystem.clock)
    ecosystem.dns.install_impairments(plan, ecosystem.clock.now)
    return plan


__all__ = ["ImpairedServer", "install_chaos"]
