"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The measurement pipeline's observability layer (ISSUE: the paper's
nine-week campaign depended on per-day probe/failure/timing numbers).
Design constraints, in order:

* **Hot-path cheap.**  Instruments sit inside the ticket codec and
  the handshake, which run millions of times per study.  A counter is a
  plain Python object with an integer slot; modules bind the instrument
  once at import time and increment an attribute — no dict lookup, no
  lock (the pipeline is single-threaded per process).

* **Aggregatable across processes.**  A registry serializes to a plain
  JSON snapshot; :func:`merge_snapshots` combines per-shard snapshots
  *in shard order*, so the merged numbers are a deterministic function
  of the shards alone — the metrics analogue of the engine's
  byte-identity guarantee (workers never affect the merge).

* **Output-neutral.**  Nothing here touches seeded RNG state or record
  content; instruments only ever add integers/floats on the side.

Snapshots split instruments into two determinism classes: ``counters``
(and gauges) count events, which are deterministic given the seed and
shard layout; ``histograms`` hold wall-clock timings, which are not.
Tests pin the former and only sanity-check the latter.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Default histogram bucket upper bounds, in seconds (a log-ish ladder
#: from sub-millisecond grabs up to multi-second shard days).
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _key(name: str, labels: dict) -> str:
    """Serialize (name, labels) to a stable string key.

    ``name{a=1,b=x}`` with labels sorted by label name — the snapshot /
    JSON identity of an instrument.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_key` (for rendering/exposition)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (cumulative-style bucket counts + sum).

    ``bounds`` are upper bounds of the finite buckets; an implicit
    +Inf bucket catches the rest.  ``counts`` are per-bucket (not
    cumulative) so merging is plain elementwise addition.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_SECONDS_BUCKETS) -> None:
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """A named collection of instruments with snapshot/merge support.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call with a given (name, labels) creates the instrument, later
    calls return the same object, so hot paths bind once at import and
    everything stays registered for snapshots.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument factories ---------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
        **labels,
    ) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able copy of every instrument's current state.

        Keys are sorted so two registries holding the same values
        serialize identically.
        """
        histograms = {}
        for key in sorted(self._histograms):
            hist = self._histograms[key]
            histograms[key] = {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "sum": hist.sum,
                "count": hist.count,
            }
        return {
            "counters": {
                key: self._counters[key].value for key in sorted(self._counters)
            },
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": histograms,
        }

    def snapshot_delta(self, since: dict) -> dict:
        """Current snapshot minus a previous one (counters/histograms).

        Gauges are point-in-time and carried over as-is.  This is how a
        shard run reports only *its own* activity even when the worker
        process previously ran other shards.
        """
        now = self.snapshot()
        counters = {}
        for key, value in now["counters"].items():
            delta = value - since.get("counters", {}).get(key, 0)
            if delta:
                counters[key] = delta
        histograms = {}
        for key, hist in now["histograms"].items():
            base = since.get("histograms", {}).get(key)
            if base is None or base.get("bounds") != hist["bounds"]:
                if hist["count"]:
                    histograms[key] = hist
                continue
            counts = [a - b for a, b in zip(hist["counts"], base["counts"])]
            if any(counts):
                histograms[key] = {
                    "bounds": hist["bounds"],
                    "counts": counts,
                    "sum": hist["sum"] - base["sum"],
                    "count": hist["count"] - base["count"],
                }
        return {"counters": counters, "gauges": now["gauges"], "histograms": histograms}

    def reset(self) -> None:
        """Zero every instrument *in place* (module bindings stay valid)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.counts = [0] * (len(histogram.bounds) + 1)
            histogram.sum = 0.0
            histogram.count = 0


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge snapshots in the order given (shard order ⇒ deterministic).

    Counters and histogram buckets add; gauges take the last seen value
    (a later shard's reading wins, matching the record-merge ordering).
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = value
        for key, hist in snapshot.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None or merged["bounds"] != hist["bounds"]:
                histograms[key] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
            else:
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], hist["counts"])
                ]
                merged["sum"] += hist["sum"]
                merged["count"] += hist["count"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def cache_stats(snapshot: dict, name: str) -> Optional[dict]:
    """Hit/miss summary for one ``<name>.{hit,miss}`` counter family."""
    counters = snapshot.get("counters", {})
    hits = counters.get(f"{name}.hit", 0)
    misses = counters.get(f"{name}.miss", 0)
    if hits == 0 and misses == 0:
        return None
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / (hits + misses), 4),
    }


#: The process-local default registry every instrumented module binds to.
METRICS = MetricsRegistry()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_snapshots",
    "cache_stats",
    "parse_key",
]
