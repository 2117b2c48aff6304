"""Rendering telemetry: a human-readable report and a Prometheus
text-format exposition.

``repro stats <telemetry-dir>`` feeds a manifest (+ the sibling
metrics snapshot) through :func:`render_stats_report`; automation
scrapes :func:`render_prometheus` output (written to ``metrics.prom``
at study time and served live on ``/metrics`` by
:mod:`repro.obs.exporter`) — the standard ``# HELP`` / ``# TYPE`` /
sample line format, with dotted metric names flattened to underscores
under a ``repro_`` prefix, label values escaped per the exposition
format, and families emitted in a deterministic order (counters, then
gauges, then histograms; families sorted by name; samples sorted by
labels).
"""

from __future__ import annotations

import re

from .metrics import parse_key

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")

#: HELP text per dotted metric family (fallback is generated).
METRIC_HELP = {
    "scanner.grab.attempt": "TLS connection attempts made by the grabber.",
    "scanner.grab.failure": "Grab attempts that failed, by failure reason.",
    "scanner.grab.retry": "Retries taken by the grabber, by failure reason.",
    "scanner.grab.seconds": "Wall-clock duration of one grab attempt.",
    "scanner.grab.attempts_per_grab": "Connection attempts consumed per logical grab.",
    "scanner.breaker.open": "Per-domain circuit breakers currently open.",
    "scanner.breaker.opened": "Circuit-breaker open transitions.",
    "scanner.breaker.closed": "Circuit-breaker close transitions.",
    "engine.pending_shards": "Shards not yet completed by the study engine.",
    "experiment.grabs": "Grabs attributed to each experiment.",
    "faults.injected": "Faults injected by the chaos plan, by kind.",
}


def _prom_name(name: str) -> str:
    """Flatten a dotted metric name to a valid Prometheus name."""
    flat = _NAME_BAD.sub("_", name.replace(".", "_").replace("-", "_"))
    prom = "repro_" + flat
    # A name can't start with a digit; the repro_ prefix guarantees
    # that here, but guard anyway for direct callers.
    if prom[0].isdigit():
        prom = "_" + prom
    return prom


def _escape_label_value(value) -> str:
    """Escape backslash, double-quote, and newline per the format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_name(name: str) -> str:
    clean = _LABEL_BAD.sub("_", str(name))
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_label_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _help_text(name: str) -> str:
    return METRIC_HELP.get(name, f"repro metric {name}.")


def _grouped(section: dict) -> list[tuple[str, list[tuple[dict, object]]]]:
    """Group a snapshot section by family: sorted families, sorted samples."""
    families: dict[str, list[tuple[dict, object]]] = {}
    for key, value in section.items():
        name, labels = parse_key(key)
        families.setdefault(name, []).append((labels, value))
    return [
        (name, sorted(samples, key=lambda s: sorted(s[0].items())))
        for name, samples in sorted(families.items())
    ]


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition of a metrics snapshot.

    Deterministic: for equal snapshots the output is byte-identical —
    kinds in a fixed order, families sorted by name, one ``# HELP`` +
    ``# TYPE`` pair per family, samples sorted by labels.
    """
    lines: list[str] = []

    def emit_header(name: str, prom: str, kind: str) -> None:
        lines.append(f"# HELP {prom} {_help_text(name)}")
        lines.append(f"# TYPE {prom} {kind}")

    for name, samples in _grouped(snapshot.get("counters", {})):
        prom = _prom_name(name) + "_total"
        emit_header(name, prom, "counter")
        for labels, value in samples:
            lines.append(f"{prom}{_prom_labels(labels)} {value}")
    for name, samples in _grouped(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        emit_header(name, prom, "gauge")
        for labels, value in samples:
            lines.append(f"{prom}{_prom_labels(labels)} {value}")
    for name, samples in _grouped(snapshot.get("histograms", {})):
        prom = _prom_name(name)
        emit_header(name, prom, "histogram")
        for labels, hist in samples:
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                lines.append(
                    f"{prom}_bucket{_prom_labels({**labels, 'le': bound})} "
                    f"{cumulative}"
                )
            cumulative += hist["counts"][-1]
            lines.append(
                f"{prom}_bucket{_prom_labels({**labels, 'le': '+Inf'})} "
                f"{cumulative}"
            )
            lines.append(
                f"{prom}_sum{_prom_labels(labels)} {round(hist['sum'], 6)}"
            )
            lines.append(f"{prom}_count{_prom_labels(labels)} {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_quantile(hist: dict, q: float) -> float:
    """Crude bucket-upper-bound quantile (good enough for a report)."""
    target = q * hist["count"]
    cumulative = 0
    for bound, count in zip(hist["bounds"], hist["counts"]):
        cumulative += count
        if cumulative >= target:
            return bound
    return float("inf")


def _resilience_sections(metrics: dict) -> list[str]:
    """Failure-reason breakdown plus retry/backoff and injected-fault
    tables (empty when the run had nothing to report)."""
    counters = metrics.get("counters", {})
    failures: dict[str, int] = {}
    retries: dict[str, int] = {}
    injected: dict[str, int] = {}
    attempts = 0
    breaker = {"opened": 0, "closed": 0}
    for key, value in counters.items():
        name, labels = parse_key(key)
        if name == "scanner.grab.failure":
            failures[labels.get("reason", "?")] = value
        elif name == "scanner.grab.retry":
            retries[labels.get("reason", "?")] = value
        elif name == "faults.injected":
            injected[labels.get("kind", "?")] = value
        elif name == "scanner.grab.attempt":
            attempts += value
        elif name == "scanner.breaker.opened":
            breaker["opened"] = value
        elif name == "scanner.breaker.closed":
            breaker["closed"] = value

    lines: list[str] = []
    if failures:
        lines.append("")
        lines.append("failure breakdown:")
        width = max(len(reason) for reason in failures)
        for reason, count in sorted(failures.items(), key=lambda kv: -kv[1]):
            share = f"  {count / attempts * 100:5.2f}% of grabs" if attempts else ""
            lines.append(f"  {reason:<{width}}  {count:>10,}{share}")

    attempts_hist = next(
        (
            hist for key, hist in metrics.get("histograms", {}).items()
            if parse_key(key)[0] == "scanner.grab.attempts_per_grab"
        ),
        None,
    )
    if retries or breaker["opened"] or (
        attempts_hist and attempts_hist.get("count")
    ):
        lines.append("")
        lines.append("retry/backoff:")
        total_retries = sum(retries.values())
        lines.append(f"  {total_retries:,} retries taken")
        width = max((len(reason) for reason in retries), default=0)
        for reason, count in sorted(retries.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {reason:<{width}}  {count:>10,}")
        if attempts_hist and attempts_hist.get("count"):
            mean = attempts_hist["sum"] / attempts_hist["count"]
            lines.append(
                f"  {mean:.2f} mean attempts per grab "
                f"(over {attempts_hist['count']:,} grabs)"
            )
        if breaker["opened"]:
            lines.append(
                f"  circuit breaker: opened {breaker['opened']:,}×, "
                f"closed {breaker['closed']:,}×"
            )

    if injected:
        lines.append("")
        lines.append("injected faults (chaos plan):")
        width = max(len(kind) for kind in injected)
        for kind, count in sorted(injected.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {kind:<{width}}  {count:>10,}")
    return lines


def render_stats_report(manifest: dict, metrics: dict) -> str:
    """The ``repro stats`` human-readable view of one run."""
    lines: list[str] = []
    run = manifest.get("run", {})
    git = manifest.get("git", {}).get("describe") or "unknown"
    lines.append(
        f"run manifest: {manifest.get('label', '?')} "
        f"(schema {manifest.get('schema', '?')}, git {git}, "
        f"python {manifest.get('python', '?')})"
    )
    if run:
        lines.append(
            f"  {run.get('grabs', 0):,} grabs over {run.get('days', '?')} days — "
            f"{run.get('shards', '?')} shard(s) × {run.get('workers', '?')} worker(s), "
            f"{run.get('elapsed_seconds', 0.0):.2f}s "
            f"({run.get('grabs_per_sec', 0.0):,.1f} grabs/s)"
        )
        if run.get("peak_rss_mib"):
            lines.append(f"  peak RSS {run['peak_rss_mib']:,.1f} MiB")
        if run.get("failures"):
            lines.append(f"  {run['failures']:,} failed grabs")

    shards = manifest.get("shards", [])
    if shards:
        lines.append("")
        lines.append("per-shard timing:")
        for entry in shards:
            day_seconds = entry.get("day_seconds", [])
            days = " ".join(f"{s:.2f}" for s in day_seconds)
            lines.append(
                f"  shard {entry.get('shard_id', '?'):>2}: "
                f"{entry.get('elapsed_seconds', 0.0):7.2f}s  "
                f"{entry.get('grabs', 0):>8,} grabs"
                + (f"  [per-day: {days}]" if day_seconds else "")
            )

    experiments = manifest.get("experiments", {})
    if experiments:
        lines.append("")
        lines.append("per-experiment grabs:")
        width = max(len(name) for name in experiments)
        for name, count in experiments.items():
            lines.append(f"  {name:<{width}}  {count:>10,}")

    channels = manifest.get("channels", {})
    if channels:
        lines.append("")
        lines.append("records by channel:")
        width = max(len(name) for name in channels)
        for name, count in channels.items():
            if count:
                lines.append(f"  {name:<{width}}  {count:>10,}")

    caches = manifest.get("caches", {})
    if caches:
        lines.append("")
        lines.append("cache effectiveness:")
        width = max(len(name) for name in caches)
        for name, stats in caches.items():
            line = (
                f"  {name:<{width}}  {stats.get('hit_rate', 0.0) * 100:6.2f}% hits "
                f"({stats.get('hits', 0):,} hit / {stats.get('misses', 0):,} miss"
            )
            if stats.get("evictions"):
                line += f" / {stats['evictions']:,} evicted"
            lines.append(line + ")")

    lines.extend(_resilience_sections(metrics))

    counters = metrics.get("counters", {})
    interesting = [
        key for key in counters
        if not any(key.startswith(p) for p in (
            # crypto/x509 are cache internals; the scanner failure,
            # retry, and fault-injection families get curated tables
            # from _resilience_sections above.
            "crypto.", "x509.", "scanner.grab.failure",
            "scanner.grab.retry", "faults.injected",
        ))
    ]
    if interesting:
        lines.append("")
        lines.append("counters:")
        width = max(len(key) for key in interesting)
        for key in interesting:
            lines.append(f"  {key:<{width}}  {counters[key]:>12,}")

    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("timings:")
        width = max(len(key) for key in histograms)
        for key, hist in histograms.items():
            if not hist.get("count"):
                continue
            mean = hist["sum"] / hist["count"]
            p95 = _histogram_quantile(hist, 0.95)
            p95_text = f"{p95:.4f}" if p95 != float("inf") else ">max"
            lines.append(
                f"  {key:<{width}}  n={hist['count']:<9,} "
                f"mean={mean:.4f}s p95<={p95_text}s"
            )
    return "\n".join(lines)


__all__ = ["render_prometheus", "render_stats_report"]
