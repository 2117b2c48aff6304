"""Which public calls are timed, and the per-layer metrics derived from them.

:func:`install` patches each call where its caller looks it up -- a
module attribute for functions imported by module
(``dh.generate_keypair``), the importing module's global for functions
imported by name (``repro.scanner.grab.fast_handshake``), and the class
for methods.  :func:`layer_metrics` turns one traced iteration's spans
and its ``METRICS.snapshot_delta`` into the ``per_layer`` metrics of
``BENCHMARK.json``.  Every ``_s`` metric is self time.
"""

from __future__ import annotations

import importlib
import math
import statistics

from spans import SpanRecorder

#: Root span around the timed region of one iteration (the study call,
#: or report + audit).  Its self time is the unattributed remainder.
TIMED_SPAN = "bench.timed"

#: (module, attribute path, span name, wrap options)
PATCHES = (
    ("repro.hosting", "build_ecosystem", "hosting.build", {}),
    ("repro.hosting.ecosystem", "Ecosystem.advance_to", "hosting.advance", {}),
    ("repro.netsim.eventloop", "EventLoop.run", "netsim.eventloop", {}),
    ("repro.netsim.eventloop", "EventLoop.spawn", "netsim.spawn", {}),
    ("repro.netsim.dns", "DNSZone.resolve", "netsim.dns", {}),
    ("repro.netsim.dns", "DNSZone.resolve_all", "netsim.dns", {}),
    ("repro.netsim.network", "Network.connect", "netsim.connect", {}),
    ("repro.scanner.grab", "fast_handshake", "tls.fastpath", {}),
    ("repro.tls.client", "TLSClient.connect", "tls.blocking", {}),
    ("repro.tls.server", "TLSServer.resume_lookup", "tls.resume_lookup", {}),
    ("repro.tls.ticket", "STEKStore.issue", "tls.ticket_seal", {}),
    ("repro.tls.ticket", "STEKStore.open", "tls.ticket_open", {}),
    ("repro.tls.keyexchange", "EphemeralKeyCache.get_ec", "tls.kex", {}),
    ("repro.tls.keyexchange", "EphemeralKeyCache.get_dh", "tls.kex", {}),
    ("repro.crypto.ec", "generate_keypair", "crypto.keygen", {}),
    ("repro.crypto.dh", "generate_keypair", "crypto.keygen", {}),
    ("repro.crypto.rng", "DeterministicRandom.random_bytes", "crypto.drbg",
     {"amount_arg": 1}),
    ("repro.x509.certificate", "TrustStore.validate", "x509.validate", {}),
    ("repro.scanner.grab", "ZGrabber.connect", "scanner.grab", {"grab": True}),
    ("repro.scanner.grab", "ZGrabber.grab", "scanner.observe", {}),
    ("repro.scanner.experiments", "DailySweepExperiment.run_day", "scanner.exp.sweep", {}),
    ("repro.scanner.experiments", "SupportScanExperiment.run_day", "scanner.exp.support", {}),
    ("repro.scanner.experiments", "CrossDomainExperiment.run_day",
     "scanner.exp.crossdomain", {}),
    ("repro.scanner.experiments", "ResumptionProbeExperiment.run_day",
     "scanner.exp.probe", {}),
    ("repro.scanner.datastore", "JsonlWriter.append_many", "scanner.sink", {}),
    ("repro.scanner.engine", "concatenate_channels", "scanner.merge", {}),
    ("repro.scanner.checkpoint", "CheckpointStore.reset", "scanner.checkpoint", {}),
    ("repro.scanner.checkpoint", "CheckpointStore.save_shard", "scanner.checkpoint", {}),
    ("repro.scanner.checkpoint", "CheckpointStore.clear", "scanner.checkpoint", {}),
    ("repro.faults.plan", "ImpairmentPlan.connect_fault", "faults.plan", {}),
    ("repro.faults.plan", "ImpairmentPlan.live_backends", "faults.plan", {}),
    ("repro.faults.plan", "ImpairmentPlan.nxdomain", "faults.plan", {}),
    ("repro.faults.plan", "ImpairmentPlan.handshake_fault", "faults.plan", {}),
    ("repro.faults.plan", "ImpairmentPlan.impair_server", "faults.plan", {}),
    ("repro.obs.events", "EventLog.emit", "obs.events", {}),
    ("repro.analysis.engine", "plan_chunks", "analysis.plan", {}),
    ("repro.analysis.engine", "read_chunk", "analysis.read", {}),
    ("repro.analysis.engine", "parse_chunk", "analysis.read", {}),
    ("repro.analysis.engine", "_load_cached", "analysis.cache", {}),
    ("repro.analysis.engine", "_write_cache", "analysis.cache", {}),
    ("repro.analysis", "report_inputs_from_analysis", "analysis.render", {}),
    ("repro.analysis", "audit_inputs_from_analysis", "analysis.render", {}),
    ("repro.analysis", "render_report", "analysis.render", {}),
    ("repro.analysis", "render_audit", "analysis.render", {}),
)

#: Methods of every ``ShardAggregate`` subclass, by span name.
AGGREGATE_METHODS = (
    ("fold", "analysis.fold"),
    ("merge", "analysis.merge"),
    ("finalize", "analysis.merge"),
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "hosting.build_s": "s",
    "hosting.build_calls": "count",
    "hosting.advance_s": "s",
    "hosting.advance_calls": "count",
    "netsim.eventloop_self_s": "s",
    "netsim.eventloop_tasks": "count",
    "netsim.dns_s": "s",
    "netsim.connect_s": "s",
    "netsim.connect_calls": "count",
    "netsim.connect_failures": "count",
    "tls.fastpath_s": "s",
    "tls.fastpath_calls": "count",
    "tls.blocking_s": "s",
    "tls.blocking_calls": "count",
    "tls.fastpath_share": "ratio",
    "tls.resume_lookup_s": "s",
    "tls.resume_accept_ratio": "ratio",
    "tls.ticket_seal_s": "s",
    "tls.ticket_seal_calls": "count",
    "tls.ticket_open_s": "s",
    "tls.ticket_open_calls": "count",
    "tls.kex_s": "s",
    "tls.kex_calls": "count",
    "tls.kex_reuse_ratio": "ratio",
    "crypto.keygen_s": "s",
    "crypto.keygen_calls": "count",
    "crypto.drbg_s": "s",
    "crypto.drbg_bytes": "bytes",
    "crypto.stek_cipher_hit_ratio": "ratio",
    "x509.validate_s": "s",
    "x509.validate_calls": "count",
    "x509.sig_memo_hit_ratio": "ratio",
    "scanner.grabs": "count",
    "scanner.grab_samples": "count",
    "scanner.grab_p50_us": "us",
    "scanner.grab_p99_us": "us",
    "scanner.grab_self_s": "s",
    "scanner.observe_s": "s",
    "scanner.grab_error_share": "ratio",
    "scanner.exp.sweep_s": "s",
    "scanner.exp.support_s": "s",
    "scanner.exp.crossdomain_s": "s",
    "scanner.exp.probe_s": "s",
    "scanner.sink_s": "s",
    "scanner.sink_records": "count",
    "scanner.sink_bytes": "bytes",
    "scanner.merge_s": "s",
    "scanner.checkpoint_s": "s",
    "faults.plan_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.retry_ratio": "ratio",
    "faults.breaker_opened": "count",
    "obs.events": "count",
    "obs.events_s": "s",
    "analysis.plan_s": "s",
    "analysis.chunks": "count",
    "analysis.read_s": "s",
    "analysis.fold_s": "s",
    "analysis.rows": "count",
    "analysis.merge_s": "s",
    "analysis.render_s": "s",
    "analysis.cache_s": "s",
    "analysis.cache_hit_ratio": "ratio",
    "trace.spans": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Self-time metrics read straight off one span name.
_SELF_TIME = {
    "hosting.build_s": "hosting.build",
    "hosting.advance_s": "hosting.advance",
    "netsim.eventloop_self_s": "netsim.eventloop",
    "netsim.dns_s": "netsim.dns",
    "netsim.connect_s": "netsim.connect",
    "tls.fastpath_s": "tls.fastpath",
    "tls.blocking_s": "tls.blocking",
    "tls.resume_lookup_s": "tls.resume_lookup",
    "tls.ticket_seal_s": "tls.ticket_seal",
    "tls.ticket_open_s": "tls.ticket_open",
    "tls.kex_s": "tls.kex",
    "crypto.keygen_s": "crypto.keygen",
    "crypto.drbg_s": "crypto.drbg",
    "x509.validate_s": "x509.validate",
    "scanner.grab_self_s": "scanner.grab",
    "scanner.observe_s": "scanner.observe",
    "scanner.exp.sweep_s": "scanner.exp.sweep",
    "scanner.exp.support_s": "scanner.exp.support",
    "scanner.exp.crossdomain_s": "scanner.exp.crossdomain",
    "scanner.exp.probe_s": "scanner.exp.probe",
    "scanner.sink_s": "scanner.sink",
    "scanner.merge_s": "scanner.merge",
    "scanner.checkpoint_s": "scanner.checkpoint",
    "faults.plan_s": "faults.plan",
    "obs.events_s": "obs.events",
    "analysis.plan_s": "analysis.plan",
    "analysis.read_s": "analysis.read",
    "analysis.fold_s": "analysis.fold",
    "analysis.merge_s": "analysis.merge",
    "analysis.render_s": "analysis.render",
    "analysis.cache_s": "analysis.cache",
}

#: Call-count metrics read straight off one span name.
_CALLS = {
    "hosting.build_calls": "hosting.build",
    "hosting.advance_calls": "hosting.advance",
    "netsim.eventloop_tasks": "netsim.spawn",
    "netsim.connect_calls": "netsim.connect",
    "tls.fastpath_calls": "tls.fastpath",
    "tls.blocking_calls": "tls.blocking",
    "tls.ticket_seal_calls": "tls.ticket_seal",
    "tls.ticket_open_calls": "tls.ticket_open",
    "tls.kex_calls": "tls.kex",
    "crypto.keygen_calls": "crypto.keygen",
    "x509.validate_calls": "x509.validate",
    "scanner.grab_samples": "scanner.grab",
    "obs.events": "obs.events",
}

_CONNECT_FAILURES = ("connect_timeout", "no_backend", "outage")


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(recorder: SpanRecorder) -> None:
    """Patch every timed call to record into ``recorder``."""
    for module_name, path, name, options in PATCHES:
        owner, attribute = _resolve(module_name, path)
        recorder.patch(owner, attribute, name, **options)
    aggregates = importlib.import_module("repro.analysis.aggregates")
    for value in vars(aggregates).values():
        if isinstance(value, type) and issubclass(value, aggregates.ShardAggregate):
            for method, name in AGGREGATE_METHODS:
                if method in value.__dict__:
                    recorder.patch(value, method, name)


def _counter_sum(counters: dict, name: str) -> int:
    """Sum of one counter over all its label sets."""
    prefix = name + "{"
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(prefix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def layer_metrics(
    recorder: SpanRecorder,
    delta: dict,
    *,
    sink_records: int = 0,
    sink_bytes: int = 0,
) -> dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``delta`` is the iteration's ``METRICS.snapshot_delta``;
    ``trace.overhead_ratio`` is left at 0 for the caller, which owns
    the untraced comparison run.
    """
    summary = recorder.summary()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    counters = delta.get("counters", {})
    attempts = _counter_sum(counters, "scanner.grab.attempt")
    accepted = _counter_sum(counters, "tls.server.resumption_accepted")
    rejected = _counter_sum(counters, "tls.server.resumption_rejected")
    retries = _counter_sum(counters, "scanner.grab.retry")
    grab_us = [value * 1e6 for value in recorder.durations("scanner.grab")]
    timed = summary.get(TIMED_SPAN, {"total_s": 0.0, "self_s": 0.0})

    metrics: dict[str, float] = {name: 0 for name in PER_LAYER}
    for metric, name in _SELF_TIME.items():
        metrics[metric] = self_s(name)
    for metric, name in _CALLS.items():
        metrics[metric] = calls(name)
    metrics.update({
        "netsim.connect_failures": sum(
            counters.get(f"scanner.grab.failure{{reason={reason}}}", 0)
            for reason in _CONNECT_FAILURES
        ),
        "tls.fastpath_share": _ratio(
            calls("tls.fastpath"), calls("tls.fastpath") + calls("tls.blocking")
        ),
        "tls.resume_accept_ratio": _ratio(accepted, accepted + rejected),
        "tls.kex_reuse_ratio": _ratio(
            calls("tls.kex") - recorder.child_counts("tls.kex", "crypto.keygen"),
            calls("tls.kex"),
        ),
        "crypto.drbg_bytes": recorder.amounts.get("crypto.drbg", 0),
        "crypto.stek_cipher_hit_ratio": _hit_ratio(counters, "crypto.aes.stek_cipher"),
        "x509.sig_memo_hit_ratio": _hit_ratio(counters, "x509.sig_memo"),
        "scanner.grabs": attempts,
        "scanner.grab_p50_us": _percentile(grab_us, 0.50),
        "scanner.grab_p99_us": _percentile(grab_us, 0.99),
        "scanner.grab_error_share": _ratio(
            _counter_sum(counters, "scanner.grab.failure"), attempts
        ),
        "scanner.sink_records": sink_records,
        "scanner.sink_bytes": sink_bytes,
        "faults.injected": _counter_sum(counters, "faults.injected"),
        "faults.retries": retries,
        "faults.retry_ratio": _ratio(retries, attempts),
        "faults.breaker_opened": _counter_sum(counters, "scanner.breaker.opened"),
        "analysis.chunks": _counter_sum(counters, "analysis.chunks"),
        "analysis.rows": _counter_sum(counters, "analysis.rows"),
        "analysis.cache_hit_ratio": _hit_ratio(counters, "analysis.cache"),
        "trace.spans": len(recorder),
        "trace.unattributed_share": _ratio(timed["self_s"], timed["total_s"]),
    })
    return metrics


def _hit_ratio(counters: dict, family: str) -> float:
    hits = counters.get(f"{family}.hit", 0)
    return _ratio(hits, hits + counters.get(f"{family}.miss", 0))


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over iterations (counts repeat exactly)."""
    return {name: statistics.median(sample[name] for sample in samples)
            for name in PER_LAYER}


__all__ = [
    "PATCHES",
    "PER_LAYER",
    "TIMED_SPAN",
    "install",
    "layer_metrics",
    "median_metrics",
]
