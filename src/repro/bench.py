"""Repeatable performance benchmarks: ``python -m repro.bench``.

The measurement pipeline's throughput ceiling is the pure-Python
crypto underneath millions of simulated handshakes, so this harness
tracks two layers on every PR:

* **micro** — ops/sec of the primitives the scans lean on (DRBG draws,
  HMAC-SHA-256, AES blocks, ticket seal/open under one STEK, CBC,
  RSA-CRT signing, EC scalar multiplication and P-256 keygen, record
  serialization, full and abbreviated handshakes);
* **e2e** — wall-clock and grabs/sec for a small reference study run
  end-to-end through the sharded scan engine, plus a ``scale_study``
  section that pushes a large daily-sweep-only population through the
  event-driven core (``concurrency=2048``, streamed to disk) and
  records RSS before/after so memory stays part of the trajectory.

``report`` + ``audit`` over a dataset are timed by the repo benchmark's
``analysis`` workload (``perfbench/``), not here.

Results are emitted as JSON (``BENCH_<label>.json`` at the repo root
by convention) so the perf trajectory across PRs lives in version
control next to the code that produced it.  ``--baseline`` merges a
previously captured run into the output under ``"baseline"`` and
prints speedup ratios, which is how a PR records the numbers it is
claiming credit against.

Examples::

    python -m repro.bench --quick --out BENCH_PR2.json
    python -m repro.bench --baseline .bench_cache/baseline.json \
        --label PR2 --out BENCH_PR2.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional

from .crypto import ec, rsa
from .crypto.aes import AES
from .crypto.mac import hmac_sha256
from .crypto.modes import cbc_decrypt, cbc_encrypt
from .crypto.rng import DeterministicRandom
from .scanner.records import ScanObservation
from .tls.ciphers import MODERN_BROWSER_OFFER
from .tls.client import TLSClient
from .tls.constants import ProtocolVersion
from .tls.keyexchange import KexReusePolicy, ReuseMode
from .tls.server import ServerConfig, TLSServer, TicketPolicy
from .tls.session import SessionCache, SessionState
from .tls.ticket import (
    STEKStore,
    TicketFormat,
    generate_stek,
    open_ticket,
    seal_ticket,
)
from .x509 import CertificateAuthority, TrustStore


# --- timing core -------------------------------------------------------

def _measure(fn: Callable[[], object], seconds: float) -> dict:
    """Run ``fn`` repeatedly for ~``seconds``; return ops/sec stats.

    One warm-up call runs first (populating lazy tables and caches —
    steady-state throughput is what the trajectory tracks, not
    first-call latency).
    """
    fn()
    # Calibrate a batch size so the timed loop overhead is negligible.
    batch, elapsed = 1, 0.0
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed > seconds / 20 or batch >= 1 << 20:
            break
        batch *= 4
    iters = max(1, int(batch * (seconds / max(elapsed, 1e-9))))
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    total = time.perf_counter() - start
    return {
        "ops_per_sec": round(iters / total, 2),
        "iterations": iters,
        "seconds": round(total, 4),
    }


# --- a self-contained TLS rig ------------------------------------------

class _Clock:
    def __init__(self) -> None:
        self.value = 1000.0

    def now(self) -> float:
        return self.value


def _make_rig(seed: int = 2718, ticket_window: float = 10**9):
    """One CA + server + client wired together (mirrors the test rig)."""
    rng = DeterministicRandom(seed)
    clock = _Clock()
    ca = CertificateAuthority("Bench CA", rsa.generate_keypair(512, rng))
    trust = TrustStore()
    trust.add_root(ca.name, ca.public_key)
    server_key = rsa.generate_keypair(512, rng)
    cert = ca.issue(["bench.example", "*.bench.example"], server_key.public, 0, 10**9)
    stek_store = STEKStore(generate_stek(rng, clock.now()))
    config = ServerConfig(
        certificate=cert,
        private_key=server_key,
        supported_suites=MODERN_BROWSER_OFFER,
        session_cache=SessionCache(300.0),
        stek_store=stek_store,
        ticket_policy=TicketPolicy(accept_window_seconds=ticket_window),
        kex_policy=KexReusePolicy(ReuseMode.FRESH),
        curve=ec.SECP128R1,
    )
    server = TLSServer(config, rng.fork("server"), clock.now)
    client = TLSClient(rng.fork("client"), trust, clock.now)
    return server, client


# --- microbenchmarks ---------------------------------------------------

def run_micro(seconds: float) -> dict:
    """Primitive-level throughput measurements."""
    rng = DeterministicRandom(31415)
    results: dict[str, dict] = {}

    # The DRBG behind every simulated nonce, key and secret: one 32-byte
    # draw is one generate plus one update, three HMAC-SHA-256 calls.
    drbg = DeterministicRandom("drbg")
    results["drbg_random_bytes"] = _measure(lambda: drbg.random_bytes(32), seconds)
    mac_key, mac_data = drbg.random_bytes(32), drbg.random_bytes(128)
    results["hmac_sha256_128b"] = _measure(lambda: hmac_sha256(mac_key, mac_data), seconds)

    cipher = AES(rng.random_bytes(16))
    block = rng.random_bytes(16)
    results["aes_encrypt_block"] = _measure(lambda: cipher.encrypt_block(block), seconds)
    results["aes_decrypt_block"] = _measure(lambda: cipher.decrypt_block(block), seconds)

    # STEK reuse is the paper's whole subject: one key seals/opens huge
    # ticket volumes, so per-call key-schedule cost dominates untuned
    # implementations.  This pair is the PR-2 headline metric.
    stek = generate_stek(rng, 0.0)
    session = SessionState(
        master_secret=rng.random_bytes(48),
        cipher_suite=MODERN_BROWSER_OFFER[0],
        version=ProtocolVersion.TLS12,
        created_at=0.0,
        domain="bench.example",
    )
    seal_rng = DeterministicRandom(999)
    results["ticket_seal"] = _measure(
        lambda: seal_ticket(stek, session, seal_rng), seconds
    )
    # What a scan pays per issued ticket: IV draw, state encoding and
    # cleartext head; the body is sealed only when its bytes are used.
    store, issue_rng = STEKStore(stek), DeterministicRandom(998)
    results["ticket_issue"] = _measure(
        lambda: store.issue(session, issue_rng), seconds
    )
    ticket = seal_ticket(stek, session, DeterministicRandom(1000))
    results["ticket_open"] = _measure(lambda: open_ticket(stek, ticket), seconds)

    key, iv = rng.random_bytes(16), rng.random_bytes(16)
    kilobyte = rng.random_bytes(1024)
    sealed_kb = cbc_encrypt(key, iv, kilobyte)
    results["cbc_encrypt_1k"] = _measure(lambda: cbc_encrypt(key, iv, kilobyte), seconds)
    results["cbc_decrypt_1k"] = _measure(lambda: cbc_decrypt(key, iv, sealed_kb), seconds)

    signing_key = rsa.generate_keypair(512, rng)
    results["rsa_sign"] = _measure(
        lambda: signing_key.sign(b"server key exchange params"), seconds
    )

    for curve in (ec.SECP128R1, ec.P256):
        scalar_rng = DeterministicRandom(curve.name)
        point = ec.scalar_mult_base(curve, scalar_rng.randrange(1, curve.n))
        results[f"ec_base_mult_{curve.name}"] = _measure(
            lambda: ec.scalar_mult_base(curve, scalar_rng.randrange(1, curve.n)),
            seconds,
        )
        results[f"ec_scalar_mult_{curve.name}"] = _measure(
            lambda: ec.scalar_mult(curve, scalar_rng.randrange(1, curve.n), point),
            seconds,
        )

    # Per-primitive numbers for the two per-grab kernels of a sweep: a
    # fresh server keypair (scalar draw + fixed-base d·G) and one
    # record's JSONL line.
    keygen_rng = DeterministicRandom("keygen")
    results["ec_keygen_p256"] = _measure(
        lambda: ec.generate_keypair(ec.P256, keygen_rng), seconds
    )
    record = ScanObservation(
        domain="bench.example", day=3, timestamp=259_200.5, rank=42,
        ip="10.0.0.1", success=True, error="", cipher=MODERN_BROWSER_OFFER[0].name,
        kex_kind="ecdhe", forward_secret=True, cert_trusted=True, cert_error="",
        session_id_set=True, resumed=True, resumed_via="ticket",
        ticket_extension=True, ticket_issued=True, ticket_hint=300,
        ticket_format="rfc5077", stek_id="ab" * 16, kex_public="04" + "cd" * 32,
    )
    results["record_to_json"] = _measure(record.to_json, seconds)

    server, client = _make_rig()

    def full_handshake():
        result = client.connect(server, "bench.example", offer=MODERN_BROWSER_OFFER)
        assert result.ok
        return result

    results["full_handshake"] = _measure(full_handshake, seconds)

    first = client.connect(server, "bench.example")
    assert first.ok and first.new_ticket is not None

    def abbreviated_handshake():
        result = client.connect(
            server,
            "bench.example",
            ticket=first.new_ticket.ticket,
            saved_session=first.session,
        )
        assert result.resumed
        return result

    results["abbreviated_handshake"] = _measure(abbreviated_handshake, seconds)
    return results


# --- end-to-end reference study ----------------------------------------

def run_e2e(quick: bool) -> dict:
    """Run the reference mini-study through the engine; report grabs/sec.

    The run streams a live event log through :class:`LivePlane` so the
    reported grabs/sec carries the observability plane's overhead — the
    number a ``--events`` run would actually see — and the event/series
    counts land in the JSON for the cross-PR trajectory.
    """
    import shutil
    import tempfile

    from .hosting import EcosystemConfig, build_ecosystem
    from .obs.events import load_events
    from .obs.exporter import LivePlane
    from .obs.metrics import METRICS, cache_stats
    from .scanner import StudyConfig, run_study_with_stats
    from .scanner.engine import StudyEngine

    population = 320
    days = 2 if quick else 4
    config = StudyConfig(
        days=days,
        seed=404,
        probe_domain_count=40,
        dhe_support_day=1,
        ecdhe_support_day=1,
        ticket_support_day=1,
        crossdomain_day=1,
        session_probe_day=1,
        ticket_probe_day=1,
    )
    ecosystem = build_ecosystem(EcosystemConfig(population=population, seed=2016))
    metrics_base = METRICS.snapshot()
    workdir = tempfile.mkdtemp(prefix="repro-bench-obs-")
    events_path = os.path.join(workdir, "events.jsonl")
    plane = LivePlane(events_path=events_path).start()
    try:
        _, stats = run_study_with_stats(ecosystem, config, live=plane)
        plane.stop()
        events_emitted = max(0, len(load_events(events_path)) - 1)  # - header
    finally:
        plane.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    # Cache-effectiveness counters for *this* study run (the PR-2 caches
    # the pipeline's throughput depends on), from the metrics delta.
    delta = METRICS.snapshot_delta(metrics_base)
    caches = {}
    for family in StudyEngine.CACHE_FAMILIES:
        summary = cache_stats(delta, family)
        if summary is not None:
            caches[family] = summary
    return {
        "reference_study": {
            "population": population,
            "days": days,
            "grabs": stats.grabs,
            "seconds": round(stats.elapsed_seconds, 3),
            "grabs_per_sec": round(stats.grabs_per_sec, 2),
        },
        "caches": caches,
        "observability": {
            "events_emitted": events_emitted,
            "metric_series": sum(
                len(delta.get(section, {}))
                for section in ("counters", "gauges", "histograms")
            ),
        },
    }


# --- scale study (event-driven scan core) ------------------------------

def run_scale(quick: bool, population: Optional[int] = None) -> dict:
    """Daily-sweep throughput at scan scale through the event-driven core.

    Unlike the reference study (small population, every experiment
    enabled), this section isolates the scan engine itself: a large
    population, daily sweeps only, ``concurrency=2048`` in-flight
    handshakes, and observations streamed to disk — the configuration
    SCALING.md recommends for real studies.  Records RSS after the
    ecosystem build and at peak so memory growth under load is part of
    the cross-PR trajectory (streaming keeps it near-flat; the delta is
    per-STEK key schedules and scan bookkeeping, not observations).
    """
    import shutil
    import tempfile

    from .hosting import EcosystemConfig, build_ecosystem
    from .scanner import StudyConfig, run_study_with_stats

    if population is None:
        population = 2_000 if quick else 10_000

    def _rss_kb() -> int:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - linux CI
            peak //= 1024
        return peak

    ecosystem = build_ecosystem(EcosystemConfig(population=population, seed=2016))
    rss_after_build = _rss_kb()
    stream_dir = tempfile.mkdtemp(prefix="repro-bench-scale-")
    config = StudyConfig(
        days=2,
        seed=404,
        run_support_scans=False,
        run_crossdomain=False,
        run_probes=False,
        concurrency=2048,
        stream_dir=stream_dir,
    )
    try:
        _, stats = run_study_with_stats(ecosystem, config)
    finally:
        shutil.rmtree(stream_dir, ignore_errors=True)
    return {
        "scale_study": {
            "population": population,
            "days": config.days,
            "concurrency": config.concurrency,
            "grabs": stats.grabs,
            "seconds": round(stats.elapsed_seconds, 3),
            "grabs_per_sec": round(stats.grabs_per_sec, 2),
            "rss_after_build_kb": rss_after_build,
            "rss_peak_kb": _rss_kb(),
        },
    }


# --- orchestration -----------------------------------------------------

def _resource_usage() -> dict:
    """Peak RSS of the benchmark process (after all workloads ran).

    ``ru_maxrss`` is kilobytes on Linux but *bytes* on macOS; normalize
    to KiB so the trajectory across PRs is comparable.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return {"peak_rss_kb": peak}


_SPEEDUP_KEYS = (
    ("micro", "ticket_seal", "ops_per_sec"),
    ("micro", "ticket_open", "ops_per_sec"),
    ("micro", "full_handshake", "ops_per_sec"),
    ("micro", "abbreviated_handshake", "ops_per_sec"),
    ("e2e", "reference_study", "grabs_per_sec"),
    # Absent from baselines captured before the event-driven scan core
    # landed; compute_speedups silently skips metrics a baseline lacks.
    ("e2e", "scale_study", "grabs_per_sec"),
)


def _lookup(report: dict, path: tuple) -> Optional[float]:
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def compute_speedups(report: dict, baseline: dict) -> dict:
    """current/baseline ratios for the headline metrics."""
    speedups = {}
    for path in _SPEEDUP_KEYS:
        current, base = _lookup(report, path), _lookup(baseline, path)
        if current and base:
            speedups["/".join(path[:-1])] = round(current / base, 2)
    return speedups


def run_bench(
    quick: bool = False,
    label: str = "dev",
    baseline_path: Optional[str] = None,
    micro_seconds: Optional[float] = None,
    scale_population: Optional[int] = None,
) -> dict:
    """Run every benchmark tier and return the JSON-serializable report.

    With ``baseline_path`` the named prior report is merged in under
    ``"baseline"`` and speedup ratios are computed for the headline
    metrics (metrics absent from the baseline are skipped).
    """
    seconds = micro_seconds if micro_seconds is not None else (0.1 if quick else 0.5)
    micro = run_micro(seconds)
    e2e = run_e2e(quick)
    scale = run_scale(quick)
    e2e.update(scale)
    if (
        scale_population is not None
        and scale_population != scale["scale_study"]["population"]
    ):
        # Record the larger smoke *alongside* the default-population
        # scale study, not instead of it: cross-PR speedup tracking
        # keys off ``scale_study``, which must stay comparable.
        extra = run_scale(quick, population=scale_population)
        key = f"scale_study_{scale_population // 1000}k"
        e2e[key] = extra["scale_study"]
    report = {
        "label": label,
        "python": sys.version.split()[0],
        "quick": quick,
        "micro": micro,
        "e2e": e2e,
        "resources": _resource_usage(),
    }
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        report["baseline"] = {
            "label": baseline.get("label", "baseline"),
            "micro": baseline.get("micro", {}),
            "e2e": baseline.get("e2e", {}),
        }
        report["speedup"] = compute_speedups(report, baseline)
    return report


def render(report: dict) -> str:
    """Format a report dict as the human-readable console table."""
    lines = [f"benchmark report ({report['label']}, python {report['python']})"]
    width = max(len(name) for name in report["micro"])
    for name, stats in report["micro"].items():
        lines.append(f"  {name:<{width}}  {stats['ops_per_sec']:>12,.1f} ops/s")
    for name, stats in report["e2e"].items():
        if name in ("caches", "observability"):
            continue
        line = (
            f"  {name:<{width}}  {stats['grabs_per_sec']:>12,.1f} grabs/s "
            f"({stats['grabs']:,} grabs in {stats['seconds']}s)"
        )
        if "rss_peak_kb" in stats:
            line += (
                f" [pop {stats['population']:,} @ concurrency "
                f"{stats['concurrency']:,}; RSS "
                f"{stats['rss_after_build_kb'] / 1024:,.0f}->"
                f"{stats['rss_peak_kb'] / 1024:,.0f} MiB]"
            )
        lines.append(line)
    plane = report["e2e"].get("observability")
    if plane:
        lines.append(
            f"  observability: {plane['events_emitted']:,} events emitted, "
            f"{plane['metric_series']:,} live metric series"
        )
    resources = report.get("resources")
    if resources:
        lines.append(f"  peak RSS: {resources['peak_rss_kb'] / 1024:,.1f} MiB")
    caches = report["e2e"].get("caches", {})
    if caches:
        lines.append("  cache effectiveness (reference study):")
        cache_width = max(len(name) for name in caches)
        for name, stats in caches.items():
            line = (
                f"    {name:<{cache_width}}  {stats['hit_rate'] * 100:6.2f}% hits "
                f"({stats['hits']:,} hit / {stats['misses']:,} miss"
            )
            if stats.get("evictions"):
                line += f" / {stats['evictions']:,} evicted"
            lines.append(line + ")")
    for name, ratio in report.get("speedup", {}).items():
        lines.append(f"  speedup {name}: {ratio}x vs {report['baseline']['label']}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="micro + end-to-end performance benchmarks",
    )
    parser.add_argument("--quick", action="store_true",
                        help="short timing windows and a 2-day e2e study "
                             "(CI smoke mode)")
    parser.add_argument("--label", default="dev",
                        help="run label recorded in the JSON (e.g. PR2)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--baseline", default=None,
                        help="previously captured JSON to diff against; "
                             "merged into the output under 'baseline'")
    parser.add_argument("--micro-seconds", type=float, default=None,
                        help="seconds per microbenchmark (default 0.5, "
                             "0.1 with --quick)")
    parser.add_argument("--scale-population", type=int, default=None,
                        help="record an extra scale study at this population "
                             "alongside the default one (10000, 2000 with "
                             "--quick)")
    args = parser.parse_args(argv)

    report = run_bench(
        quick=args.quick,
        label=args.label,
        baseline_path=args.baseline,
        micro_seconds=args.micro_seconds,
        scale_population=args.scale_population,
    )
    print(render(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
