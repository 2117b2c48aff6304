"""Primitive micro-benchmarks: ``python -m repro.bench``.

The measurement pipeline's throughput ceiling is the pure-Python
crypto underneath millions of simulated handshakes, so this harness
reports ops/sec for the primitives the scans lean on: DRBG draws,
HMAC-SHA-256, AES blocks, ticket issue/seal/open under one STEK, CBC,
RSA-CRT signing, EC scalar multiplication and P-256 keygen, record
serialization, and full and abbreviated handshakes.

End-to-end throughput and memory are measured elsewhere: the repo
benchmark (``perfbench/``, with calibration and a noise band) times
whole studies and ``report``/``audit``, and any ``repro study
--telemetry-dir`` run records grabs/sec and ``peak_rss_mib`` in its
manifest.  The committed ``BENCH_PR*.json`` files are history from
end-to-end tiers this harness no longer has.

Examples::

    python -m repro.bench --quick
    python -m repro.bench --out micro.json
"""

from __future__ import annotations

import argparse
import json
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
from .tls.ticket import STEKStore, generate_stek, open_ticket, seal_ticket
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


# --- orchestration -----------------------------------------------------

def render(report: dict) -> str:
    """Format a report dict as the human-readable console table."""
    lines = [f"micro-benchmarks (python {report['python']})"]
    width = max(len(name) for name in report["micro"])
    for name, stats in report["micro"].items():
        lines.append(f"  {name:<{width}}  {stats['ops_per_sec']:>12,.1f} ops/s")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="primitive micro-benchmarks (ops/sec)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="0.1 s timing windows instead of 0.5 s "
                             "(CI smoke mode)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = {
        "python": sys.version.split()[0],
        "quick": args.quick,
        "micro": run_micro(0.1 if args.quick else 0.5),
    }
    print(render(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
