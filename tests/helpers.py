"""Shared test helpers: compact TLS rigs, ecosystem builders, an
order-sensitive canonical form for analysis outputs, and a parser that
turns a Prometheus exposition back into a metrics snapshot."""

from __future__ import annotations

import re
from dataclasses import dataclass, is_dataclass
from typing import Optional

from repro.crypto import dh, ec, rsa
from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import parse_key
from repro.obs.report import _prom_name
from repro.tls.ciphers import MODERN_BROWSER_OFFER
from repro.tls.client import TLSClient
from repro.tls.keyexchange import KexReusePolicy, ReuseMode
from repro.tls.server import ServerConfig, TLSServer, TicketPolicy
from repro.tls.session import SessionCache
from repro.tls.ticket import STEKStore, TicketFormat, generate_stek
from repro.x509 import CertificateAuthority, TrustStore


@dataclass
class Clock:
    """A tiny settable clock for TLS-level tests."""

    value: float = 1000.0

    def now(self) -> float:
        return self.value

    def advance(self, seconds: float) -> None:
        self.value += seconds


@dataclass
class TLSRig:
    """One CA + server + client, wired together for handshake tests."""

    clock: Clock
    ca: CertificateAuthority
    trust: TrustStore
    server: TLSServer
    client: TLSClient
    server_key: rsa.RSAPrivateKey
    stek_store: Optional[STEKStore]
    session_cache: Optional[SessionCache]


def make_rig(
    seed: int = 42,
    hostname: str = "example.com",
    cache_lifetime: Optional[float] = 300.0,
    tickets: bool = True,
    ticket_window: float = 300.0,
    ticket_hint: int = 300,
    ticket_format: TicketFormat = TicketFormat.RFC5077,
    kex_policy: Optional[KexReusePolicy] = None,
    issue_session_ids: bool = True,
    curve: ec.Curve = ec.SECP128R1,
    group: dh.DHGroup = dh.TEST_GROUP,
    suites=MODERN_BROWSER_OFFER,
    stek_retain: int = 1,
) -> TLSRig:
    """Build a one-server test rig with sane fast defaults."""
    rng = DeterministicRandom(seed)
    clock = Clock()
    ca = CertificateAuthority("Test CA", rsa.generate_keypair(512, rng))
    trust = TrustStore()
    trust.add_root(ca.name, ca.public_key)
    server_key = rsa.generate_keypair(512, rng)
    cert = ca.issue([hostname, f"*.{hostname}"], server_key.public, 0, 10**9)
    stek_store = None
    if tickets:
        key_name_length = 4 if ticket_format is TicketFormat.MBEDTLS else 16
        stek_store = STEKStore(
            generate_stek(rng, clock.now(), key_name_length),
            ticket_format=ticket_format,
            retain=stek_retain,
        )
    cache = SessionCache(cache_lifetime) if cache_lifetime is not None else None
    config = ServerConfig(
        certificate=cert,
        private_key=server_key,
        supported_suites=suites,
        session_cache=cache,
        issue_session_ids=issue_session_ids,
        stek_store=stek_store,
        ticket_policy=TicketPolicy(
            lifetime_hint_seconds=ticket_hint,
            accept_window_seconds=ticket_window,
            ticket_format=ticket_format,
        ),
        dh_group=group,
        curve=curve,
        kex_policy=kex_policy or KexReusePolicy(ReuseMode.FRESH),
    )
    server = TLSServer(config, rng.fork("server"), clock.now)
    client = TLSClient(rng.fork("client"), trust, clock.now)
    return TLSRig(
        clock=clock,
        ca=ca,
        trust=trust,
        server=server,
        client=client,
        server_key=server_key,
        stek_store=stek_store,
        session_cache=cache,
    )


def canon(obj):
    """Order-sensitive canonical form (dict order becomes list order).

    Analysis outputs must match in dict *order*, not just content:
    first-seen order breaks ties in the top-reuse tables.  Dataclasses
    compare field by field; sets are unordered, so they are sorted.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__, canon(vars(obj))]
    if isinstance(obj, dict):
        return [(key, canon(value)) for key, value in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canon(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canon(value) for value in obj)
    return repr(obj)


# -- parsing a Prometheus exposition back (tests + CI smoke) ---------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _sample_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return name + "{" + inner + "}"


def parse_prometheus(text: str) -> dict:
    """Parse an exposition back into a snapshot-shaped dict.

    The result is keyed by *Prometheus* names (the dotted originals
    are not recoverable): ``counters`` lose their ``_total`` suffix,
    histograms are reassembled from their ``_bucket``/``_sum``/
    ``_count`` series with de-cumulated counts.  Inverse of
    :func:`render_prometheus` modulo that renaming — see
    :func:`to_prom_snapshot` for comparing against a live registry.
    """
    types: dict[str, str] = {}
    raw: dict[str, list[tuple[dict, object]]] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"exposition line {line_number}: cannot parse {line!r}")
        labels = {
            m.group("name"): _unescape_label_value(m.group("value"))
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        }
        raw.setdefault(match.group("name"), []).append(
            (labels, _parse_value(match.group("value")))
        )

    snapshot: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    histogram_families = {
        name for name, kind in types.items() if kind == "histogram"
    }
    histograms: dict[str, dict] = {}
    for name, samples in raw.items():
        family, series = name, None
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in histogram_families:
                family, series = name[: -len(suffix)], suffix[1:]
                break
        if series is not None:
            for labels, value in samples:
                labels = dict(labels)
                bound = labels.pop("le", None)
                entry = histograms.setdefault(
                    _sample_key(family, labels),
                    {"buckets": [], "sum": 0.0, "count": 0},
                )
                if series == "bucket":
                    entry["buckets"].append((bound, value))
                elif series == "sum":
                    entry["sum"] = value
                else:
                    entry["count"] = value
        elif types.get(name + "_total") == "counter" or types.get(name) == "counter":
            base = name[:-6] if name.endswith("_total") else name
            for labels, value in samples:
                snapshot["counters"][_sample_key(base, labels)] = value
        else:
            for labels, value in samples:
                snapshot["gauges"][_sample_key(name, labels)] = value

    for key, entry in histograms.items():
        finite = [
            (float(bound), count)
            for bound, count in entry["buckets"]
            if bound not in ("+Inf", "inf", None)
        ]
        finite.sort(key=lambda item: item[0])
        counts, previous = [], 0
        for _bound, cumulative in finite:
            counts.append(cumulative - previous)
            previous = cumulative
        # The +Inf bucket double-counts the overflow slot (see
        # render_prometheus): total = sum(finite) + overflow.
        overflow = entry["count"] - sum(counts) if entry["count"] else 0
        counts.append(max(overflow, 0))
        snapshot["histograms"][key] = {
            "bounds": [bound for bound, _ in finite],
            "counts": counts,
            "sum": entry["sum"],
            "count": entry["count"],
        }
    return snapshot


def to_prom_snapshot(snapshot: dict) -> dict:
    """Re-key a registry snapshot by Prometheus names.

    ``parse_prometheus(render_prometheus(s)) == to_prom_snapshot(s)``
    — the comparison form used by the exporter tests and the CI smoke
    job.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_key(key)
        out["counters"][_sample_key(_prom_name(name), labels)] = value
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = parse_key(key)
        out["gauges"][_sample_key(_prom_name(name), labels)] = value
    for key, hist in snapshot.get("histograms", {}).items():
        name, labels = parse_key(key)
        total = hist["count"]
        out["histograms"][_sample_key(_prom_name(name), labels)] = {
            "bounds": [float(bound) for bound in hist["bounds"]],
            "counts": list(hist["counts"]),
            "sum": round(hist["sum"], 6),
            "count": total,
        }
    return out
