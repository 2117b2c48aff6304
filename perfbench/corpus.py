"""Seeded synthetic study corpus for the ``analysis`` workload.

Writes a dataset directory in the layout ``repro report``/``repro
audit`` read -- one JSONL file per channel plus ``meta.json`` -- with
rows serialised here, not through the program's record writer, so
generating the corpus costs the same whatever the sink does.

The corpus models the paper's nine weeks (63 days): daily sweeps with
rotating STEK and (EC)DHE identifiers, service groups that share them,
10-connection support scans, 30-minute scans, 24-hour resumption
probes and cross-domain cache edges.  Every value is a function of the
seed through :class:`random.Random` draws and SHA-256, so one seed
always yields the same bytes; the corpus's shape depends only on its
size.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

DAYS = 63
DAY = 86400.0
SUPPORT_DAYS = {"dhe": 43, "ecdhe": 44, "ticket": 46}
PROBE_DOMAINS = 400

#: ``ScanObservation`` / ``ResumptionProbeResult`` / ``CrossDomainEdge``
#: fields, in declaration order (rows are written with sorted keys, as
#: the program writes them).
OBSERVATION_FIELDS = (
    "domain", "day", "timestamp", "rank", "ip", "success", "error",
    "cipher", "kex_kind", "forward_secret", "cert_trusted", "cert_error",
    "session_id_set", "resumed", "resumed_via", "ticket_extension",
    "ticket_issued", "ticket_hint", "ticket_format", "stek_id", "kex_public",
)
PROBE_FIELDS = (
    "domain", "rank", "mechanism", "handshake_ok", "issued", "resumed_at_1s",
    "max_success_delay", "hit_probe_ceiling", "ticket_hint", "attempts",
)
EDGE_FIELDS = ("origin", "acceptor", "via_same_ip", "via_same_as")

CHANNEL_NAMES = (
    "ticket_daily", "dhe_daily", "ecdhe_daily",
    "ticket_support", "dhe_support", "ecdhe_support",
    "ticket_30min", "dhe_30min", "ecdhe_30min",
    "session_probes", "ticket_probes", "cache_edges",
)

_CIPHERS = {
    "ticket": ("ECDHE-RSA-AES128-GCM-SHA256", "ecdhe"),
    "dhe": ("DHE-RSA-AES128-SHA", "dhe"),
    "ecdhe": ("ECDHE-RSA-AES128-SHA", "ecdhe"),
}
_NO_CIPHER = "HandshakeFailure: no mutually supported cipher suite"
_TIMEOUT = "connect: transient failure connecting to {ip}:443"


def _ident(*parts) -> str:
    return hashlib.sha256(":".join(map(str, parts)).encode()).hexdigest()[:32]


def _period(rng: random.Random, table) -> int:
    """Draw a rotation period (days) from ``(cumulative, low, high)`` rows;
    a period longer than the study means "never rotates"."""
    draw = rng.random()
    for cumulative, low, high in table:
        if draw < cumulative:
            return low + int(rng.random() * (high - low + 1))
    return DAYS * 4


#: Share of services by STEK / (EC)DHE rotation period, loosely after
#: the paper's Figures 3 and 5: most rotate daily, a long tail never.
_STEK_PERIODS = ((0.45, 1, 1), (0.65, 2, 7), (0.80, 8, 30))
_KEX_PERIODS = ((0.85, 0, 0), (0.92, 1, 1), (0.97, 2, 20))


class _Service:
    """One operator: a set of domains sharing secret state."""

    def __init__(self, seed: int, index: int, rng: random.Random) -> None:
        self.index = index
        self.ticket = rng.random() < 0.8
        self.dhe = rng.random() < 0.6
        self.ecdhe = rng.random() < 0.9
        self.stek_period = _period(rng, _STEK_PERIODS)
        self.dhe_period = _period(rng, _KEX_PERIODS)
        self.ecdhe_period = _period(rng, _KEX_PERIODS)
        self.asn = 64500 + index % 97
        self.hint = (300, 3600, 7200, 86400)[int(rng.random() * 4)]
        self.session_lifetime = (300.0, 3600.0, 86400.0)[int(rng.random() * 3)]
        self.seed = seed

    def identifier(self, kind: str, day: int, conn: int) -> str:
        period = {"ticket": self.stek_period, "dhe": self.dhe_period,
                  "ecdhe": self.ecdhe_period}[kind]
        epoch = f"c{day}.{conn}" if period == 0 else day // period
        return _ident(self.seed, kind, self.index, epoch)


def _observation(name, rank, ip, day, timestamp, service, kind, trusted,
                 conn=0, failed=False) -> dict:
    supported = getattr(service, kind)
    row = dict.fromkeys(OBSERVATION_FIELDS)
    row.update(
        domain=name, day=day, timestamp=timestamp, rank=rank, ip=ip,
        success=False, error="", forward_secret=False, cert_trusted=False,
        cert_error="", session_id_set=False, resumed=False,
        ticket_extension=False, ticket_issued=False,
    )
    if failed:
        row["error"] = _TIMEOUT.format(ip=ip)
        return row
    if not supported and kind != "ticket":
        row["error"] = _NO_CIPHER
        return row
    cipher, kex_kind = _CIPHERS[kind]
    row.update(
        success=True, cipher=cipher, kex_kind=kex_kind, forward_secret=True,
        cert_trusted=trusted, cert_error="" if trusted else "untrusted issuer",
        session_id_set=True,
    )
    if kind == "ticket":
        if service.ticket:
            row.update(ticket_extension=True, ticket_issued=True,
                       ticket_hint=service.hint, ticket_format="rfc5077",
                       stek_id=service.identifier("ticket", day, conn))
        if service.ecdhe:
            row["kex_public"] = service.identifier("ecdhe", day, conn)
    else:
        row["kex_public"] = service.identifier(kind, day, conn)
    return row


def generate(directory: str, seed: int, domains: int) -> dict:
    """Write the corpus for ``seed`` into ``directory``; return its
    row and byte counts."""
    # The corpus's shape -- service groups and their policies, late
    # joiners, failures -- depends only on its size, so every seed
    # yields the same row counts and analysis state sizes.  The seed
    # picks which domain belongs to which service and salts every
    # identifier.
    shape = random.Random(f"perfbench-corpus-shape:{domains}")
    os.makedirs(directory, exist_ok=True)
    names = [f"site{i:05d}.example" for i in range(domains)]
    # Service groups: a few large operators, many small and single ones.
    owner: list[_Service] = []
    while len(owner) < domains:
        draw = shape.random()
        size = 1 if draw < 0.7 else 2 + int(shape.random() * (4 if draw < 0.95 else 40))
        owner.extend([_Service(seed, len(owner), shape)] * size)
    owner = owner[:domains]
    random.Random(f"perfbench-corpus:{seed}").shuffle(owner)
    ips = [f"198.{51 + owner[i].index % 4}.{owner[i].index % 250}.{(i * 7) % 250 + 1}"
           for i in range(domains)]
    joined = [0 if shape.random() < 0.97 else 1 + int(shape.random() * 30)
              for _ in range(domains)]
    trusted = [shape.random() < 0.9 for _ in range(domains)]
    failure = [shape.random() for _ in range(domains * DAYS * 3)]

    counts = {}
    total_bytes = 0

    def write(channel: str, rows) -> None:
        nonlocal total_bytes
        path = os.path.join(directory, f"{channel}.jsonl")
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
                count += 1
        counts[channel] = count
        total_bytes += os.path.getsize(path)

    def daily(kind: str, slot: int, offset: float):
        for day in range(DAYS):
            for i in range(domains):
                if joined[i] > day:
                    continue
                failed = failure[(slot * DAYS + day) * domains + i] < 0.01
                yield _observation(
                    names[i], i + 1, ips[i], day,
                    day * DAY + offset + i * 7200.0 / domains,
                    owner[i], kind, trusted[i], failed=failed,
                )

    def support(kind: str, connections: int, window: float):
        day = SUPPORT_DAYS[kind]
        for conn in range(connections):
            for i in range(domains):
                yield _observation(
                    names[i], i + 1, ips[i], day,
                    day * DAY + (conn * domains + i) * window / (connections * domains),
                    owner[i], kind, trusted[i], conn=conn,
                )

    for slot, kind in enumerate(("ticket", "dhe", "ecdhe")):
        write(f"{kind}_daily", daily(kind, slot, slot * 7200.0))
    for kind in ("ticket", "dhe", "ecdhe"):
        write(f"{kind}_support", support(kind, 10, 6 * 3600.0))
    for kind in ("ticket", "dhe", "ecdhe"):
        write(f"{kind}_30min", support(kind, 1, 1800.0))

    def probes(mechanism: str):
        for i in range(min(PROBE_DOMAINS, domains)):
            service = owner[i]
            issued = service.ticket if mechanism == "ticket" else True
            lifetime = (service.hint if mechanism == "ticket"
                        else service.session_lifetime)
            row = dict.fromkeys(PROBE_FIELDS)
            row.update(
                domain=names[i], rank=i + 1, mechanism=mechanism,
                handshake_ok=True, issued=issued, resumed_at_1s=issued,
                max_success_delay=float(lifetime) if issued else None,
                hit_probe_ceiling=issued and lifetime >= 86400,
                ticket_hint=service.hint if mechanism == "ticket" and issued else None,
                attempts=2 + int(min(lifetime, 86400) // 1800),
            )
            yield row

    write("session_probes", probes("session_id"))
    write("ticket_probes", probes("ticket"))

    members: dict[int, list[int]] = {}
    for i in range(domains):
        members.setdefault(owner[i].index, []).append(i)

    def edges():
        for group in members.values():
            for position, origin in enumerate(group):
                for acceptor in group[position + 1:position + 4]:
                    row = dict.fromkeys(EDGE_FIELDS)
                    row.update(origin=names[origin], acceptor=names[acceptor],
                               via_same_ip=ips[origin] == ips[acceptor],
                               via_same_as=True)
                    yield row

    write("cache_edges", edges())

    present = [i for i in range(domains) if joined[i] == 0]
    meta = {
        "days": DAYS,
        "day0_list": [[i + 1, names[i]] for i in present],
        "always_present": [names[i] for i in present],
        "ranks": {names[i]: i + 1 for i in range(domains)},
        "crossdomain_targets": list(names),
        "domain_asn": {names[i]: owner[i].asn for i in range(domains)},
        "domain_ip": {names[i]: ips[i] for i in range(domains)},
        "as_names": {str(64500 + k): f"Bench AS {k}" for k in range(97)},
        "list_sizes": {kind: [domains, domains] for kind in ("dhe", "ecdhe", "ticket")},
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return {"rows": sum(counts.values()), "bytes": total_bytes, "channels": counts}


__all__ = ["generate", "CHANNEL_NAMES", "DAYS"]
