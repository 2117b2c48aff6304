"""Shared test helpers: compact TLS rigs, ecosystem builders, and an
order-sensitive canonical form for analysis outputs."""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Optional

from repro.crypto import dh, ec, rsa
from repro.crypto.rng import DeterministicRandom
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
