"""Build and evolve the synthetic HTTPS ecosystem.

:func:`build_ecosystem` assembles everything the scanner can see:

* a ranked, churning "Alexa-like" domain list;
* hosting providers with shared session caches, STEK stores, and
  ephemeral-key caches across terminator clusters (§5's ground truth);
* notable domains pinned at their paper ranks with the reported
  long-lived secrets (Tables 2-4);
* independently hosted domains with behaviors sampled from the
  calibrated distributions in :mod:`repro.hosting.profiles`;
* DNS (A + MX records), an AS registry, and a network fabric with
  transient failures and load-balancer jitter.

:class:`Ecosystem.advance_to` moves virtual time forward, firing STEK
rotations and daily churn — the server-side dynamics whose observable
consequences the measurement study infers from the outside.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..crypto import dh as dhmod, ec as ecmod, rsa
from ..crypto.rng import DeterministicRandom
from ..netsim.address import IPv4Address
from ..netsim.clock import DAY, SimClock
from ..netsim.dns import DNSZone
from ..netsim.network import Endpoint, Network
from ..netsim.topology import ASRegistry, AutonomousSystem
from ..tls.ciphers import (
    CipherSuite,
    DHE_SUITES,
    ECDHE_SUITES,
    RSA_SUITES,
)
from ..tls.keyexchange import EphemeralKeyCache, KexReusePolicy, ReuseMode
from ..tls.server import ServerConfig, TLSServer, TicketPolicy
from ..tls.session import SessionCache
from ..tls.ticket import STEKStore, TicketFormat, generate_stek
from ..x509 import CertificateAuthority, TrustStore, X509Certificate
from .notable import NOTABLE_DOMAINS, NotableDomain
from .profiles import DomainBehavior, sample_behavior
from .providers import PROVIDERS, ProviderSpec

GOOGLE_MX_HOST = "aspmx.l.google-sim.example"

#: TLS-based mail protocols the paper checked against Google's STEK
#: (§7.2: SMTPS, IMAPS, POP3S share the HTTPS key).
MAIL_TLS_PORTS = (465, 993, 995)

_KEY_NAME_LENGTH = {
    TicketFormat.RFC5077: 16,
    TicketFormat.MBEDTLS: 4,
    TicketFormat.SCHANNEL: 16,
}


@dataclass
class EcosystemConfig:
    """Knobs for the synthetic population."""

    population: int = 2000          # size of the ranked list
    seed: int = 1
    study_days: int = 63            # certificate validity horizon etc.
    curve_name: str = "secp128r1"   # ECDHE curve the servers use
    dh_group_name: str = "test-256" # DHE group the servers use
    rsa_bits: int = 512
    key_pool_size: int = 48         # distinct RSA keys shared by certs
    failure_rate: float = 0.012     # transient connect failures
    churn_daily_fraction: float = 0.008
    reserve_fraction: float = 0.25  # extra domains available for churn
    mx_google_fraction: float = 0.091  # §7.2: MX → Google
    multi_ip_fraction: float = 0.08    # independents with two A records
    lb_jitter_fraction: float = 0.05   # ticket domains with unsynced STEKs
    blacklist_fraction: float = 0.004  # institutional do-not-scan list

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rsa_bits < 64:
            raise ValueError(f"rsa_bits must be >= 64, got {self.rsa_bits}")
        if self.key_pool_size < 1:
            raise ValueError(f"key_pool_size must be >= 1, got {self.key_pool_size}")


@dataclass
class Domain:
    """One domain: public identity plus ground-truth server handles."""

    name: str
    rank: int
    behavior: DomainBehavior
    provider: Optional[str] = None
    notable: bool = False
    ips: list[IPv4Address] = field(default_factory=list)
    asn: Optional[int] = None
    joined_day: int = 0
    left_day: Optional[int] = None  # exclusive; None = never left
    # Ground truth (None for non-HTTPS domains).
    servers: list[TLSServer] = field(default_factory=list)
    stek_store: Optional[STEKStore] = None
    extra_stek_stores: list[STEKStore] = field(default_factory=list)
    session_cache: Optional[SessionCache] = None
    kex_cache: Optional[EphemeralKeyCache] = None
    certificate: Optional[X509Certificate] = None

    def active_on(self, day: int) -> bool:
        """Was this domain in the ranked list on study day ``day``?"""
        if day < self.joined_day:
            return False
        return self.left_day is None or day < self.left_day

    @property
    def https(self) -> bool:
        return self.behavior.https


@dataclass(order=True)
class _RotationTask:
    due: float
    order: int
    store: STEKStore = field(compare=False)
    interval: float = field(compare=False)
    key_name_length: int = field(compare=False)


class Ecosystem:
    """The living synthetic Internet the scanner measures."""

    def __init__(
        self,
        config: EcosystemConfig,
        clock: SimClock,
        network: Network,
        dns: DNSZone,
        as_registry: ASRegistry,
        trust_store: TrustStore,
        domains: list[Domain],
        rotation_rng: DeterministicRandom,
        churn_rng: DeterministicRandom,
        reserve: list[Domain],
        blacklist: Optional[set[str]] = None,
    ) -> None:
        self.config = config
        # The institution's do-not-scan list: the scanner must skip
        # these (the paper "followed the institutional blacklist").
        self.blacklist: set[str] = blacklist or set()
        self.clock = clock
        self.network = network
        self.dns = dns
        self.as_registry = as_registry
        self.trust_store = trust_store
        self.domains = domains
        self._by_name = {domain.name: domain for domain in domains}
        self._rotation_rng = rotation_rng
        self._churn_rng = churn_rng
        self._reserve = reserve
        self._rotations: list[_RotationTask] = []
        self._rotation_order = 0
        self._last_churn_day = 0

    # -- construction helpers (used by the builder) ----------------------

    def schedule_rotation(
        self, store: STEKStore, interval: Optional[float], key_name_length: int
    ) -> None:
        """Register a STEK store for periodic rotation (None = never)."""
        if interval is None or interval <= 0:
            return
        self._rotation_order += 1
        heapq.heappush(
            self._rotations,
            _RotationTask(
                due=self.clock.now() + interval,
                order=self._rotation_order,
                store=store,
                interval=interval,
                key_name_length=key_name_length,
            ),
        )

    # -- public API -------------------------------------------------------

    def domain(self, name: str) -> Domain:
        return self._by_name[name]

    def active_domains(self, day: Optional[int] = None) -> list[Domain]:
        """Domains in the ranked list on ``day`` (default: today), by rank."""
        if day is None:
            day = self.clock.day_index
        active = [d for d in self.domains if d.active_on(day)]
        active.sort(key=lambda d: d.rank)
        return active

    def alexa_list(self, day: Optional[int] = None) -> list[tuple[int, str]]:
        """The (rank, name) list a scanner downloads for a study day."""
        return [(d.rank, d.name) for d in self.active_domains(day)]

    def always_present_domains(self, through_day: int) -> list[Domain]:
        """Domains in the list every day of ``[0, through_day]`` — the
        paper restricts multi-day analyses to these."""
        return [
            d
            for d in self.active_domains(0)
            if d.joined_day == 0 and (d.left_day is None or d.left_day > through_day)
        ]

    def advance_to(self, timestamp: float) -> None:
        """Move time forward, firing STEK rotations and daily churn."""
        if timestamp < self.clock.now():
            raise ValueError("time cannot move backwards")
        while self._rotations and self._rotations[0].due <= timestamp:
            task = heapq.heappop(self._rotations)
            self.clock.advance_to(max(task.due, self.clock.now()))
            fresh = generate_stek(
                self._rotation_rng, task.due, key_name_length=task.key_name_length
            )
            task.store.rotate(fresh)
            task.due += task.interval
            self._rotation_order += 1
            task.order = self._rotation_order
            heapq.heappush(self._rotations, task)
        self.clock.advance_to(timestamp)
        self._apply_churn()

    def advance_days(self, days: float) -> None:
        self.advance_to(self.clock.now() + days * DAY)

    def _apply_churn(self) -> None:
        """Replace a sample of the list with reserve domains, daily."""
        today = self.clock.day_index
        while self._last_churn_day < today:
            self._last_churn_day += 1
            day = self._last_churn_day
            count = int(round(self.config.churn_daily_fraction * self.config.population))
            if count == 0 or not self._reserve:
                continue
            eligible = [
                d
                for d in self.domains
                if d.active_on(day) and not d.notable and d.provider is None
            ]
            if len(eligible) < count:
                count = len(eligible)
            leaving = self._churn_rng.sample(eligible, count)
            for domain in leaving:
                domain.left_day = day
            for domain in leaving:
                if not self._reserve:
                    break
                newcomer = self._reserve.pop()
                newcomer.joined_day = day
                newcomer.rank = domain.rank
                self.domains.append(newcomer)
                self._by_name[newcomer.name] = newcomer

    # -- ground-truth accessors for verification and the attacker model --

    def ground_truth_stek_groups(self) -> dict[int, list[str]]:
        """Domains grouped by the identity of their STEK store."""
        return self._group_by_shared("stek_store")

    def ground_truth_cache_groups(self) -> dict[int, list[str]]:
        """Domains grouped by the identity of their session cache."""
        return self._group_by_shared("session_cache")

    def _group_by_shared(self, attribute: str) -> dict[int, list[str]]:
        """Group domains sharing one ``attribute`` object.

        Each group is keyed by the index in :attr:`domains` of its first
        member, so the keys are the same in every build of one config
        (``id()`` keys differ between processes).
        """
        group_of: dict[int, int] = {}  # id(shared object) -> group key
        groups: dict[int, list[str]] = {}
        for index, domain in enumerate(self.domains):
            shared = getattr(domain, attribute)
            if shared is not None:
                key = group_of.setdefault(id(shared), index)
                groups.setdefault(key, []).append(domain.name)
        return groups


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _pki_keys(seed: int, bits: int, pool_size: int) -> tuple[rsa.RSAPrivateKey, ...]:
    """The simulated PKI's RSA keys: CA 1, CA 2, Shady CA, then the pool.

    Key generation is most of an ecosystem build at study scale, and
    the keys depend only on these three knobs: they come from the
    ``"keys"`` fork of the root generator, which nothing else draws
    from (forking never advances the parent).  Caching them per process
    lets a sharded study rebuild its ecosystem once per shard without
    paying for the PKI again.  It is shared by every build in the
    process and keeps no counters, so merged metrics cannot depend on
    whether a shard found it warm.
    """
    rng = DeterministicRandom(seed).fork("keys")
    return tuple(rsa.generate_keypair(bits, rng) for _ in range(3 + pool_size))


class _Builder:
    """Assembles an :class:`Ecosystem` from an :class:`EcosystemConfig`."""

    def __init__(self, config: EcosystemConfig) -> None:
        self.config = config
        self.clock = SimClock(0.0)
        root = DeterministicRandom(config.seed)
        self.rng_behavior = root.fork("behavior")
        self.rng_network = root.fork("network")
        self.rng_servers = root.fork("servers")
        self.rng_rotation = root.fork("rotation")
        self.rng_churn = root.fork("churn")
        self.rng_ranks = root.fork("ranks")
        self.network = Network(self.rng_network, failure_rate=config.failure_rate)
        self.dns = DNSZone()
        self.as_registry = ASRegistry()
        self.trust_store = TrustStore()
        self.curve = ecmod.CURVES_BY_NAME[config.curve_name]
        self.dh_group = dhmod.GROUPS_BY_NAME[config.dh_group_name]
        self.domains: list[Domain] = []
        self._cert_validity = (0.0, (config.study_days + 30) * DAY)
        self._generic_as: list[AutonomousSystem] = []
        self._generic_cursor = 0
        self._server_count = 0

        # Simulated CAs.  Key pooling (many certificates share an RSA
        # key) is a documented speed substitution: no analysis in the
        # study uses the server key as a grouping signal.  The keys are
        # shared across builds (see _pki_keys); the CAs are not, since
        # each carries a mutable serial counter.
        keys = _pki_keys(config.seed, config.rsa_bits, config.key_pool_size)
        self.cas = [
            CertificateAuthority(f"Repro Root CA {i + 1}", keys[i]) for i in range(2)
        ]
        for ca in self.cas:
            self.trust_store.add_root(ca.name, ca.public_key)
        self.untrusted_ca = CertificateAuthority("Shady CA", keys[2])
        self.key_pool = keys[3:]
        self._key_cursor = 0

    # -- small helpers ---------------------------------------------------

    def _next_key(self) -> rsa.RSAPrivateKey:
        key = self.key_pool[self._key_cursor % len(self.key_pool)]
        self._key_cursor += 1
        return key

    def _issue_cert(self, names: list[str], key: rsa.RSAPrivateKey, trusted: bool) -> X509Certificate:
        ca = self.cas[self._key_cursor % len(self.cas)] if trusted else self.untrusted_ca
        return ca.issue(names, key.public, *self._cert_validity)

    def _make_generic_ases(self, count: int = 40) -> None:
        for i in range(count):
            autonomous_system = self.as_registry.register(
                64500 + i, f"Generic Hosting {i + 1}", [f"10.{i}.0.0/16"]
            )
            self._generic_as.append(autonomous_system)

    def _next_generic_as(self) -> AutonomousSystem:
        autonomous_system = self._generic_as[self._generic_cursor % len(self._generic_as)]
        self._generic_cursor += 1
        return autonomous_system

    def _suites_for(
        self, supports_dhe: bool, supports_ecdhe: bool
    ) -> tuple[CipherSuite, ...]:
        suites: tuple[CipherSuite, ...] = ()
        if supports_ecdhe:
            suites += ECDHE_SUITES
        if supports_dhe:
            suites += DHE_SUITES
        return suites + RSA_SUITES

    def _kex_policy(self, reuse_seconds: Optional[float]) -> KexReusePolicy:
        """None = fresh per handshake; inf = reuse forever; else timed."""
        if reuse_seconds is None:
            return KexReusePolicy(ReuseMode.FRESH)
        if reuse_seconds == float("inf"):
            return KexReusePolicy(ReuseMode.PROCESS_LIFETIME)
        return KexReusePolicy(ReuseMode.TIMED, lifetime_seconds=reuse_seconds)

    def _new_server(
        self, config: ServerConfig, kex_cache: Optional[EphemeralKeyCache] = None
    ) -> TLSServer:
        self._server_count += 1
        return TLSServer(
            config,
            self.rng_servers.fork(f"server-{self._server_count}"),
            self.clock.now,
            kex_cache=kex_cache,
        )

    def _new_stek_store(
        self, ticket_format: TicketFormat, retain: int
    ) -> STEKStore:
        key_name_length = _KEY_NAME_LENGTH[ticket_format]
        initial = generate_stek(self.rng_rotation, self.clock.now(), key_name_length)
        return STEKStore(initial, ticket_format=ticket_format, retain=retain)

    # -- provider construction --------------------------------------------

    def _build_provider(self, spec: ProviderSpec, ecosystem_hooks: list) -> list[Domain]:
        autonomous_system = self.as_registry.register(
            spec.asn, spec.name, list(spec.as_blocks)
        )
        count = spec.scaled_customers(self.config.population)
        named = [name for cluster in spec.clusters for name in cluster.named_domains]
        total = count + len(named)

        # Shared state objects, keyed by group id.
        caches: dict[int, SessionCache] = {}
        steks: dict[int, STEKStore] = {}
        kexes: dict[int, EphemeralKeyCache] = {}
        for cluster in spec.clusters:
            if cluster.cache_lifetime is not None and cluster.cache_group not in caches:
                caches[cluster.cache_group] = SessionCache(cluster.cache_lifetime)
            if spec.tickets and cluster.stek_group not in steks:
                store = self._new_stek_store(spec.ticket_format, spec.stek_retain)
                steks[cluster.stek_group] = store
                ecosystem_hooks.append(
                    (store, spec.stek_rotation, _KEY_NAME_LENGTH[spec.ticket_format])
                )
            if cluster.dh_group is not None and cluster.dh_group not in kexes:
                shared_lifetime = (
                    spec.kex_reuse_seconds
                    if spec.kex_reuse_seconds is not None
                    else float("inf")  # provider never regenerates the value
                )
                kexes[cluster.dh_group] = EphemeralKeyCache(
                    self._kex_policy(shared_lifetime)
                )

        domains: list[Domain] = []
        weights = [cluster.weight for cluster in spec.clusters]
        weight_total = sum(weights)
        assigned = 0
        for idx, cluster in enumerate(spec.clusters):
            if idx == len(spec.clusters) - 1:
                cluster_count = count - assigned
            else:
                cluster_count = int(round(count * cluster.weight / weight_total))
            assigned += cluster_count
            customer_names = [
                spec.customer_pattern.format(index=assigned - cluster_count + i,
                                              provider=spec.name)
                for i in range(cluster_count)
            ]
            names = list(cluster.named_domains) + customer_names

            key = self._next_key()
            sni_certs = {}
            default_cert = None
            for name in names:
                cert = self._issue_cert([name], key, trusted=True)
                sni_certs[name] = (cert, key)
                if default_cert is None:
                    default_cert = cert
            assert default_cert is not None or not names
            if not names:
                continue

            shared_kex = kexes.get(cluster.dh_group) if cluster.dh_group is not None else None
            server_config = ServerConfig(
                certificate=default_cert,
                private_key=key,
                supported_suites=self._suites_for(spec.supports_dhe, spec.supports_ecdhe),
                session_cache=caches.get(cluster.cache_group)
                if cluster.cache_lifetime is not None
                else None,
                issue_session_ids=spec.issue_session_ids,
                stek_store=steks.get(cluster.stek_group) if spec.tickets else None,
                ticket_policy=TicketPolicy(
                    lifetime_hint_seconds=spec.ticket_hint,
                    accept_window_seconds=spec.ticket_window,
                    ticket_format=spec.ticket_format,
                ),
                dh_group=self.dh_group,
                curve=self.curve,
                kex_policy=(
                    shared_kex.policy
                    if shared_kex is not None
                    else KexReusePolicy(ReuseMode.FRESH)
                ),
                sni_certificates=sni_certs,
            )
            server = self._new_server(server_config, kex_cache=shared_kex)

            # Each cluster fronts a handful of IPs; every customer name
            # resolves to one or two of them.
            ip_count = max(1, min(4, cluster_count // 8 + 1))
            ips = [autonomous_system.allocate_address() for _ in range(ip_count)]
            for ip in ips:
                self.network.register(Endpoint(ip=ip, backends=[server]))
            if cluster.named_domains and spec.name == "google":
                # §7.2: the provider's mail protocols terminate TLS on
                # the same infrastructure — same process, same STEK.
                for ip in ips:
                    for port in MAIL_TLS_PORTS:
                        self.network.register(
                            Endpoint(ip=ip, port=port, backends=[server])
                        )
                self.dns.add_a(GOOGLE_MX_HOST, ips[0])
            for i, name in enumerate(names):
                primary = ips[i % len(ips)]
                self.dns.add_a(name, primary)
                if len(ips) > 1 and i % 3 == 0:
                    self.dns.add_a(name, ips[(i + 1) % len(ips)])
                behavior = DomainBehavior(
                    https=True,
                    trusted_cert=True,
                    supports_dhe=spec.supports_dhe,
                    supports_ecdhe=spec.supports_ecdhe,
                    issue_session_ids=spec.issue_session_ids,
                    session_cache_lifetime=cluster.cache_lifetime,
                    tickets=spec.tickets,
                    ticket_hint_seconds=spec.ticket_hint,
                    ticket_window_seconds=spec.ticket_window,
                    ticket_format=spec.ticket_format,
                    stek_rotation_seconds=spec.stek_rotation,
                    stek_retain_previous=spec.stek_retain,
                    dhe_reuse_seconds=(
                        (spec.kex_reuse_seconds if spec.kex_reuse_seconds is not None
                         else float("inf"))
                        if cluster.dh_group is not None and spec.supports_dhe
                        else None
                    ),
                    ecdhe_reuse_seconds=(
                        (spec.kex_reuse_seconds if spec.kex_reuse_seconds is not None
                         else float("inf"))
                        if cluster.dh_group is not None and spec.supports_ecdhe
                        else None
                    ),
                )
                domains.append(
                    Domain(
                        name=name,
                        rank=0,  # assigned later
                        behavior=behavior,
                        provider=spec.name,
                        ips=[primary],
                        asn=spec.asn,
                        servers=[server],
                        stek_store=steks.get(cluster.stek_group) if spec.tickets else None,
                        session_cache=caches.get(cluster.cache_group)
                        if cluster.cache_lifetime is not None
                        else None,
                        kex_cache=shared_kex or server.kex_cache,
                        certificate=sni_certs[name][0],
                    )
                )
        return domains

    # -- independent domain construction -----------------------------------

    def _build_served_domain(
        self,
        name: str,
        behavior: DomainBehavior,
        notable: bool,
        ecosystem_hooks: list,
        lb_jitter: bool = False,
    ) -> Domain:
        """Create one independently hosted domain with its own process."""
        autonomous_system = self._next_generic_as()
        key = self._next_key()
        cert = self._issue_cert([name, f"www.{name}"], key, trusted=behavior.trusted_cert)

        cache = (
            SessionCache(behavior.session_cache_lifetime)
            if behavior.session_cache_lifetime is not None
            else None
        )
        stek_store = None
        extra_stores: list[STEKStore] = []
        if behavior.tickets:
            stek_store = self._new_stek_store(
                behavior.ticket_format, behavior.stek_retain_previous
            )
            ecosystem_hooks.append(
                (stek_store, behavior.stek_rotation_seconds,
                 _KEY_NAME_LENGTH[behavior.ticket_format])
            )

        # DHE and ECDHE reuse are configured independently, like real
        # stacks (netflix reused both; whatsapp only its ECDHE scalar).
        dh_policy = self._kex_policy(behavior.dhe_reuse_seconds)
        ec_policy = self._kex_policy(behavior.ecdhe_reuse_seconds)

        def make_config(store: Optional[STEKStore]) -> ServerConfig:
            return ServerConfig(
                certificate=cert,
                private_key=key,
                supported_suites=self._suites_for(
                    behavior.supports_dhe, behavior.supports_ecdhe
                ),
                session_cache=cache,
                issue_session_ids=behavior.issue_session_ids,
                stek_store=store,
                ticket_policy=TicketPolicy(
                    lifetime_hint_seconds=behavior.ticket_hint_seconds,
                    accept_window_seconds=behavior.ticket_window_seconds,
                    ticket_format=behavior.ticket_format,
                ),
                dh_group=self.dh_group,
                curve=self.curve,
                kex_policy=dh_policy,
                kex_policy_ec=ec_policy,
            )

        servers = [self._new_server(make_config(stek_store))]
        if lb_jitter and behavior.tickets:
            # A second, unsynchronized backend: its own STEK on the same
            # rotation schedule — the paper's "poorly configured load
            # balancer" jitter source.
            second_store = self._new_stek_store(
                behavior.ticket_format, behavior.stek_retain_previous
            )
            ecosystem_hooks.append(
                (second_store, behavior.stek_rotation_seconds,
                 _KEY_NAME_LENGTH[behavior.ticket_format])
            )
            extra_stores.append(second_store)
            servers.append(self._new_server(make_config(second_store)))

        ip = autonomous_system.allocate_address()
        self.network.register(
            Endpoint(ip=ip, backends=list(servers), affinity=len(servers) == 1)
        )
        ips = [ip]
        if not lb_jitter and self.rng_behavior.random() < self.config.multi_ip_fraction:
            second_ip = autonomous_system.allocate_address()
            self.network.register(Endpoint(ip=second_ip, backends=[servers[0]]))
            self.dns.add_a(name, second_ip)
            ips.append(second_ip)
        self.dns.add_a(name, ip)

        return Domain(
            name=name,
            rank=0,
            behavior=behavior,
            notable=notable,
            ips=ips,
            asn=autonomous_system.asn,
            servers=servers,
            stek_store=stek_store,
            extra_stek_stores=extra_stores,
            session_cache=cache,
            kex_cache=servers[0].kex_cache,
            certificate=cert,
        )

    def _build_dark_domain(self, name: str, behavior: DomainBehavior) -> Domain:
        """A domain with no HTTPS service (DNS may or may not resolve)."""
        if self.rng_behavior.random() < 0.7:
            autonomous_system = self._next_generic_as()
            ip = autonomous_system.allocate_address()
            self.dns.add_a(name, ip)  # resolves, but nothing listens on 443
            return Domain(name=name, rank=0, behavior=behavior,
                          ips=[ip], asn=autonomous_system.asn)
        return Domain(name=name, rank=0, behavior=behavior)

    def _behavior_for_notable(self, spec: NotableDomain) -> DomainBehavior:
        return DomainBehavior(
            https=True,
            trusted_cert=True,
            supports_dhe=spec.supports_dhe,
            supports_ecdhe=True,
            issue_session_ids=True,
            session_cache_lifetime=spec.session_cache_lifetime,
            tickets=True,
            ticket_hint_seconds=int(spec.ticket_window),
            ticket_window_seconds=spec.ticket_window,
            stek_rotation_seconds=spec.stek_rotation,
            dhe_reuse_seconds=spec.dhe_reuse,
            ecdhe_reuse_seconds=spec.ecdhe_reuse,
        )

    # -- main build --------------------------------------------------------

    def build(self) -> Ecosystem:
        config = self.config
        self._make_generic_ases()
        hooks: list = []

        provider_domains: list[Domain] = []
        for spec in PROVIDERS:
            provider_domains.extend(self._build_provider(spec, hooks))

        notable_domains = [
            self._build_served_domain(
                spec.name, self._behavior_for_notable(spec), notable=True,
                ecosystem_hooks=hooks,
            )
            for spec in NOTABLE_DOMAINS
        ]
        for domain, spec in zip(notable_domains, NOTABLE_DOMAINS):
            domain.rank = spec.rank

        remaining = config.population - len(provider_domains) - len(notable_domains)
        if remaining < 0:
            raise ValueError(
                f"population {config.population} too small for "
                f"{len(provider_domains)} provider + {len(notable_domains)} notable domains"
            )
        independents: list[Domain] = []
        for i in range(remaining):
            name = f"site{i:06d}.indie.example"
            behavior = sample_behavior(self.rng_behavior)
            if not behavior.https:
                independents.append(self._build_dark_domain(name, behavior))
                continue
            jitter = (
                behavior.tickets
                and self.rng_behavior.random() < config.lb_jitter_fraction
            )
            independents.append(
                self._build_served_domain(
                    name, behavior, notable=False, ecosystem_hooks=hooks,
                    lb_jitter=jitter,
                )
            )

        reserve_count = int(config.population * config.reserve_fraction)
        reserve: list[Domain] = []
        for i in range(reserve_count):
            name = f"res{i:06d}.churn.example"
            behavior = sample_behavior(self.rng_behavior)
            if not behavior.https:
                reserve.append(self._build_dark_domain(name, behavior))
            else:
                reserve.append(
                    self._build_served_domain(
                        name, behavior, notable=False, ecosystem_hooks=hooks
                    )
                )

        # Rank assignment: notables keep their pinned ranks; named
        # provider domains (google.com, yandex.ru…) get the lowest free
        # ranks; anonymous provider *customers* (blogs, shops, proxied
        # long-tail sites) are biased toward the unpopular end, like the
        # real hosted long tail; independents fill everything else.
        taken = {d.rank for d in notable_domains}
        all_unranked = provider_domains + independents
        free_ranks = [
            r for r in range(1, config.population + 1) if r not in taken
        ]
        named_provider = [d for d in all_unranked if not d.name.split(".")[0][-1].isdigit()]
        low_ranks = sorted(free_ranks)[: len(named_provider)]
        for domain, rank in zip(named_provider, low_ranks):
            domain.rank = rank
        low_set = set(low_ranks)
        rest = sorted(r for r in free_ranks if r not in low_set)
        customers = [d for d in provider_domains if d not in named_provider]
        other = [d for d in independents if d not in named_provider]
        # Customers draw from the bottom 70% of remaining ranks.
        cutoff = max(0, len(rest) - max(len(customers), int(len(rest) * 0.7)))
        bottom = rest[cutoff:]
        self.rng_ranks.shuffle(bottom)
        for domain, rank in zip(customers, bottom):
            domain.rank = rank
        used = {d.rank for d in customers}
        remaining = [r for r in rest if r not in used]
        self.rng_ranks.shuffle(remaining)
        for domain, rank in zip(other, remaining):
            domain.rank = rank

        # MX records (§7.2): a slice of the population uses Google mail.
        all_active = notable_domains + provider_domains + independents
        for domain in all_active:
            roll = self.rng_behavior.random()
            if domain.provider == "google" or roll < config.mx_google_fraction:
                self.dns.add_mx(domain.name, GOOGLE_MX_HOST)
            elif roll < config.mx_google_fraction + 0.5:
                self.dns.add_mx(domain.name, f"mail.{domain.name}")

        blacklist_count = int(round(config.blacklist_fraction * len(all_active)))
        blacklist = {
            d.name
            for d in self.rng_behavior.sample(
                [d for d in all_active if not d.notable and d.provider is None],
                min(blacklist_count,
                    sum(1 for d in all_active if not d.notable and d.provider is None)),
            )
        }
        ecosystem = Ecosystem(
            config=config,
            clock=self.clock,
            network=self.network,
            dns=self.dns,
            as_registry=self.as_registry,
            trust_store=self.trust_store,
            domains=all_active,
            rotation_rng=self.rng_rotation,
            churn_rng=self.rng_churn,
            reserve=reserve,
            blacklist=blacklist,
        )
        for store, interval, key_name_length in hooks:
            ecosystem.schedule_rotation(store, interval, key_name_length)
        return ecosystem


def build_ecosystem(config: Optional[EcosystemConfig] = None) -> Ecosystem:
    """Build a deterministic synthetic HTTPS ecosystem."""
    return _Builder(config or EcosystemConfig()).build()


__all__ = ["Ecosystem", "EcosystemConfig", "Domain", "build_ecosystem", "GOOGLE_MX_HOST"]
