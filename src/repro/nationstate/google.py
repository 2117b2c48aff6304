"""Target analysis of a Google-like provider (paper §7.2).

From the attacker's chair: how often does the target rotate its STEK,
how long does it accept old tickets, how many domains share the key,
how many Alexa domains route mail through it — and, given the stolen
key, does recorded traffic actually decrypt?

Every measurement is scanner-side (connections and DNS); the only
ground-truth access is the *theft* itself, which is the attack being
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.rng import DeterministicRandom
from ..hosting.ecosystem import Ecosystem, GOOGLE_MX_HOST, MAIL_TLS_PORTS
from ..netsim.clock import HOUR
from ..tls.ticket import extract_key_name, sniff_ticket_format
from ..scanner.grab import ZGrabber
from ..wireformat import DecodeError
from .adversary import NationStateAttacker, PassiveCollector


@dataclass
class TargetAnalysisReport:
    """The §7.2 findings for one target provider."""

    target_domain: str
    # DNS concentration.
    mx_domains: int = 0
    mx_total: int = 0
    # STEK behavior, measured from outside.
    observed_stek_ids: list[str] = field(default_factory=list)
    rotation_seconds: Optional[float] = None
    acceptance_seconds: Optional[float] = None
    # Sharing.
    shared_stek_domains: int = 0
    # §7.2: TLS mail protocols (SMTPS/IMAPS/POP3S) using the same STEK.
    mail_ports_sharing_stek: list[int] = field(default_factory=list)
    # Retrospective decryption demo.
    connections_captured: int = 0
    connections_decrypted: int = 0
    sample_plaintext: bytes = b""

    @property
    def mx_fraction(self) -> float:
        return self.mx_domains / self.mx_total if self.mx_total else 0.0

    @property
    def steks_per_day(self) -> float:
        """How many keys must be stolen per day for full coverage."""
        if not self.rotation_seconds:
            return 0.0
        return 86400.0 / self.rotation_seconds


def measure_mx_concentration(ecosystem: Ecosystem) -> tuple[int, int]:
    """How many Alexa domains MX through the Google-like provider."""
    pointing = 0
    total = 0
    for _, name in ecosystem.alexa_list():
        total += 1
        if GOOGLE_MX_HOST in ecosystem.dns.mx(name):
            pointing += 1
    return pointing, total


def measure_stek_rotation(
    grabber: ZGrabber,
    domain: str,
    probe_interval: float = 1 * HOUR,
    horizon: float = 72 * HOUR,
) -> tuple[list[str], Optional[float]]:
    """Connect periodically; the median gap between STEK-id changes is
    the rotation interval (Google's measured 14 hours)."""
    ecosystem = grabber.ecosystem
    observed: list[tuple[float, str]] = []
    deadline = ecosystem.clock.now() + horizon
    while ecosystem.clock.now() < deadline:
        observation = grabber.grab(domain)
        if observation.success and observation.stek_id:
            observed.append((observation.timestamp, observation.stek_id))
        ecosystem.advance_to(ecosystem.clock.now() + probe_interval)
    ids = [stek_id for _, stek_id in observed]
    change_times = [
        observed[i][0]
        for i in range(1, len(observed))
        if observed[i][1] != observed[i - 1][1]
    ]
    rotation = None
    if len(change_times) >= 2:
        gaps = [b - a for a, b in zip(change_times, change_times[1:])]
        gaps.sort()
        rotation = gaps[len(gaps) // 2]
    return ids, rotation


def measure_ticket_acceptance(
    grabber: ZGrabber,
    domain: str,
    probe_interval: float = 1 * HOUR,
    ceiling: float = 48 * HOUR,
) -> Optional[float]:
    """How long one ticket keeps resuming (Google: up to 28 hours)."""
    ecosystem = grabber.ecosystem
    result, _, _ = grabber.connect(domain)
    if result is None or not result.ok or result.new_ticket is None:
        return None
    ticket = result.new_ticket.ticket
    session = result.session
    issued_at = ecosystem.clock.now()
    last_success: Optional[float] = None
    while ecosystem.clock.now() - issued_at < ceiling:
        ecosystem.advance_to(ecosystem.clock.now() + probe_interval)
        probe = None
        for _ in range(3):  # tolerate transient connect failures
            probe, _, _ = grabber.connect(
                domain, ticket=ticket, saved_session=session
            )
            if probe is not None:
                break
        if probe is not None and probe.ok and probe.resumed:
            last_success = ecosystem.clock.now() - issued_at
        elif last_success is not None:
            break
    return last_success


def measure_cross_protocol_stek(
    grabber: ZGrabber, domain: str
) -> list[int]:
    """Which TLS mail ports present the same STEK as HTTPS (§7.2).

    The paper found Google used one STEK across HTTPS, SMTPS, IMAPS,
    and POP3S — every protocol's traffic falls to the same stolen key.
    """
    https = grabber.grab(domain)
    if not https.success or not https.stek_id:
        return []
    sharing = []
    for port in MAIL_TLS_PORTS:
        result, _, _ = grabber.connect(domain, port=port)
        if result is None or not result.ok or result.new_ticket is None:
            continue
        ticket = result.new_ticket.ticket
        try:
            fmt = sniff_ticket_format(ticket)
            stek_id = extract_key_name(ticket, fmt).hex()
        except DecodeError:
            continue
        if stek_id == https.stek_id:
            sharing.append(port)
    return sharing


def count_shared_stek_domains(grabber: ZGrabber, domain: str) -> int:
    """Scan the list once; count domains presenting the target's STEK id."""
    ecosystem = grabber.ecosystem
    target = grabber.grab(domain)
    if not target.success or not target.stek_id:
        return 0
    shared = 0
    for rank, name in ecosystem.alexa_list():
        if name in ecosystem.blacklist:
            continue
        observation = grabber.grab(name, rank=rank)
        if observation.stek_id == target.stek_id:
            shared += 1
    return shared


def run_decryption_demo(
    grabber: ZGrabber,
    ecosystem: Ecosystem,
    domain: str,
    connections: int = 5,
) -> tuple[int, int, bytes]:
    """Capture traffic passively, steal the STEK, decrypt after the fact."""
    collector = PassiveCollector()
    for index in range(connections):
        result, _, _ = grabber.connect(domain, capture=True)
        if result is None or not result.ok:
            continue
        grabber.client.exchange_data(
            result, b"GET /inbox?msg=%d HTTP/1.1\r\nHost: " % index + domain.encode()
        )
        collector.intercept(domain, ecosystem.clock.now(), result.captured)
    # The theft: the attacker obtains the provider's current+retained
    # keys (implant, compelled disclosure, or memory disclosure bug).
    attacker = NationStateAttacker()
    store = ecosystem.domain(domain).stek_store
    if store is not None:
        attacker.steal_steks(store.all_keys)
    outcomes = attacker.decrypt_all(collector)
    decrypted = [o for o in outcomes if o.success]
    sample = b""
    for outcome in decrypted:
        for plaintext in outcome.plaintexts:
            if b"GET /inbox" in plaintext:
                sample = plaintext
                break
        if sample:
            break
    return len(collector), len(decrypted), sample


def analyze_target(
    ecosystem: Ecosystem,
    target_domain: str = "google.com",
    seed: int = 404,
    rotation_horizon: float = 72 * HOUR,
) -> TargetAnalysisReport:
    """Full §7.2-style analysis against one target."""
    grabber = ZGrabber(ecosystem, DeterministicRandom(seed))
    report = TargetAnalysisReport(target_domain=target_domain)
    report.mx_domains, report.mx_total = measure_mx_concentration(ecosystem)
    report.shared_stek_domains = count_shared_stek_domains(grabber, target_domain)
    report.mail_ports_sharing_stek = measure_cross_protocol_stek(
        grabber, target_domain
    )
    report.observed_stek_ids, report.rotation_seconds = measure_stek_rotation(
        grabber, target_domain, horizon=rotation_horizon
    )
    report.acceptance_seconds = measure_ticket_acceptance(grabber, target_domain)
    captured, decrypted, sample = run_decryption_demo(
        grabber, ecosystem, target_domain
    )
    report.connections_captured = captured
    report.connections_decrypted = decrypted
    report.sample_plaintext = sample
    return report


def render_report(report: TargetAnalysisReport) -> str:
    """Human-readable §7.2 summary."""
    rotation = (
        f"{report.rotation_seconds / HOUR:.0f} h"
        if report.rotation_seconds
        else "not observed"
    )
    acceptance = (
        f"{report.acceptance_seconds / HOUR:.0f} h"
        if report.acceptance_seconds
        else "not observed"
    )
    lines = [
        f"Nation-state target analysis: {report.target_domain}",
        "",
        f"  MX records routed to target:   {report.mx_domains:,} of "
        f"{report.mx_total:,} ({report.mx_fraction:.1%})",
        f"  domains sharing the STEK:      {report.shared_stek_domains:,}",
        f"  mail ports sharing the STEK:   "
        f"{report.mail_ports_sharing_stek or 'none observed'}",
        f"  observed STEK rotation:        {rotation}",
        f"  ticket acceptance window:      {acceptance}",
        f"  keys to steal per day:         {report.steks_per_day:.1f}",
        f"  recorded connections:          {report.connections_captured}",
        f"  retrospectively decrypted:     {report.connections_decrypted}",
    ]
    if report.sample_plaintext:
        lines.append(f"  sample recovered plaintext:    {report.sample_plaintext[:60]!r}")
    return "\n".join(lines)


__all__ = [
    "TargetAnalysisReport",
    "analyze_target",
    "render_report",
    "measure_mx_concentration",
    "measure_stek_rotation",
    "measure_ticket_acceptance",
    "count_shared_stek_domains",
    "measure_cross_protocol_stek",
    "run_decryption_demo",
]
