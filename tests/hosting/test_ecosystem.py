"""Ecosystem builder and dynamics tests."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.crypto import rsa
from repro.hosting import EcosystemConfig, build_ecosystem
from repro.hosting.ecosystem import _Builder, _pki_keys
from repro.hosting.notable import NOTABLE_DOMAINS
from repro.netsim.clock import DAY
from repro.obs.metrics import METRICS
from repro.scanner import StudyConfig, run_study_with_stats
from repro.x509 import CertificateAuthority
from repro.x509.certificate import _signature


@pytest.fixture(scope="module")
def eco():
    return build_ecosystem(EcosystemConfig(population=460, seed=7))


def test_population_size(eco):
    assert len(eco.active_domains(0)) == 460


def test_build_is_deterministic():
    a = build_ecosystem(EcosystemConfig(population=380, seed=3))
    b = build_ecosystem(EcosystemConfig(population=380, seed=3))
    assert [d.name for d in a.active_domains(0)] == [d.name for d in b.active_domains(0)]
    assert [d.rank for d in a.active_domains(0)] == [d.rank for d in b.active_domains(0)]


def test_ranks_unique_and_dense(eco):
    ranks = sorted(d.rank for d in eco.active_domains(0))
    assert len(ranks) == len(set(ranks))
    assert ranks[0] == 1
    # Pinned notable ranks may exceed the scaled population (e.g.
    # symanteccloud.com at its paper rank 4120); everything else is
    # densely packed into 1..population.
    within = [r for r in ranks if r <= 460]
    assert len(within) >= 440


def test_notable_domains_pinned(eco):
    for spec in NOTABLE_DOMAINS:
        domain = eco.domain(spec.name)
        assert domain.rank == spec.rank
        assert domain.notable


def test_provider_domains_exist(eco):
    providers = {d.provider for d in eco.domains if d.provider}
    assert "cloudflare" in providers and "google" in providers


def test_provider_shares_stek_store(eco):
    cloudflare = [d for d in eco.domains if d.provider == "cloudflare"]
    stores = {id(d.stek_store) for d in cloudflare}
    assert len(stores) == 1  # one STEK group


def test_cloudflare_two_cache_groups(eco):
    cloudflare = [d for d in eco.domains if d.provider == "cloudflare"]
    caches = {id(d.session_cache) for d in cloudflare}
    assert len(caches) == 2


def test_google_named_services_present(eco):
    google = eco.domain("google.com")
    assert google.provider == "google"
    youtube = eco.domain("youtube.com")
    assert id(google.stek_store) == id(youtube.stek_store)


def test_yandex_group_never_rotates(eco):
    yandex = eco.domain("yandex.ru")
    key_before = yandex.stek_store.current.key_name
    eco.advance_days(5)
    assert yandex.stek_store.current.key_name == key_before


def test_rotations_fire(eco_factory=None):
    eco2 = build_ecosystem(EcosystemConfig(population=400, seed=9))
    google = eco2.domain("google.com")
    key_before = google.stek_store.current.key_name
    eco2.advance_days(1)  # google rotates every 14 h
    assert google.stek_store.current.key_name != key_before
    # The rotation retired the old key into the acceptance window.
    assert [k.key_name for k in google.stek_store.all_keys[1:]] == [key_before]


def test_notable_stek_rotation_schedule():
    eco2 = build_ecosystem(EcosystemConfig(population=400, seed=10))
    fc2 = eco2.domain("fc2.com")  # rotates every 18 days
    key_before = fc2.stek_store.current.key_name
    eco2.advance_days(17)
    assert fc2.stek_store.current.key_name == key_before
    eco2.advance_days(2)
    assert fc2.stek_store.current.key_name != key_before


def test_churn_replaces_domains():
    eco2 = build_ecosystem(
        EcosystemConfig(population=400, seed=11, churn_daily_fraction=0.02)
    )
    day0 = {d.name for d in eco2.active_domains(0)}
    eco2.advance_days(5)
    day5 = {d.name for d in eco2.active_domains(5)}
    assert len(day5) == len(day0)
    assert day0 != day5
    left = day0 - day5
    assert left and all(name.startswith("site") for name in left)


def test_churn_never_touches_notable_or_provider():
    eco2 = build_ecosystem(
        EcosystemConfig(population=400, seed=12, churn_daily_fraction=0.05)
    )
    eco2.advance_days(6)
    active = {d.name for d in eco2.active_domains(6)}
    for spec in NOTABLE_DOMAINS:
        assert spec.name in active


def test_always_present_excludes_churned():
    eco2 = build_ecosystem(
        EcosystemConfig(population=400, seed=13, churn_daily_fraction=0.02)
    )
    eco2.advance_days(5)
    always = {d.name for d in eco2.always_present_domains(5)}
    active0 = {d.name for d in eco2.active_domains(0)}
    active5 = {d.name for d in eco2.active_domains(5)}
    assert always <= active0 and always <= active5


def test_alexa_list_sorted_by_rank(eco):
    listing = eco.alexa_list(0)
    assert listing == sorted(listing)


def test_https_domains_have_endpoints(eco):
    for domain in eco.active_domains(0)[:80]:
        if not domain.https:
            continue
        address = eco.dns.resolve_all(domain.name)[0]
        assert eco.network.endpoint_at(address) is not None


def test_dark_domains_unreachable(eco):
    from repro.netsim.dns import NXDomainError
    from repro.netsim.network import ConnectTimeout

    dark = [d for d in eco.active_domains(0) if not d.https]
    assert dark
    for domain in dark[:10]:
        try:
            address = eco.dns.resolve_all(domain.name)[0]
        except NXDomainError:
            continue
        assert eco.network.endpoint_at(address) is None


def test_blacklist_populated(eco):
    assert eco.blacklist
    assert all(eco.domain(name).provider is None for name in eco.blacklist)


def test_mx_records_present(eco):
    from repro.hosting.ecosystem import GOOGLE_MX_HOST

    pointing = sum(
        1 for _, name in eco.alexa_list(0) if GOOGLE_MX_HOST in eco.dns.mx(name)
    )
    assert pointing > 0


def test_ground_truth_group_accessors(eco):
    stek_groups = eco.ground_truth_stek_groups()
    assert any(len(members) > 10 for members in stek_groups.values())
    cache_groups = eco.ground_truth_cache_groups()
    assert any(len(members) > 10 for members in cache_groups.values())


_GROUPS_SCRIPT = """
import json
from repro.hosting import EcosystemConfig, build_ecosystem
eco = build_ecosystem(EcosystemConfig(population=330, seed=11))
print(json.dumps([eco.ground_truth_stek_groups(), eco.ground_truth_cache_groups()]))
"""


def test_ground_truth_group_keys_are_stable_across_processes():
    """Group keys are first-member indexes, not ``id()``: equal in every process."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _GROUPS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    eco = build_ecosystem(EcosystemConfig(population=330, seed=11))
    names = [domain.name for domain in eco.domains]
    for groups in json.loads(outputs[0]):
        for key, members in groups.items():
            assert names[int(key)] == members[0]


def test_population_too_small_rejected():
    with pytest.raises(ValueError):
        build_ecosystem(EcosystemConfig(population=100, seed=1))


def test_time_cannot_go_backwards(eco):
    with pytest.raises(ValueError):
        eco.advance_to(eco.clock.now() - 1)


# -- the per-process PKI key cache ---------------------------------------


def test_rejects_unusable_configs():
    with pytest.raises(ValueError, match="seed"):
        EcosystemConfig(seed=-1)
    with pytest.raises(ValueError, match="rsa_bits"):
        EcosystemConfig(rsa_bits=32)
    with pytest.raises(ValueError, match="key_pool_size"):
        EcosystemConfig(key_pool_size=0)


def test_builds_share_keys_but_not_cas():
    config = EcosystemConfig(population=320, seed=7)
    first, second = _Builder(config), _Builder(config)
    assert all(a is b for a, b in zip(first.key_pool, second.key_pool))
    for ca_a, ca_b in zip(first.cas + [first.untrusted_ca],
                          second.cas + [second.untrusted_ca]):
        assert ca_a is not ca_b
        assert ca_a.private_key is ca_b.private_key
    assert first.trust_store is not second.trust_store

    certs = [d.certificate for d in build_ecosystem(config).domains]
    assert certs == [d.certificate for d in build_ecosystem(config).domains]
    # Each build mints its serials from 1: the CAs were not shared.
    issued = [c for c in certs if c is not None]
    for issuer in {c.data.issuer for c in issued}:
        assert min(c.data.serial for c in issued if c.data.issuer == issuer) == 1


def test_key_cache_is_keyed_on_seed_bits_and_pool_size():
    base = _pki_keys(5, 128, 2)
    assert _pki_keys(5, 128, 2) is base
    assert _pki_keys(6, 128, 2)[0].n != base[0].n
    assert _pki_keys(5, 192, 2)[0].n != base[0].n
    larger = _pki_keys(5, 128, 3)
    assert larger is not base and len(larger) == len(base) + 1
    # One generator stream, drawn in order: a larger pool only appends.
    assert [k.n for k in larger[:len(base)]] == [k.n for k in base]


def test_warm_build_adds_no_metrics_series():
    config = EcosystemConfig(population=320, seed=11)
    build_ecosystem(config)  # fills the key cache
    before = METRICS.snapshot()
    build_ecosystem(config)
    assert METRICS.snapshot() == before


def _tiny_study(**overrides) -> StudyConfig:
    return StudyConfig(
        days=2, seed=404, run_probes=False, run_crossdomain=False,
        run_support_scans=False, **overrides,
    )


def test_sharded_study_generates_the_pki_once(monkeypatch):
    real = rsa.generate_keypair
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rsa, "generate_keypair", counting)
    _pki_keys.cache_clear()
    config = EcosystemConfig(population=320, seed=13)
    run_study_with_stats(build_ecosystem(config), _tiny_study(shards=4))
    assert len(calls) == 3 + config.key_pool_size  # 51, not 5 builds x 51


def test_sharded_study_signs_each_certificate_once(monkeypatch):
    real_issue, real_sign = CertificateAuthority.issue, rsa.RSAPrivateKey.sign
    issued, signed = [], []

    def counting_issue(self, *args, **kwargs):
        certificate = real_issue(self, *args, **kwargs)
        issued.append(certificate.data.tbs_bytes())
        return certificate

    def counting_sign(self, message):
        signed.append(message)
        return real_sign(self, message)

    monkeypatch.setattr(CertificateAuthority, "issue", counting_issue)
    monkeypatch.setattr(rsa.RSAPrivateKey, "sign", counting_sign)
    _signature.cache_clear()
    config = EcosystemConfig(population=320, seed=13)
    run_study_with_stats(build_ecosystem(config), _tiny_study(shards=4))
    certificates = set(issued)
    assert len(issued) == 5 * len(certificates)  # the same certificates, 5 builds
    # Handshake signatures also go through sign(); count only the TBS.
    signatures = Counter(message for message in signed if message in certificates)
    assert signatures == dict.fromkeys(certificates, 1)


def test_cold_and_warm_key_cache_give_identical_studies(tmp_path):
    ecosystem = build_ecosystem(EcosystemConfig(population=320, seed=17))
    digests = {}
    for workers in (1, 2):
        for state in ("cold", "warm"):
            if state == "cold":
                _pki_keys.cache_clear()
                _signature.cache_clear()
            stream = tmp_path / f"{state}-{workers}"
            run_study_with_stats(
                ecosystem,
                _tiny_study(shards=2, workers=workers, stream_dir=str(stream)),
            )
            digests[state, workers] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in stream.iterdir()
            }
    assert all(files == digests["cold", 1] for files in digests.values()), digests
