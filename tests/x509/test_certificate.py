"""Certificate model and trust-store tests."""

import pytest

from repro.crypto import rsa
from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import METRICS
from repro.x509 import CertificateAuthority, TrustStore, X509Certificate
from repro.x509.certificate import _signature

RNG = DeterministicRandom(123)
CA = CertificateAuthority("Root CA", rsa.generate_keypair(512, RNG))
OTHER_CA = CertificateAuthority("Other CA", rsa.generate_keypair(512, RNG))
LEAF_KEY = rsa.generate_keypair(512, RNG)


def make_store(*cas):
    store = TrustStore()
    for ca in cas:
        store.add_root(ca.name, ca.public_key)
    return store


def issue(names=("example.com",), ca=CA, nb=0.0, na=1e9):
    return ca.issue(list(names), LEAF_KEY.public, nb, na)


def test_issue_and_validate():
    cert = issue()
    store = make_store(CA)
    assert store.validate(cert, "example.com", now=100.0)


def test_serialize_parse_roundtrip():
    cert = issue(("example.com", "*.example.com"))
    parsed = X509Certificate.parse(cert.serialize())
    assert parsed.subject_names == cert.subject_names
    assert parsed.issuer == cert.issuer
    assert parsed.signature == cert.signature
    assert parsed.public_key.n == cert.public_key.n
    # Parsed certificate still validates.
    assert make_store(CA).validate(parsed, "example.com", now=1.0)


def test_parse_garbage_rejected():
    with pytest.raises(Exception):
        X509Certificate.parse(b"nonsense")


def test_untrusted_issuer_rejected():
    cert = issue(ca=OTHER_CA)
    result = make_store(CA).validate(cert, "example.com", now=1.0)
    assert not result
    assert "untrusted issuer" in result.reason


def test_forged_signature_rejected():
    cert = issue()
    forged = X509Certificate(data=cert.data, signature=cert.signature ^ 1)
    result = make_store(CA).validate(forged, "example.com", now=1.0)
    assert not result and "signature" in result.reason


def test_expired_certificate_rejected():
    cert = issue(nb=0.0, na=100.0)
    store = make_store(CA)
    assert store.validate(cert, "example.com", now=50.0)
    result = store.validate(cert, "example.com", now=101.0)
    assert not result and "expired" in result.reason


def test_not_yet_valid_rejected():
    cert = issue(nb=1000.0, na=2000.0)
    assert not make_store(CA).validate(cert, "example.com", now=500.0)


def test_hostname_mismatch_rejected():
    cert = issue()
    result = make_store(CA).validate(cert, "evil.com", now=1.0)
    assert not result and "hostname" in result.reason


def test_hostname_skipped_when_none():
    cert = issue()
    assert make_store(CA).validate(cert, None, now=1.0)


def test_exact_hostname_matching():
    cert = issue(("a.example.com",))
    assert cert.matches_hostname("a.example.com")
    assert cert.matches_hostname("A.EXAMPLE.COM")
    assert cert.matches_hostname("a.example.com.")
    assert not cert.matches_hostname("b.example.com")


def test_wildcard_matching_single_label_only():
    cert = issue(("*.example.com",))
    assert cert.matches_hostname("www.example.com")
    assert not cert.matches_hostname("example.com")
    assert not cert.matches_hostname("a.b.example.com")
    assert not cert.matches_hostname(".example.com")


def test_multiple_sans():
    cert = issue(("example.com", "example.net", "*.cdn.example.org"))
    assert cert.matches_hostname("example.net")
    assert cert.matches_hostname("x.cdn.example.org")
    assert not cert.matches_hostname("example.org")


def test_serials_increment():
    a = CA.issue(["a.com"], LEAF_KEY.public, 0, 100)
    b = CA.issue(["b.com"], LEAF_KEY.public, 0, 100)
    assert b.data.serial == a.data.serial + 1


def test_issue_validation_errors():
    with pytest.raises(ValueError):
        CA.issue([], LEAF_KEY.public, 0, 100)
    with pytest.raises(ValueError):
        CA.issue(["x.com"], LEAF_KEY.public, 100, 100)


def test_fingerprint_distinct():
    a = issue(("a.com",))
    b = issue(("b.com",))
    assert a.fingerprint() != b.fingerprint()
    assert len(a.fingerprint()) == 32


def test_trust_store_introspection():
    store = make_store(CA, OTHER_CA)
    assert store.trusts("Root CA")
    assert not store.trusts("Nobody")
    assert store.root_names() == ["Other CA", "Root CA"]


def _issue_serial(ca, serial):
    ca.next_serial = serial
    return ca.issue(["memo.example"], LEAF_KEY.public, 0, 100)


def test_signature_memo_hit_equals_a_fresh_signature():
    _signature.cache_clear()
    ca = CertificateAuthority("Memo CA", CA.private_key)
    first = _issue_serial(ca, 7)
    hits = _signature.cache_info().hits
    second = _issue_serial(ca, 7)
    assert _signature.cache_info().hits == hits + 1
    assert second == first
    assert second.signature == CA.private_key.sign(second.data.tbs_bytes())


def test_signature_memo_misses_on_a_new_serial_or_key():
    _signature.cache_clear()
    ca = CertificateAuthority("Memo CA", CA.private_key)
    base = _issue_serial(ca, 11)
    misses = _signature.cache_info().misses
    bumped = _issue_serial(ca, 12)
    other_key = _issue_serial(CertificateAuthority("Memo CA", OTHER_CA.private_key), 11)
    assert _signature.cache_info().misses == misses + 2
    assert bumped.signature == CA.private_key.sign(bumped.data.tbs_bytes())
    assert other_key.data.tbs_bytes() == base.data.tbs_bytes()
    assert other_key.signature == OTHER_CA.private_key.sign(base.data.tbs_bytes())
    assert other_key.signature != base.signature


def test_each_store_memoizes_its_own_signature_checks():
    cert = issue(("own-memo.example",))
    first, second = make_store(CA), make_store(CA)
    memo = (METRICS.counter("x509.sig_memo.hit"), METRICS.counter("x509.sig_memo.miss"))

    def validate(store):
        before = [counter.value for counter in memo]
        assert store.validate(cert, "own-memo.example", now=100.0)
        return tuple(counter.value - start for counter, start in zip(memo, before))

    assert validate(first) == (0, 1)
    assert validate(first) == (1, 0)
    # Same root, same certificate: a new store still verifies once.
    assert validate(second) == (0, 1)
    assert validate(second) == (1, 0)
