"""Ephemeral key cache and ServerKeyExchange signing tests."""

import pytest

from repro.crypto import dh, ec, rsa
from repro.crypto.rng import DeterministicRandom
from repro.tls.keyexchange import (
    EphemeralKeyCache,
    KexReusePolicy,
    ReuseMode,
    build_dhe_kex,
    build_ecdhe_kex,
    verify_kex_signature,
)

RNG = DeterministicRandom(99)
SIGNING_KEY = rsa.generate_keypair(512, RNG)
CR, SR = RNG.random_bytes(32), RNG.random_bytes(32)


def test_policy_validation():
    with pytest.raises(ValueError):
        KexReusePolicy(ReuseMode.TIMED, lifetime_seconds=0)
    KexReusePolicy(ReuseMode.TIMED, lifetime_seconds=60)  # ok
    KexReusePolicy(ReuseMode.FRESH)  # lifetime ignored


def test_fresh_mode_regenerates_every_call(monkeypatch):
    generated = []
    real = ec.generate_keypair

    def counting(curve, rng):
        generated.append(curve)
        return real(curve, rng)

    monkeypatch.setattr(ec, "generate_keypair", counting)
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.FRESH))
    a = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    b = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    assert a.public != b.public
    assert generated == [ec.SECP128R1, ec.SECP128R1]


def test_timed_mode_reuses_within_lifetime():
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.TIMED, 100.0))
    a = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    b = cache.get_ec(ec.SECP128R1, RNG, now=99.0)
    assert a is b
    c = cache.get_ec(ec.SECP128R1, RNG, now=100.0)
    assert c is not a


def test_process_lifetime_reuses_until_restart():
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.PROCESS_LIFETIME))
    a = cache.get_dh(dh.TEST_GROUP, RNG, now=0.0)
    b = cache.get_dh(dh.TEST_GROUP, RNG, now=10**9)
    assert a is b
    cache.restart()
    c = cache.get_dh(dh.TEST_GROUP, RNG, now=10**9)
    assert c is not a


def test_dh_and_ec_slots_are_independent():
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.PROCESS_LIFETIME))
    dh_pair = cache.get_dh(dh.TEST_GROUP, RNG, now=0.0)
    ec_pair = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    # Requesting one family must not evict the other.
    assert cache.get_dh(dh.TEST_GROUP, RNG, now=1.0) is dh_pair
    assert cache.get_ec(ec.SECP128R1, RNG, now=1.0) is ec_pair


def test_per_family_policies():
    cache = EphemeralKeyCache(
        KexReusePolicy(ReuseMode.PROCESS_LIFETIME),
        ec_policy=KexReusePolicy(ReuseMode.FRESH),
    )
    dh_a = cache.get_dh(dh.TEST_GROUP, RNG, now=0.0)
    ec_a = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    assert cache.get_dh(dh.TEST_GROUP, RNG, now=1.0) is dh_a
    assert cache.get_ec(ec.SECP128R1, RNG, now=1.0) is not ec_a


def test_group_change_regenerates():
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.PROCESS_LIFETIME))
    a = cache.get_dh(dh.TEST_GROUP, RNG, now=0.0)
    b = cache.get_dh(dh.OAKLEY_GROUP_2, RNG, now=0.0)
    assert a.group is not b.group


def test_current_values_expose_secrets():
    cache = EphemeralKeyCache(KexReusePolicy(ReuseMode.PROCESS_LIFETIME))
    assert cache.current_dh is None and cache.current_ec is None
    pair = cache.get_ec(ec.SECP128R1, RNG, now=0.0)
    assert cache.current_ec is pair


def test_dhe_kex_signature_verifies():
    keypair = dh.generate_keypair(dh.TEST_GROUP, RNG)
    message = build_dhe_kex(keypair, SIGNING_KEY, CR, SR)
    assert message.dh_public == keypair.public
    assert verify_kex_signature(message, SIGNING_KEY.public, CR, SR)


def test_ecdhe_kex_signature_verifies():
    keypair = ec.generate_keypair(ec.SECP128R1, RNG)
    message = build_ecdhe_kex(keypair, SIGNING_KEY, CR, SR)
    assert verify_kex_signature(message, SIGNING_KEY.public, CR, SR)
    assert ec.decode_point(ec.SECP128R1, message.point) == keypair.public


def test_signature_binds_randoms():
    keypair = dh.generate_keypair(dh.TEST_GROUP, RNG)
    message = build_dhe_kex(keypair, SIGNING_KEY, CR, SR)
    other_random = RNG.random_bytes(32)
    assert not verify_kex_signature(message, SIGNING_KEY.public, other_random, SR)
    assert not verify_kex_signature(message, SIGNING_KEY.public, CR, other_random)


def test_signature_binds_params():
    keypair = dh.generate_keypair(dh.TEST_GROUP, RNG)
    message = build_dhe_kex(keypair, SIGNING_KEY, CR, SR)
    import dataclasses

    forged = dataclasses.replace(message, dh_public=message.dh_public + 1)
    assert not verify_kex_signature(forged, SIGNING_KEY.public, CR, SR)


def test_signature_wrong_key_rejected():
    keypair = ec.generate_keypair(ec.SECP128R1, RNG)
    message = build_ecdhe_kex(keypair, SIGNING_KEY, CR, SR)
    other = rsa.generate_keypair(512, RNG)
    assert not verify_kex_signature(message, other.public, CR, SR)
