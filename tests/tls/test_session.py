"""Session state, key derivation, and session-cache tests."""

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.tls.ciphers import (
    TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
    TLS_RSA_WITH_AES_256_CBC_SHA,
)
from repro.tls.constants import ProtocolVersion
from repro.tls.session import SessionCache, SessionState, derive_connection_keys

RNG = DeterministicRandom(77)


def make_session(suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA, created_at=0.0):
    return SessionState(
        master_secret=RNG.random_bytes(48),
        cipher_suite=suite,
        version=ProtocolVersion.TLS12,
        created_at=created_at,
        domain="example.com",
    )


def test_session_requires_48_byte_master():
    with pytest.raises(ValueError):
        SessionState(
            master_secret=b"short",
            cipher_suite=TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
            version=ProtocolVersion.TLS12,
            created_at=0.0,
        )


def test_key_derivation_structure():
    session = make_session()
    keys = derive_connection_keys(session, bytes(32), bytes(range(32)))
    assert len(keys.client_write_key) == 16
    assert len(keys.server_write_key) == 16
    assert len(keys.client_write_iv) == 16
    assert len(keys.server_write_iv) == 16
    assert len(keys.client_mac_key) == 32
    assert keys.client_write_key != keys.server_write_key


def test_key_derivation_256_bit_suite():
    session = make_session(suite=TLS_RSA_WITH_AES_256_CBC_SHA)
    keys = derive_connection_keys(session, bytes(32), bytes(32))
    assert len(keys.client_write_key) == 32


def test_key_derivation_depends_on_randoms():
    session = make_session()
    a = derive_connection_keys(session, bytes(32), bytes(32))
    b = derive_connection_keys(session, b"\x01" + bytes(31), bytes(32))
    assert a.client_write_key != b.client_write_key


def test_cache_store_lookup():
    cache = SessionCache(lifetime_seconds=100)
    session = make_session()
    cache.store(b"id-1", session, now=0.0)
    assert cache.lookup(b"id-1", now=50.0) is session
    # A hit keeps the entry.
    assert len(cache) == 1
    assert cache.lookup(b"id-1", now=60.0) is session


def test_cache_expiry():
    cache = SessionCache(lifetime_seconds=100)
    cache.store(b"id-1", make_session(), now=0.0)
    assert cache.lookup(b"id-1", now=101.0) is None
    # Expired entries are dropped on access.
    assert len(cache) == 0


def test_cache_exact_boundary_still_valid():
    cache = SessionCache(lifetime_seconds=100)
    cache.store(b"id", make_session(), now=0.0)
    assert cache.lookup(b"id", now=100.0) is not None


def test_cache_unknown_id_misses():
    cache = SessionCache(lifetime_seconds=100)
    assert cache.lookup(b"nope", now=0.0) is None


def test_cache_capacity_eviction_oldest_first():
    cache = SessionCache(lifetime_seconds=1000, capacity=3)
    for i in range(3):
        cache.store(b"id%d" % i, make_session(), now=float(i))
    cache.store(b"id3", make_session(), now=3.0)
    assert cache.lookup(b"id0", now=4.0) is None   # evicted
    assert cache.lookup(b"id3", now=4.0) is not None


def test_cache_overwrite_same_id_no_eviction():
    cache = SessionCache(lifetime_seconds=1000, capacity=2)
    cache.store(b"a", make_session(), now=0.0)
    cache.store(b"b", make_session(), now=1.0)
    cache.store(b"a", make_session(), now=2.0)  # refresh, not insert
    assert cache.lookup(b"b", now=3.0) is not None


def test_cache_expire_sweep():
    cache = SessionCache(lifetime_seconds=10)
    cache.store(b"old", make_session(), now=0.0)
    cache.store(b"new", make_session(), now=8.0)
    removed = cache.expire(now=15.0)
    assert removed == 1
    assert len(cache) == 1


def test_cache_clear_models_restart():
    cache = SessionCache(lifetime_seconds=1000)
    cache.store(b"x", make_session(), now=0.0)
    cache.clear()
    assert cache.lookup(b"x", now=1.0) is None


def test_live_sessions_snapshot():
    cache = SessionCache(lifetime_seconds=100)
    fresh = make_session()
    stale = make_session()
    cache.store(b"fresh", fresh, now=50.0)
    cache.store(b"stale", stale, now=0.0)
    live = cache.live_sessions(now=120.0)
    assert fresh in live and stale not in live


def test_cache_invalid_parameters():
    with pytest.raises(ValueError):
        SessionCache(lifetime_seconds=-1)
    with pytest.raises(ValueError):
        SessionCache(lifetime_seconds=10, capacity=0)
