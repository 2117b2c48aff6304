"""Property-based tests (hypothesis) for the crypto substrate."""

import hmac

from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.crypto.aes import AES
from repro.crypto.mac import hmac_sha256
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_xor, pkcs7_pad, pkcs7_unpad
from repro.crypto.prf import p_sha256
from repro.crypto.rng import DeterministicRandom

KEY16 = st.binary(min_size=16, max_size=16)
BLOCK = st.binary(min_size=16, max_size=16)


@given(key=KEY16, block=BLOCK)
@settings(max_examples=60, deadline=None)
def test_aes_decrypt_inverts_encrypt(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=KEY16, block=BLOCK)
@settings(max_examples=40, deadline=None)
def test_aes_encrypt_is_a_permutation(key, block):
    cipher = AES(key)
    out = cipher.encrypt_block(block)
    assert len(out) == 16
    # A permutation never maps two inputs to one output; spot-check by
    # flipping one bit of the input.
    flipped = bytes([block[0] ^ 1]) + block[1:]
    assert cipher.encrypt_block(flipped) != out


@given(data=st.binary(max_size=200))
@settings(max_examples=80, deadline=None)
def test_pkcs7_roundtrip(data):
    assert pkcs7_unpad(pkcs7_pad(data)) == data


@given(key=KEY16, iv=KEY16, data=st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_cbc_roundtrip(key, iv, data):
    assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, data)) == data


@given(key=KEY16, nonce=KEY16, data=st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_ctr_involution(key, nonce, data):
    assert ctr_xor(key, nonce, ctr_xor(key, nonce, data)) == data


@given(secret=st.binary(min_size=1, max_size=48), seed=st.binary(max_size=32),
       n=st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_prf_length_and_determinism(secret, seed, n):
    a = p_sha256(secret, seed, n)
    b = p_sha256(secret, seed, n)
    assert len(a) == n and a == b


@given(k=st.integers(min_value=1, max_value=ec.TINY.n - 1))
@settings(max_examples=80, deadline=None)
def test_tiny_curve_scalar_mult_closure(k):
    point = ec.scalar_mult(ec.TINY, k, ec.base_point(ec.TINY))
    assert ec.is_on_curve(ec.TINY, point)
    assert point is not None  # k < n so never the identity


@given(a=st.integers(min_value=1, max_value=ec.TINY.n - 1),
       b=st.integers(min_value=1, max_value=ec.TINY.n - 1))
@settings(max_examples=60, deadline=None)
def test_tiny_curve_scalar_homomorphism(a, b):
    g = ec.base_point(ec.TINY)
    lhs = ec.scalar_mult(ec.TINY, (a * b) % ec.TINY.n, g)
    rhs = ec.scalar_mult(ec.TINY, a, ec.scalar_mult(ec.TINY, b, g))
    assert lhs == rhs


@given(k=st.integers(min_value=0, max_value=2 * ec.P256.n))
@settings(max_examples=40, deadline=None)
def test_p256_fixed_base_matches_generic(k):
    assert ec.scalar_mult_base(ec.P256, k) == ec.scalar_mult(
        ec.P256, k, ec.base_point(ec.P256)
    )


@given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(min_value=0, max_value=128))
@settings(max_examples=40, deadline=None)
def test_rng_reproducibility(seed, n):
    assert DeterministicRandom(seed).random_bytes(n) == DeterministicRandom(seed).random_bytes(n)


@given(seed=st.integers(min_value=0, max_value=2**32),
       upper=st.integers(min_value=1, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_rng_randbelow_in_range(seed, upper):
    value = DeterministicRandom(seed).randbelow(upper)
    assert 0 <= value < upper


@given(key=st.binary(max_size=200), data=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_hmac_sha256_matches_stdlib_hmac(key, data):
    assert hmac_sha256(key, data) == hmac.new(key, data, "sha256").digest()
