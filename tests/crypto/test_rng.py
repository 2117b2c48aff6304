"""Tests for the deterministic HMAC-DRBG."""

import hashlib
import hmac

import pytest

from repro.crypto.rng import DeterministicRandom


def test_same_seed_same_stream():
    a = DeterministicRandom(1234)
    b = DeterministicRandom(1234)
    assert a.random_bytes(64) == b.random_bytes(64)


def test_different_seeds_differ():
    assert DeterministicRandom(1).random_bytes(32) != DeterministicRandom(2).random_bytes(32)


def test_seed_types_accepted():
    assert DeterministicRandom(b"bytes").random_bytes(8)
    assert DeterministicRandom("string").random_bytes(8)
    assert DeterministicRandom(42).random_bytes(8)


def test_string_and_bytes_seeds_are_consistent():
    assert (
        DeterministicRandom("abc").random_bytes(16)
        == DeterministicRandom(b"abc").random_bytes(16)
    )


def test_random_bytes_length():
    rng = DeterministicRandom(1)
    for n in (0, 1, 31, 32, 33, 1000):
        assert len(rng.random_bytes(n)) == n


def test_random_bytes_negative_rejected():
    with pytest.raises(ValueError):
        DeterministicRandom(1).random_bytes(-1)


def test_random_int_bit_bound():
    rng = DeterministicRandom(5)
    for bits in (1, 7, 8, 9, 64, 257):
        for _ in range(20):
            assert 0 <= rng.random_int(bits) < (1 << bits)


def test_random_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRandom(1).random_int(0)


def test_randbelow_range_and_coverage():
    rng = DeterministicRandom(6)
    seen = {rng.randbelow(5) for _ in range(300)}
    assert seen == {0, 1, 2, 3, 4}


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRandom(1).randbelow(0)


def test_randrange_bounds():
    rng = DeterministicRandom(7)
    for _ in range(100):
        assert 10 <= rng.randrange(10, 20) < 20


def test_randrange_empty():
    with pytest.raises(ValueError):
        DeterministicRandom(1).randrange(5, 5)


def test_choice_and_empty_choice():
    rng = DeterministicRandom(8)
    assert rng.choice([3]) == 3
    assert rng.choice("abcd") in "abcd"
    with pytest.raises(IndexError):
        rng.choice([])


def test_sample_without_replacement():
    rng = DeterministicRandom(9)
    population = list(range(50))
    picked = rng.sample(population, 20)
    assert len(picked) == 20
    assert len(set(picked)) == 20
    assert set(picked) <= set(population)


def test_sample_negative_size_rejected():
    with pytest.raises(ValueError):
        DeterministicRandom(1).sample([1, 2], -1)


def test_negative_int_seed_rejected():
    with pytest.raises(ValueError):
        DeterministicRandom(-1)


def test_sample_too_large():
    with pytest.raises(ValueError):
        DeterministicRandom(1).sample([1, 2], 3)


def test_shuffle_is_permutation():
    rng = DeterministicRandom(10)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_uniform_and_random_ranges():
    rng = DeterministicRandom(11)
    for _ in range(200):
        assert 0.0 <= rng.random() < 1.0
        assert 2.5 <= rng.uniform(2.5, 3.5) < 3.5


def test_fork_independence():
    root = DeterministicRandom(1)
    a = root.fork("a")
    b = root.fork("b")
    assert a.random_bytes(16) != b.random_bytes(16)


def test_fork_deterministic_across_instances():
    x = DeterministicRandom(1).fork("child").random_bytes(16)
    y = DeterministicRandom(1).fork("child").random_bytes(16)
    assert x == y


def test_fork_does_not_disturb_parent():
    a = DeterministicRandom(1)
    b = DeterministicRandom(1)
    a.fork("ignored")
    assert a.random_bytes(16) == b.random_bytes(16)


def test_reseed_changes_stream():
    a = DeterministicRandom(1)
    b = DeterministicRandom(1)
    a.reseed(b"extra")
    assert a.random_bytes(16) != b.random_bytes(16)


def test_byte_distribution_is_roughly_uniform():
    rng = DeterministicRandom(12)
    data = rng.random_bytes(200_000)
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1
    mean = len(data) / 256
    assert all(0.8 * mean < c < 1.2 * mean for c in counts)


# --- an independent, spec-level HMAC-DRBG --------------------------------


def _hmac(key, data):
    return hmac.new(key, data, "sha256").digest()


class ReferenceDRBG:
    """HMAC-DRBG update/generate (NIST SP 800-90A 10.1.2), no reseed counter."""

    def __init__(self, seed: bytes):
        self.key, self.value = b"\x00" * 32, b"\x01" * 32
        self.update(seed)

    def update(self, provided=b""):
        self.key = _hmac(self.key, self.value + b"\x00" + provided)
        self.value = _hmac(self.key, self.value)
        if provided:
            self.key = _hmac(self.key, self.value + b"\x01" + provided)
            self.value = _hmac(self.key, self.value)

    def generate(self, n):
        out = b""
        while len(out) < n:
            self.value = _hmac(self.key, self.value)
            out += self.value
        self.update()
        return out[:n]

    def random_int(self, bits):
        nbytes = (bits + 7) // 8
        return int.from_bytes(self.generate(nbytes), "big") >> (nbytes * 8 - bits)

    def randbelow(self, upper):
        while (candidate := self.random_int(upper.bit_length())) >= upper:
            pass
        return candidate

    def fork(self, label):
        return ReferenceDRBG(_hmac(self.key, b"fork:" + label.encode()))


SEEDS = [  # (seed, the bytes the DRBG is instantiated with)
    (0, b"\x00"),
    (1, b"\x01"),
    (258, b"\x01\x02"),
    ("abc", b"abc"),
    ("\u00e9", b"\xc3\xa9"),
    (b"", b""),
    (b"\xff" * 70, b"\xff" * 70),
]


@pytest.mark.parametrize("seed, seed_bytes", SEEDS, ids=repr)
def test_matches_reference_drbg_draw_for_draw(seed, seed_bytes):
    real, ref = DeterministicRandom(seed), ReferenceDRBG(seed_bytes)
    for n in (0, 1, 16, 31, 32, 33, 48, 64, 1000):
        assert real.random_bytes(n) == ref.generate(n), n
    for data in (b"example.com", b""):
        real.reseed(data)
        ref.update(data)
        assert real.random_bytes(32) == ref.generate(32)
    for bits in (1, 7, 8, 9, 64, 257):
        assert real.random_int(bits) == ref.random_int(bits), bits
    for upper in (1, 2, 5, 1000, 2**61 - 1):
        assert real.randbelow(upper) == ref.randbelow(upper), upper
    child, ref_child = real.fork("servers"), ref.fork("servers")
    assert child.random_bytes(48) == ref_child.generate(48)
    assert real.random_bytes(33) == ref.generate(33)  # forking left the parent alone


# sha256 of random_bytes(4096) from a fresh generator.  These pin the
# stream itself, not just its agreement with a second instance.
@pytest.mark.parametrize("seed, digest", [
    (1, "e6072663d9476809373be49e369cc0aa8b83d0e7c064639a1d388f4d1ac9ba71"),
    ("abc", "8d387358152493cbf5bed25e92db51ef3047cc54245f6fe309d72cf4f1bca105"),
    (b"", "8f14a22c9576380bc7939e231759cf01291789f58d9c0306a8474b38d44d7391"),
], ids=repr)
def test_first_4k_of_the_stream_is_pinned(seed, digest):
    stream = DeterministicRandom(seed).random_bytes(4096)
    assert hashlib.sha256(stream).hexdigest() == digest
