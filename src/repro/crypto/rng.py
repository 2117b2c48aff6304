"""Deterministic random byte generation.

Every stochastic component in this reproduction draws randomness from an
explicit generator object so that simulations are reproducible
bit-for-bit.  :class:`DeterministicRandom` is an HMAC-DRBG-style
generator (HMAC-SHA-256 based, loosely modeled on NIST SP 800-90A) that
is seeded explicitly and never touches OS entropy.

The real systems this code models (OpenSSL, NSS, SChannel) use OS
CSPRNGs; substituting a seeded DRBG preserves the *distribution* of all
derived values (session IDs, STEKs, ephemeral exponents) while making
experiments replayable.
"""

from __future__ import annotations

from .mac import hmac_sha256


class DeterministicRandom:
    """An HMAC-SHA-256 based deterministic random byte generator.

    The generator follows the HMAC-DRBG construction: an internal
    ``(key, value)`` pair is updated on every reseed and generate call.
    It is *not* intended to protect real secrets — it exists to make the
    simulated TLS ecosystem reproducible — but it is uniform,
    forward-unpredictable given the seed, and collision-free in
    practice, which is all the measurement inference relies on.
    """

    _HASH_LEN = 32

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("integer seed must be non-negative")
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = b"\x00" * self._HASH_LEN
        self._value = b"\x01" * self._HASH_LEN
        self._update(seed)

    def _update(self, provided: bytes | None) -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + (provided or b""))
        self._value = hmac_sha256(self._key, self._value)
        if provided:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided)
            self._value = hmac_sha256(self._key, self._value)

    def reseed(self, data: bytes) -> None:
        """Mix additional entropy (e.g. a domain name) into the state."""
        self._update(data)

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes."""
        # Hottest function in a full-ecosystem scan (two nonces plus the
        # derived draws per handshake), so the HMAC-DRBG generate+update
        # sequence is inlined.  The state transitions are byte-identical
        # to the readable ``_update`` formulation used everywhere else.
        if n < 0:
            raise ValueError("cannot generate a negative number of bytes")
        key = self._key
        if 0 < n <= self._HASH_LEN:
            value = hmac_sha256(key, self._value)
            out = value[:n]
        else:  # n == 0 leaves the value chain unadvanced, as the loop does
            chunks = []
            value = self._value
            total = 0
            while total < n:
                value = hmac_sha256(key, value)
                chunks.append(value)
                total += self._HASH_LEN
            out = b"".join(chunks)[:n]
        # _update(None): re-key, then advance the value chain.
        self._key = key = hmac_sha256(key, value + b"\x00")
        self._value = hmac_sha256(key, value)
        return out

    def random_int(self, bits: int) -> int:
        """Return a uniformly random integer with at most ``bits`` bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def randbelow(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)`` via rejection sampling."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        bits = upper.bit_length()
        while True:
            candidate = self.random_int(bits)
            if candidate < upper:
                return candidate

    def randrange(self, lower: int, upper: int) -> int:
        """Return a uniform integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("empty range")
        return lower + self.randbelow(upper - lower)

    def choice(self, seq):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def sample(self, seq, k: int) -> list:
        """Return ``k`` distinct elements sampled without replacement."""
        n = len(seq)
        if k < 0:
            raise ValueError("sample size must be non-negative")
        if k > n:
            raise ValueError("sample larger than population")
        indices = list(range(n))
        picked = []
        for _ in range(k):
            j = self.randbelow(len(indices))
            picked.append(seq[indices[j]])
            indices[j] = indices[-1]
            indices.pop()
        return picked

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def uniform(self, lower: float, upper: float) -> float:
        """Return a float uniform in ``[lower, upper)`` (53-bit precision)."""
        frac = self.random_int(53) / (1 << 53)
        return lower + (upper - lower) * frac

    def random(self) -> float:
        """Return a float uniform in ``[0, 1)``."""
        return self.uniform(0.0, 1.0)

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent child generator.

        Forking lets subsystems (per-domain server randomness, scanner
        jitter, churn) consume randomness without perturbing each
        other's streams, which keeps results stable when one subsystem
        changes how much randomness it uses.
        """
        child_seed = hmac_sha256(self._key, b"fork:" + label.encode("utf-8"))
        return DeterministicRandom(child_seed)


__all__ = ["DeterministicRandom"]
