"""RSA key generation and signatures for the simulated certificate PKI.

The measurement study filters domains by *browser-trusted certificates*;
to preserve that filtering step, the simulated CAs sign leaf
certificates with real RSA signatures that the scanner verifies against
a root store.  Keys default to 512 bits — cryptographically weak but
structurally identical, and fast enough to mint tens of thousands of
simulated certificates.

Signing uses a simplified PKCS#1 v1.5-style encoding over SHA-256
(fixed prefix rather than a full ASN.1 DigestInfo, since no code here
interoperates with external verifiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .mac import sha256
from .rng import DeterministicRandom

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

_DIGEST_PREFIX = b"repro-pkcs1-sha256:"


def is_probable_prime(n: int, rng: DeterministicRandom, rounds: int = 20) -> bool:
    """Miller-Rabin primality test with trial division pre-filter."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: DeterministicRandom) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime too small")
    while True:
        candidate = rng.random_int(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @cached_property
    def byte_length(self) -> int:
        """Modulus width in bytes (signature wire size)."""
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: int) -> bool:
        """Verify a signature over ``message``."""
        if not 0 <= signature < self.n:
            return False
        expected = _encode_digest(message, self.n)
        return pow(signature, self.e, self.n) == expected

    def fingerprint(self) -> bytes:
        """A stable 8-byte identifier for grouping keys in analyses."""
        return sha256(self.n.to_bytes(self.byte_length, "big"))[:8]


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with its public half."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @cached_property
    def byte_length(self) -> int:
        """Modulus width in bytes (signature wire size)."""
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt_params(self) -> tuple[int, int, int]:
        """CRT exponents and coefficient (dp, dq, q_inv), once per key."""
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def sign(self, message: bytes) -> int:
        """Sign ``message`` (hash-then-encode-then-exponentiate).

        Uses the CRT (Garner's recombination) like every real RSA
        implementation — a ~4x speedup that matters across the
        millions of ServerKeyExchange signatures a study performs.
        """
        m = _encode_digest(message, self.n)
        dp, dq, q_inv = self._crt_params
        sp = pow(m % self.p, dp, self.p)
        sq = pow(m % self.q, dq, self.q)
        h = (q_inv * (sp - sq)) % self.p
        return sq + self.q * h

    def decrypt_raw(self, ciphertext: int) -> int:
        """Textbook RSA decryption (used by RSA key-exchange modeling)."""
        if not 0 <= ciphertext < self.n:
            raise ValueError("ciphertext out of range")
        return pow(ciphertext, self.d, self.n)


def _encode_digest(message: bytes, modulus: int) -> int:
    """Deterministically map a message hash into the RSA domain."""
    digest = sha256(_DIGEST_PREFIX + message)
    # Expand the digest to just below the modulus size with counter mode.
    size = (modulus.bit_length() - 1) // 8
    blocks = bytearray()
    counter = 0
    while len(blocks) < size:
        blocks.extend(sha256(digest + counter.to_bytes(4, "big")))
        counter += 1
    return int.from_bytes(blocks[:size], "big")


def generate_keypair(
    bits: int, rng: DeterministicRandom, e: int = 65537
) -> RSAPrivateKey:
    """Generate an RSA keypair with an exactly ``bits``-bit modulus."""
    if bits < 64:
        raise ValueError("modulus too small")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)


__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
]
