"""Server-side key exchange: (EC)DHE parameter generation, signing, reuse.

RFC 5246 says servers *should* generate a fresh Diffie-Hellman value
per handshake, but real stacks cached them for performance (OpenSSL's
``SSL_OP_SINGLE_DH_USE`` was off by default until CVE-2016-0701).
:class:`EphemeralKeyCache` models the reuse policies the paper
measures: fresh per handshake, rotate after a time threshold, or keep
one value for the whole process lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from ..crypto import dh, ec
from ..crypto.rng import DeterministicRandom
from ..crypto.rsa import RSAPrivateKey, RSAPublicKey
from .messages import ServerKeyExchangeDHE, ServerKeyExchangeECDHE


class ReuseMode(Enum):
    """How a server manages its ephemeral key-exchange value."""

    FRESH = "fresh"              # new value every handshake (RFC-compliant)
    TIMED = "timed"              # reuse until older than a threshold
    PROCESS_LIFETIME = "process" # reuse until the process restarts


@dataclass(frozen=True)
class KexReusePolicy:
    """An ephemeral-value reuse policy.

    ``lifetime_seconds`` only applies to :attr:`ReuseMode.TIMED`.
    """

    mode: ReuseMode = ReuseMode.FRESH
    lifetime_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.mode is ReuseMode.TIMED and self.lifetime_seconds <= 0:
            raise ValueError("TIMED reuse needs a positive lifetime")


KeyPair = Union[dh.DHKeyPair, ec.ECKeyPair]


class EphemeralKeyCache:
    """Caches server (EC)DHE keypairs according to a reuse policy.

    Finite-field and elliptic-curve values are cached in independent
    slots (real stacks cache ``DH`` and ``ECDH`` state separately), so a
    scanner alternating DHE-only and ECDHE-only scans observes each
    family's reuse behavior without cross-eviction.

    The cache object itself may be *shared* between server processes —
    that is how hosting providers in the simulation end up presenting
    one Diffie-Hellman value across dozens of domains (paper §5.3).
    """

    def __init__(
        self,
        policy: KexReusePolicy,
        ec_policy: Optional[KexReusePolicy] = None,
    ) -> None:
        # Real servers configure DH and ECDH reuse independently (a
        # stack may pin one DHE value for weeks while generating fresh
        # ECDHE scalars); ``ec_policy`` defaults to ``policy``.
        self.dh_policy = policy
        self.ec_policy = ec_policy if ec_policy is not None else policy
        self._cached_dh: Optional[dh.DHKeyPair] = None
        self._dh_generated_at: float = float("-inf")
        self._cached_ec: Optional[ec.ECKeyPair] = None
        self._ec_generated_at: float = float("-inf")

    @property
    def policy(self) -> KexReusePolicy:
        """The finite-field policy (kept for backward compatibility)."""
        return self.dh_policy

    @staticmethod
    def _stale(policy: KexReusePolicy, cached, generated_at: float, now: float) -> bool:
        if cached is None:
            return True
        if policy.mode is ReuseMode.FRESH:
            return True
        if policy.mode is ReuseMode.TIMED:
            return now - generated_at >= policy.lifetime_seconds
        return False  # PROCESS_LIFETIME: only restart() invalidates

    def get_dh(self, group: dh.DHGroup, rng: DeterministicRandom, now: float) -> dh.DHKeyPair:
        """Return the cached or a fresh finite-field keypair."""
        if (
            self._stale(self.dh_policy, self._cached_dh, self._dh_generated_at, now)
            or self._cached_dh.group is not group
        ):
            self._cached_dh = dh.generate_keypair(group, rng)
            self._dh_generated_at = now
        return self._cached_dh

    def get_ec(self, curve: ec.Curve, rng: DeterministicRandom, now: float) -> ec.ECKeyPair:
        """Return the cached or a fresh elliptic-curve keypair."""
        if (
            self._stale(self.ec_policy, self._cached_ec, self._ec_generated_at, now)
            or self._cached_ec.curve is not curve
        ):
            self._cached_ec = ec.generate_keypair(curve, rng)
            self._ec_generated_at = now
        return self._cached_ec

    def restart(self) -> None:
        """Drop the cached values (models a server process restart)."""
        self._cached_dh = None
        self._cached_ec = None
        self._dh_generated_at = float("-inf")
        self._ec_generated_at = float("-inf")

    @property
    def current_dh(self) -> Optional[dh.DHKeyPair]:
        """The live DHE secret — what a memory compromise leaks."""
        return self._cached_dh

    @property
    def current_ec(self) -> Optional[ec.ECKeyPair]:
        """The live ECDHE secret — what a memory compromise leaks."""
        return self._cached_ec


def _signed_blob(client_random: bytes, server_random: bytes, params: bytes) -> bytes:
    # RFC 5246 §7.4.3: the signature covers both randoms and the params.
    return client_random + server_random + params


def build_dhe_kex(
    keypair: dh.DHKeyPair,
    signing_key: RSAPrivateKey,
    client_random: bytes,
    server_random: bytes,
) -> ServerKeyExchangeDHE:
    """Construct a signed DHE ServerKeyExchange message."""
    message = ServerKeyExchangeDHE(
        dh_p=keypair.group.prime,
        dh_g=keypair.group.generator,
        dh_public=keypair.public,
        signature=b"",
    )
    blob = _signed_blob(client_random, server_random, message.params_bytes())
    message.signature = signing_key.sign(blob).to_bytes(signing_key.byte_length, "big")
    return message


def build_ecdhe_kex(
    keypair: ec.ECKeyPair,
    signing_key: RSAPrivateKey,
    client_random: bytes,
    server_random: bytes,
) -> ServerKeyExchangeECDHE:
    """Construct a signed ECDHE ServerKeyExchange message."""
    message = ServerKeyExchangeECDHE(
        named_curve=ec.NAMED_CURVE_IDS[keypair.curve.name],
        point=ec.encode_point(keypair.curve, keypair.public),
        signature=b"",
    )
    blob = _signed_blob(client_random, server_random, message.params_bytes())
    message.signature = signing_key.sign(blob).to_bytes(signing_key.byte_length, "big")
    return message


def verify_kex_signature(
    message: Union[ServerKeyExchangeDHE, ServerKeyExchangeECDHE],
    server_key: RSAPublicKey,
    client_random: bytes,
    server_random: bytes,
) -> bool:
    """Client-side verification of the ServerKeyExchange signature."""
    blob = _signed_blob(client_random, server_random, message.params_bytes())
    return server_key.verify(blob, int.from_bytes(message.signature, "big"))


__all__ = [
    "ReuseMode",
    "KexReusePolicy",
    "EphemeralKeyCache",
    "build_dhe_kex",
    "build_ecdhe_kex",
    "verify_kex_signature",
]
