"""Hash and MAC helpers used throughout the TLS model.

Thin wrappers over :mod:`hashlib` so the rest of the code has a single
place naming its digests, plus constant-time comparison.
:func:`hmac_sha256` is the one HMAC-SHA-256 in the package: the DRBG,
the PRF, ticket seal/open and record MACs all call it.
"""

from __future__ import annotations

import hashlib
import hmac

_sha256 = hashlib.sha256

_BLOCK_SIZE = 64  # SHA-256 block size in bytes (RFC 2104's B)
# XOR with ipad/opad as one C-level byte-table lookup per key byte.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


def sha256(data: bytes) -> bytes:
    """SHA-256 digest."""
    return hashlib.sha256(data).digest()


def sha1(data: bytes) -> bytes:
    """SHA-1 digest (used only for legacy identifiers, never security)."""
    return hashlib.sha1(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 (RFC 2104) — RFC 5077's recommended ticket MAC.

    Built from two :func:`hashlib.sha256` calls, which cost less per
    call than OpenSSL's one-shot HMAC; output is identical to
    ``hmac.new(key, data, "sha256").digest()``.  RFC 4231 test case 2:

    >>> hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex()
    '5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843'
    """
    if len(key) > _BLOCK_SIZE:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    inner = _sha256(key.translate(_IPAD) + data).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe equality (mirrors what real implementations must do)."""
    return hmac.compare_digest(a, b)


__all__ = ["sha256", "sha1", "hmac_sha256", "constant_time_equal"]
