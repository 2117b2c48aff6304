"""Session state, session caches, and connection key derivation.

A *session* is the resumable secret state (master secret + cipher
suite); a *connection* is one TLS exchange with its own randoms and
derived keys.  Session-ID resumption stores sessions server-side in a
:class:`SessionCache`; ticket resumption serializes them into the
ticket itself (:mod:`repro.tls.ticket`).

The cache object is deliberately shareable: pointing several simulated
servers (or several domains behind one SSL terminator) at the same
cache is exactly the cross-domain state sharing the paper measures in
§5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.prf import derive_key_block
from .ciphers import CipherSuite
from .constants import ProtocolVersion


@dataclass(frozen=True)
class SessionState:
    """The resumable secret state of a TLS session."""

    master_secret: bytes
    cipher_suite: CipherSuite
    version: ProtocolVersion
    created_at: float  # simulation epoch seconds of the full handshake
    domain: str = ""   # SNI the session was established for (may be "")

    def __post_init__(self) -> None:
        if len(self.master_secret) != 48:
            raise ValueError("master secret must be 48 bytes")


@dataclass(frozen=True)
class ConnectionKeys:
    """Per-connection keys derived from the session master secret."""

    client_write_key: bytes
    server_write_key: bytes
    client_write_iv: bytes
    server_write_iv: bytes
    client_mac_key: bytes
    server_mac_key: bytes


def derive_connection_keys(
    session: SessionState, client_random: bytes, server_random: bytes
) -> ConnectionKeys:
    """RFC 5246 §6.3 key expansion for the negotiated suite."""
    suite = session.cipher_suite
    mac_len = suite.mac_key_bytes
    key_len = suite.key_bytes
    iv_len = 16
    block = derive_key_block(
        session.master_secret,
        client_random,
        server_random,
        2 * mac_len + 2 * key_len + 2 * iv_len,
    )
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        chunk = block[offset : offset + n]
        offset += n
        return chunk

    client_mac = take(mac_len)
    server_mac = take(mac_len)
    client_key = take(key_len)
    server_key = take(key_len)
    client_iv = take(iv_len)
    server_iv = take(iv_len)
    return ConnectionKeys(
        client_write_key=client_key,
        server_write_key=server_key,
        client_write_iv=client_iv,
        server_write_iv=server_iv,
        client_mac_key=client_mac,
        server_mac_key=server_mac,
    )


class SessionCache:
    """A server-side session-ID cache with a fixed entry lifetime.

    Mirrors the behavior the paper infers from popular servers: Apache
    defaults to 5 minutes, IIS to 10 hours, Google's infrastructure to
    over 24 hours.  Entries expire ``lifetime_seconds`` after insertion;
    an explicit ``capacity`` models bounded shared-memory caches (oldest
    entries are evicted first).
    """

    def __init__(self, lifetime_seconds: float, capacity: int = 100_000) -> None:
        if lifetime_seconds < 0:
            raise ValueError("lifetime must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.lifetime_seconds = lifetime_seconds
        self.capacity = capacity
        self._entries: dict[bytes, tuple[SessionState, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, session_id: bytes, session: SessionState, now: float) -> None:
        """Insert a session, evicting the oldest entry if at capacity."""
        if len(self._entries) >= self.capacity and session_id not in self._entries:
            oldest = min(self._entries, key=lambda k: self._entries[k][1])
            del self._entries[oldest]
        self._entries[session_id] = (session, now)

    def lookup(self, session_id: bytes, now: float) -> Optional[SessionState]:
        """Return the session if present and unexpired, else None."""
        entry = self._entries.get(session_id)
        if entry is None:
            return None
        session, stored_at = entry
        if now - stored_at > self.lifetime_seconds:
            del self._entries[session_id]
            return None
        return session

    def expire(self, now: float) -> int:
        """Drop all expired entries; returns how many were removed."""
        stale = [
            sid
            for sid, (_, stored_at) in self._entries.items()
            if now - stored_at > self.lifetime_seconds
        ]
        for sid in stale:
            del self._entries[sid]
        return len(stale)

    def clear(self) -> None:
        """Drop everything (models a server process restart)."""
        self._entries.clear()

    def live_sessions(self, now: float) -> list[SessionState]:
        """All currently resumable sessions — the attacker's haul if the
        cache memory is compromised at time ``now``."""
        return [
            session
            for session, stored_at in self._entries.values()
            if now - stored_at <= self.lifetime_seconds
        ]


__all__ = [
    "SessionState",
    "ConnectionKeys",
    "derive_connection_keys",
    "SessionCache",
]
