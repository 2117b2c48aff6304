"""TLS 1.3 pre-shared-key resumption model (paper §2.4 and §8.1).

Draft-15 TLS 1.3 (the version the paper discusses) nominally obsoletes
session IDs and session tickets, but both mechanisms persist as PSKs:
the server issues a NewSessionTicket whose identity is either a
database lookup key (session-ID-like) or a self-encrypted blob
(ticket-like), and the client returns it in a later ClientHello.
TLS 1.3 *does* improve on 1.2 in one structural way the paper notes:
the resumption secret is derived separately from the traffic secrets,
so a stolen resumption secret alone does not decrypt the *original*
connection — only connections resumed from it.

Two resumption modes are modeled:

* ``psk_ke`` — resumption keys derive from the PSK alone.  Anyone who
  later obtains the PSK (via the ticket-encryption key or the session
  database) can decrypt the resumed connection: the 1.2 story again.
* ``psk_dhe_ke`` — an (EC)DHE exchange is mixed into the key schedule,
  so the resumed connection keeps forward secrecy against PSK theft
  (but not against theft of a *reused* DHE value).

0-RTT early data is keyed by the PSK directly, so it is decryptable by
any later PSK holder in *both* modes — the sharpest edge the paper's
§8.1 warns about, together with the draft's blanket 7-day ceiling on
PSK lifetimes ("PSKs honored for 7 days ... may be a significant risk
for high-value domains").

Key-schedule shapes follow the draft's HKDF-style derivations in
simplified labeled-PRF form; the measurement-relevant structure (what
secret decrypts what, and for how long it exists) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..crypto import ec
from ..crypto.mac import hmac_sha256
from ..crypto.rng import DeterministicRandom
from ..netsim.clock import DAY

#: Draft-15's maximum PSK lifetime (§8.1: "simply sets a 7 day maximum
#: for PSK lifetimes without discussion").
DRAFT15_MAX_PSK_LIFETIME = 7 * DAY


class PskMode(Enum):
    """TLS 1.3 resumption key-exchange modes."""

    PSK_KE = "psk_ke"          # PSK only — no forward secrecy vs PSK theft
    PSK_DHE_KE = "psk_dhe_ke"  # PSK + fresh (EC)DHE — forward secret


def _derive(secret: bytes, label: bytes, context: bytes = b"") -> bytes:
    """A labeled one-step KDF standing in for HKDF-Expand-Label."""
    return hmac_sha256(secret, b"tls13 " + label + b"\x00" + context)


@dataclass(frozen=True)
class Psk:
    """An issued pre-shared key: identity + secret + issuance metadata."""

    identity: bytes             # what the client sends in ClientHello
    secret: bytes               # the resumption secret (server-side too)
    issued_at: float
    max_age_seconds: float = DRAFT15_MAX_PSK_LIFETIME
    origin_domain: str = ""

    def expired(self, now: float) -> bool:
        return now - self.issued_at > self.max_age_seconds


@dataclass
class ResumedConnectionKeys:
    """Keys of one resumed TLS 1.3 connection plus its 0-RTT secret."""

    mode: PskMode
    early_data_secret: bytes     # protects 0-RTT; PSK-derived in all modes
    traffic_secret: bytes        # protects 1-RTT application data
    new_resumption_secret: bytes # chains into the next ticket


def derive_resumption_secret(master_secret: bytes, connection_nonce: bytes) -> bytes:
    """TLS 1.3's separate resumption secret (unlike 1.2, not the master
    secret itself — the structural improvement the paper credits)."""
    return _derive(master_secret, b"resumption", connection_nonce)


def resume(
    psk: Psk,
    client_random: bytes,
    server_random: bytes,
    mode: PskMode,
    rng: DeterministicRandom,
    curve: ec.Curve = ec.SECP128R1,
    server_keypair: Optional[ec.ECKeyPair] = None,
) -> tuple[ResumedConnectionKeys, Optional[ec.ECKeyPair], Optional[tuple[int, int]]]:
    """Derive a resumed connection's keys.

    Returns ``(keys, server_keypair, client_public)``; the DH parts are
    None in ``psk_ke`` mode.  ``server_keypair`` may be supplied to
    model servers that *reuse* their TLS 1.3 ephemeral value — the same
    §4.4 shortcut, alive and well in 1.3.
    """
    transcript = client_random + server_random
    early_secret = _derive(psk.secret, b"early", transcript)
    if mode is PskMode.PSK_KE:
        handshake_input = psk.secret
        keypair, client_public = None, None
    else:
        if server_keypair is None:
            keypair = ec.generate_keypair(curve, rng)
        else:
            keypair = server_keypair
        client_keypair = ec.generate_keypair(curve, rng)
        shared = keypair.shared_secret_bytes(client_keypair.public)
        handshake_input = hmac_sha256(psk.secret, shared)
        client_public = client_keypair.public
    traffic = _derive(handshake_input, b"traffic", transcript)
    resumption = _derive(handshake_input, b"next-resumption", transcript)
    return (
        ResumedConnectionKeys(
            mode=mode,
            early_data_secret=early_secret,
            traffic_secret=traffic,
            new_resumption_secret=resumption,
        ),
        keypair if mode is PskMode.PSK_DHE_KE else None,
        client_public,
    )


def attacker_recover_keys(
    stolen_psk_secret: bytes,
    client_random: bytes,
    server_random: bytes,
    mode: PskMode,
    observed_client_public: Optional[tuple[int, int]] = None,
    stolen_server_keypair: Optional[ec.ECKeyPair] = None,
) -> Optional[ResumedConnectionKeys]:
    """What a PSK thief can reconstruct from a recorded resumption.

    * ``psk_ke``: everything — the PSK determines all keys.
    * ``psk_dhe_ke``: only the 0-RTT secret, unless the attacker *also*
      holds the server's (reused) DHE private value.
    """
    transcript = client_random + server_random
    early_secret = _derive(stolen_psk_secret, b"early", transcript)
    if mode is PskMode.PSK_KE:
        handshake_input = stolen_psk_secret
    else:
        if stolen_server_keypair is None or observed_client_public is None:
            return ResumedConnectionKeys(
                mode=mode,
                early_data_secret=early_secret,
                traffic_secret=b"",       # unrecoverable
                new_resumption_secret=b"",
            )
        try:
            shared = stolen_server_keypair.shared_secret_bytes(observed_client_public)
        except ec.NotOnCurveError:
            return None
        handshake_input = hmac_sha256(stolen_psk_secret, shared)
    return ResumedConnectionKeys(
        mode=mode,
        early_data_secret=early_secret,
        traffic_secret=_derive(handshake_input, b"traffic", transcript),
        new_resumption_secret=_derive(handshake_input, b"next-resumption", transcript),
    )


class PskIssuer:
    """Server-side PSK issuance: the TLS 1.3 analogue of a STEK store.

    ``database_mode=True`` stores secrets server-side under a lookup
    key (session-cache-like exposure: compromise the database, decrypt
    everything still stored).  ``database_mode=False`` self-encrypts the
    secret into the identity under ``encryption_key`` (STEK-like
    exposure: compromise one key, decrypt every ticket it sealed).
    """

    def __init__(
        self,
        rng: DeterministicRandom,
        database_mode: bool = False,
        max_age_seconds: float = DRAFT15_MAX_PSK_LIFETIME,
    ) -> None:
        self._rng = rng
        self.database_mode = database_mode
        self.max_age_seconds = max_age_seconds
        self.encryption_key = rng.random_bytes(32)
        self._database: dict[bytes, Psk] = {}

    def issue(self, resumption_secret: bytes, now: float, domain: str = "") -> Psk:
        """Issue a PSK for a completed connection's resumption secret."""
        if self.database_mode:
            identity = self._rng.random_bytes(16)
            psk = Psk(identity=identity, secret=resumption_secret,
                      issued_at=now, max_age_seconds=self.max_age_seconds,
                      origin_domain=domain)
            self._database[identity] = psk
            return psk
        # Self-encrypted: identity = "sealed" secret + MAC (simplified
        # seal with the issuer's long-lived key — the 1.3 STEK).
        body = resumption_secret + int(now).to_bytes(8, "big")
        keystream = hmac_sha256(self.encryption_key, b"seal" + body[:0])
        sealed = bytes(a ^ b for a, b in zip(body, (keystream * 2)[: len(body)]))
        tag = hmac_sha256(self.encryption_key, sealed)[:16]
        return Psk(identity=sealed + tag, secret=resumption_secret,
                   issued_at=now, max_age_seconds=self.max_age_seconds,
                   origin_domain=domain)

    def accept(self, identity: bytes, now: float) -> Optional[Psk]:
        """Server-side validation of an offered PSK identity."""
        if self.database_mode:
            psk = self._database.get(identity)
            if psk is None or psk.expired(now):
                return None
            return psk
        if len(identity) < 16 + 40:
            return None
        sealed, tag = identity[:-16], identity[-16:]
        if hmac_sha256(self.encryption_key, sealed)[:16] != tag:
            return None
        keystream = hmac_sha256(self.encryption_key, b"seal")
        body = bytes(a ^ b for a, b in zip(sealed, (keystream * 2)[: len(sealed)]))
        secret, issued_at = body[:-8], float(int.from_bytes(body[-8:], "big"))
        psk = Psk(identity=identity, secret=secret, issued_at=issued_at,
                  max_age_seconds=self.max_age_seconds)
        return None if psk.expired(now) else psk

    def attacker_open_identity(self, identity: bytes) -> Optional[bytes]:
        """With the stolen encryption key: recover the PSK secret from a
        recorded identity (self-encrypted mode only).

        Note there is no expiry check — *policy* expiry does not protect
        a recorded identity once the key leaks, exactly like RFC 5077
        tickets (§6.1)."""
        if self.database_mode or len(identity) < 56:
            return None
        sealed, tag = identity[:-16], identity[-16:]
        if hmac_sha256(self.encryption_key, sealed)[:16] != tag:
            return None
        keystream = hmac_sha256(self.encryption_key, b"seal")
        body = bytes(a ^ b for a, b in zip(sealed, (keystream * 2)[: len(sealed)]))
        return body[:-8]

    def attacker_dump_database(self) -> list[Psk]:
        """With database access: every still-stored PSK (database mode)."""
        return list(self._database.values())

    def expire(self, now: float) -> int:
        """Drop expired database entries; returns how many were removed."""
        stale = [k for k, psk in self._database.items() if psk.expired(now)]
        for key in stale:
            del self._database[key]
        return len(stale)


__all__ = [
    "DRAFT15_MAX_PSK_LIFETIME",
    "PskMode",
    "Psk",
    "PskIssuer",
    "ResumedConnectionKeys",
    "derive_resumption_secret",
    "resume",
    "attacker_recover_keys",
]
