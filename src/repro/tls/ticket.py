"""RFC 5077 session tickets and session-ticket encryption keys (STEKs).

The ticket construction follows RFC 5077 §4's recommended structure:

    struct {
        opaque key_name[16];
        opaque iv[16];
        opaque encrypted_state<0..2^16-1>;   // AES-128-CBC
        opaque mac[32];                       // HMAC-SHA-256
    } ticket;

The 16-byte ``key_name`` is the *STEK identifier* the paper's scanner
extracts to infer STEK lifetimes (§4.3): it is visible in the clear,
stable for as long as the server keeps using the same STEK, and rotates
exactly when the key does.  mbedTLS's 4-byte identifier and SChannel's
DPAPI-GUID framing are modeled as alternative formats so the scanner's
format sniffing is exercised.

Crucially, tickets here are *really encrypted*: an attacker object that
steals the STEK decrypts recorded tickets and recovers master secrets,
which is the paper's §6.1/§7 threat made executable.

A server issues a :class:`SealedTicket`: the IV is drawn, the session
state encoded and the cleartext head (framing, ``key_name``, IV, body
length) built at issue, while the AES-CBC body and the HMAC are
computed once, the first time the ticket's bytes are needed (wire
serialization, resumption, an attacker's ``open_ticket``).  A scan
that only reads the ``key_name`` never pays for the encryption, and
the bytes are the same whenever they are produced (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from ..crypto.aes import AES
from ..crypto.mac import constant_time_equal, hmac_sha256
from ..crypto.modes import PaddingError, cbc_decrypt_with, cbc_encrypt_with
from ..crypto.rng import DeterministicRandom
from ..obs.metrics import METRICS
from ..wireformat import ByteReader, DecodeError
from .ciphers import SUITES_BY_CODE
from .constants import ProtocolVersion
from .session import SessionState


class TicketFormat(Enum):
    """On-the-wire ticket framings seen across implementations."""

    RFC5077 = "rfc5077"      # 16-byte key_name (OpenSSL, NSS, GnuTLS, LibreSSL)
    MBEDTLS = "mbedtls"      # 4-byte key_name
    SCHANNEL = "schannel"    # DPAPI-wrapped blob with a 16-byte master-key GUID


_KEY_NAME_LENGTH = {
    TicketFormat.RFC5077: 16,
    TicketFormat.MBEDTLS: 4,
    TicketFormat.SCHANNEL: 16,
}

_SCHANNEL_HEADER = b"\x30\x82DPAPI"  # stand-in for the ASN.1 DPAPI wrapper

# Seal/open volume is the paper's headline workload.  Opens split three
# ways: authenticated (``open``), sealed under a different key
# (``open_wrong_key`` — the routine case when a STEKStore tries its
# retained keys in order), and structurally/cryptographically rejected
# (``open_reject`` — truncation, bad MAC, bad padding).
_SEAL = METRICS.counter("tls.ticket.seal")
_OPEN_OK = METRICS.counter("tls.ticket.open")
_OPEN_WRONG_KEY = METRICS.counter("tls.ticket.open_wrong_key")
_OPEN_REJECT = METRICS.counter("tls.ticket.open_reject")

# The per-STEK key-schedule cache (see ``STEK.cipher``): a hit reuses
# the expanded schedule, a miss pays the one-time AES key expansion.
# The schedule lives on its STEK, and every ecosystem build makes its
# own STEKs, so each shard starts with cold schedules and the counts
# are a function of the shard alone, whichever process runs it.
_CIPHER_HIT = METRICS.counter("crypto.aes.stek_cipher.hit")
_CIPHER_MISS = METRICS.counter("crypto.aes.stek_cipher.miss")


@dataclass(frozen=True)
class STEK:
    """A session-ticket encryption key bundle.

    Real deployments either read 48 bytes from a key file (Apache 2.4 /
    Nginx 1.5.7 ``ssl_session_ticket_key``: 16-byte name + 16-byte AES
    key + 16-byte HMAC key, which we widen to 32 for HMAC-SHA-256) or
    generate one at process start.
    """

    key_name: bytes
    aes_key: bytes
    hmac_key: bytes
    created_at: float

    def __post_init__(self) -> None:
        if len(self.aes_key) != 16:
            raise ValueError("STEK AES key must be 16 bytes (AES-128)")
        if len(self.hmac_key) != 32:
            raise ValueError("STEK HMAC key must be 32 bytes")

    @property
    def cipher(self) -> AES:
        """The expanded AES key schedule for ``aes_key``, built once.

        A STEK seals and opens tickets for its whole rotation period,
        so keeping the schedule on the STEK ties its lifetime to the
        key's own and expands it once per key, not once per ticket.
        Cached in ``__dict__`` because the dataclass is frozen; this is
        identity state, not value state, so it stays out of
        ``==``/``repr``.
        """
        cached = self.__dict__.get("_cipher")
        if cached is not None:
            _CIPHER_HIT.inc()
            return cached
        _CIPHER_MISS.inc()
        cached = self.__dict__["_cipher"] = AES(self.aes_key)
        return cached


def generate_stek(
    rng: DeterministicRandom,
    now: float,
    key_name_length: int = 16,
) -> STEK:
    """Generate a random STEK (what servers do at process start)."""
    return STEK(
        key_name=rng.random_bytes(key_name_length),
        aes_key=rng.random_bytes(16),
        hmac_key=rng.random_bytes(32),
        created_at=now,
    )


@dataclass(frozen=True)
class TicketContents:
    """What a ticket decrypts to: the session plus issuance metadata."""

    session: SessionState
    issued_at: float


# The state codec is a scanner-side hot path (every seal and every open
# runs it), so it assembles/slices bytes directly instead of going
# through ByteWriter/ByteReader.  The layout is unchanged:
#   u16 version | u16 cipher | 48B master | u32 created | u32 issued |
#   u16 domain_len | domain
_STATE_FIXED_LEN = 2 + 2 + 48 + 4 + 4 + 2  # everything before the domain


def _encode_state(session: SessionState, issued_at: float) -> bytes:
    domain = session.domain.encode("ascii")
    return b"".join(
        (
            int(session.version).to_bytes(2, "big"),
            session.cipher_suite.code.to_bytes(2, "big"),
            session.master_secret,
            int(session.created_at).to_bytes(4, "big"),
            int(issued_at).to_bytes(4, "big"),
            len(domain).to_bytes(2, "big"),
            domain,
        )
    )


def _decode_state(plaintext: bytes) -> TicketContents:
    if len(plaintext) < _STATE_FIXED_LEN:
        raise DecodeError("ticket state truncated")
    version = ProtocolVersion(int.from_bytes(plaintext[0:2], "big"))
    code = int.from_bytes(plaintext[2:4], "big")
    suite = SUITES_BY_CODE.get(code)
    if suite is None:
        raise DecodeError(f"ticket references unknown cipher {code:#06x}")
    domain_len = int.from_bytes(plaintext[60:62], "big")
    if len(plaintext) != _STATE_FIXED_LEN + domain_len:
        raise DecodeError("ticket state has wrong length")
    session = SessionState(
        master_secret=plaintext[4:52],
        cipher_suite=suite,
        version=version,
        created_at=float(int.from_bytes(plaintext[52:56], "big")),
        domain=plaintext[62:].decode("ascii"),
    )
    issued_at = float(int.from_bytes(plaintext[56:60], "big"))
    return TicketContents(session=session, issued_at=issued_at)


class SealedTicket:
    """An issued ticket whose encrypted body is computed on first use.

    Everything a scanner can observe is fixed at issue: the cleartext
    :attr:`head` (SChannel header, ``key_name``, IV, u16 body length)
    and the total length.  The state is held as its encoded plaintext,
    an immutable snapshot, together with the STEK's expanded cipher and
    HMAC key, so ``bytes(ticket)`` is the same whenever it is first
    called: after a STEK rotation, or never.  The sealed bytes are
    memoized; equality and hashing are those of the bytes.
    """

    __slots__ = (
        "_head", "_name_at", "_length", "_cipher", "_hmac_key", "_plaintext", "_sealed",
    )

    def __init__(
        self,
        header: bytes,
        key_name: bytes,
        iv: bytes,
        cipher: AES,
        hmac_key: bytes,
        plaintext: bytes,
    ) -> None:
        # PKCS#7 always adds 1..16 bytes: the body is the next multiple of 16.
        body_len = (len(plaintext) // 16 + 1) * 16
        self._head = b"".join((header, key_name, iv, body_len.to_bytes(2, "big")))
        self._name_at = len(header)
        self._length = len(self._head) + body_len + 32
        self._cipher = cipher
        self._hmac_key = hmac_key
        self._plaintext = plaintext
        self._sealed: Optional[bytes] = None

    @property
    def head(self) -> bytes:
        """The cleartext prefix: everything before the encrypted state."""
        return self._head

    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        sealed = self._sealed
        if sealed is None:
            head = self._head  # [header] | key_name | iv(16) | u16 body length
            encrypted = cbc_encrypt_with(self._cipher, head[-18:-2], self._plaintext)
            mac = hmac_sha256(self._hmac_key, head[self._name_at : -2] + encrypted)
            sealed = self._sealed = head + encrypted + mac
        return sealed

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SealedTicket, bytes)):
            return bytes(self) == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self))


def issue_ticket(
    stek: STEK,
    session: SessionState,
    rng: DeterministicRandom,
    ticket_format: TicketFormat = TicketFormat.RFC5077,
    issued_at: float | None = None,
) -> SealedTicket:
    """Issue a ticket under ``stek``: draw its IV, defer its encryption."""
    expected_name_len = _KEY_NAME_LENGTH[ticket_format]
    if len(stek.key_name) != expected_name_len:
        raise ValueError(
            f"{ticket_format.value} tickets need a {expected_name_len}-byte key name"
        )
    if issued_at is None:
        issued_at = session.created_at
    _SEAL.value += 1
    iv = rng.random_bytes(16)
    cipher = stek.cipher
    plaintext = _encode_state(session, issued_at)
    header = _SCHANNEL_HEADER if ticket_format is TicketFormat.SCHANNEL else b""
    return SealedTicket(header, stek.key_name, iv, cipher, stek.hmac_key, plaintext)


def seal_ticket(
    stek: STEK,
    session: SessionState,
    rng: DeterministicRandom,
    ticket_format: TicketFormat = TicketFormat.RFC5077,
    issued_at: float | None = None,
) -> bytes:
    """Encrypt session state into a ticket under ``stek``."""
    return bytes(issue_ticket(stek, session, rng, ticket_format, issued_at))


Ticket = Union[bytes, SealedTicket]


def _head(ticket: Ticket) -> bytes:
    return ticket.head if isinstance(ticket, SealedTicket) else ticket


def extract_key_name(ticket: Ticket, ticket_format: TicketFormat) -> bytes:
    """Read the cleartext STEK identifier out of a ticket.

    This is the scanner-side primitive behind the paper's §4.3 STEK
    lifetime measurement: no keys are needed, only the framing.  A
    :class:`SealedTicket` is read from its head and never encrypted.
    """
    reader = ByteReader(_head(ticket))
    if ticket_format is TicketFormat.SCHANNEL:
        header = reader.raw(len(_SCHANNEL_HEADER))
        if header != _SCHANNEL_HEADER:
            raise DecodeError("missing SChannel DPAPI header")
    return reader.raw(_KEY_NAME_LENGTH[ticket_format])


def sniff_ticket_format(ticket: Ticket) -> TicketFormat:
    """Guess a ticket's framing from its structure (see :func:`sniff_ticket_head`)."""
    return sniff_ticket_head(_head(ticket), len(ticket))


def sniff_ticket_head(head: bytes, length: int) -> TicketFormat:
    """Guess a ticket's framing from a prefix of it and its total length.

    SChannel blobs carry a distinctive header; otherwise we try the
    RFC 5077 16-byte layout and fall back to mbedTLS's 4-byte one by
    checking which layout's length bookkeeping is self-consistent.  A
    layout whose length field lies beyond ``head`` is not a match.
    That never changes the answer for a well-formed mbedTLS ticket,
    whose bytes 32-33 (ciphertext) can never pass the RFC 5077 check:
    it would need a body of ``E - 12`` bytes with both that and the
    real body length ``E`` multiples of 16.
    """
    if head.startswith(_SCHANNEL_HEADER):
        return TicketFormat.SCHANNEL
    for candidate in (TicketFormat.RFC5077, TicketFormat.MBEDTLS):
        name_len = _KEY_NAME_LENGTH[candidate]
        # layout: name | iv(16) | len(2) | enc | mac(32)
        if length < name_len + 16 + 2 + 32 or len(head) < name_len + 18:
            continue
        enc_len = int.from_bytes(head[name_len + 16 : name_len + 18], "big")
        if name_len + 16 + 2 + enc_len + 32 == length and enc_len % 16 == 0:
            return candidate
    raise DecodeError("unrecognized ticket format")


def open_ticket(
    stek: STEK,
    ticket: Ticket,
    ticket_format: TicketFormat = TicketFormat.RFC5077,
) -> Optional[TicketContents]:
    """Authenticate and decrypt a ticket; None if not sealed by ``stek``.

    Verifies the key name, the HMAC, and the padding before returning
    state — the same checks a careful server performs, and the same
    operation an attacker performs with a *stolen* STEK.  A
    :class:`SealedTicket` is opened from its real sealed bytes.
    """
    ticket = bytes(ticket)
    offset = 0
    if ticket_format is TicketFormat.SCHANNEL:
        if not ticket.startswith(_SCHANNEL_HEADER):
            _OPEN_REJECT.value += 1
            return None
        offset = len(_SCHANNEL_HEADER)
    name_len = _KEY_NAME_LENGTH[ticket_format]
    iv_end = offset + name_len + 16
    if len(ticket) < iv_end + 2 + 32:
        _OPEN_REJECT.value += 1
        return None
    key_name = ticket[offset : offset + name_len]
    if key_name != stek.key_name:
        _OPEN_WRONG_KEY.value += 1
        return None
    iv = ticket[offset + name_len : iv_end]
    enc_len = int.from_bytes(ticket[iv_end : iv_end + 2], "big")
    enc_end = iv_end + 2 + enc_len
    if len(ticket) != enc_end + 32:  # exactly the MAC must remain
        _OPEN_REJECT.value += 1
        return None
    encrypted = ticket[iv_end + 2 : enc_end]
    mac = ticket[enc_end:]
    expected = hmac_sha256(stek.hmac_key, key_name + iv + encrypted)
    if not constant_time_equal(mac, expected):
        _OPEN_REJECT.value += 1
        return None
    try:
        plaintext = cbc_decrypt_with(stek.cipher, iv, encrypted)
        contents = _decode_state(plaintext)
    except (PaddingError, DecodeError, ValueError):
        _OPEN_REJECT.value += 1
        return None
    _OPEN_OK.value += 1
    return contents


class STEKStore:
    """Holds the issuing STEK plus previously issued keys still accepted.

    ``retain`` previous keys are kept so tickets sealed shortly before a
    rotation still resume (Google's observed 14-hour rotation with a
    28-hour acceptance window corresponds to ``retain=1``).  The store
    is shareable across servers/domains, which is the §5.2 cross-domain
    STEK sharing mechanism.
    """

    def __init__(
        self,
        initial: STEK,
        ticket_format: TicketFormat = TicketFormat.RFC5077,
        retain: int = 1,
    ) -> None:
        if retain < 0:
            raise ValueError("retain must be non-negative")
        self.ticket_format = ticket_format
        self.retain = retain
        self._current = initial
        self._previous: list[STEK] = []

    @property
    def current(self) -> STEK:
        return self._current

    @property
    def all_keys(self) -> list[STEK]:
        """Current plus retained previous keys — the full theft surface."""
        return [self._current] + list(self._previous)

    def rotate(self, new_stek: STEK) -> None:
        """Install a new issuing key, retiring the old one into history."""
        self._previous.insert(0, self._current)
        del self._previous[self.retain :]
        self._current = new_stek

    def issue(
        self, session: SessionState, rng: DeterministicRandom, now: float | None = None
    ) -> SealedTicket:
        """Issue a ticket under the current issuing key (sealed on first use)."""
        return issue_ticket(self._current, session, rng, self.ticket_format, issued_at=now)

    def open(self, ticket: Ticket) -> Optional[TicketContents]:
        """Try current and retained keys in order."""
        for stek in self.all_keys:
            contents = open_ticket(stek, ticket, self.ticket_format)
            if contents is not None:
                return contents
        return None


__all__ = [
    "STEK",
    "STEKStore",
    "SealedTicket",
    "Ticket",
    "TicketContents",
    "TicketFormat",
    "generate_stek",
    "issue_ticket",
    "seal_ticket",
    "open_ticket",
    "extract_key_name",
    "sniff_ticket_format",
    "sniff_ticket_head",
]
