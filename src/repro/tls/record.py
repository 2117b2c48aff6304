"""TLS record layer: framing and application-data protection.

Handshake flights travel in cleartext handshake records; application
data is protected with the connection keys derived from the session
master secret, using the construction the negotiated suite implies:

* ``*_CBC_*`` suites — TLS 1.2's MAC-then-encrypt CBC with explicit
  per-record IVs (:class:`CBCRecordCipher`);
* GCM suites — an AES-CTR + HMAC stand-in for AES-GCM
  (:class:`RecordCipher`; same key schedule and nonce discipline, the
  one documented substitution at this layer).

Either way the measurement-relevant property holds exactly: recorded
application data is unreadable without the session keys and
recoverable *with* them — the nation-state module decrypts captured
records offline from recovered master secrets.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from ..crypto.mac import hmac_sha256, constant_time_equal
from ..crypto.modes import PaddingError, cbc_decrypt, cbc_encrypt, ctr_xor
from ..wireformat import ByteReader, ByteWriter, DecodeError
from .ciphers import CipherSuite
from .constants import ContentType, ProtocolVersion
from .session import ConnectionKeys

MAX_FRAGMENT_LENGTH = 1 << 14


@dataclass(frozen=True)
class TLSRecord:
    """One record-layer frame."""

    content_type: ContentType
    version: ProtocolVersion
    payload: bytes

    def serialize(self) -> bytes:
        if len(self.payload) > MAX_FRAGMENT_LENGTH + 2048:
            raise ValueError("record payload too large")
        return (
            ByteWriter()
            .u8(self.content_type)
            .u16(self.version)
            .vec16(self.payload)
            .getvalue()
        )


def serialize_records(records: list[TLSRecord]) -> bytes:
    return b"".join(record.serialize() for record in records)


def parse_records(data: bytes) -> list[TLSRecord]:
    """Parse a byte stream into records (strict: no trailing bytes)."""
    reader = ByteReader(data)
    records = []
    while reader.remaining:
        try:
            content_type = ContentType(reader.u8())
        except ValueError as exc:
            raise DecodeError("unknown record content type") from exc
        version = ProtocolVersion(reader.u16())
        payload = reader.vec16()
        records.append(TLSRecord(content_type=content_type, version=version, payload=payload))
    return records


def handshake_record(payload: bytes, version: ProtocolVersion = ProtocolVersion.TLS12) -> TLSRecord:
    return TLSRecord(ContentType.HANDSHAKE, version, payload)


class RecordCipher:
    """Directional application-data protection for one connection.

    Each record is encrypted with AES-CTR under the direction's write
    key; the nonce mixes the write IV with the record sequence number,
    and an HMAC-SHA-256 tag (truncated to 16 bytes) authenticates the
    ciphertext.
    """

    TAG_LENGTH = 16

    def __init__(self, keys: ConnectionKeys, is_client: bool) -> None:
        if is_client:
            self._write_key, self._write_iv = keys.client_write_key, keys.client_write_iv
            self._write_mac = keys.client_mac_key
            self._read_key, self._read_iv = keys.server_write_key, keys.server_write_iv
            self._read_mac = keys.server_mac_key
        else:
            self._write_key, self._write_iv = keys.server_write_key, keys.server_write_iv
            self._write_mac = keys.server_mac_key
            self._read_key, self._read_iv = keys.client_write_key, keys.client_write_iv
            self._read_mac = keys.client_mac_key
        self._write_seq = 0
        self._read_seq = 0

    @staticmethod
    def _nonce(iv: bytes, seq: int) -> bytes:
        value = int.from_bytes(iv, "big") ^ seq
        return value.to_bytes(16, "big")

    def protect(self, plaintext: bytes) -> TLSRecord:
        """Encrypt + authenticate one application-data record."""
        nonce = self._nonce(self._write_iv, self._write_seq)
        ciphertext = ctr_xor(self._write_key, nonce, plaintext)
        tag = hmac_sha256(
            self._write_mac, self._write_seq.to_bytes(8, "big") + ciphertext
        )[: self.TAG_LENGTH]
        self._write_seq += 1
        return TLSRecord(
            ContentType.APPLICATION_DATA, ProtocolVersion.TLS12, ciphertext + tag
        )

    def unprotect(self, record: TLSRecord) -> bytes:
        """Verify and decrypt one application-data record."""
        if record.content_type is not ContentType.APPLICATION_DATA:
            raise DecodeError("not an application-data record")
        if len(record.payload) < self.TAG_LENGTH:
            raise DecodeError("record too short for its tag")
        ciphertext = record.payload[: -self.TAG_LENGTH]
        tag = record.payload[-self.TAG_LENGTH :]
        expected = hmac_sha256(
            self._read_mac, self._read_seq.to_bytes(8, "big") + ciphertext
        )[: self.TAG_LENGTH]
        if not constant_time_equal(tag, expected):
            raise DecodeError("bad record MAC")
        nonce = self._nonce(self._read_iv, self._read_seq)
        self._read_seq += 1
        return ctr_xor(self._read_key, nonce, ciphertext)


class CBCRecordCipher:
    """TLS 1.2 MAC-then-encrypt CBC protection (RFC 5246 §6.2.3.2).

    Used for the ``*_CBC_*`` suites: the record MAC (HMAC-SHA-256 here,
    where the historical suites used SHA-1 — a documented width
    substitution) covers the sequence number and plaintext; plaintext
    plus MAC are CBC-encrypted under a per-record explicit IV, which is
    prepended to the ciphertext exactly as TLS 1.2 does.

    The explicit IV is derived deterministically from the write IV and
    sequence number (real stacks draw it from their CSPRNG; determinism
    keeps simulations replayable and is unobservable to the analyses).
    """

    MAC_LENGTH = 32

    def __init__(self, keys: ConnectionKeys, is_client: bool) -> None:
        if is_client:
            self._write_key, self._write_iv = keys.client_write_key, keys.client_write_iv
            self._write_mac = keys.client_mac_key
            self._read_key, self._read_iv = keys.server_write_key, keys.server_write_iv
            self._read_mac = keys.server_mac_key
        else:
            self._write_key, self._write_iv = keys.server_write_key, keys.server_write_iv
            self._write_mac = keys.server_mac_key
            self._read_key, self._read_iv = keys.client_write_key, keys.client_write_iv
            self._read_mac = keys.client_mac_key
        self._write_seq = 0
        self._read_seq = 0

    @staticmethod
    def _explicit_iv(write_iv: bytes, seq: int) -> bytes:
        return hmac_sha256(write_iv, b"explicit-iv" + seq.to_bytes(8, "big"))[:16]

    @staticmethod
    def _mac_input(seq: int, plaintext: bytes) -> bytes:
        header = bytes([ContentType.APPLICATION_DATA]) + ProtocolVersion.TLS12.wire
        return seq.to_bytes(8, "big") + header + len(plaintext).to_bytes(2, "big") + plaintext

    def protect(self, plaintext: bytes) -> TLSRecord:
        mac = hmac_sha256(self._write_mac, self._mac_input(self._write_seq, plaintext))
        iv = self._explicit_iv(self._write_iv, self._write_seq)
        ciphertext = cbc_encrypt(self._write_key, iv, plaintext + mac)
        self._write_seq += 1
        return TLSRecord(
            ContentType.APPLICATION_DATA, ProtocolVersion.TLS12, iv + ciphertext
        )

    def unprotect(self, record: TLSRecord) -> bytes:
        if record.content_type is not ContentType.APPLICATION_DATA:
            raise DecodeError("not an application-data record")
        if len(record.payload) < 16 + 16:
            raise DecodeError("CBC record too short")
        iv, ciphertext = record.payload[:16], record.payload[16:]
        try:
            padded = cbc_decrypt(self._read_key, iv, ciphertext)
        except PaddingError as exc:
            raise DecodeError("bad record padding") from exc
        if len(padded) < self.MAC_LENGTH:
            raise DecodeError("CBC record shorter than its MAC")
        plaintext, mac = padded[: -self.MAC_LENGTH], padded[-self.MAC_LENGTH :]
        expected = hmac_sha256(self._read_mac, self._mac_input(self._read_seq, plaintext))
        if not constant_time_equal(mac, expected):
            raise DecodeError("bad record MAC")
        self._read_seq += 1
        return plaintext


def new_record_cipher(
    keys: ConnectionKeys, is_client: bool, suite: Optional[CipherSuite] = None
):
    """Pick the record protection for a negotiated suite.

    CBC suites get TLS 1.2's MAC-then-encrypt CBC construction; GCM
    (and unknown) suites get the CTR+HMAC stand-in documented above.
    """
    if suite is not None and "_CBC_" in suite.name:
        return CBCRecordCipher(keys, is_client)
    return RecordCipher(keys, is_client)


def decrypt_recorded_record(
    keys: ConnectionKeys,
    record: TLSRecord,
    sequence: int,
    from_client: bool,
    suite: Optional[CipherSuite] = None,
) -> bytes:
    """Offline decryption of a *captured* record given recovered keys.

    This is the attacker's code path: a passive observer who later
    recovers the session's master secret derives the connection keys
    and decrypts traffic in either direction.  ``suite`` selects the
    record protection the connection negotiated (CBC vs CTR/GCM).
    """
    if from_client:
        key, iv, mac = keys.client_write_key, keys.client_write_iv, keys.client_mac_key
    else:
        key, iv, mac = keys.server_write_key, keys.server_write_iv, keys.server_mac_key
    if suite is not None and "_CBC_" in suite.name:
        explicit_iv, ciphertext = record.payload[:16], record.payload[16:]
        try:
            padded = cbc_decrypt(key, explicit_iv, ciphertext)
        except PaddingError as exc:
            raise DecodeError("recovered keys do not decrypt this record") from exc
        if len(padded) < CBCRecordCipher.MAC_LENGTH:
            raise DecodeError("CBC record shorter than its MAC")
        plaintext = padded[: -CBCRecordCipher.MAC_LENGTH]
        tag = padded[-CBCRecordCipher.MAC_LENGTH :]
        expected = hmac_sha256(mac, CBCRecordCipher._mac_input(sequence, plaintext))
        if not constant_time_equal(tag, expected):
            raise DecodeError("recovered keys do not authenticate this record")
        return plaintext
    ciphertext = record.payload[: -RecordCipher.TAG_LENGTH]
    tag = record.payload[-RecordCipher.TAG_LENGTH :]
    expected = hmac_sha256(mac, sequence.to_bytes(8, "big") + ciphertext)[
        : RecordCipher.TAG_LENGTH
    ]
    if not constant_time_equal(tag, expected):
        raise DecodeError("recovered keys do not authenticate this record")
    nonce = RecordCipher._nonce(iv, sequence)
    return ctr_xor(key, nonce, ciphertext)


__all__ = [
    "TLSRecord",
    "MAX_FRAGMENT_LENGTH",
    "serialize_records",
    "parse_records",
    "handshake_record",
    "RecordCipher",
    "CBCRecordCipher",
    "new_record_cipher",
    "decrypt_recorded_record",
]
