"""Block-cipher modes of operation and padding.

RFC 5077's recommended ticket construction uses AES-CBC; this module
provides CBC with PKCS#7 padding on top of :class:`repro.crypto.aes.AES`.

Key schedules are expanded per call (``AES(key)``): the only traffic
through the key-taking functions is application-data records under
per-connection keys on the record-layer path.  Callers that own a
long-lived key hold the expanded cipher themselves and use the
``*_with`` variants (each STEK keeps its schedule in
``repro.tls.ticket.STEK.cipher``).  Chaining works on whole blocks held
as 128-bit integers (``int.from_bytes`` once per block, one big XOR)
instead of a per-byte generator, which is the difference between the
XOR being free and being a quarter of the runtime.
"""

from __future__ import annotations

from .aes import AES, BLOCK_SIZE


class PaddingError(ValueError):
    """Raised when CBC ciphertext has invalid PKCS#7 padding."""


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` per PKCS#7."""
    if not 0 < block_size < 256:
        raise ValueError("block size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len

def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip PKCS#7 padding, raising :class:`PaddingError` if malformed."""
    if not data or len(data) % block_size:
        raise PaddingError("ciphertext length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len == 0 or pad_len > block_size:
        raise PaddingError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt ``plaintext`` (PKCS#7 padded) under ``key``/``iv``."""
    return cbc_encrypt_with(AES(key), iv, plaintext)


def cbc_encrypt_with(cipher: "AES", iv: bytes, plaintext: bytes) -> bytes:
    """:func:`cbc_encrypt` against an already-expanded :class:`AES`.

    Callers that own a long-lived key (a STEK seals tickets for its
    whole rotation period) hold the cipher object themselves, so the
    key schedule is expanded once per key rather than once per call.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be one block")
    encrypt_int = cipher.encrypt_int
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    previous = int.from_bytes(iv, "big")
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = int.from_bytes(padded[offset : offset + BLOCK_SIZE], "big")
        previous = encrypt_int(block ^ previous)
        out += previous.to_bytes(BLOCK_SIZE, "big")
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt and unpad; raises :class:`PaddingError` on bad padding."""
    return cbc_decrypt_with(AES(key), iv, ciphertext)


def cbc_decrypt_with(cipher: "AES", iv: bytes, ciphertext: bytes) -> bytes:
    """:func:`cbc_decrypt` against an already-expanded :class:`AES`."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be one block")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise PaddingError("ciphertext length is not a multiple of the block size")
    decrypt_int = cipher.decrypt_int
    out = bytearray()
    previous = int.from_bytes(iv, "big")
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = int.from_bytes(ciphertext[offset : offset + BLOCK_SIZE], "big")
        out += (decrypt_int(block) ^ previous).to_bytes(BLOCK_SIZE, "big")
        previous = block
    return pkcs7_unpad(bytes(out))


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate an AES-CTR keystream (used for record-layer encryption).

    The simulated record layer uses CTR rather than the full TLS 1.2
    GCM/CBC-MAC constructions: what the measurement study depends on is
    that application data is unreadable without the session keys, not
    the particular AEAD composition.
    """
    if len(nonce) != BLOCK_SIZE:
        raise ValueError("nonce must be one block")
    encrypt_int = AES(key).encrypt_int
    counter = int.from_bytes(nonce, "big")
    mask = (1 << 128) - 1
    out = bytearray()
    while len(out) < length:
        out += encrypt_int(counter).to_bytes(BLOCK_SIZE, "big")
        counter = (counter + 1) & mask
    return bytes(out[:length])


def ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` with an AES-CTR keystream (symmetric)."""
    if not data:
        return b""
    stream = ctr_keystream(key, nonce, len(data))
    xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return xored.to_bytes(len(data), "big")


__all__ = [
    "PaddingError",
    "pkcs7_pad",
    "pkcs7_unpad",
    "cbc_encrypt",
    "cbc_encrypt_with",
    "cbc_decrypt",
    "cbc_decrypt_with",
    "ctr_keystream",
    "ctr_xor",
]
