"""Pure-Python AES block cipher (FIPS 197).

Implements AES-128/192/256 encryption and decryption of single 16-byte
blocks.  RFC 5077 recommends AES-CBC with a 128-bit key for encrypting
session-ticket state, and this module (together with
:mod:`repro.crypto.modes`) is what the simulated servers use to build
tickets, so the scanner genuinely decrypts and forges nothing.

The round function uses the classic 32-bit T-table formulation
(SubBytes + ShiftRows + MixColumns folded into four table lookups per
column), which keeps the millions of simulated ticket seal/open
operations fast enough for full-ecosystem scans.  Correctness is pinned
to the FIPS 197 vectors in the test suite.
"""

from __future__ import annotations

BLOCK_SIZE = 16

_SBOX = [0] * 256
_INV_SBOX = [0] * 256


def _rotl8(x: int, shift: int) -> int:
    return ((x << shift) | (x >> (8 - shift))) & 0xFF


def _build_sbox() -> None:
    # Multiplicative inverse in GF(2^8) followed by the affine transform.
    p = q = 1
    first = True
    while first or p != 1:
        first = False
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)  # p *= 3
        q ^= q << 1  # q /= 3
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        xformed = q ^ _rotl8(q, 1) ^ _rotl8(q, 2) ^ _rotl8(q, 3) ^ _rotl8(q, 4)
        _SBOX[p] = xformed ^ 0x63
    _SBOX[0] = 0x63
    for i, v in enumerate(_SBOX):
        _INV_SBOX[v] = i


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) under the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


_build_sbox()

# Encryption T-tables: T0[x] = (2s, s, s, 3s) as a big-endian 32-bit
# word; T1..T3 are byte rotations of T0.
_T0 = [0] * 256
for _x in range(256):
    _s = _SBOX[_x]
    _T0[_x] = (_gmul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _gmul(_s, 3)
_T1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _T0]
_T2 = [((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF for t in _T0]
_T3 = [((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF for t in _T0]

# Decryption T-tables: D0[x] = (14s, 9s, 13s, 11s) with s = InvSBox[x].
_D0 = [0] * 256
for _x in range(256):
    _s = _INV_SBOX[_x]
    _D0[_x] = (
        (_gmul(_s, 14) << 24) | (_gmul(_s, 9) << 16) | (_gmul(_s, 13) << 8) | _gmul(_s, 11)
    )
_D1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _D0]
_D2 = [((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF for t in _D0]
_D3 = [((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF for t in _D0]

# InvMixColumns as word->word (for transforming decryption round keys).
_U0 = [0] * 256
for _x in range(256):
    _U0[_x] = (
        (_gmul(_x, 14) << 24) | (_gmul(_x, 9) << 16) | (_gmul(_x, 13) << 8) | _gmul(_x, 11)
    )

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _inv_mix_word(word: int) -> int:
    return (
        _U0[(word >> 24) & 0xFF]
        ^ ((_U0[(word >> 16) & 0xFF] >> 8) | ((_U0[(word >> 16) & 0xFF] & 0xFF) << 24))
        ^ ((_U0[(word >> 8) & 0xFF] >> 16) | ((_U0[(word >> 8) & 0xFF] & 0xFFFF) << 16))
        ^ ((_U0[word & 0xFF] >> 24) | ((_U0[word & 0xFF] & 0xFFFFFF) << 8))
    ) & 0xFFFFFFFF


class AES:
    """AES block cipher for a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24, or 32 bytes")
        self.key = key
        self._nk = len(key) // 4
        self._nr = self._nk + 6
        self._rounds = range(self._nr - 1)  # hoisted out of the block loop
        self._enc_keys = self._expand_key(key)
        # Decryption keys are derived lazily: a STEK that only ever
        # *seals* (every full handshake on a ticket-issuing server)
        # never pays for the InvMixColumns transform.
        self._dec_keys: list[int] | None = None

    def _expand_key(self, key: bytes) -> list[int]:
        """Key schedule as a flat list of 4*(nr+1) 32-bit words."""
        nk, nr = self._nk, self._nr
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (  # SubWord
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _decryption_keys(self, enc_keys: list[int]) -> list[int]:
        """Equivalent-inverse-cipher round keys (reversed + InvMixColumns)."""
        nr = self._nr
        dec: list[int] = []
        for rnd in range(nr, -1, -1):
            block = enc_keys[4 * rnd : 4 * rnd + 4]
            if rnd in (0, nr):
                dec.extend(block)
            else:
                dec.extend(_inv_mix_word(w) for w in block)
        return dec

    def encrypt_int(self, state: int) -> int:
        """Encrypt one block held as a 128-bit big-endian integer.

        The integer form is the cipher-mode fast path: CBC chaining and
        CTR keystream generation are whole-block XORs on ints, so modes
        avoid four ``int``/``bytes`` conversions per block per call.
        """
        rk = self._enc_keys
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        s0 = (state >> 96) ^ rk[0]
        s1 = ((state >> 64) & 0xFFFFFFFF) ^ rk[1]
        s2 = ((state >> 32) & 0xFFFFFFFF) ^ rk[2]
        s3 = (state & 0xFFFFFFFF) ^ rk[3]
        k = 4
        for _ in self._rounds:
            u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k]
            u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1]
            u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2]
            u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3]
            s0, s1, s2, s3 = u0, u1, u2, u3
            k += 4
        sbox = _SBOX
        w0 = (sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16) | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        w1 = (sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16) | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        w2 = (sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16) | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        w3 = (sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16) | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        return (
            ((w0 ^ rk[k]) << 96)
            | ((w1 ^ rk[k + 1]) << 64)
            | ((w2 ^ rk[k + 2]) << 32)
            | (w3 ^ rk[k + 3])
        )

    def decrypt_int(self, state: int) -> int:
        """Decrypt one block held as a 128-bit big-endian integer."""
        rk = self._dec_keys
        if rk is None:
            rk = self._dec_keys = self._decryption_keys(self._enc_keys)
        d0, d1, d2, d3 = _D0, _D1, _D2, _D3
        s0 = (state >> 96) ^ rk[0]
        s1 = ((state >> 64) & 0xFFFFFFFF) ^ rk[1]
        s2 = ((state >> 32) & 0xFFFFFFFF) ^ rk[2]
        s3 = (state & 0xFFFFFFFF) ^ rk[3]
        k = 4
        for _ in self._rounds:
            u0 = d0[s0 >> 24] ^ d1[(s3 >> 16) & 0xFF] ^ d2[(s2 >> 8) & 0xFF] ^ d3[s1 & 0xFF] ^ rk[k]
            u1 = d0[s1 >> 24] ^ d1[(s0 >> 16) & 0xFF] ^ d2[(s3 >> 8) & 0xFF] ^ d3[s2 & 0xFF] ^ rk[k + 1]
            u2 = d0[s2 >> 24] ^ d1[(s1 >> 16) & 0xFF] ^ d2[(s0 >> 8) & 0xFF] ^ d3[s3 & 0xFF] ^ rk[k + 2]
            u3 = d0[s3 >> 24] ^ d1[(s2 >> 16) & 0xFF] ^ d2[(s1 >> 8) & 0xFF] ^ d3[s0 & 0xFF] ^ rk[k + 3]
            s0, s1, s2, s3 = u0, u1, u2, u3
            k += 4
        inv = _INV_SBOX
        w0 = (inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16) | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]
        w1 = (inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16) | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]
        w2 = (inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16) | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]
        w3 = (inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16) | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]
        return (
            ((w0 ^ rk[k]) << 96)
            | ((w1 ^ rk[k + 1]) << 64)
            | ((w2 ^ rk[k + 2]) << 32)
            | (w3 ^ rk[k + 3])
        )

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on 16-byte blocks")
        return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on 16-byte blocks")
        return self.decrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")


__all__ = ["AES", "BLOCK_SIZE"]
