"""AES correctness against FIPS 197 / NIST vectors."""

import pytest

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.rng import DeterministicRandom

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


def test_fips197_aes128():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert AES(key).encrypt_block(FIPS_PLAINTEXT) == expected


def test_fips197_aes192():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
    assert AES(key).encrypt_block(FIPS_PLAINTEXT) == expected


def test_fips197_aes256():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert AES(key).encrypt_block(FIPS_PLAINTEXT) == expected


def test_nist_ecb_kat_aes128():
    # NIST SP 800-38A F.1.1 (ECB-AES128) first block.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
    assert AES(key).encrypt_block(plaintext) == expected


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_decrypt_inverts_encrypt(key_len):
    rng = DeterministicRandom(key_len)
    cipher = AES(rng.random_bytes(key_len))
    for _ in range(25):
        block = rng.random_bytes(BLOCK_SIZE)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_invalid_key_length_rejected():
    for bad in (0, 15, 17, 31, 33):
        with pytest.raises(ValueError):
            AES(bytes(bad))


def test_invalid_block_length_rejected():
    cipher = AES(bytes(16))
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"short")
    with pytest.raises(ValueError):
        cipher.decrypt_block(bytes(17))


def test_different_keys_different_ciphertexts():
    block = bytes(16)
    assert AES(bytes(16)).encrypt_block(block) != AES(b"\x01" * 16).encrypt_block(block)


def test_encryption_is_deterministic():
    key = bytes(range(16))
    assert AES(key).encrypt_block(FIPS_PLAINTEXT) == AES(key).encrypt_block(FIPS_PLAINTEXT)


def test_avalanche_one_bit_flip():
    key = bytes(range(16))
    cipher = AES(key)
    base = cipher.encrypt_block(FIPS_PLAINTEXT)
    flipped_input = bytes([FIPS_PLAINTEXT[0] ^ 1]) + FIPS_PLAINTEXT[1:]
    other = cipher.encrypt_block(flipped_input)
    differing_bits = sum(bin(a ^ b).count("1") for a, b in zip(base, other))
    assert differing_bits > 30  # ~64 expected for a good block cipher


# FIPS 197 appendix C vectors driven through the *decrypt* direction —
# the inverse cipher has its own T-tables and key schedule, so the
# encrypt vectors alone don't cover it.
@pytest.mark.parametrize(
    "key_hex, ciphertext_hex",
    [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ],
    ids=["aes128", "aes192", "aes256"],
)
def test_fips197_decrypt_direction(key_hex, ciphertext_hex):
    key = bytes.fromhex(key_hex)
    ciphertext = bytes.fromhex(ciphertext_hex)
    assert AES(key).decrypt_block(ciphertext) == FIPS_PLAINTEXT


def test_int_block_api_matches_bytes_api():
    rng = DeterministicRandom(42)
    cipher = AES(rng.random_bytes(16))
    for _ in range(10):
        block = rng.random_bytes(BLOCK_SIZE)
        as_int = int.from_bytes(block, "big")
        assert cipher.encrypt_int(as_int).to_bytes(BLOCK_SIZE, "big") == \
            cipher.encrypt_block(block)
        assert cipher.decrypt_int(as_int).to_bytes(BLOCK_SIZE, "big") == \
            cipher.decrypt_block(block)
