"""Known-answer tests for the package's one HMAC-SHA-256."""

import hmac

import pytest

from repro.crypto.mac import hmac_sha256

# RFC 4231 section 4, test cases 1-7: (key, data, HMAC-SHA-256).  Case 5
# publishes only the first 128 bits; cases 6 and 7 use a 131-byte key,
# longer than SHA-256's 64-byte block, so the key is hashed first.
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\x0c" * 20,
        b"Test With Truncation",
        "a3b6167473100ee06e0c796c2955552b",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger than "
        b"block-size data. The key needs to be hashed before being used by the "
        b"HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


@pytest.mark.parametrize("key, data, expected", RFC4231, ids=[f"case{i}" for i in range(1, 8)])
def test_rfc4231_known_answers(key, data, expected):
    assert hmac_sha256(key, data).hex()[: len(expected)] == expected


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 200])
def test_block_size_boundaries_match_reference(length):
    key = bytes(i % 256 for i in range(length))
    assert hmac_sha256(key, b"data") == hmac.new(key, b"data", "sha256").digest()
