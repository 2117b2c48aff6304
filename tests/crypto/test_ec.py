"""Elliptic-curve group law and ECDHE tests."""

import pytest

from repro.crypto import ec
from repro.crypto.rng import DeterministicRandom

ALL_CURVES = [ec.P256, ec.P224, ec.SECP128R1, ec.SECP160R1, ec.TINY]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_base_point_on_curve(curve):
    assert ec.is_on_curve(curve, ec.base_point(curve))


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_order_annihilates_base_point(curve):
    assert ec.scalar_mult(curve, curve.n, ec.base_point(curve)) is None


def test_point_addition_identity():
    g = ec.base_point(ec.TINY)
    assert ec.point_add(ec.TINY, g, None) == g
    assert ec.point_add(ec.TINY, None, g) == g
    assert ec.point_add(ec.TINY, None, None) is None


def test_point_plus_negation_is_infinity():
    g = ec.base_point(ec.TINY)
    assert ec.point_add(ec.TINY, g, ec.point_neg(ec.TINY, g)) is None


def test_addition_commutes():
    g = ec.base_point(ec.TINY)
    g2 = ec.point_double(ec.TINY, g)
    assert ec.point_add(ec.TINY, g, g2) == ec.point_add(ec.TINY, g2, g)


def test_addition_associates():
    curve = ec.TINY
    g = ec.base_point(curve)
    p2 = ec.scalar_mult(curve, 2, g)
    p3 = ec.scalar_mult(curve, 3, g)
    left = ec.point_add(curve, ec.point_add(curve, g, p2), p3)
    right = ec.point_add(curve, g, ec.point_add(curve, p2, p3))
    assert left == right


def test_double_equals_add_to_self():
    g = ec.base_point(ec.TINY)
    assert ec.point_double(ec.TINY, g) == ec.point_add(ec.TINY, g, g)


def test_scalar_mult_matches_repeated_addition():
    curve = ec.TINY
    g = ec.base_point(curve)
    acc = None
    for k in range(1, 40):
        acc = ec.point_add(curve, acc, g)
        assert ec.scalar_mult(curve, k, g) == acc


def test_scalar_mult_distributes():
    curve = ec.TINY
    g = ec.base_point(curve)
    for a, b in [(2, 3), (17, 900), (curve.n - 1, 1), (123, 456)]:
        lhs = ec.scalar_mult(curve, a + b, g)
        rhs = ec.point_add(
            curve, ec.scalar_mult(curve, a, g), ec.scalar_mult(curve, b, g)
        )
        assert lhs == rhs


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_fixed_base_matches_generic(curve):
    rng = DeterministicRandom(77)
    for _ in range(10):
        k = rng.randrange(1, curve.n)
        assert ec.scalar_mult_base(curve, k) == ec.scalar_mult(
            curve, k, ec.base_point(curve)
        )


def test_scalar_mult_zero_and_infinity():
    assert ec.scalar_mult(ec.TINY, 0, ec.base_point(ec.TINY)) is None
    assert ec.scalar_mult(ec.TINY, 5, None) is None
    assert ec.scalar_mult_base(ec.TINY, 0) is None


def test_scalar_mult_rejects_off_curve_point():
    with pytest.raises(ec.NotOnCurveError):
        ec.scalar_mult(ec.TINY, 3, (1, 1))


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256], ids=lambda c: c.name)
def test_ecdh_agreement(curve):
    rng = DeterministicRandom(5)
    alice = ec.generate_keypair(curve, rng)
    bob = ec.generate_keypair(curve, rng)
    for pair in (alice, bob):
        assert 1 <= pair.private < curve.n
        assert ec.is_on_curve(curve, pair.public)
        assert pair.public == ec.scalar_mult(curve, pair.private, ec.base_point(curve))
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)
    assert alice.shared_secret_bytes(bob.public) == bob.shared_secret_bytes(alice.public)


def test_shared_secret_bytes_width():
    rng = DeterministicRandom(6)
    alice = ec.generate_keypair(ec.SECP128R1, rng)
    bob = ec.generate_keypair(ec.SECP128R1, rng)
    assert len(alice.shared_secret_bytes(bob.public)) == ec.SECP128R1.coordinate_bytes


def test_shared_secret_rejects_off_curve_peer():
    rng = DeterministicRandom(7)
    alice = ec.generate_keypair(ec.SECP128R1, rng)
    with pytest.raises(ec.NotOnCurveError):
        alice.shared_secret((1, 1))


def test_point_encoding_roundtrip():
    rng = DeterministicRandom(8)
    pair = ec.generate_keypair(ec.P256, rng)
    encoded = ec.encode_point(ec.P256, pair.public)
    assert encoded[0] == 0x04
    assert len(encoded) == 65
    assert ec.decode_point(ec.P256, encoded) == pair.public


def test_decode_point_rejects_malformed():
    with pytest.raises(ValueError):
        ec.decode_point(ec.P256, b"\x04" + bytes(10))
    with pytest.raises(ValueError):
        ec.decode_point(ec.P256, b"\x02" + bytes(64))  # compressed unsupported


def test_decode_point_rejects_off_curve():
    bad = b"\x04" + bytes(31) + b"\x01" + bytes(31) + b"\x01"
    with pytest.raises(ec.NotOnCurveError):
        ec.decode_point(ec.P256, bad)


def test_named_curve_registry_roundtrip():
    for name, curve_id in ec.NAMED_CURVE_IDS.items():
        assert ec.NAMED_CURVE_BY_ID[curve_id] == name
        assert name in ec.CURVES_BY_NAME


def test_tiny_curve_exhaustive_group_order():
    """Every non-identity point of the tiny curve has prime order n."""
    curve = ec.TINY
    g = ec.base_point(curve)
    # Walk a handful of points; multiply each by n.
    for k in (1, 2, 3, 100, 9850):
        point = ec.scalar_mult(curve, k, g)
        assert ec.scalar_mult(curve, curve.n, point) is None


# --- windowed-NAF scalar_mult edge cases -------------------------------

def _double_and_add(curve, k, point):
    """Reference scalar multiplication for cross-checking wNAF."""
    k %= curve.n
    result = None
    addend = point
    while k:
        if k & 1:
            result = ec.point_add(curve, result, addend)
        addend = ec.point_add(curve, addend, addend)
        k >>= 1
    return result


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256, ec.TINY], ids=lambda c: c.name)
def test_wnaf_matches_double_and_add(curve):
    rng = DeterministicRandom(314)
    g = ec.base_point(curve)
    point = ec.scalar_mult(curve, rng.randrange(1, curve.n), g)
    for _ in range(8):
        k = rng.randrange(1, curve.n)
        assert ec.scalar_mult(curve, k, point) == _double_and_add(curve, k, point)


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256, ec.TINY], ids=lambda c: c.name)
def test_scalar_n_minus_one_is_negation(curve):
    g = ec.base_point(curve)
    assert ec.scalar_mult(curve, curve.n - 1, g) == ec.point_neg(curve, g)


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.TINY], ids=lambda c: c.name)
def test_scalar_at_least_n_reduces_mod_n(curve):
    g = ec.base_point(curve)
    assert ec.scalar_mult(curve, curve.n, g) is None
    assert ec.scalar_mult(curve, curve.n + 1, g) == g
    assert ec.scalar_mult(curve, 2 * curve.n + 5, g) == ec.scalar_mult(curve, 5, g)


def test_wnaf_small_scalars_exhaustive():
    """Every small scalar on the tiny curve, against repeated addition."""
    curve = ec.TINY
    g = ec.base_point(curve)
    acc = None
    for k in range(1, 130):  # crosses several window widths
        acc = ec.point_add(curve, acc, g)
        assert ec.scalar_mult(curve, k, g) == acc


def test_wnaf_digit_expansion_reconstructs_scalar():
    rng = DeterministicRandom(2021)
    for _ in range(25):
        k = rng.randrange(1, 1 << 256)
        digits = ec._wnaf_digits(k, ec._WNAF_WIDTH)
        assert sum(d << i for i, d in enumerate(digits)) == k
        half = 1 << (ec._WNAF_WIDTH - 1)
        for digit in digits:
            assert digit == 0 or (digit % 2 == 1 and -half < digit < half)


def test_coordinate_bytes_precomputed():
    for curve in ALL_CURVES:
        assert curve.coordinate_bytes == (curve.p.bit_length() + 7) // 8
    assert ec.P256.a_is_minus_3
    assert not ec.TINY.a_is_minus_3


# --- affine fixed-base table and mixed addition ------------------------

def test_fixed_base_exhaustive_on_tiny():
    curve = ec.TINY
    g = ec.base_point(curve)
    for k in range(curve.n + 2):
        assert ec.scalar_mult_base(curve, k) == ec.scalar_mult(curve, k, g)


def _edge_scalars(curve):
    window = ec._FIXED_BASE_WINDOW
    windows = (curve.n.bit_length() + window - 1) // window
    scalars = {0, 1, 2, curve.n - 1, curve.n, curve.n + 1}
    for i in range(windows + 1):
        scalars.add(256**i)
        scalars.add(256**i - 1)
    # Zero digits in inner windows: only the outer windows are set.
    top = 256 ** (windows - 1)
    scalars.update({top + 1, 255 * top + 255, top + 256, (top - 1) ^ 0xFF00})
    return sorted(scalars)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_fixed_base_edge_scalars(curve):
    g = ec.base_point(curve)
    for k in _edge_scalars(curve):
        assert ec.scalar_mult_base(curve, k) == ec.scalar_mult(curve, k, g), k


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_fixed_base_table_is_affine_and_on_curve(curve):
    table = ec._fixed_base_table(curve)
    for row in table:
        assert len(row) == 1 << ec._FIXED_BASE_WINDOW
        assert row[0] is None
        for entry in row:
            assert entry is None or (
                isinstance(entry, tuple) and len(entry) == 2
                and ec.is_on_curve(curve, entry)
            )


def test_fixed_base_table_entries_on_tiny():
    curve = ec.TINY
    g = ec.base_point(curve)
    for i, row in enumerate(ec._fixed_base_table(curve)):
        for j, entry in enumerate(row):
            assert entry == ec.scalar_mult(curve, j * 256**i, g)


def _jacobian(curve, k):
    """``k·G`` as a Jacobian triple with ``z != 1``."""
    jac = ec._to_jacobian(ec.scalar_mult(curve, k, ec.base_point(curve)))
    return ec._jacobian_double(curve, ec._jacobian_add(curve, jac, (1, 1, 0)))


@pytest.mark.parametrize("curve", [ec.TINY, ec.SECP128R1, ec.P256], ids=lambda c: c.name)
def test_mixed_add_general_case(curve):
    a = _jacobian(curve, 5)  # 10·G
    assert a[2] != 1
    b = ec.scalar_mult(curve, 7, ec.base_point(curve))
    mixed = ec._jacobian_add_affine(curve, a, b)
    full = ec._jacobian_add(curve, a, ec._to_jacobian(b))
    assert ec._from_jacobian(curve, mixed) == ec._from_jacobian(curve, full)
    assert ec._from_jacobian(curve, mixed) == ec.scalar_mult(
        curve, 17, ec.base_point(curve)
    )


@pytest.mark.parametrize("curve", [ec.TINY, ec.SECP128R1, ec.P256], ids=lambda c: c.name)
def test_mixed_add_degenerate_branches(curve):
    g = ec.base_point(curve)
    p = ec.scalar_mult(curve, 10, g)
    a = _jacobian(curve, 5)  # 10·G, z != 1
    infinity = (1, 1, 0)
    # infinity + P
    assert ec._jacobian_add_affine(curve, infinity, p) == (p[0], p[1], 1)
    # P + None (a table entry at infinity)
    assert ec._jacobian_add_affine(curve, a, None) is a
    assert ec._jacobian_add_affine(curve, infinity, None)[2] == 0
    # P + P doubles
    assert ec._from_jacobian(curve, ec._jacobian_add_affine(curve, a, p)) == (
        ec.scalar_mult(curve, 20, g)
    )
    # P + (-P) is infinity
    assert ec._jacobian_add_affine(curve, a, ec.point_neg(curve, p))[2] == 0


@pytest.mark.parametrize("curve", [ec.TINY, ec.P256], ids=lambda c: c.name)
def test_from_jacobian_normalizes_any_z(curve):
    x, y = ec.scalar_mult(curve, 3, ec.base_point(curve))
    for z in (1, 2, curve.p - 1, 12345):
        z2 = z * z % curve.p
        jac = (x * z2 % curve.p, y * z2 * z % curve.p, z)
        assert ec._from_jacobian(curve, jac) == (x, y)
    assert ec._from_jacobian(curve, (1, 1, 0)) is None
