"""Elliptic-curve arithmetic for ECDHE (short Weierstrass curves).

Implements the group law over curves ``y^2 = x^3 + ax + b (mod p)`` in
Jacobian coordinates (no per-step modular inversion), with the NIST
curves TLS servers actually negotiate: P-256 (secp256r1) and P-224.
A small 64-bit toy curve is included for exhaustive unit testing.

ECDHE in the simulated handshakes is real scalar multiplication — a
server that reuses its ephemeral scalar ``d_A`` really does present the
same point ``d_A·G`` on the wire, which is exactly the signal the
scanner's reuse detector keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .rng import DeterministicRandom


@dataclass(frozen=True)
class Curve:
    """Domain parameters of a short Weierstrass curve."""

    name: str
    p: int   # field prime
    a: int   # curve coefficient a
    b: int   # curve coefficient b
    gx: int  # base point x
    gy: int  # base point y
    n: int   # base point order
    #: Width of one coordinate on the wire; derived once at construction
    #: (``encode_point``/``decode_point`` are per-handshake hot paths).
    coordinate_bytes: int = field(init=False, repr=False, compare=False, default=0)
    #: True when ``a ≡ -3 (mod p)`` (all the NIST/SEC2 curves here),
    #: enabling the cheaper doubling formula.
    a_is_minus_3: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinate_bytes", (self.p.bit_length() + 7) // 8)
        object.__setattr__(self, "a_is_minus_3", self.a % self.p == self.p - 3)


# NIST P-256 / secp256r1 (RFC 4492 named curve 23) — the dominant
# ECDHE curve in the paper's measurement era.
P256 = Curve(
    name="secp256r1",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

# NIST P-224 / secp224r1 (named curve 21).
P224 = Curve(
    name="secp224r1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
    b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
    gx=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
    gy=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
)

# SEC2 secp128r1 — a real standardized curve small enough that the
# simulated ecosystem's millions of handshakes stay fast, while its
# 128-bit group order keeps accidental ephemeral-value collisions
# (which would corrupt the shared-value analysis) vanishingly unlikely.
SECP128R1 = Curve(
    name="secp128r1",
    p=0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFC,
    b=0xE87579C11079F43DD824993C2CEE5ED3,
    gx=0x161FF7528B899B2D0C28607CA52C5B86,
    gy=0xCF5AC8395BAFEB13C02DA292DDED7A83,
    n=0xFFFFFFFE0000000075A30D1B9038A115,
)

# SEC2 secp160r1.
SECP160R1 = Curve(
    name="secp160r1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    n=0x0100000000000000000001F4C8F927AED3CA752257,
)

# A tiny curve for fast exhaustive unit tests: y^2 = x^3 + x + 28 over
# GF(10007).  The group has prime order 9851, so every non-identity
# point generates the whole group (verified exhaustively in tests).
TINY = Curve(
    name="tiny-10007",
    p=10007,
    a=1,
    b=28,
    gx=2,
    gy=4582,
    n=9851,
)

CURVES_BY_NAME = {
    curve.name: curve for curve in (P256, P224, SECP128R1, SECP160R1, TINY)
}

# RFC 4492 NamedCurve registry values used on the wire.
NAMED_CURVE_IDS = {
    "secp224r1": 21,
    "secp256r1": 23,
    "secp160r1": 18,
    "secp128r1": 16,
    "tiny-10007": 0xFE00,
}
NAMED_CURVE_BY_ID = {v: k for k, v in NAMED_CURVE_IDS.items()}


class NotOnCurveError(ValueError):
    """A peer offered a point that does not satisfy the curve equation."""


Point = Optional[Tuple[int, int]]  # None is the point at infinity


def is_on_curve(curve: Curve, point: Point) -> bool:
    """Check that an affine point satisfies the curve equation."""
    if point is None:
        return True
    x, y = point
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


def _to_jacobian(point: Point) -> tuple[int, int, int]:
    if point is None:
        return (1, 1, 0)
    return (point[0], point[1], 1)


def _from_jacobian(curve: Curve, jac: tuple[int, int, int]) -> Point:
    x, y, z = jac
    if z == 0:
        return None
    z_inv = pow(z, -1, curve.p)
    z_inv2 = z_inv * z_inv % curve.p
    return (x * z_inv2 % curve.p, y * z_inv2 * z_inv % curve.p)


def _jacobian_double(curve: Curve, jac: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = jac
    if z == 0 or y == 0:
        return (1, 1, 0)
    p = curve.p
    ysq = y * y % p
    s = 4 * x * ysq % p
    zsq = z * z % p
    if curve.a_is_minus_3:
        # a = -3 (all NIST/SEC2 curves here): 3x² + a·z⁴ = 3(x−z²)(x+z²).
        m = 3 * (x - zsq) * (x + zsq) % p
    else:
        m = (3 * x * x + curve.a * zsq * zsq) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = 2 * y * z % p
    return (nx, ny, nz)


def _jacobian_add(
    curve: Curve, a: tuple[int, int, int], b: tuple[int, int, int]
) -> tuple[int, int, int]:
    if a[2] == 0:
        return b
    if b[2] == 0:
        return a
    p = curve.p
    x1, y1, z1 = a
    x2, y2, z2 = b
    z1sq = z1 * z1 % p
    z2sq = z2 * z2 % p
    u1 = x1 * z2sq % p
    u2 = x2 * z1sq % p
    s1 = y1 * z2sq * z2 % p
    s2 = y2 * z1sq * z1 % p
    if u1 == u2:
        if s1 != s2:
            return (1, 1, 0)
        return _jacobian_double(curve, a)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    h2 = h * h % p
    h3 = h2 * h % p
    u1h2 = u1 * h2 % p
    nx = (r * r - h3 - 2 * u1h2) % p
    ny = (r * (u1h2 - nx) - s1 * h3) % p
    nz = h * z1 * z2 % p
    return (nx, ny, nz)


def _jacobian_add_affine(
    curve: Curve, a: tuple[int, int, int], b: Point
) -> tuple[int, int, int]:
    """``a + b`` for Jacobian ``a`` and affine ``b`` (mixed addition).

    :func:`_jacobian_add` with ``z2 = 1``: ``u1 = x1`` and ``s1 = y1``,
    so the ``z2²``, ``z2³``, ``u1`` and ``s1`` products disappear.
    """
    if b is None:
        return a
    if a[2] == 0:
        return (b[0], b[1], 1)
    p = curve.p
    x1, y1, z1 = a
    z1sq = z1 * z1 % p
    h = (b[0] * z1sq - x1) % p
    r = (b[1] * z1sq * z1 - y1) % p
    if h == 0:
        if r:
            return (1, 1, 0)
        return _jacobian_double(curve, a)
    h2 = h * h % p
    h3 = h2 * h % p
    u1h2 = x1 * h2 % p
    nx = (r * r - h3 - 2 * u1h2) % p
    ny = (r * (u1h2 - nx) - y1 * h3) % p
    nz = h * z1 % p
    return (nx, ny, nz)


def point_add(curve: Curve, a: Point, b: Point) -> Point:
    """Group addition of two affine points."""
    return _from_jacobian(curve, _jacobian_add(curve, _to_jacobian(a), _to_jacobian(b)))


def point_double(curve: Curve, a: Point) -> Point:
    """Group doubling of an affine point."""
    return _from_jacobian(curve, _jacobian_double(curve, _to_jacobian(a)))


def point_neg(curve: Curve, a: Point) -> Point:
    """Group inverse of an affine point."""
    if a is None:
        return None
    return (a[0], (-a[1]) % curve.p)


_WNAF_WIDTH = 5


def _wnaf_digits(k: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form of ``k``, least significant first.

    Digits are odd values in ``(-2^(w-1), 2^(w-1))`` or zero, with at
    most one nonzero digit per ``w`` consecutive positions — so the
    main loop averages ``bits/(w+1)`` additions instead of ``bits/2``
    for plain double-and-add.
    """
    digits = []
    modulus = 1 << width
    half = modulus >> 1
    while k:
        if k & 1:
            digit = k & (modulus - 1)
            if digit >= half:
                digit -= modulus
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


def scalar_mult(curve: Curve, k: int, point: Point) -> Point:
    """Compute ``k · point`` by windowed-NAF in Jacobian coordinates.

    This is the variable-point half of ECDHE (``d · peer_public``);
    fixed-base ``d · G`` goes through :func:`scalar_mult_base`'s comb
    table instead.  wNAF yields the same affine result as double-and-add
    for every scalar, so swapping it in cannot perturb wire bytes.
    """
    if point is not None and not is_on_curve(curve, point):
        raise NotOnCurveError(f"point is not on {curve.name}")
    k %= curve.n
    if k == 0 or point is None:
        return None
    p = curve.p
    base = _to_jacobian(point)
    # Odd multiples P, 3P, ..., (2^(w-1) - 1)P; table[i] = (2i+1)·P.
    twice = _jacobian_double(curve, base)
    table = [base]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        table.append(_jacobian_add(curve, table[-1], twice))
    result = (1, 1, 0)
    for digit in reversed(_wnaf_digits(k, _WNAF_WIDTH)):
        result = _jacobian_double(curve, result)
        if digit > 0:
            result = _jacobian_add(curve, result, table[digit >> 1])
        elif digit < 0:
            x, y, z = table[(-digit) >> 1]
            result = _jacobian_add(curve, result, (x, (p - y) % p, z))
    return _from_jacobian(curve, result)


def base_point(curve: Curve) -> Point:
    """The curve's generator ``G``."""
    return (curve.gx, curve.gy)


# 8-bit windows: ~32 additions per 256-bit keygen instead of ~60 at
# the cost of a once-per-curve table build of ~8k additions and ~8k
# inversions.  The scanner regenerates a server keypair
# per full handshake under the paper's FRESH reuse policy, so base
# multiplication dominates its remaining crypto budget.
_FIXED_BASE_WINDOW = 8
_fixed_base_tables: dict[str, list[list[Point]]] = {}


def _fixed_base_table(curve: Curve) -> list[list[Point]]:
    """Precompute ``j * 256^i * G`` for windowed fixed-base multiplication.

    Built lazily once per curve; turns the millions of ``d·G`` keygens a
    full ecosystem scan performs into ~``bits/8`` mixed additions each.
    Rows are built in Jacobian coordinates, then stored affine (``None``
    for an entry at infinity, possible only on tiny test curves) so
    :func:`scalar_mult_base` can use the cheaper mixed addition.
    """
    table = _fixed_base_tables.get(curve.name)
    if table is not None:
        return table
    windows = (curve.n.bit_length() + _FIXED_BASE_WINDOW - 1) // _FIXED_BASE_WINDOW
    table = []
    row_base = _to_jacobian(base_point(curve))
    for _ in range(windows):
        row = [(1, 1, 0)]
        for j in range(1, 1 << _FIXED_BASE_WINDOW):
            row.append(_jacobian_add(curve, row[j - 1], row_base))
        table.append([_from_jacobian(curve, entry) for entry in row])
        row_base = row[1]
        for _ in range(_FIXED_BASE_WINDOW):
            row_base = _jacobian_double(curve, row_base)
    _fixed_base_tables[curve.name] = table
    return table


def scalar_mult_base(curve: Curve, k: int) -> Point:
    """Compute ``k · G`` using the precomputed fixed-base table."""
    k %= curve.n
    if k == 0:
        return None
    table = _fixed_base_table(curve)
    result = (1, 1, 0)
    window = 0
    while k:
        digit = k & ((1 << _FIXED_BASE_WINDOW) - 1)
        if digit:
            result = _jacobian_add_affine(curve, result, table[window][digit])
        k >>= _FIXED_BASE_WINDOW
        window += 1
    return _from_jacobian(curve, result)


@dataclass(frozen=True)
class ECKeyPair:
    """One side's ECDHE state: a scalar and the point ``d·G``."""

    curve: Curve
    private: int
    public: Tuple[int, int]

    def shared_secret(self, peer_public: Tuple[int, int]) -> Tuple[int, int]:
        """Compute ``d · peer_public``, validating the peer point."""
        if not is_on_curve(self.curve, peer_public):
            raise NotOnCurveError("peer public point not on curve")
        result = scalar_mult(self.curve, self.private, peer_public)
        if result is None:
            raise NotOnCurveError("shared secret is the point at infinity")
        return result

    def shared_secret_bytes(self, peer_public: Tuple[int, int]) -> bytes:
        """The ECDHE premaster secret: the x-coordinate, per RFC 4492 §5.10."""
        x, _ = self.shared_secret(peer_public)
        return x.to_bytes(self.curve.coordinate_bytes, "big")


def generate_keypair(curve: Curve, rng: DeterministicRandom) -> ECKeyPair:
    """Generate a fresh scalar in ``[1, n-1]`` and its public point."""
    private = rng.randrange(1, curve.n)
    public = scalar_mult_base(curve, private)
    assert public is not None
    return ECKeyPair(curve=curve, private=private, public=public)


def encode_point(curve: Curve, point: Tuple[int, int]) -> bytes:
    """Uncompressed SEC1 encoding: ``0x04 || X || Y``."""
    size = curve.coordinate_bytes
    return b"\x04" + point[0].to_bytes(size, "big") + point[1].to_bytes(size, "big")


def decode_point(curve: Curve, data: bytes) -> Tuple[int, int]:
    """Parse an uncompressed SEC1 point, validating curve membership."""
    size = curve.coordinate_bytes
    if len(data) != 1 + 2 * size or data[0] != 0x04:
        raise ValueError("malformed uncompressed EC point")
    x = int.from_bytes(data[1 : 1 + size], "big")
    y = int.from_bytes(data[1 + size :], "big")
    if not is_on_curve(curve, (x, y)):
        raise NotOnCurveError(f"decoded point not on {curve.name}")
    return (x, y)


__all__ = [
    "Curve",
    "ECKeyPair",
    "NotOnCurveError",
    "P256",
    "P224",
    "SECP128R1",
    "SECP160R1",
    "TINY",
    "CURVES_BY_NAME",
    "NAMED_CURVE_IDS",
    "NAMED_CURVE_BY_ID",
    "Point",
    "is_on_curve",
    "point_add",
    "point_double",
    "point_neg",
    "scalar_mult",
    "scalar_mult_base",
    "base_point",
    "generate_keypair",
    "encode_point",
    "decode_point",
]
