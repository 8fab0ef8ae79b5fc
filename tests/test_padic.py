import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from twoselmer import gf2
from twoselmer.padic import (
    REAL_PLACE,
    _cocycle,
    _width,
    hilbert,
    local_class,
    local_pairing,
    nonresidue,
    parse_place,
)
from twoselmer.zarith import factorize

PLACES = [REAL_PLACE, 2, 3, 5, 13]


_MOD8_BITS = {1: 0b000, 3: 0b110, 5: 0b100, 7: 0b010}


def fraction_class(r, place):
    """Reference class of a rational from its exact unit part, built with Fraction."""
    r = Fraction(r)
    p = place
    if p == REAL_PLACE:
        return 1 if r < 0 else 0
    num, den, v = r.numerator, r.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    if p == 2:
        return (v & 1) | _MOD8_BITS[num * pow(den, -1, 8) % 8]
    u = num * pow(den, -1, p) % p
    return (v & 1) | (0 if pow(u, (p - 1) // 2, p) == 1 else 2)


def hilbert_rational(a, b, place):
    return hilbert(place, local_class(a, place), local_class(b, place))


def is_local_square(r, place):
    return local_class(r, place) == 0


def test_place_basics():
    assert REAL_PLACE == -1 and _width(REAL_PLACE) == 1
    assert _width(2) == 3
    assert _width(5) == 2
    assert parse_place("inf") == parse_place("oo") == parse_place("infinity") == REAL_PLACE
    assert parse_place("7") == 7
    with pytest.raises(ValueError):
        parse_place("6")


def test_local_class_examples():
    # 18 = 2 * 3^2: even valuation at 3, unit part 2 is a non-residue mod 3
    assert local_class(18, 3) == 0b10
    assert local_class(-4, REAL_PLACE) == 0b1
    # 17 = 1 mod 8 is a 2-adic square
    assert local_class(17, 2) == 0


def test_local_class_two_adic_units():
    p2 = 2
    # bit 0: valuation parity, bit 1: the -1 coordinate, bit 2: the 5 coordinate
    assert local_class(1, p2) == 0
    assert local_class(3, p2) == 0b110
    assert local_class(5, p2) == 0b100
    assert local_class(7, p2) == 0b010
    assert local_class(2, p2) == 0b001


def test_class_group_law():
    p = 5
    a = local_class(5, p)
    b = local_class(Fraction(2, 5), p)
    assert (a ^ b) == local_class(2, p)
    assert (a ^ a) == 0


def test_is_local_square():
    assert is_local_square(17, 2)
    assert not is_local_square(3, 2)
    assert is_local_square(4, REAL_PLACE)
    assert not is_local_square(-4, REAL_PLACE)
    assert is_local_square(Fraction(4, 9), 5)


def test_nonresidue():
    for p in (3, 5, 7, 11, 13, 17):
        u = nonresidue(p)
        assert pow(u, (p - 1) // 2, p) == p - 1


def test_hilbert_examples():
    assert hilbert_rational(-1, -1, REAL_PLACE) == -1
    assert hilbert_rational(-1, -1, 2) == -1
    for b in (-1, 2, 3, 5, -6):
        for v in (REAL_PLACE, 2, 3):
            assert hilbert_rational(1, b, v) == 1


def test_hilbert_minus_one_minus_one_at_two_by_exhaustion():
    # z^2 + x^2 + y^2 = 0 has no primitive solution mod 8
    sols = [
        (z, x, y)
        for z in range(8)
        for x in range(8)
        for y in range(8)
        if (z * z + x * x + y * y) % 8 == 0 and (z % 2 or x % 2 or y % 2)
    ]
    assert not sols
    assert hilbert_rational(-1, -1, 2) == -1


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(7)
    places = [REAL_PLACE, 2, 3, 5]
    vals = [-1, 1, 2, 3, 5, 6, -10, Fraction(3, 5)]
    for _ in range(200):
        v = rng.choice(places)
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert hilbert_rational(a, b, v) == hilbert_rational(b, a, v)
        assert hilbert_rational(a * b, c, v) == hilbert_rational(
            a, c, v
        ) * hilbert_rational(b, c, v)


def test_hilbert_product_formula():
    rng = random.Random(8)
    for _ in range(100):
        a = rng.randint(1, 300) * rng.choice([1, -1])
        b = rng.randint(1, 300) * rng.choice([1, -1])
        support = {2}
        for n in (a, b):
            support.update(p for p, _ in factorize(n).factors)
        prod = hilbert_rational(a, b, REAL_PLACE)
        for p in support:
            prod *= hilbert_rational(a, b, p)
        assert prod == 1


def test_local_pairing_examples():
    p = 5
    x = local_class(5, p)  # (5, 1)
    assert local_pairing(p, x, x) == 0
    u = nonresidue(5)
    y = local_class(u, p) << _width(p)  # (1, u)
    assert local_pairing(p, x, y) == 1
    assert local_pairing(p, x, 0) == 0
    assert local_pairing(p, y, 0) == 0


def test_local_pairing_nondegenerate():
    for place in (REAL_PLACE, 3, 5, 2):
        dim = 2 * _width(place)
        basis = [1 << i for i in range(dim)]
        gram = []
        for x in basis:
            row = 0
            for j, y in enumerate(basis):
                row |= local_pairing(place, x, y) << j
            gram.append(row)
        assert gf2.rank(gram) == dim


# the generators of each place's square classes, bit i on the i-th
GENERATORS = {
    REAL_PLACE: [-1],
    2: [2, -1, 5],
    7: [7, nonresidue(7)],
    13: [13, nonresidue(13)],
}


def element(place, n):
    """The product of the generators that the bits of n select."""
    r = 1
    for i, g in enumerate(GENERATORS[place]):
        if (n >> i) & 1:
            r *= g
    return r


def test_class_encoding_round_trip():
    # bit i of a class is the coordinate on the i-th generator of the layout
    for place, gens in GENERATORS.items():
        assert len(gens) == _width(place)
        for n in range(1 << _width(place)):
            assert local_class(element(place, n), place) == n


def test_cocycle_encoding_round_trip():
    # a cocycle packs (first, second) as first | second << width
    for place in GENERATORS:
        k = _width(place)
        for n in range(1 << 2 * k):
            first, second = n & ((1 << k) - 1), n >> k
            assert first | second << k == n
            assert _cocycle(element(place, first), element(place, second), place) == n


# Property tests over the int form; every run draws the same examples.
derandomized = settings(derandomize=True, database=None)
nonzero = st.integers(-10**6, 10**6).filter(bool)
rationals = st.builds(Fraction, nonzero, st.integers(1, 10**4))


@settings(derandomized, max_examples=300)
@given(a=rationals, b=rationals, place=st.sampled_from(PLACES))
def test_local_class_is_multiplicative(a, b, place):
    assert local_class(a * b, place) == local_class(a, place) ^ local_class(b, place)


@settings(derandomized, max_examples=300)
@given(a=nonzero, b=nonzero)
def test_hilbert_product_formula_property(a, b):
    support = {2} | {p for n in (a, b) for p, _ in factorize(n).factors}
    prod = hilbert_rational(a, b, REAL_PLACE)
    for p in support:
        prod *= hilbert_rational(a, b, p)
    assert prod == 1


@settings(derandomized, max_examples=300)
@given(r=rationals, place=st.sampled_from(PLACES))
def test_local_class_matches_fraction_reference(r, place):
    assert local_class(r, place) == fraction_class(r, place)


@settings(derandomized, max_examples=300)
@given(
    a=st.integers(-10**4, 10**4),
    j=st.integers(0, 6),
    e=st.integers(-50, 50),
    place=st.sampled_from(PLACES),
)
def test_sampler_identity_matches_fraction_reference(a, j, e, place):
    # x = a/q with q a power of the place's prime (2 at infinity):
    # x - e has the class of (a - e q) q
    q = (2 if place == REAL_PLACE else place) ** j
    w = a - e * q
    assume(w != 0)
    assert local_class(w * q, place) == fraction_class(Fraction(a, q) - e, place)


ODD_PRIMES_BELOW_200 = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]


def test_local_class_fast_paths_match_fraction_reference():
    # ints and Fractions, both signs, p^k | n for k up to 4, at inf, 2 and every odd p < 200
    rng = random.Random(24)
    for place in (REAL_PLACE, 2, *ODD_PRIMES_BELOW_200):
        p = 2 if place == REAL_PLACE else place
        for _ in range(40):
            n = rng.choice([1, -1]) * rng.randint(1, 10**6) * p ** rng.randint(0, 4)
            d = rng.randint(1, 10**3) * p ** rng.randint(0, 3)
            for r in (n, Fraction(n, d), Fraction(d, n)):
                assert local_class(r, place) == fraction_class(r, place), (r, place)
    assert type(local_class(-12, 3)) is int
    with pytest.raises(ValueError):
        local_class(0, 5)
    with pytest.raises(ValueError):
        local_class(Fraction(0), 2)
