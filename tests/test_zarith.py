import random
from fractions import Fraction

import pytest

from twoselmer.padic import Place, local_class
from twoselmer.zarith import (
    FactoredInteger,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    squarefree_value,
    valuation,
)


def squarefree_decompose(r):
    """(sign, squarefree prime support) of a nonzero rational a/b, read from ab."""
    v = squarefree_value(r.numerator * r.denominator)
    return (1 if v > 0 else -1), frozenset(p for p, _ in factorize(abs(v)).factors)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-2, 40):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(257)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    assert not is_prime(561)  # Carmichael


def test_factorize_examples():
    assert factorize(1) == FactoredInteger(1, ())
    assert factorize(-64) == FactoredInteger(-1, ((2, 6),))
    assert factorize(257) == FactoredInteger(1, ((257, 1),))


def test_factorize_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 10**9) * rng.choice([1, -1])
        f = factorize(n)
        product = f.sign
        for p, e in f.factors:
            product *= p**e
        assert product == n
        for p, _ in f.factors:
            assert is_prime(p)


def trial_division(n):
    """(sign, ((prime, exponent), ...)) of a nonzero n by division up to sqrt(|n|)."""
    m, factors, p = abs(n), [], 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return (1 if n > 0 else -1), tuple(factors)


def test_factorize_against_trial_division():
    for n in range(-20000, 20000):
        if n:
            f = factorize(n)
            assert (f.sign, f.factors) == trial_division(n), n


def test_factorize_past_the_small_primes():
    # cofactors free of the primes below 41 go to Pollard rho: semiprimes with
    # both factors just above 10^6, squares of primes above 37, signs
    cases = [
        (1000003 * 1000033, ((1000003, 1), (1000033, 1))),
        (-1000003 * 1000037 * 2, ((2, 1), (1000003, 1), (1000037, 1))),
        (41**2, ((41, 2),)),
        (1009**2, ((1009, 2),)),
        (-(999983**2), ((999983, 2),)),
        (3 * 37**3 * 41 * 43, ((3, 1), (37, 3), (41, 1), (43, 1))),
        (1, ()),
        (-1, ()),
    ]
    for n, factors in cases:
        assert factorize(n) == FactoredInteger(1 if n > 0 else -1, factors), n
    assert all(is_prime(p) for p in (1009, 999983, 1000003, 1000033, 1000037))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_valuation_examples():
    assert valuation(18, 3) == 2
    assert valuation(-48, 2) == 4
    assert valuation(1, 5) == 0
    assert valuation(1, 997) == 0
    with pytest.raises(ValueError):
        valuation(0, 3)
    # v_3(9/2) = 2 and v_2(9/2) = -1: the class of 9/2 is read from 18
    assert local_class(Fraction(9, 2), Place(3)) & 1 == 0
    assert local_class(Fraction(9, 2), Place(2)) & 1 == 1


def test_unit_part():
    # 9/2 = 3^2 * (1/2) and 48 = 2^4 * 3: a class depends on the unit part only
    assert local_class(Fraction(9, 2), Place(3)) == local_class(Fraction(1, 2), Place(3))
    assert local_class(48, Place(2)) == local_class(3, Place(2))


def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0


def test_legendre_of_minus_one():
    # (-1/p) = (-1)^((p-1)/2): the Frobenius search reads -1 like any generator
    for p in range(3, 10**4, 2):
        if is_prime(p):
            assert legendre(-1, p) == (-1) ** ((p - 1) // 2), p


def test_legendre_fraction():
    # 1/2 is a square mod 7 iff 2 is (inverse of a square is a square)
    p7 = Place(7)
    assert local_class(Fraction(1, 2), p7) == local_class(2, p7)
    assert (local_class(Fraction(3, 5), p7) >> 1) == (legendre(3, 7) * legendre(5, 7) == -1)
    with pytest.raises(ValueError):
        local_class(Fraction(0, 5), p7)


def test_legendre_multiplicative():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13, 101])
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_squarefree_decompose_examples():
    assert squarefree_decompose(12) == (1, frozenset({3}))
    assert squarefree_decompose(Fraction(-9, 2)) == (-1, frozenset({2}))
    assert squarefree_decompose(1) == (1, frozenset())


def test_squarefree_decompose_square_invariance():
    rng = random.Random(3)
    for _ in range(50):
        r = Fraction(rng.randint(1, 500) * rng.choice([1, -1]), rng.randint(1, 500))
        s = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        assert squarefree_decompose(r * s * s) == squarefree_decompose(r)


def test_squarefree_value():
    assert squarefree_value(12) == 3
    assert squarefree_value(-18) == -2  # the class of -9/2
    assert squarefree_value(1) == 1
    assert squarefree_value(-1) == -1


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(-1)
    assert is_squarefree(30) and is_squarefree(-30)
    assert not is_squarefree(12)
    assert not is_squarefree(-49)
    assert not is_squarefree(0)
