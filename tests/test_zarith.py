import random
from fractions import Fraction
from math import isqrt

import pytest

import twoselmer.zarith
from twoselmer.cli import main
from twoselmer.errors import BudgetExceeded
from twoselmer.padic import local_class
from twoselmer.zarith import (
    FactoredInteger,
    _pollard_rho,
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


def test_is_prime_up_to_the_deterministic_bound():
    # the smallest strong pseudoprime to the 12 bases 2..37 needs the 13th, 41
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(2**61 - 1)
    # from psi13, the smallest strong pseudoprime to the 13 bases 2..41, only
    # a small prime factor is decided
    psi13 = 3317044064679887385961981
    assert not is_prime(psi13 - 1) and not is_prime(3 * (2**89 - 1))
    for n in (psi13, 2**89 - 1):
        with pytest.raises(BudgetExceeded, match="past the deterministic Miller-Rabin bound"):
            is_prime(n)


# psi_k, the smallest strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_decides_each_psi():
    # psi_k passes the first k bases, so is_prime may stop only below it;
    # psi_7 = psi_8 passes the first eight as well, and base 23 catches it
    for k, psi in enumerate(PSI, 1):
        assert all(strong_probable_prime(psi, a) for a in BASES[:k]), k
        assert not is_prime(psi), k
    assert PSI[6] == PSI[7] and not strong_probable_prime(PSI[7], 23)


def test_is_prime_agrees_with_a_sieve():
    n = 2 * 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_factorize_composites_past_the_deterministic_bound():
    # a witness proves these composite, so rho splits them into factors below it
    big = 4000000000000000037
    assert 1000003 * big > 3317044064679887385961981
    assert factorize(-1000003 * big) == FactoredInteger(-1, ((1000003, 1), (big, 1)))


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


def test_is_prime_across_the_trial_table_edge():
    # the gcd with the primes below 1000 decides every n below 1009^2, Miller-Rabin the rest;
    # the reference strikes the multiples of every divisor up to sqrt(hi), trial division
    # turned into a window sieve
    lo, hi = 1009**2 - 3000, 1009**2 + 3000
    composite = set()
    for k in range(2, isqrt(hi) + 1):
        composite.update(range(max(k * k, -(-lo // k) * k), hi + 1, k))
    window = range(lo, hi + 1)
    assert [n for n in window if is_prime(n)] == [n for n in window if n not in composite]
    for n in (997 * 1009, 1009**2, 1009 * 1013, 1013 * 1019):
        f = factorize(n)
        assert not is_prime(n) and (f.sign, f.factors) == trial_division(n), n


def test_factorize_across_the_trial_table_edge():
    # 997 is the last table prime and 1009 the first prime past it: is_prime calls a
    # cofactor below 1009^2 prime by the table alone, 1009^2 itself and larger ones not
    cases = [
        (997, ((997, 1),)),
        (1009, ((1009, 1),)),
        (997 * 1009, ((997, 1), (1009, 1))),
        (1009**2, ((1009, 2),)),
        (1009 * 1013, ((1009, 1), (1013, 1))),
        (999983**2, ((999983, 2),)),
        (1000003 * 1000033, ((1000003, 1), (1000033, 1))),
        (-(2**5) * 3 * 997**2 * 1009, ((2, 5), (3, 1), (997, 2), (1009, 1))),
    ]
    for n, factors in cases:
        assert factorize(n) == FactoredInteger(1 if n > 0 else -1, factors), n
        assert factorize(-n) == FactoredInteger(-1 if n > 0 else 1, factors), n


def test_factorize_round_trip_up_to_the_query_range():
    # the query workload's range: every factor is prime and the product is n
    rng = random.Random(24)
    for _ in range(2000):
        n = rng.choice([1, -1]) * int(10 ** rng.uniform(0, 14))
        f = factorize(n)
        product = f.sign
        for p, e in f.factors:
            assert is_prime(p) and e > 0, (n, p)
            product *= p**e
        assert product == n
        assert [p for p, _ in f.factors] == sorted({p for p, _ in f.factors})


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
    assert local_class(Fraction(9, 2), 3) & 1 == 0
    assert local_class(Fraction(9, 2), 2) & 1 == 1


def test_unit_part():
    # 9/2 = 3^2 * (1/2) and 48 = 2^4 * 3: a class depends on the unit part only
    assert local_class(Fraction(9, 2), 3) == local_class(Fraction(1, 2), 3)
    assert local_class(48, 2) == local_class(3, 2)


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
    p7 = 7
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


def test_rho_budget_exhaustion(monkeypatch, capsys):
    n = 1000003 * 1000033  # no prime factor below 1000 and past 1009^2: rho must split it
    monkeypatch.setattr(twoselmer.zarith, "DEFAULT_RHO_BUDGET", 1)
    with pytest.raises(BudgetExceeded) as exc:
        factorize(-2 * n)
    assert str(exc.value) == f"pollard rho budget exhausted on {n}"
    assert main(["descent", "--curve=-1,0,1", f"--twist={n}"]) == 3
    assert capsys.readouterr().err == f"budget exhausted: pollard rho budget exhausted on {n}\n"


def test_rho_retries_with_the_next_constant():
    # 1013 * 1109: with c = 1 both factors' cycles close together (gcd n after 17
    # steps), so rho starts over with c = 2 and finds 1109 after 50 more
    n = 1013 * 1109
    budget = [100]
    assert _pollard_rho(n, budget) == 1109
    assert budget == [100 - 17 - 50]
    assert factorize(n).factors == ((1013, 1), (1109, 1))
