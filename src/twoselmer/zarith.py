"""Exact integer arithmetic primitives.

Factorization (one gcd with the product of the primes below 1000, then
Pollard rho past 1009^2), the stream of odd primes, p-adic valuations,
Legendre symbols and squarefree parts.
Every function takes integers only: a square class never needs a rational,
since the class of a/b is the class of ab.  All arithmetic is exact;
nothing in this package touches floats.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, prod
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded

# The Miller–Rabin bases are the first 13 trial primes, 2 to 41.  psi_k, the smallest
# strong pseudoprime to the first k bases (OEIS A014233; Jaeschke 1993, Sorenson-Webster
# 2017), bounds the n that k bases decide; _MR_BOUND is psi_13.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    _MR_BOUND,
)
# the trial primes, the primes below 1000 (sieved), as a tuple, a set and a product: one gcd
# with the product finds the trial factors of any n, and decides is_prime below 1009^2
_SIEVE = bytearray([0, 0]) + bytearray([1]) * 998
for _p in range(2, 32):
    _SIEVE[_p * _p::_p] = bytes(len(range(_p * _p, 1000, _p)))
_TRIAL_PRIMES = tuple(compress(range(1000), _SIEVE))
_TRIAL_SET, _TRIAL_PRODUCT = frozenset(_TRIAL_PRIMES), prod(_TRIAL_PRIMES)

DEFAULT_RHO_BUDGET = 10**7


def is_prime(n: int) -> bool:
    """Exact primality.  A witness proves n composite at any size; n below
    psi_k is prime once it passes the first k bases.  From _MR_BOUND on,
    passing every base does not prove n prime, and that verdict raises
    BudgetExceeded."""
    if n < 2:
        return False
    if gcd(n, _TRIAL_PRODUCT) > 1:
        return n in _TRIAL_SET
    if n < 1009 * 1009:  # a composite free of the trial primes is at least 1009^2
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_TRIAL_PRIMES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise BudgetExceeded(f"{n} is past the deterministic Miller-Rabin bound")


def odd_primes() -> Iterator[int]:
    """The odd primes 3, 5, 7, ... in order."""
    return (n for n in count(3, 2) if is_prime(n))


class FactoredInteger(NamedTuple):
    """Sign times a product of prime powers."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


def _pollard_rho(n: int, budget: list[int]) -> int:
    """A proper divisor of an odd composite n: Floyd's cycle finding on
    x -> x^2 + c with a gcd at every step, trying c = 1, 2, ... in turn."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            budget[0] -= 1
            if budget[0] <= 0:
                raise BudgetExceeded(f"pollard rho budget exhausted on {n}")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> FactoredInteger:
    """Factor a nonzero integer; raises BudgetExceeded on huge inputs."""
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    factors: dict[int, int] = {}
    # g is squarefree, so once p * p > g what is left of g is one prime
    g = gcd(m, _TRIAL_PRODUCT)
    for p in () if g in _TRIAL_SET else _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            factors[p] = 0
    if g > 1:
        factors[g] = 0
    for p in factors:
        while m % p == 0:
            m //= p
            factors[p] += 1
    # m is free of the trial primes: is_prime decides, and rho splits a composite properly
    budget = [DEFAULT_RHO_BUDGET]
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _pollard_rho(m, budget)
        stack += (f, m // f)
    return FactoredInteger(-1 if n < 0 else 1, tuple(sorted(factors.items())))


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) of an integer a at an odd prime p."""
    x = a % p
    if x == 0:  # explicit, so that a ≡ 0 is caught at p = 2 too: pow(0, 0, 2) == 1
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def squarefree_value(n: int) -> int:
    """Signed squarefree integer in the square class of a nonzero integer n."""
    if n in (1, -1):
        return n
    f = factorize(n)
    value = f.sign
    for p, e in f.factors:
        if e & 1:
            value *= p
    return value


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_value(n) == n
