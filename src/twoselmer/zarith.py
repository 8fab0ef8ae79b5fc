"""Exact integer arithmetic primitives.

Factorization (by the small primes, then Pollard rho), p-adic valuations,
Legendre symbols and squarefree parts.
Every function takes integers only: a square class never needs a rational,
since the class of a/b is the class of ab.  All arithmetic is exact;
nothing in this package touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import FactorizationBudgetExceeded

# The primes below 41: trial divisors of is_prime and factorize, and the
# deterministic Miller–Rabin witness set, valid for n < 3.3e24.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Fixed extra witnesses for larger inputs (probabilistic, deterministic run).
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73)

DEFAULT_RHO_BUDGET = 10**7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _SMALL_PRIMES if n < 3_317_044_064_679_887_385_961_981 else _SMALL_PRIMES + _MR_EXTRA
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
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
                raise FactorizationBudgetExceeded(f"pollard rho budget exhausted on {n}")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> FactoredInteger:
    """Factor a nonzero integer; raises FactorizationBudgetExceeded on huge inputs."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors: dict[int, int] = {}

    def record(p: int) -> None:
        factors[p] = factors.get(p, 0) + 1

    for p in _SMALL_PRIMES:
        while m % p == 0:
            record(p)
            m //= p
    # every cofactor is odd and free of the small primes; rho splits it properly
    budget = [DEFAULT_RHO_BUDGET]
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            record(m)
            continue
        f = _pollard_rho(m, budget)
        stack += (f, m // f)
    return FactoredInteger(sign, tuple(sorted(factors.items())))


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
