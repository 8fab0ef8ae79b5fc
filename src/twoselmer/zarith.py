"""Exact integer and rational arithmetic primitives.

Factorization, p-adic valuations, Legendre symbols and squarefree
decomposition.  Rational numbers are plain ``fractions.Fraction`` values
(normalized, positive denominator), so no extra wrapper type is needed.
All arithmetic is exact; nothing in this package touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FactorizationBudgetExceeded

# Deterministic Miller–Rabin witness set, valid for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Fixed extra witnesses for larger inputs (probabilistic, deterministic run).
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73)

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 10**7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < 3_317_044_064_679_887_385_961_981 else _MR_BASES + _MR_EXTRA
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

    def reconstruct(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def _pollard_rho(n: int, budget: list[int]) -> int:
    """Brent's cycle variant with a deterministic constant schedule."""
    if n % 2 == 0:
        return 2
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

    while m % 2 == 0:
        record(2)
        m //= 2
    d = 3
    while d <= DEFAULT_TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            record(d)
            m //= d
        d += 2
    budget = [DEFAULT_RHO_BUDGET]
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            record(m)
            continue
        f = _pollard_rho(m, budget)
        stack.append(f)
        stack.append(m // f)
    return FactoredInteger(sign, tuple(sorted(factors.items())))


def valuation(r: Fraction | int, p: int) -> int:
    """v_p(numerator) - v_p(denominator); r must be nonzero."""
    num, den = r.numerator, r.denominator
    if num == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(r: Fraction | int, p: int) -> Fraction:
    """r / p^{v_p(r)} as an exact rational p-adic unit."""
    return Fraction(r) / Fraction(p) ** valuation(r, p)


def legendre(a: int | Fraction, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; rationals must be p-units unless a ≡ 0."""
    num, den = a.numerator, a.denominator
    if den % p == 0:
        raise ValueError(f"{a} is not p-integral at {p}")
    x = num * pow(den, -1, p) % p
    if x == 0:
        return 0
    s = pow(x, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def squarefree_decompose(r: Fraction | int) -> tuple[int, frozenset[int]]:
    """(sign, squarefree prime support) of a nonzero rational, modulo squares."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no square class")
    fn = factorize(r.numerator) if r.numerator not in (1, -1) else FactoredInteger(r.numerator, ())
    fd = factorize(r.denominator) if r.denominator != 1 else FactoredInteger(1, ())
    exps: dict[int, int] = dict(fn.factors)
    for p, e in fd.factors:
        exps[p] = exps.get(p, 0) - e
    support = frozenset(p for p, e in exps.items() if e % 2 != 0)
    return fn.sign, support


def squarefree_value(r: Fraction | int) -> int:
    """Signed squarefree integer representing the square class of r."""
    sign, support = squarefree_decompose(r)
    n = sign
    for p in support:
        n *= p
    return n


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    sign, support = squarefree_decompose(n)
    m = 1
    for p in support:
        m *= p
    return m == abs(n)
