"""Curve models, Sigma and the local classes of a twist.

A curve with full rational 2-torsion is the sorted triple of its integer
roots; a long Weierstrass model enters through ``require_full_model``.
Sigma is read from the three root differences.  A twist E^d is no model of
its own: ``local_twist_classes`` gives its classes on the base model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from typing import NamedTuple

from .padic import REAL_PLACE, local_class
from .zarith import factorize


class FullTwoTorsionModel(NamedTuple("FullTwoTorsionModel", [("roots", tuple[int, int, int])])):
    """y^2 = (x - e1)(x - e2)(x - e3) with distinct integer roots e1 < e2 < e3."""

    __slots__ = ()

    def __new__(cls, roots: tuple[int, int, int]) -> FullTwoTorsionModel:
        if len(set(roots)) != 3:
            raise ValueError("roots must be pairwise distinct")
        return super().__new__(cls, tuple(sorted(roots)))

    @classmethod
    def _make(cls, iterable) -> FullTwoTorsionModel:
        # _replace goes through _make, so both keep the checks of __new__
        return cls(*iterable)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.roots)


class LongModel(NamedTuple("LongModel", [(a, Fraction) for a in ("a1", "a2", "a3", "a4", "a6")])):
    """General Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, a6) -> LongModel:
        return super().__new__(cls, *map(Fraction, (a1, a2, a3, a4, a6)))

    @classmethod
    def _make(cls, iterable) -> LongModel:
        return cls(*iterable)

    def two_division_cubic(self) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (c2, c1, c0) of x^3 + c2 x^2 + c1 x + c0 whose roots are
        the x-coordinates of the 2-torsion (after completing the square)."""
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        return b2 / 4, b4 / 2, b6 / 4

    @property
    def discriminant(self) -> Fraction:
        """16 times the discriminant of the 2-division cubic."""
        p, q, r = self.two_division_cubic()
        return 16 * (p * p * q * q - 4 * q**3 - 4 * p**3 * r - 27 * r * r + 18 * p * q * r)


@cache
def sigma_set(model: FullTwoTorsionModel) -> tuple[int, ...]:
    """The places of Sigma in order: inf, 2, then the odd primes of the three
    root differences ascending, the primes of the discriminant without
    factoring it.  Computed once per model."""
    e1, e2, e3 = model.roots
    bad = {p for n in (e2 - e1, e3 - e1, e3 - e2) for p, _ in factorize(n).factors if p != 2}
    return (REAL_PLACE, 2, *sorted(bad))


def _integer_roots(b: int, c: int, d: int) -> list[int]:
    """Distinct integer roots, ascending, of g(X) = X^3 + bX^2 + cX + d.

    Every real root lies in [-M, M] with M = 1 + max(|b|, |c|, |d|).  The
    integers just outside the critical points (-b -+ sqrt(b^2 - 3c)) / 3 cut
    that range into at most three stretches on which g is monotone, and a
    bisection finds the one possible integer root of each.  Nothing is factored.
    """

    def g(x: int) -> int:
        return ((x + b) * x + c) * x + d

    m = 1 + max(abs(b), abs(c), abs(d))
    stretches = [(-m, m)]
    if (disc := b * b - 3 * c) > 0:
        s = isqrt(disc)
        t = s + (s * s != disc)  # the ceiling of sqrt(disc)
        stretches = [(-m, (-b - t) // 3), (-((b + s) // 3), (s - b) // 3), (-((b - t) // 3), m)]
    roots = set()
    for lo, hi in stretches:
        sign = 1 if g(hi) >= g(lo) else -1
        # the least x of the stretch with sign * g(x) >= 0 is its root, if it has one
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if sign * g(mid) >= 0 else (mid + 1, hi)
        if g(lo) == 0:
            roots.add(lo)
    return sorted(roots)


def parse_curve(text: str) -> FullTwoTorsionModel | LongModel:
    """Parse 'e1,e2,e3' (full 2-torsion) or '[a1,a2,a3,a4,a6]' (long model)."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"malformed long model: {text!r}")
        try:
            parts = [Fraction(t.strip()) for t in text[1:-1].split(",")]
        except ZeroDivisionError:
            raise ValueError(f"long model {text!r} has a zero denominator") from None
        if len(parts) != 5:
            raise ValueError("long model needs exactly [a1,a2,a3,a4,a6]")
        return LongModel(*parts)
    parts = [int(t.strip()) for t in text.split(",")]
    if len(parts) != 3:
        raise ValueError("full 2-torsion curve needs exactly e1,e2,e3")
    return FullTwoTorsionModel(tuple(parts))


def require_full_model(parsed: FullTwoTorsionModel | LongModel) -> FullTwoTorsionModel:
    """Coerce parsed input to a full 2-torsion model or fail with the torsion dim.

    A long model's 2-division cubic is searched for rational roots once: with
    X = den x it is a monic integer cubic, whose rational roots are integers.
    x -> u^2 x, u the lcm of the roots' denominators, makes the roots integral.
    """
    if isinstance(parsed, FullTwoTorsionModel):
        return parsed
    if parsed.discriminant == 0:
        raise ValueError("singular model")
    c2, c1, c0 = parsed.two_division_cubic()
    den = lcm(c2.denominator, c1.denominator, c0.denominator)
    integer_roots = _integer_roots(int(c2 * den), int(c1 * den**2), int(c0 * den**3))
    roots = [Fraction(x, den) for x in integer_roots]
    # a nonsingular rational cubic with two rational roots has a third
    if len(roots) != 3:
        raise ValueError(f"not full 2-torsion (dim E(Q)[2] = {len(roots)})")
    u = lcm(*(r.denominator for r in roots))
    return FullTwoTorsionModel(tuple(int(r * u * u) for r in roots))


def local_twist_classes(model: FullTwoTorsionModel, d: int) -> dict[int, int]:
    """Nontrivial local classes of a twist d at Sigma and at the primes of d.

    The one check of a twist parameter: raises ValueError unless d is a
    nonzero squarefree integer, read from the one factorization of d.
    """
    factors = factorize(d).factors if d else None
    if factors is None or any(e > 1 for _, e in factors):
        raise ValueError(f"twist parameter must be a nonzero squarefree integer, got {d}")
    sigma = sigma_set(model)
    places = [*sigma, *(p for p, _ in factors if p not in sigma)]
    return {v: c for v in places if (c := local_class(d, v))}
