"""Elliptic curve models with full rational 2-torsion, Sigma sets and twists."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, lcm

from .padic import Place, REAL_PLACE, local_class
from .zarith import factorize, is_prime, is_squarefree, legendre


@dataclass(frozen=True)
class FullTwoTorsionModel:
    """y^2 = (x - e1)(x - e2)(x - e3) with distinct integer roots e1 < e2 < e3."""

    roots: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(set(self.roots)) != 3:
            raise ValueError("roots must be pairwise distinct")
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))

    @property
    def discriminant(self) -> int:
        e1, e2, e3 = self.roots
        return 16 * ((e1 - e2) * (e1 - e3) * (e2 - e3)) ** 2

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.roots)


@dataclass(frozen=True)
class LongModel:
    """General Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def two_division_cubic(self) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (c2, c1, c0) of x^3 + c2 x^2 + c1 x + c0 whose roots are
        the x-coordinates of the 2-torsion (after completing the square)."""
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        return b2 / 4, b4 / 2, b6 / 4

    @property
    def discriminant(self) -> Fraction:
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        b8 = (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


@cache
def sigma_set(model: FullTwoTorsionModel) -> tuple[Place, ...]:
    """The places of Sigma in order: inf, 2, then the odd primes dividing the
    discriminant ascending.  Computed once per model."""
    bad = {p for p, _ in factorize(model.discriminant).factors if p != 2}
    return (REAL_PLACE, Place(2), *(Place(p) for p in sorted(bad)))


def twist(model: FullTwoTorsionModel, d: int) -> FullTwoTorsionModel:
    """Quadratic twist by a squarefree integer d: roots scale by d."""
    if d == 0 or not is_squarefree(d):
        raise ValueError(f"twist parameter must be a nonzero squarefree integer, got {d}")
    return FullTwoTorsionModel(tuple(sorted(d * e for e in model.roots)))


def _rational_roots_of_cubic(c2: Fraction, c1: Fraction, c0: Fraction) -> list[Fraction]:
    """Distinct rational roots of x^3 + c2 x^2 + c1 x + c0."""
    den = lcm(c2.denominator, c1.denominator, c0.denominator)
    # integer polynomial a3 X^3 + a2 X^2 + a1 X + a0 with X = x
    a3, a2, a1, a0 = den, c2 * den, c1 * den, c0 * den
    a2, a1, a0 = int(a2), int(a1), int(a0)

    def divisors(n: int) -> list[int]:
        n = abs(n)
        if n == 0:
            return [0]
        ds = {1}
        for p, e in factorize(n).factors:
            ds = {d * p**k for d in ds for k in range(e + 1)}
        return sorted(ds)

    roots: set[Fraction] = set()
    if a0 == 0:
        roots.add(Fraction(0))
        # factor out x and solve the quadratic a3 x^2 + a2 x + a1 = 0
        disc = a2 * a2 - 4 * a3 * a1
        if disc >= 0:
            s = _isqrt_exact(disc)
            if s is not None:
                for sgn in (1, -1):
                    roots.add(Fraction(-a2 + sgn * s, 2 * a3))
        return sorted(roots)
    for p in divisors(a0):
        for q in divisors(a3):
            for sgn in (1, -1):
                x = Fraction(sgn * p, q)
                if a3 * x**3 + a2 * x**2 + a1 * x + a0 == 0:
                    roots.add(x)
    return sorted(roots)


def _isqrt_exact(n: int) -> int | None:
    s = isqrt(n)
    return s if s * s == n else None


def torsion_two_structure(m: LongModel) -> int:
    """dim_F2 E(Q)[2]: the number of rational roots of the 2-division cubic
    mapped 3 -> 2, 1 -> 1, 0 -> 0."""
    if m.discriminant == 0:
        raise ValueError("singular model")
    roots = _rational_roots_of_cubic(*m.two_division_cubic())
    return {3: 2, 1: 1, 0: 0}[len(roots)]


def full_model_from_long(m: LongModel) -> FullTwoTorsionModel | None:
    """Clear a long model with split 2-division cubic to an integral model;
    None when the cubic does not have three rational roots."""
    if m.discriminant == 0:
        raise ValueError("singular model")
    roots = _rational_roots_of_cubic(*m.two_division_cubic())
    if len(roots) != 3:
        return None
    den = lcm(*(r.denominator for r in roots))
    # x -> u^2 x with u^2 = den^2 keeps the curve isomorphic and roots integral
    u2 = den * den
    return FullTwoTorsionModel(tuple(sorted(int(r * u2) for r in roots)))


def four_torsion_rational_at(model: FullTwoTorsionModel, q: int) -> bool:
    """Whether all of E[4] is Q_q-rational, for an odd prime q of good reduction.

    Equivalent to every root difference e_i - e_j (both orders) being a
    square mod q: the halves of (e_i, 0) then have square f-value, and the
    torsion Kummer images force the converse.
    """
    if q == 2 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if Place(q) in sigma_set(model):
        raise ValueError(f"{q} is a bad place for this model")
    e1, e2, e3 = model.roots
    diffs = (e1 - e2, e1 - e3, e2 - e3, -1)
    return all(legendre(d, q) == 1 for d in diffs)


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
    return FullTwoTorsionModel(tuple(sorted(parts)))


def require_full_model(parsed: FullTwoTorsionModel | LongModel) -> FullTwoTorsionModel:
    """Coerce parsed input to a full 2-torsion model or fail with the torsion dim."""
    if isinstance(parsed, FullTwoTorsionModel):
        return parsed
    full = full_model_from_long(parsed)
    if full is None:
        dim = torsion_two_structure(parsed)
        raise ValueError(f"not full 2-torsion (dim E(Q)[2] = {dim})")
    return full


def local_twist_classes(model: FullTwoTorsionModel, d: int) -> dict[Place, int]:
    """Nontrivial local classes of a twist d at Sigma and at the primes of d.

    The one check of a twist parameter: raises ValueError unless d is a
    nonzero squarefree integer, read from the one factorization of d.
    """
    factors = factorize(d).factors if d else None
    if factors is None or any(e > 1 for _, e in factors):
        raise ValueError(f"twist parameter must be a nonzero squarefree integer, got {d}")
    places = list(sigma_set(model))
    sigma_primes = {v.p for v in places}
    for p, _ in factors:
        if p not in sigma_primes:
            places.append(Place(p))
    out = {}
    for v in places:
        cls = local_class(d, v)
        if cls:
            out[v] = cls
    return out
