"""Local fields Q_v: square classes, Hilbert symbols and the local pairing.

A square class in Q_v^x / (Q_v^x)^2 is a plain int of ``place.width``
bits, 0 being the trivial class and XOR the group law:

- real place: bit 0 is the sign;
- odd prime p: bit 0 is the valuation parity, bit 1 is set when the unit
  part is a non-residue mod p;
- p = 2: bit 0 is the valuation parity, bits 1 and 2 give the unit mod 8
  on the generators -1 and 5.

A local cocycle in H^1(Q_v, E[2]) (split E[2]) is a pair of classes packed
as ``first | second << place.width``.  Classes of global rationals are
computed from valuations and residues of integers, since the class of a/b
is the class of ab; no p-adic precision is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Rational

from .zarith import is_prime, legendre, valuation

# unit mod 8 -> bit 1 (on -1) and bit 2 (on 5)
_MOD8_BITS = {1: 0b000, 3: 0b110, 5: 0b100, 7: 0b010}


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the real place (p is None) or a finite prime."""

    p: int | None = None

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    @property
    def width(self) -> int:
        """F2-dimension of Q_v^x / (Q_v^x)^2."""
        if self.p is None:
            return 1
        return 3 if self.p == 2 else 2

    def sort_key(self) -> int:
        return 0 if self.p is None else self.p

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)

    def __repr__(self) -> str:
        return f"Place({self})"


REAL_PLACE = Place(None)


def parse_place(text: str) -> Place:
    if text in ("inf", "oo", "infinity"):
        return REAL_PLACE
    p = int(text)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Place(p)


@lru_cache(maxsize=None)
def nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    a = 2
    while legendre(a, p) != -1:
        a += 1
    return a


def local_class(r: Rational, place: Place) -> int:
    """Image of a nonzero rational in Q_v^x / (Q_v^x)^2: the class of a/b is that of ab."""
    n = r.numerator * r.denominator
    if n == 0:
        raise ValueError("0 has no square class")
    p = place.p
    if p is None:
        return 1 if n < 0 else 0
    v = valuation(n, p)
    u = n // p**v
    if p == 2:
        return (v & 1) | _MOD8_BITS[u % 8]
    return (v & 1) | (0 if legendre(u, p) == 1 else 2)


def representative(place: Place, c: int) -> int:
    """A squarefree integer lying in the class c at the place."""
    p = place.p
    if p is None:
        return -1 if c else 1
    n = p if c & 1 else 1
    if p == 2:
        return n * (-1 if c & 2 else 1) * (5 if c & 4 else 1)
    return n * (nonresidue(p) if c & 2 else 1)


def hilbert(place: Place, a: int, b: int) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a Q_v-point."""
    p = place.p
    if p is None:
        e = a & b
    elif p == 2:
        # epsilon(u) = (u-1)/2 is the -1 bit, omega(u) = (u^2-1)/8 is the 5 bit
        e = ((a >> 1) & (b >> 1)) ^ (a & (b >> 2)) ^ (b & (a >> 2))
    else:
        e = (a & b & ((p - 1) // 2)) ^ (b & (a >> 1)) ^ (a & (b >> 1))
    return -1 if e & 1 else 1


def local_pairing(place: Place, x: int, y: int) -> int:
    """Tate local duality pairing of two cocycles in coordinates, additive in F2."""
    k = place.width
    low = (1 << k) - 1
    h = hilbert(place, x & low, y >> k) * hilbert(place, x >> k, y & low)
    return 0 if h == 1 else 1
