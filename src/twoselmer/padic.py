"""Local fields Q_v: square classes, Hilbert symbols and the local pairing.

A place is the integer that generates its square classes in Q(Sigma', 2):
``REAL_PLACE = -1`` for the real place and p for the prime p, so integer
order puts inf first and a sorted tuple of places is the generator order.
A square class in Q_v^x / (Q_v^x)^2 is a plain int of ``_width(v)`` bits,
0 being the trivial class and XOR the group law:

- real place: bit 0 is the sign;
- odd prime p: bit 0 is the valuation parity, bit 1 is set when the unit
  part is a non-residue mod p;
- p = 2: bit 0 is the valuation parity, bits 1 and 2 give the unit mod 8
  on the generators -1 and 5.

A local cocycle in H^1(Q_v, E[2]) (split E[2]) is a pair of classes packed
as ``first | second << _width(v)``, by ``_cocycle`` alone.  Classes of
global rationals are computed from valuations and residues of integers,
since the class of a/b is the class of ab; no p-adic precision is ever
involved.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Rational

from .zarith import is_prime, legendre, valuation

# unit mod 8 -> bit 1 (on -1) and bit 2 (on 5)
_MOD8_BITS = {1: 0b000, 3: 0b110, 5: 0b100, 7: 0b010}

REAL_PLACE = -1


def _width(place: int) -> int:
    """F2-dimension of Q_v^x / (Q_v^x)^2."""
    return 1 if place < 0 else 3 if place == 2 else 2


def _name(place: int) -> str:
    """The place as records and messages print it: "inf" or the prime."""
    return "inf" if place < 0 else str(place)


def parse_place(text: str) -> int:
    if text in ("inf", "oo", "infinity"):
        return REAL_PLACE
    p = int(text)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


@lru_cache(maxsize=None)
def nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    a = 2
    while legendre(a, p) != -1:
        a += 1
    return a


def local_class(r: Rational, place: int) -> int:
    """Image of a nonzero rational in Q_v^x / (Q_v^x)^2: the class of a/b is that of ab."""
    n = r if type(r) is int else r.numerator * r.denominator
    if n == 0:
        raise ValueError("0 has no square class")
    if place < 0:
        return 1 if n < 0 else 0
    if place == 2:
        v = (n & -n).bit_length() - 1
        return (v & 1) | _MOD8_BITS[(n >> v) % 8]
    if n % place:
        return 0 if legendre(n, place) == 1 else 2
    v = valuation(n, place)
    return (v & 1) | (0 if legendre(n // place**v, place) == 1 else 2)


def _cocycle(a: int, b: int, place: int) -> int:
    """The local cocycle of the pair of nonzero integers (a, b) at a place."""
    return local_class(a, place) | local_class(b, place) << _width(place)


def hilbert(place: int, a: int, b: int) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a Q_v-point."""
    if place < 0:
        e = a & b
    elif place == 2:
        # epsilon(u) = (u-1)/2 is the -1 bit, omega(u) = (u^2-1)/8 is the 5 bit
        e = ((a >> 1) & (b >> 1)) ^ (a & (b >> 2)) ^ (b & (a >> 2))
    else:
        e = (a & b & ((place - 1) // 2)) ^ (b & (a >> 1)) ^ (a & (b >> 1))
    return -1 if e & 1 else 1


def local_pairing(place: int, x: int, y: int) -> int:
    """Tate local duality pairing of two cocycles in coordinates, additive in F2."""
    k = _width(place)
    low = (1 << k) - 1
    h = hilbert(place, x & low, y >> k) * hilbert(place, x >> k, y & low)
    return 0 if h == 1 else 1
