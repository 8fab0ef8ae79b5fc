"""F2 linear algebra on int bitmasks.

Vectors are Python ints; bit ``j`` is the coefficient of column ``j``.
Spaces here have dimension at most a dozen or so, so plain Gaussian
elimination is used throughout.
"""

from __future__ import annotations


def _lsb_index(x: int) -> int:
    return (x & -x).bit_length() - 1


class Span:
    """Incrementally built row space in reduced echelon form."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.pivots: list[int] = []

    def reduce(self, v: int) -> int:
        for pc, row in zip(self.pivots, self.rows):
            if (v >> pc) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Add a vector; returns True iff the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        pc = _lsb_index(v)
        for i, row in enumerate(self.rows):
            if (row >> pc) & 1:
                self.rows[i] = row ^ v
        self.rows.append(v)
        self.pivots.append(pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def reduce_rows(rows: list[int]) -> list[int]:
    span = Span()
    for r in rows:
        span.add(r)
    return list(span.rows)


def rank(rows: list[int]) -> int:
    return len(reduce_rows(rows))


def in_span(v: int, rows: list[int]) -> bool:
    span = Span()
    for r in rows:
        span.add(r)
    return span.contains(v)


def kernel_basis(rows: list[int], width: int) -> list[int]:
    """Basis of {x : parity(row & x) = 0 for every row}, deterministic order."""
    span = Span()
    for r in rows:
        span.add(r)
    pivot_cols = set(span.pivots)
    basis = []
    for f in range(width):
        if f in pivot_cols:
            continue
        v = 1 << f
        for pc, row in zip(span.pivots, span.rows):
            if (row >> f) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis
