"""Monsky's matrix as an independent oracle for the 2-Selmer rank of y^2 = x^3 - d^2 x.

P. Monsky, appendix to D. R. Heath-Brown, "The size of Selmer groups for the
congruent number problem II", Invent. Math. 118 (1994).  For squarefree
d = ±2^e p_1 ... p_t with odd primes p_i, dim Sel_2(E^d) = 2 + 2t - rank M over F2,
where M is built from Legendre symbols among -1, 2 and the p_i alone.  Nothing
here calls the engine except ``rank_of_twist``: the Legendre symbol, the
factorization and the F2 rank are written out below.
"""

from twoselmer.curve import FullTwoTorsionModel
from twoselmer.twist_lab import rank_of_twist

BOUND = 3000


def _bit(u: int, p: int) -> int:
    """[u/p]: 0 when u is a square mod the odd prime p, 1 otherwise (Euler's criterion)."""
    return 0 if pow(u % p, (p - 1) // 2, p) == 1 else 1


def _prime_factors(n: int) -> list[int] | None:
    """The primes of n > 0 ascending, by trial division; None unless n is squarefree."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _rank(rows: list[int]) -> int:
    """F2 rank of rows given as int bit masks, by XOR elimination on leading bits."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def monsky_dim(d: int) -> int:
    """2 + 2t - rank M for a squarefree d != 0."""
    primes = _prime_factors(abs(d))
    even = primes[:1] == [2]
    odd = primes[1:] if even else primes
    t = len(odd)
    a = [[_bit(q, p) if p != q else 0 for q in odd] for p in odd]
    for i in range(t):
        a[i][i] = sum(a[i]) % 2
    at = [list(col) for col in zip(*a)]

    def diag(u: int) -> list[list[int]]:
        return [[_bit(u, p) if i == j else 0 for j in range(t)] for i, p in enumerate(odd)]

    def add(x, y):
        return [[(u + v) % 2 for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]

    d2, dm2, dm1 = diag(2), diag(-2), diag(-1)
    if even:
        blocks = [[d2, add(a, d2)], [add(at, d2), dm1]]
    else:
        blocks = [[add(a, d2), d2], [d2, add(a, dm2)]]
    rows = []
    for left, right in blocks:
        for rl, rr in zip(left, right):
            rows.append(sum(bit << j for j, bit in enumerate(rl + rr)))
    return 2 + 2 * t - _rank(rows)


def test_twist_rank_matches_monsky():
    m = FullTwoTorsionModel((-1, 0, 1))
    mismatches = []
    for n in range(1, BOUND + 1):
        if _prime_factors(n) is None:
            continue
        for d in (n, -n):
            got, want = rank_of_twist(m, d), monsky_dim(d)
            if got != want:
                mismatches.append((d, got, want))
    assert mismatches == []
