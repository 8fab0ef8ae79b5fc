"""The root-number parity oracle: Selmer parity of twists from the root number alone.

For squarefree d = 1 mod 8 prime to the odd primes of Sigma, the conductor of
chi_d is prime to N, so w(E^d) = chi_d(-N) w(E), and by the 2-parity theorem
(Monsky, Math. Z. 221 (1996); Dokchitser-Dokchitser, Ann. of Math. 172 (2010))

    r2(E^d) - r2(E) = [sign(d) * prod_{p in M} (d/p) = -1]  (mod 2),

M the odd primes of multiplicative reduction.  An additive odd p has conductor
exponent 2 and adds a square; its Swan term is 0 since E[2] is rational.  The
oracle reads M from the valuations of the root differences and uses its own
valuation, trial factoring and Euler-criterion Legendre symbol, so it shares no
code with the Kummer images that the engine's ranks come from.
"""

from math import isqrt

import twoselmer.local_descent
from twoselmer.curve import FullTwoTorsionModel, local_twist_classes
from twoselmer.local_descent import clear_image_cache
from twoselmer.selmer import selmer_group
from twoselmer.twist_lab import base_rank, rank_of_twist

ORACLE_ROOTS = [(-1, 0, 1), (0, 1, 2), (0, 1, 5), (-7, 1, 20), (-3, 0, 3), (0, 4, 9),
                (0, 531441, -1594323)]


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _odd_prime_factors(n):
    n, found = abs(n), []
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        found.append(n)
    return {p for p in found if p != 2}


def _is_squarefree(n):
    return all(n % (k * k) for k in range(2, isqrt(abs(n)) + 1))


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _multiplicative_primes(roots):
    """The odd primes of multiplicative reduction, and every odd bad prime."""
    e1, e2, e3 = roots
    diffs = (e2 - e1, e3 - e1, e3 - e2)
    bad = set().union(*map(_odd_prime_factors, diffs))
    mult = set()
    for p in bad:
        vals = [_valuation(n, p) for n in diffs]
        while min(vals) >= 2:  # a change of model by p
            vals = [v - 2 for v in vals]
        if min(vals) == 0 < max(vals):
            mult.add(p)
    return mult, bad


def rootnum_mismatches(roots, bound, rank):
    """Eligible twists |d| < bound whose parity rank(d) - rank(1) the root number contradicts."""
    mult, bad = _multiplicative_primes(roots)
    r0 = rank(1)
    checked, wrong = 0, []
    for d in range(1 - bound, bound):
        if d % 8 != 1 or not _is_squarefree(d) or any(d % p == 0 for p in bad):
            continue
        sign = -1 if d < 0 else 1
        for p in mult:
            sign *= _legendre(d, p)
        checked += 1
        if (rank(d) - r0) % 2 != (sign == -1):
            wrong.append(d)
    return checked, wrong


def test_rootnum_parity_oracle():
    total = 0
    for roots in ORACLE_ROOTS:
        m = FullTwoTorsionModel(roots)
        checked, wrong = rootnum_mismatches(
            roots, 1500, lambda d: base_rank(m) if d == 1 else rank_of_twist(m, d))
        assert wrong == [], roots
        total += checked
    assert total == 1715


def test_rootnum_oracle_sees_an_image_short_at_2(monkeypatch):
    # one basis vector dropped from every sampled image at 2: the pointwise check
    # accepts each kernel, since it checks against the images the matrix was built
    # from, while the root number contradicts the parities
    m = FullTwoTorsionModel((-1, 0, 1))
    sampled = twoselmer.local_descent._sampled_image

    def short_at_2(model, d_class, place):
        image = sampled(model, d_class, place)
        return image[:-1] if place == 2 else image

    clear_image_cache()
    monkeypatch.setattr(twoselmer.local_descent, "_sampled_image", short_at_2)
    try:
        _, wrong = rootnum_mismatches(
            m.roots, 300,
            lambda d: selmer_group(m, local_twist_classes(m, d), verify=True).dim)
    finally:
        monkeypatch.undo()
        clear_image_cache()
    assert len(wrong) == 17
