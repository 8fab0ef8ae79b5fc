import itertools
import math
import random
from fractions import Fraction

import pytest

import twoselmer.curve
from twoselmer.curve import (
    FullTwoTorsionModel,
    LongModel,
    _integer_roots,
    local_twist_classes,
    parse_curve,
    require_full_model,
    sigma_set,
)
from twoselmer.padic import REAL_PLACE, _name, local_class
from twoselmer.selmer import selmer_group
from twoselmer.zarith import factorize, is_prime, legendre


def full_discriminant(model):
    """16 times the discriminant of (x - e1)(x - e2)(x - e3)."""
    e1, e2, e3 = model.roots
    return 16 * ((e1 - e2) * (e1 - e3) * (e2 - e3)) ** 2


def test_model_invariants():
    m = FullTwoTorsionModel((-1, 0, 1))
    assert full_discriminant(m) == 64
    e1, e2, e3 = m.roots
    assert (2 - e1) * (2 - e2) * (2 - e3) == 6
    with pytest.raises(ValueError):
        FullTwoTorsionModel((1, 1, 2))
    # _replace and _make go through __new__
    with pytest.raises(ValueError):
        m._replace(roots=(2, 2, 1))


def test_model_normalizes_root_order():
    assert FullTwoTorsionModel((0, 5, 1)).roots == (0, 1, 5)
    # models are cache keys: one curve is one key, whatever the root order
    assert len({FullTwoTorsionModel((0, 5, 1)), FullTwoTorsionModel((5, 1, 0))}) == 1
    assert FullTwoTorsionModel._make([(5, 1, 0)]).roots == (0, 1, 5)
    assert FullTwoTorsionModel((0, 5, 1))._replace(roots=(9, 2, 1)).roots == (1, 2, 9)


def test_sigma_set_examples():
    assert [_name(v) for v in sigma_set(FullTwoTorsionModel((-1, 0, 1)))] == ["inf", "2"]
    assert len(sigma_set(FullTwoTorsionModel((-1, 0, 1)))) == 2
    assert [_name(v) for v in sigma_set(FullTwoTorsionModel((0, 1, 2)))] == ["inf", "2"]
    s = sigma_set(FullTwoTorsionModel((-5, 0, 5)))
    assert [_name(v) for v in s] == ["inf", "2", "5"]
    assert len(s) == 3
    # the root differences 1000003, 2000199 = 3 * 666733 and 1000196 = 2^2 * 250049
    s = sigma_set(FullTwoTorsionModel((0, 1000003, 2000199)))
    assert [_name(v) for v in s] == ["inf", "2", "3", "250049", "666733", "1000003"]


def test_sigma_set_factors_only_root_differences(monkeypatch):
    # the discriminant of the 5^24 curve is past what rho can split; its
    # root differences are not
    factored = []

    def counting(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(twoselmer.curve, "factorize", counting)
    for roots in [(-1, 0, 1), (0, 1000003, 2000199), (0, 531441, -1594323),
                  (-5**24, 0, 5**48 + 1), (-3**24, 0, 3**48 + 1)]:
        m = FullTwoTorsionModel(roots)
        e1, e2, e3 = m.roots
        factored.clear()
        sigma = sigma_set.__wrapped__(m)  # past the per-model cache
        assert len(factored) == 3
        assert max(abs(n) for n in factored) <= max(e2 - e1, e3 - e1, e3 - e2)
        # where the discriminant factors fast, its odd primes are the same Sigma
        if e3 - e1 < 10**7:
            primes = factorize(full_discriminant(m)).factors
            assert sigma[2:] == tuple(p for p, _ in primes if p != 2), roots


def test_sigma_of_twist_superset():
    m = FullTwoTorsionModel((-1, 0, 1))
    base = set(sigma_set(m))
    for d in (5, -21, 2, 33):
        tw = set(sigma_set(FullTwoTorsionModel(tuple(d * e for e in m.roots))))
        assert tw >= base
        extra = tw - base
        assert extra == {p for p in (3, 5, 7, 11) if d % p == 0}


def test_torsion_two_structure_examples():
    klagsbrun = LongModel(1, -128, 0, -48, -4)
    with pytest.raises(ValueError, match=r"dim E\(Q\)\[2\] = 1"):
        require_full_model(klagsbrun)
    # y^2 = x(x-1)(x+1)
    assert require_full_model(LongModel(0, 0, 0, -1, 0)).roots == (-1, 0, 1)
    with pytest.raises(ValueError, match=r"dim E\(Q\)\[2\] = 0"):
        require_full_model(LongModel(0, 0, 0, 0, 2))  # y^2 = x^3 + 2
    with pytest.raises(ValueError, match="^singular model$"):
        require_full_model(LongModel(0, 0, 0, 0, 0))


def test_full_model_from_long():
    with pytest.raises(ValueError, match=r"dim E\(Q\)\[2\] = 1"):
        require_full_model(LongModel(1, -128, 0, -48, -4))
    assert require_full_model(LongModel(0, 0, 0, -1, 0)).roots == (-1, 0, 1)
    # rational roots needing denominator clearing: y^2 = (x-1/2)(x)(x+1/2)
    # (x, y) -> (4x, 8y) clears the halves, scaling the roots by 4
    assert require_full_model(LongModel(0, 0, 0, Fraction(-1, 4), 0)).roots == (-2, 0, 2)


def test_full_models_have_torsion_two():
    for roots in [(-1, 0, 1), (0, 1, 2), (0, 1, 5), (-5, 0, 5)]:
        e1, e2, e3 = FullTwoTorsionModel(roots).roots
        s = e1 + e2 + e3
        p = e1 * e2 + e1 * e3 + e2 * e3
        q = e1 * e2 * e3
        assert require_full_model(LongModel(0, -s, 0, p, -q)).roots == (e1, e2, e3)


def test_long_model_discriminant():
    # LMFDB: 37a1 and 11a1
    assert LongModel(0, 0, 1, -1, 0).discriminant == 37
    assert LongModel(0, -1, 1, -10, -20).discriminant == -161051
    assert LongModel(0, 0, 0, -1, 0).discriminant == 64
    for roots in [(-1, 0, 1), (0, 1, 5), (-7, 1, 20)]:
        e1, e2, e3 = roots
        long = LongModel(0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
        assert long.discriminant == full_discriminant(FullTwoTorsionModel(roots))


def _cubic_with_roots(r1, r2, r3):
    """(b, c, d) with X^3 + bX^2 + cX + d = (X - r1)(X - r2)(X - r3)."""
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def test_integer_roots_against_brute_force():
    # every integer root lies in [-M, M], M = 1 + max(|b|, |c|, |d|)
    for b, c, d in itertools.product(range(-12, 13), repeat=3):
        m = 1 + max(abs(b), abs(c), abs(d))
        expected = [x for x in range(-m, m + 1) if ((x + b) * x + c) * x + d == 0]
        assert _integer_roots(b, c, d) == expected, (b, c, d)


def test_integer_roots_of_chosen_cubics():
    rng = random.Random(13)
    for _ in range(2000):
        r1, r2, r3 = (rng.randint(-10**6, 10**6) for _ in range(3))
        assert _integer_roots(*_cubic_with_roots(r1, r2, r3)) == sorted({r1, r2, r3})
        # (X - r1)(X^2 + pX + q) with p^2 - 4q not a square: one integer root
        p, q = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if math.isqrt(max(p * p - 4 * q, 0)) ** 2 != p * p - 4 * q:
            assert _integer_roots(p - r1, q - r1 * p, -r1 * q) == [r1], (r1, p, q)
    # double roots sit on a critical point, a triple root on both
    assert _integer_roots(*_cubic_with_roots(1, 1, -2)) == [-2, 1]
    assert _integer_roots(*_cubic_with_roots(-720720, -720720, 3)) == [-720720, 3]
    assert _integer_roots(*_cubic_with_roots(7, 7, 7)) == [7]
    # 0 is the floor of the smaller critical point (6 - sqrt(21)) / 3 of X(X - 1)(X - 5),
    # and 1 its ceiling: roots at the ends of two stretches
    assert _integer_roots(*_cubic_with_roots(0, 1, 5)) == [0, 1, 5]
    assert _integer_roots(*_cubic_with_roots(-720720, 360360, 1081080)) == [-720720, 360360, 1081080]
    assert _integer_roots(0, 0, 2) == []
    assert _integer_roots(0, 1, 0) == [0]


def test_long_model_roots_without_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called while parsing a long model")

    searches = []

    def counting(*cubic):
        searches.append(cubic)
        return _integer_roots(*cubic)

    monkeypatch.setattr(twoselmer.curve, "factorize", refuse)
    monkeypatch.setattr(twoselmer.curve, "_integer_roots", counting)
    parsed = parse_curve("[0,-332251920,0,-3391406251833600,2783967477818562427392000]")
    assert require_full_model(parsed).roots == (-85765680, 103062960, 314954640)
    with pytest.raises(ValueError, match=r"dim E\(Q\)\[2\] = 1"):
        require_full_model(parse_curve("[1,-128,0,-48,-4]"))
    # one root search per long model, the rejected one included
    assert len(searches) == 2


def four_torsion_rational_at(model, q):
    """Whether all of E[4] is Q_q-rational, for an odd prime q of good reduction:
    every root difference e_i - e_j, in both orders, is a square mod q."""
    e1, e2, e3 = model.roots
    return all(legendre(d, q) == 1 for d in (e1 - e2, e1 - e3, e2 - e3, -1))


def test_four_torsion_examples():
    m = FullTwoTorsionModel((-1, 0, 1))
    assert four_torsion_rational_at(m, 17) is True
    assert four_torsion_rational_at(m, 3) is False
    assert four_torsion_rational_at(m, 7) is False


def _count_four_torsion_mod(roots, q):
    """|{P in E(F_q) : 4P = O}| by the naive group law on y^2 = f(x)."""
    e1, e2, e3 = roots

    def f(x):
        return ((x - e1) * (x - e2) * (x - e3)) % q

    points = [None]  # O
    for x in range(q):
        for y in range(q):
            if (y * y - f(x)) % q == 0:
                points.append((x, y))

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % q == 0:
            return None
        if P == Q:
            num = (3 * x1 * x1 - (e1 + e2 + e3) * 2 * x1 + e1 * e2 + e1 * e3 + e2 * e3) % q
            lam = num * pow(2 * y1, q - 2, q) % q
        else:
            lam = (y2 - y1) * pow(x2 - x1, q - 2, q) % q
        x3 = (lam * lam + (e1 + e2 + e3) - x1 - x2) % q
        y3 = (lam * (x1 - x3) - y1) % q
        return (x3, y3)

    count = 0
    for P in points:
        P2 = add(P, P)
        P4 = add(P2, P2)
        if P4 is None:
            count += 1
    return count


def test_four_torsion_against_point_counts():
    m = FullTwoTorsionModel((-1, 0, 1))
    for q in [p for p in range(3, 50) if is_prime(p)]:
        expected = _count_four_torsion_mod(m.roots, q) == 16
        assert four_torsion_rational_at(m, q) == expected, f"q={q}"


def test_progression_primes_meet_the_inc2_conditions(search_curves):
    # find_inc2 tests only primes q = 1 mod 8 and mod every odd Sigma prime:
    # reciprocity makes every Sigma-supported value a square mod q, so the
    # base Selmer basis restricts trivially at q and E[4] is rational at q
    for m in search_curves:
        modulus = 8 * math.prod(sigma_set(m)[2:])
        progression = (q for q in itertools.count(1 + modulus, modulus) if is_prime(q))
        values = {x for pair in selmer_group(m, {}).basis_values() for x in pair}
        for q in itertools.islice(progression, 8):
            assert all(legendre(x, q) == 1 for x in values), (m.roots, q)
            if q < 500:
                assert _count_four_torsion_mod(m.roots, q) == 16, (m.roots, q)
            else:
                assert four_torsion_rational_at(m, q), (m.roots, q)


def test_parse_curve():
    assert require_full_model(parse_curve("-1,0,1")).roots == (-1, 0, 1)
    assert require_full_model(parse_curve("0,5,1")).roots == (0, 1, 5)
    long = parse_curve("[1,-128,0,-48,-4]")
    assert isinstance(long, LongModel)
    assert all(type(a) is Fraction for a in (*long, *LongModel(1, -128, 0, -48, -4)))
    halved = LongModel(1, 2, 3, 4, 5)._replace(a1=0.5).a1
    assert halved == Fraction(1, 2) and type(halved) is Fraction
    with pytest.raises(ValueError):
        require_full_model(long)
    with pytest.raises(ValueError):
        parse_curve("nonsense")


def test_local_twist_classes():
    m = FullTwoTorsionModel((-1, 0, 1))
    classes = local_twist_classes(m, -21)
    places = {_name(v) for v in classes}
    assert places <= {"inf", "2", "3", "7"}
    assert _name(REAL_PLACE) in places  # d < 0: nontrivial at infinity
    for v, cls in classes.items():
        assert cls == local_class(-21, v)
        assert cls != 0
    assert local_twist_classes(m, 1) == {}
    for d in (12, 0):
        with pytest.raises(ValueError):
            local_twist_classes(m, d)
