from fractions import Fraction

import pytest

from twoselmer.curve import (
    FullTwoTorsionModel,
    LongModel,
    four_torsion_rational_at,
    full_model_from_long,
    local_twist_classes,
    parse_curve,
    require_full_model,
    sigma_set,
    torsion_two_structure,
    twist,
)
from twoselmer.padic import Place, REAL_PLACE, local_class
from twoselmer.zarith import is_prime


def test_model_invariants():
    m = FullTwoTorsionModel((-1, 0, 1))
    assert m.discriminant == 64
    e1, e2, e3 = m.roots
    assert (2 - e1) * (2 - e2) * (2 - e3) == 6
    with pytest.raises(ValueError):
        FullTwoTorsionModel((1, 1, 2))


def test_model_normalizes_root_order():
    assert FullTwoTorsionModel((0, 5, 1)).roots == (0, 1, 5)


def test_sigma_set_examples():
    assert [str(v) for v in sigma_set(FullTwoTorsionModel((-1, 0, 1)))] == ["inf", "2"]
    assert len(sigma_set(FullTwoTorsionModel((-1, 0, 1)))) == 2
    assert [str(v) for v in sigma_set(FullTwoTorsionModel((0, 1, 2)))] == ["inf", "2"]
    s = sigma_set(FullTwoTorsionModel((-5, 0, 5)))
    assert [str(v) for v in s] == ["inf", "2", "5"]
    assert len(s) == 3


def test_twist_examples():
    m = FullTwoTorsionModel((-1, 0, 1))
    assert twist(m, -1).roots == (-1, 0, 1)
    assert twist(m, 5).roots == (-5, 0, 5)
    assert twist(FullTwoTorsionModel((0, 1, 2)), 1).roots == (0, 1, 2)
    with pytest.raises(ValueError):
        twist(m, 0)
    with pytest.raises(ValueError):
        twist(m, 12)


def test_sigma_of_twist_superset():
    m = FullTwoTorsionModel((-1, 0, 1))
    base = set(sigma_set(m))
    for d in (5, -21, 2, 33):
        tw = set(sigma_set(twist(m, d)))
        assert tw >= base
        extra = {v.p for v in tw - base}
        assert extra == {p for p in (3, 5, 7, 11) if d % p == 0}


def test_torsion_two_structure_examples():
    klagsbrun = LongModel(1, -128, 0, -48, -4)
    assert torsion_two_structure(klagsbrun) == 1
    assert torsion_two_structure(LongModel(0, 0, 0, -1, 0)) == 2  # y^2 = x(x-1)(x+1)
    assert torsion_two_structure(LongModel(0, 0, 0, 0, 2)) == 0  # y^2 = x^3 + 2


def test_full_model_from_long():
    assert full_model_from_long(LongModel(1, -128, 0, -48, -4)) is None
    m = full_model_from_long(LongModel(0, 0, 0, -1, 0))
    assert m is not None and m.roots == (-1, 0, 1)
    # rational roots needing denominator clearing: y^2 = (x-1/2)(x)(x+1/2)
    # (x, y) -> (4x, 8y) clears the halves, scaling the roots by 4
    m2 = full_model_from_long(LongModel(0, 0, 0, Fraction(-1, 4), 0))
    assert m2 is not None and m2.roots == (-2, 0, 2)


def test_full_models_have_torsion_two():
    for roots in [(-1, 0, 1), (0, 1, 2), (0, 1, 5), (-5, 0, 5)]:
        e1, e2, e3 = FullTwoTorsionModel(roots).roots
        s = e1 + e2 + e3
        p = e1 * e2 + e1 * e3 + e2 * e3
        q = e1 * e2 * e3
        assert torsion_two_structure(LongModel(0, -s, 0, p, -q)) == 2


def test_four_torsion_examples():
    m = FullTwoTorsionModel((-1, 0, 1))
    assert four_torsion_rational_at(m, 17) is True
    assert four_torsion_rational_at(m, 3) is False
    assert four_torsion_rational_at(m, 7) is False
    with pytest.raises(ValueError):
        four_torsion_rational_at(m, 2)


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


def test_parse_curve():
    assert require_full_model(parse_curve("-1,0,1")).roots == (-1, 0, 1)
    assert require_full_model(parse_curve("0,5,1")).roots == (0, 1, 5)
    long = parse_curve("[1,-128,0,-48,-4]")
    assert isinstance(long, LongModel)
    with pytest.raises(ValueError):
        require_full_model(long)
    with pytest.raises(ValueError):
        parse_curve("nonsense")


def test_local_twist_classes():
    m = FullTwoTorsionModel((-1, 0, 1))
    classes = local_twist_classes(m, -21)
    places = {str(v) for v in classes}
    assert places <= {"inf", "2", "3", "7"}
    assert str(REAL_PLACE) in places  # d < 0: nontrivial at infinity
    for v, cls in classes.items():
        assert cls == local_class(-21, v)
        assert cls != 0
    assert local_twist_classes(m, 1) == {}
    for d in (12, 0):
        with pytest.raises(ValueError):
            local_twist_classes(m, d)
