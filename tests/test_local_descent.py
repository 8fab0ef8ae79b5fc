import itertools
import random
from fractions import Fraction

import pytest

from twoselmer import gf2
from twoselmer.curve import FullTwoTorsionModel, sigma_set
from twoselmer.errors import SamplingBudgetExceeded
from twoselmer.local_descent import (
    _sample_x,
    _torsion_cocycles,
    clear_image_cache,
    h_v,
    kummer_image,
)
from twoselmer.padic import (
    Place,
    REAL_PLACE,
    local_class,
    local_pairing,
    representative,
)

SIGN = 1  # the nontrivial class at the real place


def all_places():
    return [REAL_PLACE, Place(2), Place(3), Place(5), Place(13)]


def test_expected_local_dim(m101):
    # dim E'(Q_v)/2E'(Q_v) is the class width for every twist of a full 2-torsion model
    assert Place(5).width == 2
    assert REAL_PLACE.width == 1
    assert Place(2).width == 3
    for place in (REAL_PLACE, Place(2), Place(5)):
        for c in range(1 << place.width):
            assert len(kummer_image(m101, c, place)) == place.width


def test_kummer_image_rejects_out_of_range_class(m101):
    for place, c in ((REAL_PLACE, 2), (Place(5), 4), (Place(2), 8), (REAL_PLACE, -1)):
        with pytest.raises(ValueError):
            kummer_image(m101, c, place)


def test_kummer_image_dims(m101):
    assert len(kummer_image(m101, 0, REAL_PLACE)) == 1
    assert len(kummer_image(m101, 0, Place(5))) == 2
    assert len(kummer_image(m101, 0, Place(2))) == 3


def test_kummer_image_odd_good_is_torsion_span(m101):
    # at a good odd prime with E[4] not fully rational the 2-torsion generates
    p = Place(5)
    img = kummer_image(m101, 0, p)
    e1, e2, e3 = m101.roots
    t1 = ((e1 - e2) * (e1 - e3), e1 - e2)
    t2 = (e2 - e1, (e2 - e1) * (e2 - e3))
    for a, b in (t1, t2):
        c = local_class(a, p) | (local_class(b, p) << p.width)
        assert gf2.in_span(c, img)


def test_isotropy_and_half_dimension(corpus):
    for m in corpus:
        for place in all_places():
            for c in range(1 << place.width):
                img = kummer_image(m, c, place)
                assert 2 * len(img) == 2 * place.width
                for a in img:
                    for b in img:
                        assert local_pairing(place, a, b) == 0


def test_unramified_twist_stability(m101):
    # at q outside Sigma an unramified nontrivial class does not move the image
    for q in (3, 5, 7, 13):
        p = Place(q)
        unram = 0b10
        a = kummer_image(m101, 0, p)
        b = kummer_image(m101, unram, p)
        assert sorted(gf2.reduce_rows(a)) == sorted(gf2.reduce_rows(b))


def test_good_reduction_image_is_unramified(m101):
    # both components have even valuation: the valuation bits vanish
    for q in (3, 5, 7):
        p = Place(q)
        img = kummer_image(m101, 0, p)
        for c in img:
            assert c & 1 == 0
            assert (c >> p.width) & 1 == 0


def test_h_v_examples(corpus):
    for m in corpus:
        for place in all_places():
            assert h_v(m, 0, place) == 0
        assert h_v(m, SIGN, REAL_PLACE) == 1
    # ramified class at a good odd prime
    for q in (3, 7, 13):
        p = Place(q)
        for m in corpus:
            if q in {v.p for v in sigma_set(m)}:
                continue
            assert h_v(m, 0b01, p) == 2
            assert h_v(m, 0b11, p) == 2


def enumerate_span(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def test_ramhv_intersection_trivial(corpus):
    rng = random.Random(11)
    for m in corpus:
        bad = {v.p for v in sigma_set(m) if v.p is not None}
        primes = [p for p in (3, 7, 11, 13, 17, 19, 23) if p not in bad]
        for _ in range(10):
            q = rng.choice(primes)
            place = Place(q)
            cls = 1 | rng.randint(0, 1) << 1
            a1 = kummer_image(m, 0, place)
            ax = kummer_image(m, cls, place)
            assert enumerate_span(a1) & enumerate_span(ax) == {0}
            assert h_v(m, cls, place) == 2


def multiplied_image(model, d_class, place, budget=10**5):
    """kummer_image under the wrong identification, which multiplies both
    cocycle coordinates of every nontrivial cocycle by the twist class."""
    rep = representative(place, d_class)
    roots = tuple(rep * e for e in model.roots)
    k = place.width
    shift = d_class | d_class << k
    span = gf2.Span()
    basis = []

    def push(c):
        if c and span.add(c ^ shift):
            basis.append(c ^ shift)
        return span.dim == k

    for t in _torsion_cocycles(roots, place):
        if push(t):
            return basis
    for a, q in itertools.islice(_sample_x(place, roots), budget):
        x = Fraction(a, q)
        if x in roots:
            continue
        if local_class((x - roots[0]) * (x - roots[1]) * (x - roots[2]), place) == 0:
            if push(local_class(x - roots[0], place) | local_class(x - roots[1], place) << k):
                return basis
    raise SamplingBudgetExceeded(f"wrong-convention image at {place} stuck at dim {span.dim}")


def test_multiplied_coordinates_convention_fails(m101):
    # the alternative identification must violate isotropy at a ramified
    # odd place ...
    p5 = Place(5)
    wrong = multiplied_image(m101, 0b01, p5)
    violations = [
        (a, b)
        for a in wrong
        for b in wrong
        if local_pairing(p5, a, b) == 1
    ]
    assert violations, "wrong convention unexpectedly isotropic"
    # ... and at the real place it cannot even reach the expected dimension
    with pytest.raises(SamplingBudgetExceeded):
        multiplied_image(m101, SIGN, REAL_PLACE)


def test_image_cache_consistency(m101):
    p = Place(5)
    a = kummer_image(m101, 0, p)
    b = kummer_image(m101, 0, p)
    assert a is b
    clear_image_cache()
    c = kummer_image(m101, 0, p)
    assert c is not a
    assert sorted(gf2.reduce_rows(c)) == sorted(gf2.reduce_rows(a))
