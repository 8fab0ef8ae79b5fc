import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from test_padic import fraction_class

import twoselmer.local_descent
import twoselmer.twist_lab
from twoselmer import gf2
from twoselmer.cli import main
from twoselmer.curve import FullTwoTorsionModel, sigma_set
from twoselmer.errors import BudgetExceeded
from twoselmer.local_descent import (
    _sample_x,
    _sampled_image,
    _torsion_cocycles,
    clear_image_cache,
    h_v,
    image_checks,
    kummer_image,
)
from twoselmer.padic import (
    REAL_PLACE,
    _cocycle,
    _name,
    _width,
    local_class,
    local_pairing,
)
from twoselmer.selmer import selmer_group
from twoselmer.twist_lab import scan_records
from twoselmer.zarith import odd_primes, valuation

SIGN = 1  # the nontrivial class at the real place


def all_places():
    return [REAL_PLACE, 2, 3, 5, 13]


def test_expected_local_dim(m101):
    # dim E'(Q_v)/2E'(Q_v) is the class width for every twist of a full 2-torsion model
    assert _width(5) == 2
    assert _width(REAL_PLACE) == 1
    assert _width(2) == 3
    for place in (REAL_PLACE, 2, 5):
        for c in range(1 << _width(place)):
            assert len(kummer_image(m101, c, place)) == _width(place)


def test_kummer_image_rejects_out_of_range_class(m101):
    for place, c in ((REAL_PLACE, 2), (5, 4), (2, 8), (REAL_PLACE, -1)):
        with pytest.raises(ValueError):
            kummer_image(m101, c, place)


def test_kummer_image_dims(m101):
    assert len(kummer_image(m101, 0, REAL_PLACE)) == 1
    assert len(kummer_image(m101, 0, 5)) == 2
    assert len(kummer_image(m101, 0, 2)) == 3


def test_kummer_image_odd_good_is_torsion_span(m101):
    # at a good odd prime with E[4] not fully rational the 2-torsion generates
    p = 5
    img = kummer_image(m101, 0, p)
    e1, e2, e3 = m101.roots
    t1 = ((e1 - e2) * (e1 - e3), e1 - e2)
    t2 = (e2 - e1, (e2 - e1) * (e2 - e3))
    for a, b in (t1, t2):
        c = local_class(a, p) | (local_class(b, p) << _width(p))
        assert gf2.Span(img).contains(c)


def test_isotropy_and_half_dimension(corpus):
    for m in corpus:
        for place in all_places():
            for c in range(1 << _width(place)):
                img = kummer_image(m, c, place)
                assert 2 * len(img) == 2 * _width(place)
                for a in img:
                    for b in img:
                        assert local_pairing(place, a, b) == 0


def test_unramified_twist_stability(m101):
    # at q outside Sigma an unramified nontrivial class does not move the image
    for q in (3, 5, 7, 13):
        p = q
        unram = 0b10
        a = kummer_image(m101, 0, p)
        b = kummer_image(m101, unram, p)
        assert span_rows(a) == span_rows(b)


def test_good_reduction_image_is_unramified(m101):
    # both components have even valuation: the valuation bits vanish
    for q in (3, 5, 7):
        p = q
        img = kummer_image(m101, 0, p)
        for c in img:
            assert c & 1 == 0
            assert (c >> _width(p)) & 1 == 0


def test_h_v_examples(corpus):
    for m in corpus:
        for place in all_places():
            assert h_v(m, 0, place) == 0
        assert h_v(m, SIGN, REAL_PLACE) == 1
    # ramified class at a good odd prime
    for q in (3, 7, 13):
        p = q
        for m in corpus:
            if q in sigma_set(m):
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
        bad = sigma_set(m)
        primes = [p for p in (3, 7, 11, 13, 17, 19, 23) if p not in bad]
        for _ in range(10):
            q = rng.choice(primes)
            place = q
            cls = 1 | rng.randint(0, 1) << 1
            a1 = kummer_image(m, 0, place)
            ax = kummer_image(m, cls, place)
            assert enumerate_span(a1) & enumerate_span(ax) == {0}
            assert h_v(m, cls, place) == 2


def real_x():
    """A finite stream of x = a / 2^j at inf: the library never samples there."""
    for j in range(7):
        for a in range(-4096, 4097):
            yield a, 2**j


def multiplied_image(model, d_class, place, budget=10**5):
    """kummer_image under the wrong identification, which multiplies both
    cocycle coordinates of every nontrivial cocycle by the twist class."""
    k = _width(place)
    shift = d_class | d_class << k
    span = gf2.Span()
    basis = []

    def push(c):
        if c and span.add(c ^ shift):
            basis.append(c ^ shift)
        return span.dim == k

    for t in _torsion_cocycles(model, d_class, place):
        if push(t):
            return basis
    # points x = rep * u of the twist, u = a/q sampled on the base model: the right
    # cocycle shifts _cocycle(w1 q, w2 q) by the twist class, and push shifts it back
    e1, e2, e3 = model.roots
    xs = real_x() if place == REAL_PLACE else ((x, 1) for x in _sample_x(place, model.roots))
    for a, q in itertools.islice(xs, budget):
        w1, w2, w3 = a - e1 * q, a - e2 * q, a - e3 * q
        if w1 and w2 and w3 and local_class(w1 * w2 * w3 * q, place) == d_class:
            if push(_cocycle(w1 * q, w2 * q, place) ^ shift):
                return basis
    raise BudgetExceeded(
        f"wrong-convention image at {_name(place)} stuck at dim {span.dim}"
    )


def test_multiplied_coordinates_convention_fails(m101):
    # the alternative identification must violate isotropy at a ramified
    # odd place ...
    p5 = 5
    wrong = multiplied_image(m101, 0b01, p5)
    violations = [
        (a, b)
        for a in wrong
        for b in wrong
        if local_pairing(p5, a, b) == 1
    ]
    assert violations, "wrong convention unexpectedly isotropic"
    # ... and at the real place it cannot even reach the expected dimension
    with pytest.raises(BudgetExceeded, match="wrong-convention image at inf stuck"):
        multiplied_image(m101, SIGN, REAL_PLACE)


def test_real_place_never_samples(corpus, monkeypatch):
    # one of the two torsion cocycles is nonzero at inf for distinct real roots
    def no_sampling(place, roots):
        raise AssertionError(f"sampled at {_name(place)}")

    monkeypatch.setattr(twoselmer.local_descent, "_sample_x", no_sampling)
    for m in corpus:
        for c in (0, SIGN):
            assert len(_sampled_image(m, c, REAL_PLACE)) == 1


def test_image_cache_consistency(m101):
    p = 2  # a place of Sigma, where the image is sampled
    a = kummer_image(m101, 0, p)
    b = kummer_image(m101, 0, p)
    assert a is b
    assert image_checks(a, _width(p)) is image_checks(a, _width(p))
    assert image_checks.cache_info().currsize
    span = twoselmer.local_descent._condition_span
    selmer_group(m101, {}, verify=True)  # builds the verify span of each condition once
    built = span.cache_info().currsize
    assert built and span(a) is span(a) and span.cache_info().currsize == built
    assert sorted(span(a).rows) == span_rows(a)
    clear_image_cache()
    assert image_checks.cache_info().currsize == 0
    assert span.cache_info().currsize == 0
    c = kummer_image(m101, 0, p)
    assert c is not a
    assert span_rows(c) == span_rows(a)


def test_image_checks_annihilate_the_image(corpus):
    for m in corpus:
        for place in (*sigma_set(m), *itertools.takewhile(lambda q: q < 200, odd_primes())):
            k = _width(place)
            for c in range(1 << k):
                image = kummer_image(m, c, place)
                checks = image_checks(image, _width(place))
                assert len(checks) == 2 * k - len(image)
                for h in checks:
                    assert all((h & a).bit_count() % 2 == 0 for a in image)


def span_rows(basis):
    """The reduced echelon rows of a basis, in a fixed order: one per span."""
    return sorted(gf2.Span(basis).rows)


def test_closed_form_equals_sampled_span(search_curves):
    # outside Sigma kummer_image is the closed form; the sampler is its oracle
    for m in search_curves:
        sigma = sigma_set(m)
        for q in itertools.takewhile(lambda q: q < 2000, odd_primes()):
            place = q
            if place in sigma:
                continue
            for c in range(4):
                assert span_rows(kummer_image(m, c, place)) == span_rows(
                    _sampled_image(m, c, place)
                ), (m.roots, q, c)


def test_sampler_outside_sigma_ignores_the_torsion_cocycles(corpus, monkeypatch):
    # a closed form with its second cocycle left unshifted by the twist class
    # must not reach the sampler at a good prime, or the two checks agree on it
    def unshifted(model, d_class, place):
        t1, t2 = _torsion_cocycles(model, d_class, place)
        return t1, t2 ^ d_class

    monkeypatch.setattr(twoselmer.local_descent, "_torsion_cocycles", unshifted)
    for m in (*corpus, FullTwoTorsionModel((-7, 1, 20))):
        sigma = sigma_set(m)
        for q in itertools.takewhile(lambda q: q < 200, odd_primes()):
            if q in sigma:
                continue
            for c in (1, 3):
                assert span_rows(_sampled_image(m, c, q)) == span_rows(
                    _torsion_cocycles(m, c, q)
                ), (m.roots, q, c)


def test_sampler_runs_only_at_sigma(m015, monkeypatch):
    seen, h_places = [], set()

    def counting(model, d_class, place):
        seen.append((place, d_class))
        return _sampled_image(model, d_class, place)

    def h_counting(model, d_class, place):
        h_places.add(place)
        return h_v(model, d_class, place)

    monkeypatch.setattr(twoselmer.local_descent, "_image_cache", {})
    monkeypatch.setattr(twoselmer.local_descent, "_sampled_image", counting)
    monkeypatch.setattr(twoselmer.twist_lab, "h_v", h_counting)
    records = list(scan_records(m015, 1000))
    assert len(records) == 2 * 608
    sigma = sigma_set(m015)
    assert seen and {place for place, _ in seen} <= set(sigma)
    # the parity sum reads h_v at the places of Sigma only
    assert h_places == set(sigma)
    # each (place, class) of Sigma at most once: 2 + 8 + 4 images
    assert len(seen) == len(set(seen)) <= sum(1 << _width(v) for v in sigma)


def test_points_near_o_lie_next_to_a_root_after_a_torsion_shift(corpus):
    # the reason the sampler draws integers only: a point P of E(Q_p) with
    # x = a/p^(2j) plus T_i = (e_i, 0) has x' = e_i + (e_i-e_j)(e_i-e_k)/(x-e_i),
    # deep next to e_i, and its cocycle is P's plus the torsion cocycle of T_i
    def v(r, p):
        return valuation(r.numerator, p) - valuation(r.denominator, p)

    def cocycle(x, m, p):
        e1, e2, _ = m.roots
        return fraction_class(x - e1, p) | fraction_class(x - e2, p) << _width(p)

    curves = [*corpus, FullTwoTorsionModel((-7, 1, 20)), FullTwoTorsionModel((-112, 16, 320))]
    cases = 0
    for m, p, j in itertools.product(curves, (2, 3, 5), (1, 2, 3)):
        torsion = _torsion_cocycles(m, 0, p)
        for a in range(-60, 61):
            x = Fraction(a, p ** (2 * j))
            if a % p == 0 or fraction_class(prod(x - e for e in m.roots), p) != 0:
                continue
            for i in (0, 1):
                ei, ej, ek = m.roots[i], *(e for e in m.roots if e != m.roots[i])
                shifted = ei + (ei - ej) * (ei - ek) / (x - ei)
                assert v(shifted - ei, p) == valuation((ei - ej) * (ei - ek), p) + 2 * j
                assert cocycle(shifted, m, p) == cocycle(x, m, p) ^ torsion[i], (m.roots, p, x, i)
                cases += 1
    assert cases > 3000


def assert_complete_and_isotropic(model, place, classes):
    for c in classes:
        img = kummer_image(model, c, place)
        assert len(img) == _width(place), (model.roots, place, c)
        assert all(local_pairing(place, a, b) == 0 for a in img for b in img), (model.roots, c)


@pytest.mark.parametrize(
    "roots, place, classes",
    [
        ((-7, 1, 20), 2, (4, 7)),  # stuck with ts = [1] at 2
        ((51 * 11**8, 193 * 11**8, 197 * 11**8), 11, (0, 2)),  # stuck at an odd depth deep + 0
        ((-21 * 13**2, 29 * 13**2, 43 * 13**2), 13, (0,)),  # stuck with odd ts = [1, u]
    ],
)
def test_ladder_edge_images_complete(roots, place, classes):
    assert_complete_and_isotropic(FullTwoTorsionModel(roots), place, classes)


def test_seeded_sigma_images_complete():
    # random root triples in [-200, 200], every second one scaled by p^k, p <= 13, k <= 8
    rng = random.Random(1)
    for n in range(200):
        roots = rng.sample(range(-200, 201), 3)
        if n % 2:
            scale = rng.choice((2, 3, 5, 7, 11, 13)) ** rng.randint(1, 8)
            roots = [scale * e for e in roots]
        model = FullTwoTorsionModel(roots)
        for place in sigma_set(model):
            assert_complete_and_isotropic(model, place, range(1 << _width(place)))


def test_exhausted_sampling_budget_is_loud(m101, monkeypatch, capsys):
    monkeypatch.setattr(twoselmer.local_descent, "_sample_x", lambda p, roots: iter(()))
    monkeypatch.setattr(twoselmer.local_descent, "_image_cache", {})
    # at 2 the two torsion cocycles are all that is left of a width-3 image
    with pytest.raises(BudgetExceeded) as exc:
        kummer_image(m101, 5, 2)
    assert str(exc.value) == "kummer image at 2 for class 5 stuck at dim 2 < 3"
    assert main(["descent", "--curve=0,1,5", "--twist=3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: kummer image at 2 for class 6 stuck at dim 2 < 3\n"
