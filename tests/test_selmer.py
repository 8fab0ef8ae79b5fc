import json
import random
import re

import pytest

import twoselmer.selmer
from twoselmer.curve import FullTwoTorsionModel, local_twist_classes, sigma_set
from twoselmer.errors import BudgetExceeded, SoundnessAlarm
from twoselmer.padic import REAL_PLACE, _width, local_class
from twoselmer.selmer import (
    SelmerResult,
    collapse_masks,
    duality_check,
    selmer_group,
)
from twoselmer.zarith import squarefree_value

SIGN = 1  # the nontrivial class at the real place


def test_global_class_basis():
    # an element is a kernel vector over (-1, 2, 5): low 3 bits d1, high 3 bits d2
    sigma_prime = (REAL_PLACE, 2, 5)
    result = SelmerResult(2, [0b101 | 0b111 << 3, 0], sigma_prime)
    assert result.basis_values() == [(-5, -10), (1, 1)]


def test_base_descent_dim(m101):
    result = selmer_group(m101, {}, verify=True)
    assert result.dim == 2
    # rank 0 with full 2-torsion: the group is exactly the torsion image
    values = set()
    for bits in range(1 << result.dim):
        a, b = 1, 1
        for i, (x, y) in enumerate(result.basis_values()):
            if (bits >> i) & 1:
                a, b = a * x, b * y
        values.add((squarefree_value(a), squarefree_value(b)))
    assert len(values) == 4


def test_trivial_mask_is_noop(corpus):
    for m in corpus:
        base = selmer_group(m, {}).dim
        for v in sigma_set(m):
            masked = selmer_group(m, {v: 0}).dim
            assert masked == base


def test_sign_mask_drops_by_one(corpus):
    for m in corpus:
        base = selmer_group(m, {}).dim
        masked = selmer_group(m, {REAL_PLACE: SIGN}, verify=True).dim
        assert masked == base - 1


def strict_relaxed_dims(model, T):
    """(dim Sel_{2,T}, dim Sel_2^T) as duality_check reports them."""
    _, rep = duality_check(model, T)
    return rep["dim_strict"], rep["dim_relaxed"]


def test_strict_relaxed_examples(m101):
    base = selmer_group(m101, {}).dim
    s0, r0 = strict_relaxed_dims(m101, frozenset())
    assert s0 == r0 == base
    s5, r5 = strict_relaxed_dims(m101, frozenset({5}))
    assert r5 - s5 == 2
    si, ri = strict_relaxed_dims(m101, frozenset({REAL_PLACE}))
    assert ri - si == 1


def test_duality_examples(m101):
    ok, rep = duality_check(m101, frozenset())
    assert ok
    ok, rep = duality_check(m101, frozenset({5}))
    assert ok and rep["expected_gap"] == 2
    ok, rep = duality_check(m101, frozenset({5, 13}))
    assert ok and rep["expected_gap"] == 4 and rep["orthogonal"]


def test_duality_seeded_random(corpus):
    rng = random.Random(12)
    for m in corpus:
        pool = list(sigma_set(m)) + [
            p
            for p in (3, 5, 7, 11, 13)
            if p not in sigma_set(m)
        ]
        for _ in range(8):
            T = frozenset(rng.sample(pool, rng.randint(0, 2)))
            ok, rep = duality_check(m, T)
            assert ok, rep


@pytest.mark.parametrize("masks, strict, relaxed", [
    ({REAL_PLACE: SIGN}, {REAL_PLACE}, set()),
    ({5: 1}, set(), {5}),
    ({}, {5}, {5}),
], ids=["mask-strict", "mask-relaxed", "strict-relaxed"])
def test_mask_strict_overlap_rejected(m101, masks, strict, relaxed):
    with pytest.raises(ValueError, match="pairwise disjoint"):
        selmer_group(m101, masks, frozenset(strict), frozenset(relaxed))


def test_selmer_group_leaves_masks_unchanged(m101):
    masks = local_twist_classes(m101, -21)
    before = dict(masks)
    selmer_group(m101, masks, verify=True)
    assert masks == before


def test_frobenius_eval_examples():
    # at an odd q outside the support, Frobenius is the unit bit of the class
    def frob(pair, q):
        return tuple(local_class(d, q) >> 1 for d in pair)

    assert frob((1, 1), 7) == (0, 0)
    assert frob((-1, 2), 5) == (0, 1)
    assert frob((-1, 1), 3) == (1, 0)


def test_prop_2n_bound(corpus):
    # single-place masked rank never exceeds 2n
    for m in corpus:
        n = len(sigma_set(m))
        for v in sigma_set(m):
            for bits in range(1, 1 << _width(v)):
                dim = selmer_group(m, {v: bits}).dim
                assert dim <= 2 * n


def test_babo_single_mask_change(corpus):
    from twoselmer.local_descent import kummer_image

    rng = random.Random(13)
    for m in corpus:
        places = list(sigma_set(m)) + [11]
        for _ in range(6):
            v = rng.choice(places)
            c1 = rng.getrandbits(_width(v))
            c2 = rng.getrandbits(_width(v))
            r1 = selmer_group(m, {v: c1}).dim
            r2 = selmer_group(m, {v: c2}).dim
            cap = len(kummer_image(m, 0, v))
            assert abs(r1 - r2) <= cap


def test_mask_parity(corpus):
    from twoselmer.local_descent import h_v

    rng = random.Random(14)
    for m in corpus:
        base = selmer_group(m, {}).dim
        places = list(sigma_set(m)) + [7]
        for _ in range(6):
            masks = {}
            hsum = 0
            for v in rng.sample(places, rng.randint(1, len(places))):
                c = rng.getrandbits(_width(v))
                masks[v] = c
                hsum += h_v(m, c, v)
            dim = selmer_group(m, masks).dim
            assert (dim - base) % 2 == hsum % 2


def test_extra_good_prime_conditions_are_redundant(m101):
    base = selmer_group(m101, {}).dim
    masks = {p: 0 for p in (7, 11, 13)}
    assert selmer_group(m101, masks, verify=True).dim == base


def test_collapse_masks_precondition(m101):
    with pytest.raises(ValueError):
        collapse_masks(m101)  # dim 2 = n, k = 0


def test_collapse_masks_drop(m101):
    tm = FullTwoTorsionModel(tuple(1513 * e for e in m101.roots))
    result = selmer_group(tm, {})
    n_prime = len(result.sigma_prime)
    k = result.dim - n_prime
    assert k == 2
    masks = collapse_masks(tm)
    assert len(masks) == k
    for w, cls in masks:
        assert cls & 1  # ramified
    collapsed = selmer_group(tm, {w: c for w, c in masks}, verify=True)
    assert collapsed.dim == result.dim - 2 * k


def test_collapse_masks_error_paths(monkeypatch, m101):
    tm = FullTwoTorsionModel(tuple(1513 * e for e in m101.roots))  # k = 2, masks at 73, 137
    monkeypatch.setattr(twoselmer.selmer, "DEFAULT_PRIME_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match="^no Frobenius prime found within budget$"):
        collapse_masks(tm)
    monkeypatch.undo()
    # a group of dim n + k whose vectors have no d2 part: no coordinate maps onto F2^2
    result = selmer_group(tm, {})
    n = len(result.sigma_prime)
    flat = SelmerResult(result.dim, [v & (1 << n) - 1 for v in result.basis], result.sigma_prime)
    monkeypatch.setattr(twoselmer.selmer, "selmer_group", lambda model, masks: flat)
    with pytest.raises(SoundnessAlarm, match="^surjection selection failed despite dim = n"):
        collapse_masks(tm)


def test_collapse_masks_verifies_its_drop(monkeypatch, m101):
    # a Frobenius search that answers every target with one prime cannot drop the group by 2k
    tm = FullTwoTorsionModel(tuple(1513 * e for e in m101.roots))  # k = 2, masks at 73, 137
    monkeypatch.setattr(twoselmer.selmer, "_find_frobenius_prime", lambda gens, i: 73)
    with pytest.raises(SoundnessAlarm, match=r"^masks at \[73, 73\] took dim 6 to 4, not 2$"):
        collapse_masks(tm)


def test_result_serialization_round_trip(m101):
    result = selmer_group(m101, {REAL_PLACE: SIGN})
    record = result.to_record(m101, {REAL_PLACE: SIGN})
    blob = json.dumps(record, sort_keys=True)
    back = json.loads(blob)
    assert back["dim"] == result.dim
    assert back["curve"] == "-1,0,1"
    assert back["basis"] == [list(p) for p in result.basis_values()]


@pytest.mark.parametrize("model, d, first", [
    ("m101", 17, "basis element (17,1) violates the condition at 17"),
    ("m015", 1, "basis element (5,1) violates the condition at 5"),
], ids=["m101-17", "m015-1"])
def test_pointwise_check_names_first_violation(request, monkeypatch, model, d, first):
    # a stray bit above the cocycle width leaves the annihilator rows as they
    # were but takes odd combinations of the image out of its span
    image = twoselmer.selmer.kummer_image

    def tampered(curve, d_class, place):
        return tuple(c | 1 << 2 * _width(place) for c in image(curve, d_class, place))

    monkeypatch.setattr(twoselmer.selmer, "kummer_image", tampered)
    curve = request.getfixturevalue(model)
    # element-major: the first basis element that fails anywhere, at its first such place
    with pytest.raises(SoundnessAlarm, match=rf"^{re.escape(first)}$"):
        selmer_group(curve, local_twist_classes(curve, d), verify=True)


def test_pointwise_check_with_warm_caches_sees_a_wrong_image(monkeypatch, m101):
    # every cache warm (image, check rows, verify spans), then a wrong image at 17
    # alone: the stray bit makes a new condition tuple, so its span is built anew
    masks = local_twist_classes(m101, 17)
    want = selmer_group(m101, masks, verify=True).basis_values()
    assert selmer_group(m101, masks, verify=True).basis_values() == want
    image = twoselmer.selmer.kummer_image

    def tampered(curve, d_class, place):
        found = image(curve, d_class, place)
        return tuple(c | 1 << 2 * _width(place) for c in found) if place == 17 else found

    monkeypatch.setattr(twoselmer.selmer, "kummer_image", tampered)
    with pytest.raises(SoundnessAlarm, match=r"^basis element \(17,1\) violates the condition "
                                             r"at 17$"):
        selmer_group(m101, masks, verify=True)
    monkeypatch.undo()
    assert selmer_group(m101, masks, verify=True).basis_values() == want


def test_pointwise_check_is_independent_of_the_check_rows(monkeypatch, m101):
    # the verify span comes from the condition's basis: check rows that drop the
    # condition at 2 give a larger kernel, which the warm spans reject
    masks = local_twist_classes(m101, 17)
    selmer_group(m101, masks, verify=True)
    checks = twoselmer.selmer.image_checks
    monkeypatch.setattr(twoselmer.selmer, "image_checks",
                        lambda condition, width: () if width == 3 else checks(condition, width))
    with pytest.raises(SoundnessAlarm, match=r"violates the condition at 2$"):
        selmer_group(m101, masks, verify=True)


def test_result_decodes_its_basis_once(m101):
    result = selmer_group(m101, local_twist_classes(m101, 17), verify=True)
    values = result.basis_values()
    assert result.basis_values() is values
    assert result.to_record(m101, {})["basis"] == [list(pair) for pair in values]
