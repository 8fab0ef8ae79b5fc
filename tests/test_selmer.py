import json
import random

import pytest

from twoselmer.curve import FullTwoTorsionModel, sigma_set, twist
from twoselmer.padic import Place, REAL_PLACE, local_class
from twoselmer.selmer import (
    SelmerResult,
    SelmerSpec,
    collapse_masks,
    duality_check,
    selmer_group,
)
from twoselmer.zarith import squarefree_value

SIGN = 1  # the nontrivial class at the real place


def test_global_class_basis():
    # an element is a kernel vector over (-1, 2, 5): low 3 bits d1, high 3 bits d2
    sigma_prime = (REAL_PLACE, Place(2), Place(5))
    result = SelmerResult(2, [0b101 | 0b111 << 3, 0], sigma_prime)
    assert result.basis_values() == [(-5, -10), (1, 1)]


def test_base_descent_dim(m101):
    result = selmer_group(SelmerSpec(m101), verify=True)
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
        base = selmer_group(SelmerSpec(m)).dim
        for v in sigma_set(m):
            masked = selmer_group(SelmerSpec(m, {v: 0})).dim
            assert masked == base


def test_sign_mask_drops_by_one(corpus):
    for m in corpus:
        base = selmer_group(SelmerSpec(m)).dim
        masked = selmer_group(SelmerSpec(m, {REAL_PLACE: SIGN}), verify=True).dim
        assert masked == base - 1


def strict_relaxed_dims(spec, T):
    """(dim Sel_{2,T}, dim Sel_2^T) as duality_check reports them."""
    _, rep = duality_check(spec, T)
    return rep["dim_strict"], rep["dim_relaxed"]


def test_strict_relaxed_examples(m101):
    spec = SelmerSpec(m101)
    base = selmer_group(spec).dim
    s0, r0 = strict_relaxed_dims(spec, frozenset())
    assert s0 == r0 == base
    s5, r5 = strict_relaxed_dims(spec, frozenset({Place(5)}))
    assert r5 - s5 == 2
    si, ri = strict_relaxed_dims(spec, frozenset({REAL_PLACE}))
    assert ri - si == 1


def test_duality_examples(m101):
    spec = SelmerSpec(m101)
    ok, rep = duality_check(spec, frozenset())
    assert ok
    ok, rep = duality_check(spec, frozenset({Place(5)}))
    assert ok and rep["expected_gap"] == 2
    ok, rep = duality_check(spec, frozenset({Place(5), Place(13)}))
    assert ok and rep["expected_gap"] == 4 and rep["orthogonal"]


def test_duality_rejects_mask_place_in_T(m101):
    with pytest.raises(ValueError):
        duality_check(SelmerSpec(m101, {Place(5): 1}), frozenset({Place(5)}))


def test_duality_seeded_random(corpus):
    rng = random.Random(12)
    for m in corpus:
        pool = list(sigma_set(m)) + [
            Place(p)
            for p in (3, 5, 7, 11, 13)
            if Place(p) not in sigma_set(m)
        ]
        for _ in range(8):
            T = frozenset(rng.sample(pool, rng.randint(0, 2)))
            ok, rep = duality_check(SelmerSpec(m), T)
            assert ok, rep


def test_mask_strict_overlap_rejected(m101):
    spec = SelmerSpec(m101, {REAL_PLACE: SIGN}, strict=frozenset({REAL_PLACE}))
    with pytest.raises(ValueError):
        selmer_group(spec)


def test_frobenius_eval_examples():
    # at an odd q outside the support, Frobenius is the unit bit of the class
    def frob(pair, q):
        return tuple(local_class(d, Place(q)) >> 1 for d in pair)

    assert frob((1, 1), 7) == (0, 0)
    assert frob((-1, 2), 5) == (0, 1)
    assert frob((-1, 1), 3) == (1, 0)


def test_prop_2n_bound(corpus):
    # single-place masked rank never exceeds 2n
    for m in corpus:
        n = len(sigma_set(m))
        for v in sigma_set(m):
            for bits in range(1, 1 << v.width):
                dim = selmer_group(SelmerSpec(m, {v: bits})).dim
                assert dim <= 2 * n


def test_babo_single_mask_change(corpus):
    from twoselmer.local_descent import kummer_image

    rng = random.Random(13)
    for m in corpus:
        places = list(sigma_set(m)) + [Place(11)]
        for _ in range(6):
            v = rng.choice(places)
            c1 = rng.getrandbits(v.width)
            c2 = rng.getrandbits(v.width)
            r1 = selmer_group(SelmerSpec(m, {v: c1})).dim
            r2 = selmer_group(SelmerSpec(m, {v: c2})).dim
            cap = len(kummer_image(m, 0, v))
            assert abs(r1 - r2) <= cap


def test_mask_parity(corpus):
    from twoselmer.local_descent import h_v

    rng = random.Random(14)
    for m in corpus:
        base = selmer_group(SelmerSpec(m)).dim
        places = list(sigma_set(m)) + [Place(7)]
        for _ in range(6):
            masks = {}
            hsum = 0
            for v in rng.sample(places, rng.randint(1, len(places))):
                c = rng.getrandbits(v.width)
                masks[v] = c
                hsum += h_v(m, c, v)
            dim = selmer_group(SelmerSpec(m, masks)).dim
            assert (dim - base) % 2 == hsum % 2


def test_extra_good_prime_conditions_are_redundant(m101):
    base = selmer_group(SelmerSpec(m101)).dim
    masks = {Place(p): 0 for p in (7, 11, 13)}
    assert selmer_group(SelmerSpec(m101, masks), verify=True).dim == base


def test_collapse_masks_precondition(m101):
    with pytest.raises(ValueError):
        collapse_masks(SelmerSpec(m101))  # dim 2 = n, k = 0


def test_collapse_masks_drop(m101):
    tm = twist(m101, 1513)
    spec = SelmerSpec(tm)
    result = selmer_group(spec)
    n_prime = len(result.sigma_prime)
    k = result.dim - n_prime
    assert k == 2
    masks = collapse_masks(spec)
    assert len(masks) == k
    for w, cls in masks:
        assert cls & 1  # ramified
    collapsed = selmer_group(
        SelmerSpec(tm, {Place(w): c for w, c in masks}), verify=True
    )
    assert collapsed.dim == result.dim - 2 * k


def test_result_serialization_round_trip(m101):
    result = selmer_group(SelmerSpec(m101, {REAL_PLACE: SIGN}))
    record = result.to_record(m101, {REAL_PLACE: SIGN})
    blob = json.dumps(record, sort_keys=True)
    back = json.loads(blob)
    assert back["dim"] == result.dim
    assert back["curve"] == "-1,0,1"
    assert back["basis"] == [list(p) for p in result.basis_values()]
