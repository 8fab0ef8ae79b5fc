import itertools
import math

import pytest

from twoselmer.curve import FullTwoTorsionModel, sigma_set, twist
from twoselmer.local_descent import h_v
from twoselmer.padic import Place, REAL_PLACE, local_class
from twoselmer.selmer import SelmerSpec, selmer_group
import twoselmer.twist_lab
from twoselmer.twist_lab import (
    base_rank,
    character_candidates,
    find_inc2,
    find_plus_one,
    parity_check,
    rank_of_twist,
    scan_records,
    squarefree_twists,
    summarize,
    twist_spec,
)
from twoselmer.zarith import is_squarefree, valuation

SIGN = 1  # the nontrivial class at the real place


def test_rank_examples(m101):
    assert rank_of_twist(m101, 1) == 2
    assert rank_of_twist(m101, -1) == 2
    with pytest.raises(ValueError):
        rank_of_twist(m101, 12)
    with pytest.raises(ValueError):
        rank_of_twist(m101, 0)
    with pytest.raises(ValueError):
        parity_check(m101, 12)


def test_masked_equals_direct_descent(corpus):
    # Sel_2(E^d) through base-model masks == descent on the twisted model
    for m in corpus:
        for d in (5, -5, 17, -21, 34, -31):
            masked = selmer_group(twist_spec(m, d)).dim
            direct = selmer_group(SelmerSpec(twist(m, d))).dim
            assert masked == direct, (m.roots, d)


def test_parity_examples(m101):
    rec = parity_check(m101, 1)
    assert rec.parity_lhs == rec.parity_rhs == 0
    rec = parity_check(m101, -1)
    assert rec.parity_ok and rec.parity_lhs == 0
    assert (rec.d, rec.rank, rec.sigma_prime_size, rec.ms) == (-1, 2, 2, 0)
    # -1 is nontrivial at inf and at 2, and each norm index is 1
    assert h_v(m101, 1, REAL_PLACE) == 1
    assert h_v(m101, local_class(-1, Place(2)), Place(2)) == 1


def test_parity_small_range(corpus):
    for m in corpus:
        for d in squarefree_twists(60):
            assert parity_check(m, d).parity_ok, (m.roots, d)


def test_build_character_examples():
    m33 = FullTwoTorsionModel((-3, 0, 3))  # Sigma = {inf, 2, 3}
    assert [str(v) for v in sigma_set(m33)] == ["inf", "2", "3"]
    d = next(character_candidates(m33, {REAL_PLACE: SIGN}))
    assert d == -23

    m101 = FullTwoTorsionModel((-1, 0, 1))
    # of the d supported on Sigma = {inf, 2}, only 1 is trivial at every place
    units = [-1] + [v.p for v in sigma_set(m101) if v.p is not None]
    supported = [
        math.prod(u for i, u in enumerate(units) if (bits >> i) & 1)
        for bits in range(1 << len(units))
    ]
    trivial = [s for s in supported if all(local_class(s, v) == 0 for v in sigma_set(m101))]
    assert trivial == [1]
    assert next(character_candidates(m101, {})) == 17


def test_build_character_matches_prescription():
    m = FullTwoTorsionModel((0, 1, 5))
    pres = {REAL_PLACE: SIGN, Place(5): 0b10}
    d = next(character_candidates(m, pres))
    for v in sigma_set(m):
        assert local_class(d, v) == pres.get(v, 0)


def test_find_inc2(m101):
    witness = find_inc2(m101)
    assert witness["q"] % 8 == 1
    assert witness["r_before"] == 2 and witness["r_after"] == 4
    assert rank_of_twist(m101, witness["q"]) == 4


def test_find_plus_one(m101):
    witness = find_plus_one(m101)
    assert witness["d"] < 0
    assert witness["r_before"] == 2 and witness["r_after"] == 3
    assert witness["masked_rank"] == 1


def test_squarefree_twists_order():
    assert list(itertools.islice(squarefree_twists(10), 8)) == [1, -1, 2, -2, 3, -3, 5, -5]
    assert 4 not in set(squarefree_twists(10))
    # the sieve against one is_squarefree call per a
    for bound in (0, 1, 2, 3, 4, 9, 10, 1000):
        expected = [s * a for a in range(1, bound + 1) if is_squarefree(a) for s in (1, -1)]
        assert list(squarefree_twists(bound)) == expected


def test_scan_small(m101):
    records = list(scan_records(m101, 100))
    summary = summarize(m101, 100, records)
    assert summary.parity_failures == 0
    assert {2, 3} <= set(summary.rank_histogram)
    assert summary.t_hat == 2
    assert summary.bound_checks["t_hat_ge_2"]
    assert summary.bound_checks["t_hat_le_n"]
    # both parities occur
    assert {r % 2 for r in summary.rank_histogram} == {0, 1}
    assert summary.records_count == len(records)


def test_scan_records_builds_base_group_once(monkeypatch):
    m = FullTwoTorsionModel((0, 1, 5))
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return selmer_group(spec, *args, **kwargs)

    monkeypatch.setattr(twoselmer.twist_lab, "selmer_group", counting)
    records = list(scan_records(m, 20))
    assert len(calls) <= len(records) + 1


def test_scan_rank_flip_babo(m101):
    # records differing by one ramified prime change rank by at most dim alpha_q(1)
    for d, q in ((1, 3), (5, 7), (-1, 11)):
        r1 = rank_of_twist(m101, d)
        r2 = rank_of_twist(m101, d * q)
        assert abs(r1 - r2) <= 2


def test_multiplicative_h_check():
    # 5 is multiplicative for (0,1,5): v(Delta) is even (Delta is 16 times a
    # square) and the unramified nontrivial class has norm index 1
    m = FullTwoTorsionModel((0, 1, 5))
    assert len({e % 5 for e in m.roots}) == 2
    assert valuation(m.discriminant, 5) % 2 == 0
    assert h_v(m, 0b10, Place(5)) == 1
    assert h_v(m, 0, Place(5)) == 0


def test_base_rank(corpus):
    for m in corpus:
        assert base_rank(m) >= 2  # full 2-torsion trivial lower bound
