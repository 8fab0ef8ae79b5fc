import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_padic import derandomized

import twoselmer.gf2
from twoselmer.curve import FullTwoTorsionModel, local_twist_classes, sigma_set
from twoselmer.gf2 import kernel_basis
from twoselmer.local_descent import h_v
from twoselmer.padic import REAL_PLACE, _width, local_class
from twoselmer.selmer import selmer_group
import twoselmer.twist_lab
from twoselmer.errors import BudgetExceeded, SoundnessAlarm
from twoselmer.twist_lab import (
    base_rank,
    find_inc2,
    find_plus_one,
    parity_check,
    rank_of_twist,
    scan_records,
    squarefree_twists,
    summarize,
)
from twoselmer.zarith import is_prime, is_squarefree, squarefree_value, valuation

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
            masked = selmer_group(m, local_twist_classes(m, d)).dim
            twisted = FullTwoTorsionModel(tuple(d * e for e in m.roots))
            direct = selmer_group(twisted, {}).dim
            assert masked == direct, (m.roots, d)


def test_parity_examples(m101):
    rec = parity_check(m101, 1)
    assert rec.parity_lhs == rec.parity_rhs == 0
    rec = parity_check(m101, -1)
    assert rec.parity_ok and rec.parity_lhs == 0
    assert (rec.d, rec.rank, rec.sigma_prime_size, rec.ms) == (-1, 2, 2, 0)
    # -1 is nontrivial at inf and at 2, and each norm index is 1
    assert h_v(m101, 1, REAL_PLACE) == 1
    assert h_v(m101, local_class(-1, 2), 2) == 1


def test_parity_small_range(corpus):
    for m in corpus:
        for d in squarefree_twists(60):
            assert parity_check(m, d).parity_ok, (m.roots, d)


def _subset_candidates(model, at_sigma):
    """The exhaustive search: every Sigma-supported s against each prime q outside Sigma."""
    sigma = sigma_set(model)
    units = sigma  # each place is its generator: -1 for inf
    subsets = [
        math.prod(u for i, u in enumerate(units) if (bits >> i) & 1)
        for bits in range(1 << len(units))
    ]
    for q in itertools.count(3):
        if not is_prime(q) or q in sigma:
            continue
        for s in subsets:
            if all(local_class(s * q, v) == at_sigma.get(v, 0) for v in sigma):
                yield s * q


def test_plus_one_witness_is_the_first_reference_candidate(search_curves, m101):
    # -23 on (-3,0,3) and -47 on the 17-twist of (-1,0,1) among them
    e17 = FullTwoTorsionModel(tuple(17 * e for e in m101.roots))
    for m in [*search_curves, e17]:
        expected = next(_subset_candidates(m, {REAL_PLACE: SIGN}))
        assert find_plus_one(m)["d"] == expected, m.roots


def test_prescribed_candidates_gain_two_over_the_masked_group(search_curves):
    # the identity behind the one-shot search: a twist matching a prescription P
    # at every place of Sigma differs from the P-masked group only at its new prime
    rng = random.Random(8)
    odd_valuation_at = set()
    for m in search_curves:
        sigma = sigma_set(m)
        for _ in range(8):
            pres = {v: rng.randrange(1 << _width(v)) for v in sigma}
            odd_valuation_at.update(v == 2 for v in sigma if v != REAL_PLACE and pres[v] & 1)
            masked = selmer_group(m, pres).dim
            for d in itertools.islice(_subset_candidates(m, pres), 4):
                assert rank_of_twist(m, d) == masked + 2, (m.roots, pres, d)
    assert odd_valuation_at == {True, False}


def test_find_plus_one_budget(monkeypatch, m101):
    # the budget counts primes outside Sigma: 3, 5, 7, ...; (-1,0,1) takes the third
    monkeypatch.setattr(twoselmer.twist_lab, "DEFAULT_PRIME_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="^character prime search budget exceeded$"):
        find_plus_one(m101)
    monkeypatch.setattr(twoselmer.twist_lab, "DEFAULT_PRIME_BUDGET", 3)
    assert find_plus_one(m101)["d"] == -7


def test_find_plus_one_descent_alarm(monkeypatch, m101):
    # a witness the descent does not confirm stops the search: no other q is tried
    monkeypatch.setattr(twoselmer.twist_lab, "rank_of_twist", lambda model, d: 4)
    with pytest.raises(SoundnessAlarm, match=r"^d=-7 met all conditions but r went 2 -> 4$"):
        find_plus_one(m101)


INC2_WITNESSES = {
    (-1, 0, 1): 17, (0, 1, 2): 17, (0, 1, 5): 41, (-3, 0, 3): 73, (0, 4, 9): 241, (-7, 1, 20): 457,
}
PLUS_ONE_WITNESSES = {
    (-1, 0, 1): -7, (0, 1, 2): -7, (0, 1, 5): -31, (-3, 0, 3): -23, (0, 4, 9): -71, (-7, 1, 20): -71,
}


def test_search_witnesses(search_curves, m101):
    for m in search_curves:
        assert find_inc2(m) == {"q": INC2_WITNESSES[m.roots], "r_before": 2, "r_after": 4}
        assert find_plus_one(m)["d"] == PLUS_ONE_WITNESSES[m.roots]
    # two rungs up the rank ladder of (-1,0,1): 17 * 137 = 2329
    e17, e2329 = (FullTwoTorsionModel(tuple(d * e for e in m101.roots)) for d in (17, 2329))
    assert find_inc2(e17) == {"q": 137, "r_before": 4, "r_after": 6}
    assert find_inc2(e2329) == {"q": 55897, "r_before": 6, "r_after": 8}
    assert find_plus_one(e17) == {"d": -47, "r_before": 4, "r_after": 5, "masked_rank": 3}


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


def test_find_plus_one_sign_mask_alarm(monkeypatch, m101):
    # a sign-masked group that does not lose exactly one dimension stops the search
    real = selmer_group

    def unmasked_at_inf(model, masks):
        result = real(model, masks)
        if masks == {REAL_PLACE: SIGN}:
            result.dim += 1
        return result

    monkeypatch.setattr(twoselmer.twist_lab, "selmer_group", unmasked_at_inf)
    with pytest.raises(SoundnessAlarm, match=r"^sign-masked rank 2 != r - 1 = 1$"):
        find_plus_one(m101)


def test_squarefree_twists_order(m101):
    assert list(itertools.islice(squarefree_twists(10), 8)) == [1, -1, 2, -2, 3, -3, 5, -5]
    assert 4 not in set(squarefree_twists(10))
    # the sieve against one is_squarefree call per a
    for bound in (0, 1, 2, 3, 4, 9, 10, 1000):
        expected = [s * a for a in range(1, bound + 1) if is_squarefree(a) for s in (1, -1)]
        assert list(squarefree_twists(bound)) == expected
    # skip is the count of twists done: the rest of the order follows them
    for bound in (1, 2, 10, 100):
        seq = list(squarefree_twists(bound))
        for n in range(len(seq) + 1):
            assert [r.d for r in scan_records(m101, bound, skip=n)] == seq[n:], (bound, n)


def test_scan_small(m101):
    records = list(scan_records(m101, 100))
    summary = summarize(m101, 100, records)
    assert summary["parity_failures"] == 0
    ranks = {int(r) for r in summary["rank_histogram"]}
    assert {2, 3} <= ranks
    assert summary["t_hat"] == 2
    assert summary["bound_checks"]["t_hat_ge_2"]
    assert summary["bound_checks"]["t_hat_le_n"]
    # both parities occur
    assert {r % 2 for r in ranks} == {0, 1}
    assert summary["records_count"] == len(records)


def test_summarize_reads_its_records_once(m101):
    records = list(scan_records(m101, 100))
    assert summarize(m101, 100, iter(records)) == summarize(m101, 100, records)


def test_scan_records_builds_base_group_once(monkeypatch):
    m = FullTwoTorsionModel((0, 1, 5))
    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model)
        return selmer_group(model, *args, **kwargs)

    monkeypatch.setattr(twoselmer.twist_lab, "selmer_group", counting)
    records = list(scan_records(m, 20))
    assert len(calls) <= len(records) + 1


def test_warm_scan_runs_one_kernel_per_twist(m015, monkeypatch):
    # warm, each condition's check rows come from the cache: only the
    # Selmer kernel itself is computed
    list(scan_records(m015, 50))
    calls = []

    def counting(rows, width):
        calls.append(width)
        return kernel_basis(rows, width)

    monkeypatch.setattr(twoselmer.gf2, "kernel_basis", counting)
    records = list(scan_records(m015, 50))
    assert len(calls) == len(records) > 0


def test_scan_rank_flip_babo(m101):
    # records differing by one ramified prime change rank by at most dim alpha_q(1)
    for d, q in ((1, 3), (5, 7), (-1, 11)):
        r1 = rank_of_twist(m101, d)
        r2 = rank_of_twist(m101, d * q)
        assert abs(r1 - r2) <= 2


def test_multiplicative_h_check():
    # 5 is multiplicative for (0,1,5): exactly one root difference is
    # divisible by 5 (none at good reduction, all three at additive), and the
    # unramified nontrivial class has norm index 1
    m = FullTwoTorsionModel((0, 1, 5))
    assert len({e % 5 for e in m.roots}) == 2
    e1, e2, e3 = m.roots
    assert sum(valuation(n, 5) > 0 for n in (e2 - e1, e3 - e1, e3 - e2)) == 1
    assert h_v(m, 0b10, 5) == 1
    assert h_v(m, 0, 5) == 0


@settings(derandomized, max_examples=100, deadline=None)
@given(
    roots=st.lists(st.integers(-30, 30), min_size=3, max_size=3, unique=True),
    u=st.sampled_from((2, 3, 5, 6, 7, 27, 729, 625, 32, 2401)),
    t=st.integers(-10**6, 10**6),
    d=st.integers(-200, 200).filter(is_squarefree),
)
def test_ranks_invariant_under_isomorphism(roots, u, t, d):
    # e_i -> u^2 e_i + t is the same curve; Sigma may gain the primes of u,
    # so only the ranks are compared
    m = FullTwoTorsionModel(tuple(roots))
    moved = FullTwoTorsionModel(tuple(u * u * e + t for e in roots))
    assert base_rank(moved) == base_rank(m)
    assert rank_of_twist(moved, d) == rank_of_twist(m, d)


def test_base_rank(corpus):
    for m in corpus:
        assert base_rank(m) >= 2  # full 2-torsion trivial lower bound


@settings(derandomized, max_examples=100, deadline=None)
@given(
    roots=st.lists(st.integers(-30, 30), min_size=3, max_size=3, unique=True),
    d=st.integers(-200, 200).filter(is_squarefree),
    d2=st.integers(-200, 200).filter(is_squarefree),
)
def test_twist_of_a_twist(roots, d, d2):
    # (E^d)^d' is E^(dd'), and dd' is in the square class of its squarefree part
    m = FullTwoTorsionModel(tuple(roots))
    twisted = FullTwoTorsionModel(tuple(d * e for e in m.roots))
    assert rank_of_twist(twisted, d2) == rank_of_twist(m, squarefree_value(d * d2))
