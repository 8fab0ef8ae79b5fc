"""Constructive twist searches, the parity formula and the rank scan.

Each search takes the one witness a theorem predicts and re-verifies it by a
full descent before returning; a witness that fails raises SoundnessAlarm.
"""

from __future__ import annotations

from functools import cache
from itertools import count, islice
from math import isqrt, prod
from typing import Iterable, Iterator, NamedTuple

from .curve import FullTwoTorsionModel, local_twist_classes, sigma_set
from .errors import BudgetExceeded, SoundnessAlarm
from .local_descent import h_v
from .padic import REAL_PLACE, local_class
from .selmer import DEFAULT_PRIME_BUDGET, selmer_group
from .zarith import is_prime, odd_primes


class TwistRecord(NamedTuple):
    d: int
    rank: int
    parity_lhs: int
    parity_rhs: int
    sigma_prime_size: int
    ms: int  # 0 in every schema-1 record

    @property
    def parity_ok(self) -> bool:
        return self.parity_lhs == self.parity_rhs


def rank_of_twist(model: FullTwoTorsionModel, d: int) -> int:
    """r2(E^d), the Selmer group masked by d's classes on the base model."""
    return selmer_group(model, local_twist_classes(model, d)).dim


@cache
def base_rank(model: FullTwoTorsionModel) -> int:
    """r2(E), computed once per model."""
    return selmer_group(model, {}).dim


def parity_check(model: FullTwoTorsionModel, d: int) -> TwistRecord:
    """Kramer parity: (r2(E) - r2(E^d)) mod 2 vs sum of local norm indices.

    h_q = 2 at every ramified q outside Sigma, so only Sigma's places count.
    """
    r0 = base_rank(model)
    sigma = sigma_set(model)
    masks = local_twist_classes(model, d)
    result = selmer_group(model, masks)
    rhs = sum(h_v(model, cls, v) for v, cls in masks.items() if v in sigma) % 2
    return TwistRecord(d, result.dim, (r0 - result.dim) % 2, rhs, len(result.sigma_prime), 0)


def find_inc2(model: FullTwoTorsionModel) -> dict:
    """A prime twist raising the Selmer rank by exactly 2.

    The witness is the first prime q = 1 mod 8 and mod every odd Sigma
    prime (a prime splitting in the ray-class 2-extension).  By reciprocity
    every Sigma-supported integer is a square mod q, so the current Selmer
    basis restricts trivially at q and E[4] is rational at q (the root
    differences are supported on Sigma).  It is checked by a full descent,
    and a failure raises SoundnessAlarm, so no other prime is ever tried.
    """
    r_before = base_rank(model)
    modulus = 8 * prod(sigma_set(model)[2:])  # the odd primes of Sigma
    q = next(q for q in count(1 + modulus, modulus) if is_prime(q))
    r_after = rank_of_twist(model, q)
    if r_after != r_before + 2:
        raise SoundnessAlarm(f"q={q} met all conditions but r went {r_before} -> {r_after}")
    return {"q": q, "r_before": r_before, "r_after": r_after}


def find_plus_one(model: FullTwoTorsionModel) -> dict:
    """A negative twist raising the Selmer rank by exactly 1 (real-place route).

    The witness is d = -q, q the first prime outside Sigma with -q a square at
    every finite place of Sigma: d has the sign mask's class at every place of
    Sigma, so Sel2(E^d) and the sign-masked group differ only at q.  Relaxed at
    q, that group localizes onto a maximal isotropic plane (Poitou-Tate; the
    duality suite checks this gap of 2), and E^d's rational 2-torsion fills it
    with the ramified image, which meets the unramified one trivially (h_q = 2;
    Mazur-Rubin, Invent. Math. 181 (2010)).  So r(E^d) = r(sign-masked) + 2 =
    r + 1; a full descent checks it, and a failure raises SoundnessAlarm.
    """
    r_before = base_rank(model)
    masked = selmer_group(model, {REAL_PLACE: 1}).dim
    if masked != r_before - 1:
        raise SoundnessAlarm(f"sign-masked rank {masked} != r - 1 = {r_before - 1}")
    sigma = sigma_set(model)
    outside = islice((q for q in odd_primes() if q not in sigma), DEFAULT_PRIME_BUDGET)
    q = next((q for q in outside if all(local_class(-q, v) == 0 for v in sigma[1:])), None)
    if q is None:
        raise BudgetExceeded("character prime search budget exceeded")
    r_after = rank_of_twist(model, -q)
    if r_after != r_before + 1:
        raise SoundnessAlarm(f"d={-q} met all conditions but r went {r_before} -> {r_after}")
    return {"d": -q, "r_before": r_before, "r_after": r_after, "masked_rank": masked}


def squarefree_twists(bound: int) -> Iterator[int]:
    """The scan order: squarefree d, 0 < |d| <= bound, by increasing |d| and d before -d."""
    # a sieve of square divisors: clear every multiple of k^2, 2 <= k <= sqrt(bound)
    squarefree = bytearray([1]) * (bound + 1)
    for k in range(2, isqrt(max(bound, 0)) + 1):
        for a in range(k * k, bound + 1, k * k):
            squarefree[a] = 0
    for a in range(1, bound + 1):
        if squarefree[a]:
            yield a
            yield -a


def scan_records(model: FullTwoTorsionModel, bound: int, skip: int = 0) -> Iterator[TwistRecord]:
    """One record per twist of squarefree_twists(bound) past its first skip; a resumed
    scan passes the count of twists it has finished."""
    for d in islice(squarefree_twists(bound), skip, None):
        yield parity_check(model, d)


def summarize(model: FullTwoTorsionModel, bound: int, records: Iterable[TwistRecord]) -> dict:
    """The scan summary document, read in one pass over the records.  A rank below 2
    raises SoundnessAlarm: Sel2(E^d) contains delta(E^d(Q)[2]), of dimension 2."""
    hist: dict[int, int] = {}
    failures = 0
    for rec in records:
        if rec.rank < 2:
            raise SoundnessAlarm(f"d={rec.d} has 2-Selmer rank {rec.rank} < 2")
        hist[rec.rank] = hist.get(rec.rank, 0) + 1
        if not rec.parity_ok:
            failures += 1
    n = len(sigma_set(model))
    t_hat, r_max = min(hist), max(hist)
    return {
        "bound": bound,
        "curve": str(model),
        "n": n,
        "records_count": sum(hist.values()),
        "rank_histogram": {str(r): hist[r] for r in sorted(hist)},
        "t_hat": t_hat,
        "r_max": r_max,
        "gaps": [r for r in range(t_hat, r_max + 1) if r not in hist],
        "parity_failures": failures,
        "bound_checks": {
            "t_hat_ge_2": t_hat >= 2,
            "t_hat_le_n_plus_1": t_hat <= n + 1,
            "t_hat_le_n": t_hat <= n,
        },
    }
