"""Constructive twist searches, the parity formula and the rank scan.

Every search re-verifies its witness by a full descent before returning;
a theorem-predicted outcome that fails verification raises SoundnessAlarm
(find_inc2 logs it and keeps searching, since that must never happen on
valid inputs).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from functools import cache
from math import isqrt
from typing import Iterator

from .curve import (
    FullTwoTorsionModel,
    four_torsion_rational_at,
    local_twist_classes,
    sigma_set,
)
from .errors import SearchBudgetExceeded, SoundnessAlarm
from .local_descent import h_v
from .padic import Place, REAL_PLACE, local_class
from .selmer import DEFAULT_PRIME_BUDGET, SelmerSpec, selmer_group
from .zarith import is_prime, legendre

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TwistRecord:
    d: int
    rank: int
    parity_lhs: int
    parity_rhs: int
    sigma_prime_size: int
    ms: int

    @property
    def parity_ok(self) -> bool:
        return self.parity_lhs == self.parity_rhs


@dataclass
class ScanSummary:
    bound: int
    n: int
    records_count: int
    rank_histogram: dict[int, int]
    t_hat: int
    r_max: int
    gaps: list[int]
    parity_failures: int
    bound_checks: dict[str, bool] = field(init=False)

    def __post_init__(self) -> None:
        self.bound_checks = {
            "t_hat_ge_2": self.t_hat >= 2,
            "t_hat_le_n_plus_1": self.t_hat <= self.n + 1,
            "t_hat_le_n": self.t_hat <= self.n,
        }


def twist_spec(model: FullTwoTorsionModel, d: int) -> SelmerSpec:
    """Masked spec computing Sel_2(E^d) through the base model's coordinates."""
    return SelmerSpec(model, local_twist_classes(model, d))


def rank_of_twist(model: FullTwoTorsionModel, d: int) -> int:
    return selmer_group(twist_spec(model, d)).dim


@cache
def base_rank(model: FullTwoTorsionModel) -> int:
    """r2(E), computed once per model."""
    return selmer_group(SelmerSpec(model)).dim


def parity_check(model: FullTwoTorsionModel, d: int) -> TwistRecord:
    """Kramer parity: (r2(E) - r2(E^d)) mod 2 vs sum of local norm indices."""
    r0 = base_rank(model)
    spec = twist_spec(model, d)
    result = selmer_group(spec)
    rhs = sum(h_v(model, cls, v) for v, cls in spec.masks.items()) % 2
    return TwistRecord(d, result.dim, (r0 - result.dim) % 2, rhs, len(result.sigma_prime), 0)


def _primes(start: int = 2) -> Iterator[int]:
    n = start
    while True:
        if is_prime(n):
            yield n
        n += 1 if n == 2 else 2


def _matches_prescription(
    model: FullTwoTorsionModel, d: int, at_sigma: dict[Place, int]
) -> bool:
    for v in sigma_set(model):
        if local_class(d, v) != at_sigma.get(v, 0):
            return False
    return True


def character_candidates(
    model: FullTwoTorsionModel,
    at_sigma: dict[Place, int],
    budget: int = DEFAULT_PRIME_BUDGET,
) -> Iterator[int]:
    """Squarefree d matching local classes at Sigma and ramified outside Sigma
    at one extra prime q, by ascending q."""
    sigma_primes = [v.p for v in sigma_set(model) if v.p is not None]
    units = [-1] + sigma_primes
    subsets = []
    for bits in range(1 << len(units)):
        s = 1
        for i, u in enumerate(units):
            if (bits >> i) & 1:
                s *= u
        subsets.append(s)

    count = 0
    for q in _primes(3):
        if q in sigma_primes:
            continue
        count += 1
        if count > budget:
            raise SearchBudgetExceeded("character prime search budget exceeded")
        for s in subsets:
            d = s * q
            if _matches_prescription(model, d, at_sigma):
                yield d


def find_inc2(model: FullTwoTorsionModel, budget: int = DEFAULT_PRIME_BUDGET) -> dict:
    """A prime twist raising the Selmer rank by exactly 2.

    Search conditions: q = 1 mod 8 and mod every odd Sigma prime (splitting
    in the ray-class 2-extension), trivial restriction of the current Selmer
    basis at q, and E[4] rational at q.  Each candidate is re-verified by a
    full descent; a verification failure is a soundness alarm but the search
    continues.
    """
    base = selmer_group(SelmerSpec(model))
    r_before = base.dim
    modulus = 8
    for v in sigma_set(model)[2:]:  # the odd primes of Sigma
        modulus *= v.p
    support_values = set()
    for a, b in base.basis_values():
        support_values.update((a, b))
    support_values.discard(1)

    checked = 0
    q = 1
    while checked < budget:
        q += modulus
        if not is_prime(q):
            continue
        checked += 1
        if any(legendre(v, q) != 1 for v in support_values):
            continue
        if not four_torsion_rational_at(model, q):
            continue
        r_after = rank_of_twist(model, q)
        if r_after == r_before + 2:
            return {"q": q, "r_before": r_before, "r_after": r_after}
        log.error(
            "soundness alarm: q=%d met all conditions but r went %d -> %d",
            q, r_before, r_after,
        )
    raise SearchBudgetExceeded("find_inc2 prime budget exhausted")


def find_plus_one(model: FullTwoTorsionModel, budget: int = DEFAULT_PRIME_BUDGET) -> dict:
    """A negative twist raising the Selmer rank by exactly 1 (real-place route)."""
    r_before = base_rank(model)
    sign_mask = {REAL_PLACE: 1}
    masked = selmer_group(SelmerSpec(model, dict(sign_mask))).dim
    if masked != r_before - 1:
        raise SoundnessAlarm(
            f"sign-masked rank {masked} != r - 1 = {r_before - 1}"
        )
    for d in character_candidates(model, sign_mask, budget):
        r_after = rank_of_twist(model, d)
        if r_after == r_before + 1:
            return {
                "d": d,
                "r_before": r_before,
                "r_after": r_after,
                "masked_rank": masked,
            }
    raise SearchBudgetExceeded("find_plus_one budget exhausted")


def squarefree_twists(bound: int) -> Iterator[int]:
    """d by increasing |d|, positive before negative."""
    # a sieve of square divisors: clear every multiple of k^2, 2 <= k <= sqrt(bound)
    squarefree = bytearray([1]) * (bound + 1)
    for k in range(2, isqrt(max(bound, 0)) + 1):
        for a in range(k * k, bound + 1, k * k):
            squarefree[a] = 0
    for a in range(1, bound + 1):
        if squarefree[a]:
            yield a
            yield -a


def scan_records(
    model: FullTwoTorsionModel, bound: int, timing: bool = False
) -> Iterator[TwistRecord]:
    for d in squarefree_twists(bound):
        t0 = time.monotonic()
        rec = parity_check(model, d)
        yield replace(rec, ms=int((time.monotonic() - t0) * 1000)) if timing else rec


def summarize(model: FullTwoTorsionModel, bound: int, records: list[TwistRecord]) -> ScanSummary:
    hist: dict[int, int] = {}
    failures = 0
    for rec in records:
        hist[rec.rank] = hist.get(rec.rank, 0) + 1
        if not rec.parity_ok:
            failures += 1
    t_hat = min(hist)
    r_max = max(hist)
    gaps = [r for r in range(t_hat, r_max + 1) if r not in hist]
    return ScanSummary(
        bound=bound,
        n=len(sigma_set(model)),
        records_count=len(records),
        rank_histogram=dict(sorted(hist.items())),
        t_hat=t_hat,
        r_max=r_max,
        gaps=gaps,
        parity_failures=failures,
    )
