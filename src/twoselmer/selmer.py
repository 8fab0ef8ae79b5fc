"""Global 2-Selmer groups as F2 kernels, Poitou-Tate checks and mask collapsing.

A Selmer element is a pair (d1, d2) of square classes supported on Sigma'.
It is one int of 2m bits, the kernel vector itself: over the m places of
Sigma' ascending, each its own generator (-1 for inf, p for p), bit i says
whether generator i divides d1 and bit m + i whether it divides d2.
``SelmerResult.basis_values`` decodes the vectors into signed squarefree
pairs, the only other form.  The group is the kernel of one F2 matrix whose
rows are the local conditions at the places of Sigma'; nothing is
enumerated.  Every local condition is a basis tuple: the Kummer image, the
empty tuple at a strict place and all 2k unit cocycles at a relaxed one, so
one loop builds every row.
"""

from __future__ import annotations

from itertools import islice

from . import gf2
from .curve import FullTwoTorsionModel, sigma_set
from .errors import BudgetExceeded, SoundnessAlarm
from .local_descent import _condition_span, image_checks, kummer_image
from .padic import _cocycle, _name, _width, local_class, local_pairing
from .zarith import legendre, odd_primes

DEFAULT_PRIME_BUDGET = 10**6


def _value(generators: tuple[int, ...], bits: int) -> int:
    n = 1
    for i, g in enumerate(generators):
        if (bits >> i) & 1:
            n *= g
    return n


class SelmerResult:
    """The kernel vectors of a Selmer computation over Sigma' (mutable)."""

    __slots__ = ("dim", "basis", "sigma_prime", "_values")

    def __init__(self, dim: int, basis: list[int], sigma_prime: tuple[int, ...]) -> None:
        self.dim, self.basis, self.sigma_prime = dim, basis, sigma_prime
        self._values: list[tuple[int, int]] | None = None

    def basis_values(self) -> list[tuple[int, int]]:
        """The basis as (d1, d2) pairs, decoded at the first call; later calls share the list."""
        if self._values is None:
            gens = self.sigma_prime
            self._values = [(_value(gens, v), _value(gens, v >> len(gens))) for v in self.basis]
        return self._values

    def to_record(self, model: FullTwoTorsionModel, masks: dict[int, int]) -> dict:
        return {
            "curve": str(model),
            "sigma_prime": [_name(v) for v in self.sigma_prime],
            "masks": {
                _name(v): [(c >> i) & 1 for i in range(_width(v))] for v, c in masks.items()
            },
            "dim": self.dim,
            "basis": [[a, b] for a, b in self.basis_values()],
        }


def selmer_group(
    model: FullTwoTorsionModel,
    masks: dict[int, int],
    strict: frozenset[int] = frozenset(),
    relaxed: frozenset[int] = frozenset(),
    verify: bool = False,
) -> SelmerResult:
    """Kernel computation of the (masked / strict / relaxed) 2-Selmer group."""
    if masks.keys() & strict or masks.keys() & relaxed or strict & relaxed:
        raise ValueError("mask, strict and relaxed places must be pairwise disjoint")
    # Sigma' ascending: the places and, in this order, the generators of Q(Sigma', 2)
    places = tuple(sorted({*sigma_set(model), *masks, *strict, *relaxed}))
    m = len(places)

    rows: list[int] = []
    conditions: list[tuple[int, tuple[int, ...]]] = []
    for v in places:
        k = _width(v)
        if v in strict:
            condition: tuple[int, ...] = ()
        elif v in relaxed:
            condition = tuple(1 << j for j in range(2 * k))
        else:
            condition = kummer_image(model, masks.get(v, 0), v)
        # restriction at v, one row per cocycle bit over the 2m generator coordinates
        res = [0] * k
        for j, g in enumerate(places):
            c = local_class(g, v)
            for i in range(k):
                if (c >> i) & 1:
                    res[i] |= 1 << j
        res += [r << m for r in res]
        # each check annihilates the condition under the bit-dot pairing
        for h in image_checks(condition, v):
            row = 0
            for i in range(2 * k):
                if (h >> i) & 1:
                    row ^= res[i]
            rows.append(row)
        conditions.append((v, condition))

    kernel = gf2.kernel_basis(rows, 2 * m)
    result = SelmerResult(len(kernel), kernel, places)

    if verify:
        _verify_pointwise(result, conditions)
    return result


def _verify_pointwise(result: SelmerResult, conditions) -> None:
    spans = [(v, _condition_span(condition)) for v, condition in conditions]
    for a, b in result.basis_values():
        for v, span in spans:
            if not span.contains(_cocycle(a, b, v)):
                raise SoundnessAlarm(
                    f"basis element ({a},{b}) violates the condition at {_name(v)}"
                )


def duality_check(model: FullTwoTorsionModel, T: frozenset[int]) -> tuple[bool, dict]:
    """Poitou-Tate: dimension identity over T plus direct cross-orthogonality."""
    dim_strict = selmer_group(model, {}, strict=T).dim
    relaxed = selmer_group(model, {}, relaxed=T)
    dim_relaxed = relaxed.dim
    expected = sum(len(kummer_image(model, 0, v)) for v in T)
    report = {
        "T": [_name(v) for v in sorted(T)],
        "dim_strict": dim_strict,
        "dim_relaxed": dim_relaxed,
        "expected_gap": expected,
        "gap_ok": dim_relaxed - dim_strict == expected,
        "orthogonal": True,
        "counterexample": None,
    }
    plain = selmer_group(model, {}).basis_values()
    for x in relaxed.basis_values():
        for y in plain:
            s = 0
            for v in T:
                s ^= local_pairing(v, _cocycle(*x, v), _cocycle(*y, v))
            if s:
                report["orthogonal"] = False
                report["counterexample"] = {"x": list(x), "y": list(y)}
                break
        if not report["orthogonal"]:
            break
    return report["gap_ok"] and report["orthogonal"], report


def _find_frobenius_prime(generators: tuple[int, ...], target_index: int) -> int:
    """Smallest odd prime w with legendre(g_i, w) = -1 exactly for i = target_index.

    Such a w is no generator (legendre(g, g) = 0) and differs for each target.
    """
    for w in islice(odd_primes(), DEFAULT_PRIME_BUDGET):
        if all(
            legendre(g, w) == (-1 if i == target_index else 1)
            for i, g in enumerate(generators)
        ):
            return w
    raise BudgetExceeded("no Frobenius prime found within budget")


def collapse_masks(model: FullTwoTorsionModel) -> list[tuple[int, int]]:
    """Ramified masks at k new primes that drop the Selmer dimension by 2k.

    Requires dim = n + k with 2 <= k <= n, n = |Sigma'|.  Directions are
    selected where reading a single generator coordinate of both components
    is jointly surjective onto (F2^2)^k, then primes realizing those
    Frobenius conditions are found by Legendre-symbol search.
    """
    result = selmer_group(model, {})
    places = result.sigma_prime
    n = len(places)
    k = result.dim - n
    if not 2 <= k <= n:
        raise ValueError(f"needs dim = n + k with 2 <= k <= n; got dim {result.dim}, n {n}")

    # t_i(s) = (bit i of d1, bit i of d2); greedy selection of 2-jumps
    maps = []
    for i in range(n):
        rows = [((vec >> i) & 1) | (((vec >> (n + i)) & 1) << 1) for vec in result.basis]
        maps.append(rows)
    selected: list[int] = []
    acc = [0] * result.dim
    prev_rank = 0
    for i in range(n):
        acc = [acc[j] | (maps[i][j] << (2 * i)) for j in range(result.dim)]
        r = gf2.rank(acc)
        if r == prev_rank + 2:
            selected.append(i)
        prev_rank = r
    if len(selected) < k:
        raise SoundnessAlarm("surjection selection failed despite dim = n + k")
    selected = selected[:k]
    joint = [
        sum(maps[i][j] << (2 * pos) for pos, i in enumerate(selected))
        for j in range(result.dim)
    ]
    if gf2.rank(joint) != 2 * k:
        raise SoundnessAlarm("selected coordinate maps are not jointly surjective")

    out: list[tuple[int, int]] = []
    for i in selected:
        w = _find_frobenius_prime(places, i)
        out.append((w, local_class(w, w)))
    return out
