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

from itertools import islice, product

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
        # each check h annihilates the condition under the bit-dot pairing: its row
        # pairs h with generator j's class at v in d1 (bit j) and in d2 (bit m + j)
        classes = [local_class(g, v) for g in places]
        for h in image_checks(condition, k):
            row = 0
            for j, c in enumerate(classes):
                row |= ((h & c).bit_count() & 1) << j
                row |= (((h >> k) & c).bit_count() & 1) << (m + j)
            rows.append(row)
        conditions.append((v, condition))

    kernel = gf2.kernel_basis(rows, 2 * m)
    result = SelmerResult(len(kernel), kernel, places)

    if verify:
        _verify_pointwise(result, conditions)
    return result


def _verify_pointwise(result: SelmerResult, conditions) -> None:
    """Each basis pair's cocycle at each place lies in that place's condition span.

    It checks the matrix against the conditions it was built from, so it catches
    assembly faults (check rows, pairing rows), not a wrong Kummer image."""
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
    for x, y in product(relaxed.basis_values(), plain):
        if sum(local_pairing(v, _cocycle(*x, v), _cocycle(*y, v)) for v in T) % 2:
            report["orthogonal"] = False
            report["counterexample"] = {"x": list(x), "y": list(y)}
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
    Frobenius conditions are found by Legendre-symbol search.  The drop is
    re-verified by a descent; a miss raises SoundnessAlarm.
    """
    result = selmer_group(model, {})
    places = result.sigma_prime
    n = len(places)
    k = result.dim - n
    if not 2 <= k <= n:
        raise ValueError(f"needs dim = n + k with 2 <= k <= n; got dim {result.dim}, n {n}")

    # coordinate i reads (bit i of d1, bit i of d2); keep the i whose two columns,
    # read across the basis, both raise the rank of the columns so far
    columns = gf2.Span()
    selected: list[int] = []
    for i in range(n):
        grew = [columns.add(sum((vec >> b & 1) << j for j, vec in enumerate(result.basis)))
                for b in (i, n + i)]
        if all(grew):
            selected.append(i)
    if len(selected) < k:
        raise SoundnessAlarm("surjection selection failed despite dim = n + k")

    primes = [_find_frobenius_prime(places, i) for i in selected[:k]]
    masks = [(w, local_class(w, w)) for w in primes]
    dim = selmer_group(model, dict(masks)).dim
    if dim != result.dim - 2 * k:
        raise SoundnessAlarm(
            f"masks at {primes} took dim {result.dim} to {dim}, not {result.dim - 2 * k}"
        )
    return masks
