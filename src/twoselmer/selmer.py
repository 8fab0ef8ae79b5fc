"""Global 2-Selmer groups as F2 kernels, Poitou-Tate checks and mask collapsing.

A Selmer element is a pair (d1, d2) of square classes supported on Sigma'.
It is one int of 2m bits, the kernel vector itself: over the m generators
(-1, *primes of Sigma' ascending), bit i says whether generator i divides
d1 and bit m + i whether it divides d2.  ``SelmerResult.basis_values``
decodes the vectors into signed squarefree pairs, the only other form.  The
group is the kernel of one F2 matrix whose rows are the local conditions at
the places of Sigma'; nothing is enumerated.  Every local condition is a
basis tuple: the Kummer image, the empty tuple at a strict place and all 2k
unit cocycles at a relaxed one, so one loop builds every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import gf2
from .curve import FullTwoTorsionModel, sigma_set
from .errors import SearchBudgetExceeded, SoundnessAlarm
from .local_descent import kummer_image
from .padic import Place, local_class, local_pairing
from .zarith import is_prime, legendre

DEFAULT_PRIME_BUDGET = 10**6


def _generators(places: tuple[Place, ...]) -> tuple[int, ...]:
    """Generators (-1, p1, p2, ...) of Q(Sigma', 2); -1 stands for the real place."""
    return (-1, *sorted(v.p for v in places if v.p is not None))


def _value(generators: tuple[int, ...], bits: int) -> int:
    n = 1
    for i, g in enumerate(generators):
        if (bits >> i) & 1:
            n *= g
    return n


@dataclass
class SelmerSpec:
    """A Selmer group computation: model, local twist masks, strict/relaxed places."""

    model: FullTwoTorsionModel
    masks: dict[Place, int] = field(default_factory=dict)
    strict: frozenset[Place] = frozenset()
    relaxed: frozenset[Place] = frozenset()

    def validate(self) -> None:
        mask_places = set(self.masks)
        if mask_places & self.strict or mask_places & self.relaxed or self.strict & self.relaxed:
            raise ValueError("mask, strict and relaxed places must be pairwise disjoint")


@dataclass
class SelmerResult:
    dim: int
    basis: list[int]
    sigma_prime: tuple[Place, ...]

    def basis_values(self) -> list[tuple[int, int]]:
        gens = _generators(self.sigma_prime)
        return [(_value(gens, vec), _value(gens, vec >> len(gens))) for vec in self.basis]

    def to_record(self, model: FullTwoTorsionModel, masks: dict[Place, int]) -> dict:
        return {
            "curve": str(model),
            "sigma_prime": [str(v) for v in self.sigma_prime],
            "masks": {
                str(v): [(c >> i) & 1 for i in range(v.width)] for v, c in masks.items()
            },
            "dim": self.dim,
            "basis": [[a, b] for a, b in self.basis_values()],
        }


def _sigma_prime(spec: SelmerSpec) -> tuple[Place, ...]:
    places = set(sigma_set(spec.model))
    places.update(spec.masks)
    places.update(spec.strict)
    places.update(spec.relaxed)
    return tuple(sorted(places, key=lambda v: v.sort_key()))


def _local_condition(spec: SelmerSpec, v: Place) -> tuple[int, ...]:
    """Basis of the condition at v: none if strict, all cocycles if relaxed, else alpha_v."""
    if v in spec.strict:
        return ()
    if v in spec.relaxed:
        return tuple(1 << j for j in range(2 * v.width))
    return kummer_image(spec.model, spec.masks.get(v, 0), v)


def selmer_group(spec: SelmerSpec, verify: bool = False) -> SelmerResult:
    """Kernel computation of the (masked / strict / relaxed) 2-Selmer group."""
    spec.validate()
    places = _sigma_prime(spec)
    generators = _generators(places)
    m = len(generators)

    rows: list[int] = []
    conditions: list[tuple[Place, tuple[int, ...]]] = []
    for v in places:
        k = v.width
        condition = _local_condition(spec, v)
        # restriction at v, one row per cocycle bit over the 2m generator coordinates
        loc = [local_class(g, v) for g in generators]
        res = [sum(((c >> i) & 1) << j for j, c in enumerate(loc)) for i in range(k)]
        res += [r << m for r in res]
        # each check annihilates the condition under the bit-dot pairing
        for h in gf2.kernel_basis(condition, 2 * k):
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
    for a, b in result.basis_values():
        for v, condition in conditions:
            if not gf2.in_span(restriction((a, b), v), condition):
                raise SoundnessAlarm(
                    f"basis element ({a},{b}) violates the condition at {v}"
                )


def restriction(pair: tuple[int, int], place: Place) -> int:
    """The local cocycle of a global value pair at a place."""
    a, b = pair
    return local_class(a, place) | local_class(b, place) << place.width


def duality_check(spec: SelmerSpec, T: frozenset[Place]) -> tuple[bool, dict]:
    """Poitou-Tate: dimension identity over T plus direct cross-orthogonality."""
    dim_strict = selmer_group(replace(spec, strict=spec.strict | T)).dim
    relaxed = selmer_group(replace(spec, relaxed=spec.relaxed | T))
    dim_relaxed = relaxed.dim
    expected = sum(len(kummer_image(spec.model, spec.masks.get(v, 0), v)) for v in T)
    report = {
        "T": [str(v) for v in sorted(T, key=lambda v: v.sort_key())],
        "dim_strict": dim_strict,
        "dim_relaxed": dim_relaxed,
        "expected_gap": expected,
        "gap_ok": dim_relaxed - dim_strict == expected,
        "orthogonal": True,
        "counterexample": None,
    }
    plain = selmer_group(spec).basis_values()
    for x in relaxed.basis_values():
        for y in plain:
            s = 0
            for v in T:
                s ^= local_pairing(v, restriction(x, v), restriction(y, v))
            if s:
                report["orthogonal"] = False
                report["counterexample"] = {"x": list(x), "y": list(y)}
                break
        if not report["orthogonal"]:
            break
    return report["gap_ok"] and report["orthogonal"], report


def _find_frobenius_prime(generators: tuple[int, ...], target_index: int, avoid: set[int]) -> int:
    """Smallest odd prime w with legendre(g_i, w) = -1 exactly for i = target_index."""
    tried = 0
    w = 3
    while tried < DEFAULT_PRIME_BUDGET:
        if is_prime(w) and w not in avoid:
            tried += 1
            if all(
                legendre(g, w) == (-1 if i == target_index else 1)
                for i, g in enumerate(generators)
            ):
                return w
        w += 2
    raise SearchBudgetExceeded("no Frobenius prime found within budget")


def collapse_masks(spec: SelmerSpec) -> list[tuple[int, int]]:
    """Ramified masks at k new primes that drop the Selmer dimension by 2k.

    Requires dim = n + k with 2 <= k <= n, n = |Sigma'|.  Directions are
    selected where reading a single generator coordinate of both components
    is jointly surjective onto (F2^2)^k, then primes realizing those
    Frobenius conditions are found by Legendre-symbol search.
    """
    result = selmer_group(spec)
    places = result.sigma_prime
    n = len(places)
    k = result.dim - n
    if not 2 <= k <= n:
        raise ValueError(f"needs dim = n + k with 2 <= k <= n; got dim {result.dim}, n {n}")
    generators = _generators(places)
    m = len(generators)

    # t_i(s) = (bit i of d1, bit i of d2); greedy selection of 2-jumps
    maps = []
    for i in range(m):
        rows = [((vec >> i) & 1) | (((vec >> (m + i)) & 1) << 1) for vec in result.basis]
        maps.append(rows)
    selected: list[int] = []
    acc = [0] * result.dim
    prev_rank = 0
    for i in range(m):
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

    avoid = {g for g in generators if g != -1}
    out: list[tuple[int, int]] = []
    for i in selected:
        w = _find_frobenius_prime(generators, i, avoid)
        avoid.add(w)
        place = Place(w)
        out.append((w, local_class(w, place)))
    return out
