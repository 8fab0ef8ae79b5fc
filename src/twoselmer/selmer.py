"""Global 2-Selmer groups as F2 kernels, Poitou-Tate checks and mask collapsing.

A Selmer element is a pair of square classes supported on Sigma', encoded
as a bit vector over the generators [-1, p1, p2, ...].  The group is the
kernel of one F2 matrix whose rows are the local conditions at the places
of Sigma'; nothing is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import gf2
from .curve import FullTwoTorsionModel, sigma_set
from .errors import SearchBudgetExceeded, SoundnessAlarm
from .local_descent import kummer_image, h_v
from .padic import Place, local_class, local_pairing
from .zarith import is_prime, legendre

DEFAULT_PRIME_BUDGET = 10**6


@dataclass(frozen=True)
class GlobalClassBasis:
    """Generators [-1, p1, p2, ...] of Q(Sigma', 2); -1 stands for the real place."""

    generators: tuple[int, ...]

    @classmethod
    def from_places(cls, places: tuple[Place, ...]) -> "GlobalClassBasis":
        primes = sorted(v.p for v in places if v.p is not None)
        return cls((-1, *primes))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def value(self, bits: int) -> int:
        n = 1
        for i, g in enumerate(self.generators):
            if (bits >> i) & 1:
                n *= g
        return n

    def class_of(self, n: int) -> int:
        """Bit vector of a signed squarefree integer supported on the basis."""
        if n == 0:
            raise ValueError("0 has no class")
        bits = 0
        if n < 0:
            bits |= 1
            n = -n
        for i, g in enumerate(self.generators[1:], start=1):
            if n % g == 0:
                bits |= 1 << i
                n //= g
        if n != 1:
            raise ValueError("integer not supported on the basis")
        return bits


@dataclass(frozen=True)
class GlobalSquareClass:
    basis: GlobalClassBasis
    bits: int

    @property
    def value(self) -> int:
        return self.basis.value(self.bits)

    def local(self, place: Place) -> int:
        return local_class(self.value, place)


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
    basis: list[tuple[GlobalSquareClass, GlobalSquareClass]]
    sigma_prime: tuple[Place, ...]

    def basis_values(self) -> list[tuple[int, int]]:
        return [(a.value, b.value) for a, b in self.basis]

    def to_record(self, model: FullTwoTorsionModel, masks: dict | None = None) -> dict:
        return {
            "curve": str(model),
            "sigma_prime": [str(v) for v in self.sigma_prime],
            "masks": {
                str(v): [(c >> i) & 1 for i in range(v.width)] for v, c in (masks or {}).items()
            },
            "dim": self.dim,
            "basis": [[a, b] for a, b in self.basis_values()],
        }


def _sigma_prime(spec: SelmerSpec) -> tuple[Place, ...]:
    places = set(sigma_set(spec.model).places)
    places.update(spec.masks)
    places.update(spec.strict)
    places.update(spec.relaxed)
    return tuple(sorted(places, key=lambda v: v.sort_key()))


def selmer_group(spec: SelmerSpec, verify: bool = False) -> SelmerResult:
    """Kernel computation of the (masked / strict / relaxed) 2-Selmer group."""
    spec.validate()
    places = _sigma_prime(spec)
    basis = GlobalClassBasis.from_places(places)
    m = basis.dim
    width = 2 * m

    rows: list[int] = []
    conditions: list[tuple[Place, list[int]]] = []
    for v in places:
        if v in spec.relaxed:
            continue
        k = v.width
        loc = [local_class(g, v) for g in basis.generators]
        if v in spec.strict:
            checks = [1 << j for j in range(2 * k)]
            image_rows: tuple[int, ...] = ()
        else:
            image_rows = kummer_image(spec.model, spec.masks.get(v, 0), v).basis
            checks = gf2.annihilator(image_rows, 2 * k)
        res_of_gen = [loc[j] for j in range(m)] + [loc[j] << k for j in range(m)]
        for h in checks:
            row = 0
            for j in range(width):
                if gf2.dot(res_of_gen[j], h):
                    row |= 1 << j
            rows.append(row)
        conditions.append((v, image_rows))

    kernel = gf2.kernel_basis(rows, width)
    pairs = [
        (
            GlobalSquareClass(basis, vec & ((1 << m) - 1)),
            GlobalSquareClass(basis, vec >> m),
        )
        for vec in kernel
    ]
    result = SelmerResult(len(pairs), pairs, places)

    if verify:
        _verify_pointwise(spec, result, conditions)
    return result


def _verify_pointwise(spec, result: SelmerResult, conditions) -> None:
    for a, b in result.basis:
        for v, image_rows in conditions:
            c = restriction((a, b), v)
            if v in spec.strict:
                ok = c == 0
            else:
                ok = gf2.in_span(c, image_rows)
            if not ok:
                raise SoundnessAlarm(
                    f"basis element ({a.value},{b.value}) violates the condition at {v}"
                )


def restriction(pair: tuple[GlobalSquareClass, GlobalSquareClass], place: Place) -> int:
    """The local cocycle of a global pair at a place."""
    a, b = pair
    return a.local(place) | b.local(place) << place.width


def _strict_and_relaxed(spec: SelmerSpec, T: frozenset[Place]) -> tuple[SelmerSpec, SelmerSpec]:
    if set(T) & set(spec.masks):
        raise ValueError("T must be disjoint from mask places")
    return (
        SelmerSpec(spec.model, dict(spec.masks), spec.strict | T, spec.relaxed),
        SelmerSpec(spec.model, dict(spec.masks), spec.strict, spec.relaxed | T),
    )


def strict_relaxed_dims(spec: SelmerSpec, T: frozenset[Place]) -> tuple[int, int]:
    """(dim Sel_{2,T}, dim Sel_2^T)."""
    strict_spec, relaxed_spec = _strict_and_relaxed(spec, T)
    return selmer_group(strict_spec).dim, selmer_group(relaxed_spec).dim


def duality_check(spec: SelmerSpec, T: frozenset[Place]) -> tuple[bool, dict]:
    """Poitou-Tate: dimension identity over T plus direct cross-orthogonality."""
    strict_spec, relaxed_spec = _strict_and_relaxed(spec, T)
    dim_strict = selmer_group(strict_spec).dim
    relaxed = selmer_group(relaxed_spec)
    dim_relaxed = relaxed.dim
    expected = sum(kummer_image(spec.model, spec.masks.get(v, 0), v).dim for v in T)
    report = {
        "T": [str(v) for v in sorted(T, key=lambda v: v.sort_key())],
        "dim_strict": dim_strict,
        "dim_relaxed": dim_relaxed,
        "expected_gap": expected,
        "gap_ok": dim_relaxed - dim_strict == expected,
        "orthogonal": True,
        "counterexample": None,
    }
    plain = selmer_group(spec)
    for x in relaxed.basis:
        for y in plain.basis:
            s = 0
            for v in T:
                s ^= local_pairing(v, restriction(x, v), restriction(y, v))
            if s:
                report["orthogonal"] = False
                report["counterexample"] = {
                    "x": [x[0].value, x[1].value],
                    "y": [y[0].value, y[1].value],
                }
                break
        if not report["orthogonal"]:
            break
    return report["gap_ok"] and report["orthogonal"], report


def frobenius_eval(
    element: tuple[GlobalSquareClass, GlobalSquareClass], q: int
) -> tuple[int, int]:
    """(legendre bit of d1, legendre bit of d2) at an odd prime q outside Sigma'."""
    d1, d2 = element[0].value, element[1].value
    out = []
    for d in (d1, d2):
        s = legendre(d, q)
        if s == 0:
            raise ValueError(f"{q} divides a basis support; q must lie outside Sigma'")
        out.append(0 if s == 1 else 1)
    return tuple(out)


def _find_frobenius_prime(
    basis: GlobalClassBasis,
    target_index: int,
    avoid: set[int],
    budget: int = DEFAULT_PRIME_BUDGET,
) -> int:
    """Smallest odd prime w with legendre(g_i, w) = -1 exactly for i = target_index."""
    tried = 0
    w = 3
    while tried < budget:
        if is_prime(w) and w not in avoid:
            tried += 1
            ok = True
            for i, g in enumerate(basis.generators):
                want = -1 if i == target_index else 1
                if g == -1:
                    got = 1 if w % 4 == 1 else -1
                else:
                    got = legendre(g, w)
                if got != want:
                    ok = False
                    break
            if ok:
                return w
        w += 2
    raise SearchBudgetExceeded("no Frobenius prime found within budget")


def collapse_masks(
    spec: SelmerSpec, budget: int = DEFAULT_PRIME_BUDGET
) -> list[tuple[int, int]]:
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
    basis = result.basis[0][0].basis if result.basis else GlobalClassBasis.from_places(places)

    # t_i(s) = (bit i of d1, bit i of d2); greedy selection of 2-jumps
    maps = []
    for i in range(basis.dim):
        rows = [((a.bits >> i) & 1) | (((b.bits >> i) & 1) << 1) for a, b in result.basis]
        maps.append(rows)
    selected: list[int] = []
    acc = [0] * result.dim
    prev_rank = 0
    for i in range(basis.dim):
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

    avoid = {g for g in basis.generators if g != -1}
    out: list[tuple[int, int]] = []
    for i in selected:
        w = _find_frobenius_prime(basis, i, avoid, budget)
        avoid.add(w)
        place = Place(w)
        out.append((w, local_class(w, place)))
    return out
