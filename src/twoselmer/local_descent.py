"""Local Kummer images alpha_v(chi), their dimensions and the norm index h_v.

An image is its basis, a tuple of cocycles: the 2-torsion cocycles plus
images of sampled local points, until the known a-priori dimension is
reached, so the basis is certified and its length is the dimension.  Images
are cached per (model, place, twist class), since a twist's local conditions
depend only on its local square class.  h_v is read from one rank.
"""

from __future__ import annotations

from typing import Iterator

from . import gf2
from .curve import FullTwoTorsionModel
from .errors import SamplingBudgetExceeded
from .padic import Place, local_class, nonresidue, representative

DEFAULT_SAMPLING_BUDGET = 10**5


def _torsion_cocycles(roots: tuple[int, int, int], place: Place) -> list[int]:
    r1, r2, r3 = roots
    k = place.width
    t1 = local_class((r1 - r2) * (r1 - r3), place) | local_class(r1 - r2, place) << k
    t2 = local_class(r2 - r1, place) | local_class((r2 - r1) * (r2 - r3), place) << k
    return [t1, t2]


def _sample_x(place: Place, roots: tuple[int, int, int]) -> Iterator[tuple[int, int]]:
    """Deterministic stream of x-values dense enough in Q_v.

    Each sample x = a/q is the integer pair (a, q) with q > 0: the class of
    a/b is the class of ab, so the caller never builds a rational.
    """
    if place.is_infinite:
        for j in range(7):
            q = 2**j
            for a in range(-4096, 4097):
                yield a, q
        return
    p = place.p
    # near-root ladder: x = r + t * p^m with t hitting both residue signs
    if p == 2:
        ts = [1, 3, 5, 7]
        depth = 9
    else:
        u = nonresidue(p)
        ts = list(range(1, 10)) + [u * s for s in range(1, 10)]
        depth = 7
    for m in range(1, depth):
        pm = p**m
        for r in roots:
            for t in ts:
                yield r + t * pm, 1
                yield r - t * pm, 1
    # integers covering all residues, interleaved with denominator ladders
    denoms = [p ** (2 * j) for j in range(1, 4)]
    a = 1
    while True:
        yield a, 1
        yield -a, 1
        for q in denoms:
            if a % p:
                yield a, q
                yield -a, q
        a += 1


_image_cache: dict[tuple, tuple[int, ...]] = {}


def kummer_image(model: FullTwoTorsionModel, d_class: int, place: Place) -> tuple[int, ...]:
    """Certified basis of alpha_v for the local twist by d_class, in E[2] coordinates."""
    if not 0 <= d_class < 1 << place.width:
        raise ValueError(f"class {d_class} out of range at {place}")
    key = (model.roots, place, d_class)
    cached = _image_cache.get(key)
    if cached is not None:
        return cached

    # Order matters: root i of the twist corresponds to root i of the base
    # model under the canonical E[2] identification (e_i, 0) <-> (d e_i, 0).
    rep = representative(place, d_class)
    roots = tuple(rep * e for e in model.roots)
    # dim E'(Q_v)/2E'(Q_v) = width: full rational 2-torsion survives every twist
    target = place.width

    span = gf2.Span()
    basis: list[int] = []

    def push(c: int) -> None:
        if span.add(c):
            basis.append(c)

    for t in _torsion_cocycles(roots, place):
        push(t)
        if span.dim == target:
            break

    if span.dim < target:
        # x - e_i = w_i / q has the class of w_i q, and f(x) that of w1 w2 w3 q
        e1, e2, e3 = roots
        remaining = DEFAULT_SAMPLING_BUDGET
        for a, q in _sample_x(place, roots):
            if remaining <= 0:
                raise SamplingBudgetExceeded(
                    f"kummer image at {place} for class {d_class} stuck at "
                    f"dim {span.dim} < {target}"
                )
            remaining -= 1
            w1, w2, w3 = a - e1 * q, a - e2 * q, a - e3 * q
            if not (w1 and w2 and w3):
                continue
            if local_class(w1 * w2 * w3 * q, place):
                continue
            push(local_class(w1 * q, place) | local_class(w2 * q, place) << place.width)
            if span.dim == target:
                break
        else:  # pragma: no cover - the sampler streams are infinite at finite places
            raise SamplingBudgetExceeded("sample stream exhausted")

    image = tuple(basis)
    _image_cache[key] = image
    return image


def h_v(model: FullTwoTorsionModel, d_class: int, place: Place) -> int:
    """Kramer's local norm index h_v = dim alpha_v(1) - dim(alpha_v(1) ∩ alpha_v(chi))."""
    if not d_class:
        return 0
    a1 = kummer_image(model, 0, place)
    ax = kummer_image(model, d_class, place)
    # dim A - dim(A ∩ B) = dim(A + B) - dim B
    return gf2.rank([*a1, *ax]) - len(ax)


def clear_image_cache() -> None:
    _image_cache.clear()
