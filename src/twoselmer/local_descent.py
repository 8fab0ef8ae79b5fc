"""Local Kummer images alpha_v(chi), their dimensions and the norm index h_v.

An image is its basis, a tuple of cocycles.  At an odd prime q outside
Sigma the curve has good reduction, so the image has a closed form: the
unit cocycles for an unramified class, the 2-torsion cocycles for a
ramified one, and h_q = 2 at every ramified q (Kramer, Trans. AMS 264
(1981); Mazur-Rubin, Invent. Math. 181 (2010), section 2); Kramer's parity
sum therefore runs over the places of Sigma only.  At the places of Sigma
the 2-torsion cocycles are extended by images of sampled local points until
the known a-priori dimension is reached, so the basis is certified and its
length is the dimension.  Images are cached per (model, place, twist
class), since a twist's local conditions depend only on its local square
class, and each image's check rows (per width) and span, since both
depend on the image alone.  h_v is read from one rank.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from . import gf2
from .curve import FullTwoTorsionModel, sigma_set
from .errors import BudgetExceeded
from .padic import _cocycle, _name, _width, local_class, nonresidue
from .zarith import valuation


def _torsion_cocycles(model: FullTwoTorsionModel, d_class: int, place: int) -> tuple[int, int]:
    # root i of the twist is rep * e_i, class(rep) = d_class, under the canonical
    # E[2] identification (e_i, 0) <-> (d e_i, 0): rep^2 drops out of the
    # products, and d_class adds to the single differences
    e1, e2, e3 = model.roots
    return (_cocycle((e1 - e2) * (e1 - e3), e1 - e2, place) ^ d_class << _width(place),
            _cocycle(e2 - e1, (e2 - e1) * (e2 - e3), place) ^ d_class)


def _sample_x(p: int, roots: tuple[int, int, int]) -> Iterator[int]:
    """Finite deterministic stream of integers x dense enough in Z_p, p a prime: the near-root
    ladder, then at a good p only the residues range(p), lifting the points of E(F_p) it misses.
    Points near O add nothing: at an odd p they lie in E_1(Q_p), a pro-p group; at 2, adding
    (e_i, 0) moves one next to e_i, onto the ladder, and adds a torsion cocycle (Silverman
    X.1.4, VII.2)."""
    # near-root ladder: x = r + t * p^m with t hitting both residue signs,
    # climbing past the deepest root difference
    r1, r2, r3 = roots
    deep = max(valuation(r2 - r1, p), valuation(r3 - r1, p), valuation(r3 - r2, p))
    if p == 2:
        ts = [1, 3, 5, 7]
        depth = max(9, deep + 4)
    else:
        u = nonresidue(p)
        ts = list(range(1, 10)) + [u * s for s in range(1, 10)]
        depth = max(7, deep + 3)
    for m in range(1, depth):
        pm = p**m
        for r in roots:
            for t in ts:
                yield r + t * pm
                yield r - t * pm
    # at a good prime (deep = 0; never at 2) every residue; at Sigma the ladder ends the stream
    if not deep:
        yield from range(p)


_image_cache: dict[tuple, tuple[int, ...]] = {}
# the span of each condition, built from its basis, for selmer's pointwise check
_condition_span = cache(gf2.Span)

# the unit cocycles (u, 1) and (1, u), u a non-residue: the unramified image
_UNRAMIFIED = (0b10, 0b10 << 2)


def kummer_image(model: FullTwoTorsionModel, d_class: int, place: int) -> tuple[int, ...]:
    """Certified basis of alpha_v for the local twist by d_class, in E[2] coordinates."""
    if not 0 <= d_class < 1 << _width(place):
        raise ValueError(f"class {d_class} out of range at {_name(place)}")
    key = (model.roots, place, d_class)
    image = _image_cache.get(key)
    if image is None:
        if place in sigma_set(model):
            image = _sampled_image(model, d_class, place)
        elif d_class & 1:
            image = _torsion_cocycles(model, d_class, place)
        else:
            image = _UNRAMIFIED
        _image_cache[key] = image
    return image


def _sampled_image(model: FullTwoTorsionModel, d_class: int, place: int) -> tuple[int, ...]:
    """alpha_v from sampled local points, seeded with the 2-torsion cocycles at the
    places of Sigma only: at a good prime it shares no code with the closed form."""
    # dim E'(Q_v)/2E'(Q_v) = width: full rational 2-torsion survives every twist
    target = _width(place)
    span = gf2.Span()
    seed = _torsion_cocycles(model, d_class, place) if place in sigma_set(model) else ()
    basis = [t for t in seed if span.add(t)]
    # at inf they already reach width 1: t1 = 0 makes r1 the largest root, so r2 - r1 < 0 in t2
    samples = _sample_x(place, model.roots) if span.dim < target else ()
    # x on the base model: rep * x, class(rep) = d_class, is on the twist iff
    # w1 w2 w3 = f(x) has class d_class, and rep * x - rep * e_i adds d_class to w_i
    e1, e2, e3 = model.roots
    for x in samples:
        w1, w2, w3 = x - e1, x - e2, x - e3
        if not (w1 and w2 and w3) or local_class(w1 * w2 * w3, place) != d_class:
            continue
        c = _cocycle(w1, w2, place) ^ d_class ^ d_class << target
        if span.add(c):
            basis.append(c)
            if span.dim == target:
                break
    if span.dim < target:
        raise BudgetExceeded(f"kummer image at {_name(place)} for class {d_class} "
                             f"stuck at dim {span.dim} < {target}")
    return tuple(basis)


@cache
def image_checks(image: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Check rows of an image of the given width: its annihilator under the bit-dot pairing.
    Cached per (image, width): a few dozen distinct images cover every twist."""
    return tuple(gf2.kernel_basis(image, 2 * width))


def h_v(model: FullTwoTorsionModel, d_class: int, place: int) -> int:
    """Kramer's local norm index h_v = dim alpha_v(1) - dim(alpha_v(1) ∩ alpha_v(chi))."""
    if not d_class:
        return 0
    a1 = kummer_image(model, 0, place)
    ax = kummer_image(model, d_class, place)
    # dim A - dim(A ∩ B) = dim(A + B) - dim B
    return gf2.rank([*a1, *ax]) - len(ax)


def clear_image_cache() -> None:
    _image_cache.clear()
    image_checks.cache_clear()
    _condition_span.cache_clear()
