import random

from twoselmer import gf2


def dot(a, b):
    """The bit-dot pairing of two vectors."""
    return (a & b).bit_count() & 1


def enumerate_span(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def test_span_incremental():
    s = gf2.Span()
    assert s.add(0b101)
    assert s.add(0b011)
    assert not s.add(0b110)  # dependent
    assert s.dim == 2
    assert s.contains(0b110)
    assert not s.contains(0b100)


def test_rank_and_reduce():
    rows = [0b111, 0b101, 0b010]
    assert gf2.rank(rows) == 2
    reduced = gf2.reduce_rows(rows)
    assert enumerate_span(reduced) == enumerate_span(rows)


def test_kernel_basis_against_bruteforce():
    rng = random.Random(4)
    for _ in range(50):
        width = rng.randint(1, 8)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 6))]
        kernel = gf2.kernel_basis(rows, width)
        expected = {
            v
            for v in range(1 << width)
            if all(dot(v, r) == 0 for r in rows)
        }
        assert enumerate_span(kernel) == expected
        assert len(kernel) == width - gf2.rank(rows)


def test_kernel_deterministic():
    rows = [0b1100, 0b0110]
    assert gf2.kernel_basis(rows, 4) == gf2.kernel_basis(rows, 4)


def test_intersect_against_bruteforce():
    rng = random.Random(5)
    for _ in range(50):
        width = rng.randint(1, 7)
        a = [rng.getrandbits(width) for _ in range(rng.randint(0, 4))]
        b = [rng.getrandbits(width) for _ in range(rng.randint(0, 4))]
        # dim(A ∩ B) = rank A + rank B - rank(A + B)
        dim = gf2.rank(a) + gf2.rank(b) - gf2.rank(a + b)
        assert 1 << dim == len(enumerate_span(a) & enumerate_span(b))


def test_annihilator():
    rng = random.Random(6)
    for _ in range(30):
        width = rng.randint(1, 7)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 4))]
        # the annihilator under the bit-dot pairing is the kernel of the rows
        ann = gf2.kernel_basis(rows, width)
        for h in ann:
            for r in rows:
                assert dot(h, r) == 0
        assert len(gf2.reduce_rows(ann)) == width - gf2.rank(rows)


def test_in_span():
    rows = [0b101, 0b011]
    assert gf2.in_span(0b110, rows)
    assert not gf2.in_span(0b100, rows)
    assert gf2.in_span(0, rows)


def test_dot():
    assert dot(0b101, 0b100) == 1
    assert dot(0b101, 0b101) == 0
    assert dot(0, 0b111) == 0


def test_kernel_of_no_rows_and_of_all_unit_vectors():
    # a strict local condition (no basis) checks every coordinate, a relaxed
    # one (every unit vector) checks none: the identities the Selmer loop uses
    for w in range(7):
        units = [1 << j for j in range(w)]
        assert gf2.kernel_basis((), w) == units
        assert gf2.kernel_basis(units, w) == []
