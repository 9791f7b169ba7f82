import random
from functools import reduce

import pytest

from sncweight import intmat
from sncweight.abgroup import _columns_in_span
from sncweight.intmat import IntMatrix, _snf_reduce, kernel_basis, smith_diagonal

from _support import (
    check_snf_reduction,
    oracle_canonical_form,
    random_matrix,
    random_unimodular,
    rational_rank,
)


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[(1, 2)] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.col(1) == (2, 5)
    assert (m - m).is_zero
    assert m - IntMatrix.zeros(2, 3) == m


def test_matrix_multiplication():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a * IntMatrix.identity(2) == a
    assert IntMatrix.zeros(0, 2) * a == IntMatrix.zeros(0, 2)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1]]) * IntMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix.zeros(1, 2) - IntMatrix.zeros(2, 1)
    with pytest.raises(TypeError):
        IntMatrix.identity(1) - 1


def test_hstack_blocks():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3]])
    assert a.hstack(b) == IntMatrix.from_rows([[1, 2, 3]])
    right = IntMatrix.zeros(2, 2).hstack(IntMatrix.from_rows([[5], [6]]))
    assert right == IntMatrix.from_rows([[0, 0, 5], [0, 0, 6]])
    with pytest.raises(ValueError, match="row counts differ"):
        a.hstack(right)


def _dense_block(r, n, left, sign):
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, b = (r.to_rows(), eye) if left else (eye, r.to_rows())
    return [[sign * x * y for x in ra for y in rb] for ra in a for rb in b]


def test_blocks_match_dense_placement():
    # Seeded lists of signed Kronecker blocks, both orders, checked against
    # dense placement.  A block is kept when its nonzeros miss every nonzero
    # placed so far, so blocks share rows (and even area) in disjoint entries;
    # a block that hits one must make the writer raise instead.
    rng = random.Random(41)
    shared_rows = collisions = 0
    for _ in range(200):
        rows, cols = rng.randint(0, 10), rng.randint(2, 14)
        want = [[0] * cols for _ in range(rows)]
        blocks, written = [], set()
        for _ in range(rng.randint(0, 8)):
            r = _sparse_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), (-2, -1, 1, 2), 0.5)
            n, left, sign = rng.choice((0, 1, 1, 2, 3)), rng.random() < 0.5, rng.choice((1, -1))
            block = _dense_block(r, n, left, sign)
            if r.rows * n > rows or r.cols * n > cols:
                continue
            row0, col0 = rng.randint(0, rows - r.rows * n), rng.randint(0, cols - r.cols * n)
            if blocks and rng.random() < 0.5 and blocks[-1][0] + r.rows * n <= rows:
                row0 = blocks[-1][0]
            spots = [(row0 + i, col0 + j) for i, line in enumerate(block)
                     for j, x in enumerate(line) if x]
            if any(want[i][j] for i, j in spots):
                collisions += 1
                with pytest.raises(ValueError, match="two blocks write an entry of row"):
                    IntMatrix.from_blocks(rows, cols, blocks + [(row0, col0, r, n, left, sign)])
                continue
            for i, j in spots:
                want[i][j] = block[i - row0][j - col0]
            shared_rows += len(written & {i for i, _ in spots})
            written.update(i for i, _ in spots)
            blocks.append((row0, col0, r, n, left, sign))
        before = [r.to_rows() for _, _, r, _, _, _ in blocks]
        _assert_is(IntMatrix.from_blocks(rows, cols, blocks), want, cols)
        assert [r.to_rows() for _, _, r, _, _, _ in blocks] == before
    assert shared_rows > 20 and collisions > 5
    one = IntMatrix.identity(1)
    for rows, cols, block in ((2, 2, (1, 0, one, 2, True, 1)), (2, 2, (0, 1, one, 2, False, -1)),
                              (2, 2, (-1, 0, one, 1, True, 1)), (0, 0, (0, 0, one, 1, True, 1))):
        with pytest.raises(IndexError, match="does not fit"):
            IntMatrix.from_blocks(rows, cols, [block])
    with pytest.raises(ValueError, match="two blocks write an entry of row 0"):
        IntMatrix.from_blocks(1, 2, [(0, 0, one, 1, True, 1), (0, 0, one, 1, False, -1)])
    pair = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert pair.hstack(IntMatrix.zeros(2, 2) - pair) == IntMatrix.from_blocks(
        2, 4, [(0, 2, pair, 1, False, -1), (0, 0, pair, 1, True, 1)])
    with pytest.raises(ValueError, match="row counts differ"):
        pair.hstack(one)


def test_snf_identity_and_zero():
    v, d = _snf_reduce(IntMatrix.identity(3), want_v=True)
    assert d == IntMatrix.identity(3) and v == IntMatrix.identity(3)
    v, d = _snf_reduce(IntMatrix.zeros(2, 2), want_v=True)
    assert d == IntMatrix.zeros(2, 2) and v == IntMatrix.identity(2)
    assert _snf_reduce(IntMatrix.zeros(2, 2))[0] is None
    assert smith_diagonal(IntMatrix.identity(3)) == (1, 1, 1)
    assert smith_diagonal(IntMatrix.zeros(2, 2)) == ()


def test_snf_divisor_example():
    # gcd of entries forces d1 = 2, |det| = 8 forces d2 = 4
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert check_snf_reduction(a) == (2, 4)
    assert _snf_reduce(a)[1] == IntMatrix.from_rows([[2, 0], [0, 4]])
    assert smith_diagonal(a) == (2, 4)
    assert smith_diagonal(IntMatrix.from_rows([[1, 1], [1, -1]])) == (1, 2)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(rows, cols)
        v, d = _snf_reduce(a, want_v=True)
        assert d == a and v == IntMatrix.identity(cols)
        assert check_snf_reduction(a) == ()
        assert smith_diagonal(a) == ()


def test_snf_deterministic():
    rng = random.Random(7)
    a = random_matrix(rng, max_dim=6)
    assert _snf_reduce(a, want_v=True) == _snf_reduce(a, want_v=True)


def test_snf_randomized_invariants():
    rng = random.Random(20260809)
    for _ in range(300):
        check_snf_reduction(random_matrix(rng))


def test_snf_agrees_with_reduction_oracle():
    rng = random.Random(99)
    for _ in range(200):
        a = random_matrix(rng, max_dim=6, bound=12)
        got = check_snf_reduction(a)
        free, torsion = oracle_canonical_form(a.cols, a.to_rows())
        assert tuple(x for x in got if x > 1) == torsion
        assert len(got) == a.cols - free


SMALL = (1, -1, 2, -2, 3, -3)
NO_UNIT = (2, -2, 3, -3, 4, 6)


# -- IntMatrix against a list-of-lists reference -------------------------

MATRIX_KINDS = {
    "dense": (tuple(range(-9, 10)), 1.0),
    "sparse": (SMALL, 0.3),
    "units": ((1, -1), 0.15),
    "zero": ((0,), 1.0),
}


def _random_rows(rng, rows=None, cols=None):
    rows = rng.choice((0, 1, 2, 3, 5)) if rows is None else rows
    cols = rng.choice((0, 1, 2, 4, 6)) if cols is None else cols
    values, density = MATRIX_KINDS[rng.choice(sorted(MATRIX_KINDS))]
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def _ref_nonzeros(ref):
    return {(i, j, e) for i, r in enumerate(ref) for j, e in enumerate(r) if e}


def _ref_mul(a, b, n):
    return [[sum(r[t] * b[t][j] for t in range(len(r))) for j in range(n)] for r in a]


def _assert_is(m, ref, cols):
    """m holds exactly ref (rows x cols) and equals and hashes like every other build of it."""
    rows = len(ref)
    assert m.shape == (rows, cols)
    assert m.to_rows() == ref
    assert [m.row(i) for i in range(rows)] == [tuple(r) for r in ref]
    assert [m.col(j) for j in range(cols)] == [tuple(r[j] for r in ref) for j in range(cols)]
    assert all(m[(i, j)] == ref[i][j] for i in range(rows) for j in range(cols))
    found = list(m.nonzeros())
    assert len(found) == len(set(found)) and set(found) == _ref_nonzeros(ref)
    assert m.is_zero == (not found)
    flat = [e for r in ref for e in r]
    for other in (IntMatrix.from_rows(ref, cols), IntMatrix(rows, cols, flat),
                  IntMatrix.from_entries(rows, cols, reversed(found))):
        assert m == other and not m != other
        assert hash(m) == hash(other)
    if found:
        assert m != IntMatrix.zeros(rows, cols)


def test_matrix_operations_agree_with_list_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        a = _random_rows(rng)
        m, n = len(a), len(a[0]) if a else rng.choice((0, 3))
        ma = IntMatrix.from_rows(a, n)
        _assert_is(ma, a, n)
        b = _random_rows(rng, m, n)
        mb = IntMatrix.from_rows(b, n)
        _assert_is(ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], n)
        k = rng.choice((0, 1, 3, 5))
        b = _random_rows(rng, n, k)
        _assert_is(ma * IntMatrix.from_rows(b, k), _ref_mul(a, b, k), k)
        b = _random_rows(rng, m)
        q = len(b[0]) if b else 0
        mb = IntMatrix.from_rows(b, q)
        _assert_is(ma.hstack(mb), [r + s for r, s in zip(a, b)], n + q)
        t = rng.randint(0, m)
        _assert_is(ma.take_rows(t), a[:t], n)


def test_block_agrees_with_list_reference():
    # A row of blocks assembled by hstack, one block row at a time.
    rng = random.Random(4242)
    for _ in range(150):
        heights = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 3))]
        widths = [rng.choice((0, 1, 2, 4)) for _ in range(rng.randint(1, 3))]
        for h in heights:
            blocks = [_random_rows(rng, h, w) for w in widths]
            ref = [sum((blk[i] for blk in blocks), []) for i in range(h)]
            got = reduce(IntMatrix.hstack,
                         [IntMatrix.from_rows(blk, w) for blk, w in zip(blocks, widths)])
            _assert_is(got, ref, sum(widths))


def test_constructors_and_cancellation_agree():
    rng = random.Random(99)
    for rows, cols in [(0, 0), (0, 4), (4, 0), (3, 3), (2, 5)]:
        zero = [[0] * cols for _ in range(rows)]
        _assert_is(IntMatrix.zeros(rows, cols), zero, cols)
        a = IntMatrix.from_rows(_random_rows(rng, rows, cols), cols)
        # Results that cancel store no zero: they equal zeros and hash like it.
        eye = [[int(i == j) for j in range(cols)] for i in range(cols)]
        eye_over_minus_eye = IntMatrix.from_rows(eye + [[-x for x in r] for r in eye], cols)
        for cancelled in (a - a, a.hstack(a) * eye_over_minus_eye):
            _assert_is(cancelled, zero, cols)
            assert cancelled.is_zero
        diagonal = range(min(rows, cols))
        entries = [(i, i, e) for i in diagonal for e in (2, 2, -4)]
        _assert_is(IntMatrix.from_entries(rows, cols, entries), zero, cols)
    for n in range(5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        _assert_is(IntMatrix.identity(n), eye, n)
    # One matrix built four ways.
    eye6 = IntMatrix.identity(6)
    for built in (IntMatrix.from_entries(6, 2, [(0, 0, 1), (1, 1, 1)]).hstack(
                      IntMatrix.from_entries(6, 4, [(i + 2, i, 1) for i in range(4)])),
                  IntMatrix.from_rows(eye6.to_rows()) * eye6,
                  IntMatrix.from_entries(6, 6, [(i, i, 1) for i in reversed(range(6))])
                  - IntMatrix.zeros(6, 6),
                  IntMatrix.from_entries(6, 6, [(i, i, 1) for i in range(6)])):
        _assert_is(built, eye6.to_rows(), 6)
    for _ in range(50):
        a = IntMatrix.from_rows(_random_rows(rng, 3, 4), 4)
        assert a * IntMatrix.identity(4) == IntMatrix.identity(3) * a == a
        assert hash(a * IntMatrix.identity(4)) == hash(a)
    # An entry is an integer exactly when its type is int: floats and bools
    # are refused alike, never converted.
    for bad in (0.0, 1.0, True):
        with pytest.raises(TypeError):
            IntMatrix.from_entries(1, 1, [(0, 0, bad)])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, bad]])
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [1, bad])
    with pytest.raises(IndexError):
        IntMatrix.from_entries(2, 2, [(2, 0, 1)])


def _sparse_matrix(rng, rows, cols, values, density):
    return IntMatrix(rows, cols, [
        rng.choice(values) if rng.random() < density else 0 for _ in range(rows * cols)
    ])


def _check_diagonal(a):
    """smith_diagonal against the Fraction rank and the Bezout diagonal."""
    diag = smith_diagonal(a)
    free, torsion = oracle_canonical_form(a.rows, a.to_rows())
    assert len(diag) == a.rows - free
    assert tuple(x for x in diag if x > 1) == torsion
    assert all(x > 0 for x in diag)
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]))
    return diag


def test_smith_diagonal_agrees_with_reduction_oracle():
    rng = random.Random(20240901)
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        values = rng.choice((SMALL, NO_UNIT, (1, -1), tuple(range(-9, 10))))
        _check_diagonal(_sparse_matrix(rng, rows, cols, values, density))
    # Larger shapes, where the column order, deferral and re-queueing of
    # the unit elimination have room to matter.
    for _ in range(2000):
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        density = rng.choice((0.2, 0.4, 0.7))
        _check_diagonal(_sparse_matrix(rng, rows, cols, (1, -1, 2, -3, 4), density))


def test_smith_diagonal_reduces_only_the_unit_free_core(monkeypatch):
    cores = []
    real = intmat._snf_reduce

    def recording(a, *args, **kwargs):
        cores.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(intmat, "_snf_reduce", recording)
    rng = random.Random(7)
    for _ in range(60):
        # Permuted unit triangular: a singleton row or column always holds a
        # diagonal unit, so every pivot is one and no dense core is left.
        n = rng.randint(0, 7)
        rows = [[0] * i + [rng.choice((1, -1))]
                + [rng.choice(SMALL + (0, 0)) for _ in range(n - i - 1)]
                for i in range(n)]
        rng.shuffle(rows)
        perm = rng.sample(range(n), n)
        cores.clear()
        assert _check_diagonal(IntMatrix.from_rows([[r[j] for j in perm] for r in rows], n)) \
            == (1,) * n
        assert cores == []
        assert _check_diagonal(random_unimodular(rng, n, steps=20)[0]) == (1,) * n
        # No unit entry: the nonzero rows and columns are the whole core.
        a = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), NO_UNIT, 0.6)
        cores.clear()
        _check_diagonal(a)
        nonzero_rows = sum(1 for i in range(a.rows) if any(a.row(i)))
        nonzero_cols = sum(1 for j in range(a.cols) if any(a.col(j)))
        assert [c.shape for c in cores] == ([] if a.is_zero else [(nonzero_rows, nonzero_cols)])
    for _ in range(100):
        cores.clear()
        _check_diagonal(_sparse_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), SMALL, 0.5))
        for core in cores:
            assert not any(abs(core[(i, j)]) == 1
                           for i in range(core.rows) for j in range(core.cols))
    # Column 0 comes first but holds no unit, so it is deferred.  Column 1
    # eliminates through row 0 (a tie goes to the lowest row), which sets
    # column 0's entry in row 1 to 1, so column 0 goes back on the queue
    # and no dense core is left.
    cores.clear()
    assert _check_diagonal(IntMatrix.from_rows([[2, 1], [3, 1]])) == (1, 1)
    assert cores == []


def _chain_matrix(n):
    # Row k = {c_(k+1): 2, c_k: 3, c_(k-1): -2} and the last row
    # {c_(n-1): 1, c_(n-2): 2}.  Every column but the last starts without a
    # unit, and each elimination frees one in the column before it.
    entries = [(k, j, e) for k in range(n - 1)
               for j, e in ((k + 1, 2), (k, 3), (k - 1, -2)) if 0 <= j < n]
    return IntMatrix.from_entries(n, n, entries + [(n - 1, n - 1, 1), (n - 1, n - 2, 2)])


def test_smith_diagonal_requeues_in_linear_time(monkeypatch):
    # Retrying the skipped columns in whole passes would take about n passes
    # here, tens of seconds at n = 10000; the queue takes each column back once.
    import time

    def no_core(a, *args, **kwargs):
        raise AssertionError(f"a {a.rows}x{a.cols} dense core was left")

    monkeypatch.setattr(intmat, "_snf_reduce", no_core)
    n = 10_000
    a = _chain_matrix(n)
    start = time.perf_counter()
    assert smith_diagonal(a) == (1,) * n
    assert time.perf_counter() - start < 5


def _relation_carrying(rng, rows, cols, rels, values, zero_cols):
    """[d | relations]: a sparse d over values with some all-zero columns, and
    relation columns of one to three entries +-2, unit-free as a presentation's."""
    d = [[rng.choice(values) if rng.random() < 0.15 else 0 for _ in range(cols)]
         for _ in range(rows)]
    for j in rng.sample(range(cols), min(zero_cols, cols)):
        for r in d:
            r[j] = 0
    relations = [[0] * rels for _ in range(rows)]
    for j in range(rels if rows else 0):
        for i in rng.sample(range(rows), min(rows, rng.randint(1, 3))):
            relations[i][j] = rng.choice((2, -2))
    return IntMatrix.from_rows([r + q for r, q in zip(d, relations)], cols + rels)


def _check_kernel(a):
    """kernel_basis against the Fraction rank, with the kernel saturated."""
    k, diagonal = kernel_basis(a)
    assert (a * k).is_zero
    assert k.rows == a.cols and k.cols == a.cols - rational_rank(a.to_rows())
    # A Z-basis of a kernel spans a saturated lattice: Z^n / span is free.
    assert smith_diagonal(k) == (1,) * k.cols
    assert diagonal == smith_diagonal(a)
    return k


def test_kernel_basis_spans_kernel(monkeypatch):
    cores = []

    def recording(a, *args, **kwargs):
        cores.append(a)
        return _snf_reduce(a, *args, **kwargs)

    monkeypatch.setattr(intmat, "_snf_reduce", recording)
    rng = random.Random(4)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=6)
        k = _check_kernel(a)
        # Random kernel elements must be reachable.
        for _ in range(3):
            coeffs = IntMatrix(k.cols, 1, [rng.randint(-3, 3) for _ in range(k.cols)])
            vec = k * coeffs
            assert _columns_in_span(vec, k)
    # Unit-rich, relation-carrying matrices up to 40 x 60, where the unit
    # phase eliminates most columns and back-substitution does real work;
    # some with zero columns, some with every entry a unit.
    shapes = {"core": 0, "no core": 0}
    for case in range(40):
        rows, cols = rng.randint(1, 40), rng.randint(1, 50)
        all_unit = case % 4 == 0
        a = _relation_carrying(rng, rows, cols, 0 if all_unit else rng.randint(1, 10),
                               (1, -1) if all_unit else (1, -1, 1, -1, 2, -2),
                               rng.randint(1, 5) if case % 3 == 0 else 0)
        cores.clear()
        kernel_basis(a)
        shapes["core" if cores else "no core"] += 1
        _check_kernel(a)
    assert min(shapes.values()) > 5, shapes
