import random
import re
from functools import reduce

import pytest

from sncweight import intmat
from sncweight.intmat import (
    DenseWorkTooLargeError,
    IntMatrix,
    column_echelon,
    echelon_lift,
    smith_diagonal,
)

from _support import (
    check_smith_diagonal,
    oracle_canonical_form,
    oracle_diagonalize,
    oracle_in_span,
    random_matrix,
    random_unimodular,
    rank_mod_p,
    rational_rank,
)


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[(1, 2)] == 6
    assert m.row(0) == (1, 2, 3)
    assert (m - m).is_zero
    assert m - IntMatrix.zeros(2, 3) == m


def test_bands_match_dense_placement():
    # Seeded bands of signed sources, checked against dense placement.  A
    # source is kept when its nonzeros miss every nonzero its band holds so
    # far, so sources share rows in disjoint entries; one that hits an entry
    # must make the writer raise instead.  No source's rows are changed.
    rng = random.Random(43)
    shared = collisions = 0
    for _ in range(200):
        cols = rng.randint(1, 12)
        want, bands = [], []
        for _ in range(rng.randint(0, 5)):
            height = rng.randint(0, 3)
            band = [[0] * cols for _ in range(height)]
            sources = []
            for _ in range(rng.randint(0, 4)):
                r = _sparse_matrix(rng, height, rng.randint(0, cols), (-2, -1, 1, 2, 3), 0.5)
                col0, sign = rng.randint(0, cols - r.cols), rng.choice((1, -1))
                spots = [(i, col0 + j, sign * e) for i, j, e in r.nonzeros()]
                if any(band[i][j] for i, j, _ in spots):
                    collisions += 1
                    with pytest.raises(ValueError, match="two sources write an entry"):
                        IntMatrix.from_bands(cols, bands + [(height, sources + [(col0, r, sign)])])
                    continue
                shared += any(band[i][j] == 0 and any(band[i]) for i, j, _ in spots)
                for i, j, e in spots:
                    band[i][j] = e
                sources.append((col0, r, sign))
            bands.append((height, sources))
            want += band
        before = [[r.to_rows() for _, r, _ in sources] for _, sources in bands]
        _assert_is(IntMatrix.from_bands(cols, bands), want, cols)
        assert [[r.to_rows() for _, r, _ in sources] for _, sources in bands] == before
    assert shared > 20 and collisions > 20, (shared, collisions)
    one, pair = IntMatrix.identity(1), IntMatrix.from_rows([[1, 2]])
    for cols, band in ((2, (2, [(0, one, 1)])), (2, (1, [(-1, one, 1)])), (2, (1, [(1, pair, 1)])),
                       (1, (1, [(0, one, 1), (0, pair, -1)]))):
        with pytest.raises(IndexError, match="does not fit"):
            IntMatrix.from_bands(cols, [band])
    with pytest.raises(ValueError, match="two sources write an entry in the band at row 1"):
        IntMatrix.from_bands(3, [(1, []), (1, [(0, pair, 1), (1, pair, -1)])])
    assert IntMatrix.from_bands(2, [(2, []), (1, [(0, pair, 1)])]) == IntMatrix.from_rows(
        [[0, 0], [0, 0], [1, 2]])


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
    assert check_smith_diagonal(IntMatrix.identity(3)) == (1, 1, 1)
    assert check_smith_diagonal(IntMatrix.zeros(2, 2)) == ()


def test_snf_divisor_example():
    # gcd of entries forces d1 = 2, |det| = 8 forces d2 = 4
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert check_smith_diagonal(a) == (2, 4)
    assert smith_diagonal(IntMatrix.from_rows([[1, 1], [1, -1]]))[0] == (1, 2)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        assert check_smith_diagonal(IntMatrix.zeros(rows, cols)) == ()


def test_snf_deterministic():
    rng = random.Random(7)
    a = random_matrix(rng, max_dim=6)
    assert smith_diagonal(a) == smith_diagonal(a)


def test_snf_randomized_invariants():
    rng = random.Random(20260809)
    for _ in range(300):
        check_smith_diagonal(random_matrix(rng))


def test_snf_agrees_with_reduction_oracle():
    rng = random.Random(99)
    for _ in range(200):
        a = random_matrix(rng, max_dim=6, bound=12)
        got = check_smith_diagonal(a)
        free, torsion = oracle_canonical_form(a.cols, a.to_rows())
        assert tuple(x for x in got if x > 1) == torsion
        assert len(got) == a.cols - free


def test_rank_mod_p_agrees_with_the_reduction_oracle():
    # A diagonal form over Z is one over GF(p) too, so the rank mod p is the
    # count of its nonzero entries that p does not divide.
    rng = random.Random(31)
    for _ in range(100):
        a = random_matrix(rng, max_dim=7, bound=12)
        diagonal = oracle_diagonalize(a.to_rows())
        for p in (2, 3, 5, 1_000_003):
            assert rank_mod_p(a, p) == sum(1 for x in diagonal if x % p), (a, p)


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


def _core(a):
    """The unit-free core smith_diagonal reaches on a, as {row: {column: entry}}.

    With no budget at all, a nonempty core is refused as soon as the unit
    queue runs dry: the message gives its shape, and the frame that raised
    still holds its rows.  None when no core is left.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intmat, "MAX_DENSE_WORK", 0)
        try:
            smith_diagonal(a)
        except DenseWorkTooLargeError as e:
            tb = e.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            rows = tb.tb_frame.f_locals["rows"]
            shape = re.match(r"a (\d+)x(\d+) dense Smith reduction", str(e)).groups()
            assert tuple(map(int, shape)) == (len(rows), len(set().union(*rows.values())))
            return rows
    return None


def test_smith_diagonal_agrees_with_reduction_oracle():
    rng = random.Random(20240901)
    for _ in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.2, 0.5, 1.0))
        values = rng.choice((SMALL, NO_UNIT, (1, -1), tuple(range(-9, 10))))
        check_smith_diagonal(_sparse_matrix(rng, rows, cols, values, density))
    # Larger shapes, where the column order, deferral and re-queueing of
    # the unit elimination have room to matter.
    for _ in range(2000):
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        density = rng.choice((0.2, 0.4, 0.7))
        check_smith_diagonal(_sparse_matrix(rng, rows, cols, (1, -1, 2, -3, 4), density))


def test_smith_diagonal_reduces_only_the_unit_free_core():
    rng = random.Random(7)
    for _ in range(60):
        # Permuted unit triangular: a singleton row or column always holds a
        # diagonal unit, so every pivot is one and no core is left.
        n = rng.randint(0, 7)
        rows = [[0] * i + [rng.choice((1, -1))]
                + [rng.choice(SMALL + (0, 0)) for _ in range(n - i - 1)]
                for i in range(n)]
        rng.shuffle(rows)
        perm = rng.sample(range(n), n)
        a = IntMatrix.from_rows([[r[j] for j in perm] for r in rows], n)
        assert check_smith_diagonal(a) == (1,) * n
        assert _core(a) is None
        assert check_smith_diagonal(random_unimodular(rng, n, steps=20)[0]) == (1,) * n
        # No unit entry: the nonzero rows and columns are the whole core.
        a = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), NO_UNIT, 0.6)
        check_smith_diagonal(a)
        expected = {}
        for i, j, e in a.nonzeros():
            expected.setdefault(i, {})[j] = e
        assert _core(a) == (expected or None)
    for _ in range(100):
        a = _sparse_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), SMALL, 0.5)
        check_smith_diagonal(a)
        core = _core(a) or {}
        assert not any(e in (1, -1) for row in core.values() for e in row.values())
    # Column 0 comes first but holds no unit, so it is deferred.  Column 1
    # eliminates through row 0 (a tie goes to the lowest row), which sets
    # column 0's entry in row 1 to 1, so column 0 goes back on the queue
    # and no core is left.
    a = IntMatrix.from_rows([[2, 1], [3, 1]])
    assert check_smith_diagonal(a) == (1, 1)
    assert _core(a) is None


def test_euclid_steps_agree_with_reduction_oracle():
    # Unit-free and mixed matrices up to 30 x 70 with entries in [-4, 4]:
    # the unit phase leaves a core, and Euclid steps reduce the rest.
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 30), rng.randint(1, 70)
        values = rng.choice(((2, -2, 3, -3, 4, -4), tuple(range(-4, 5))))
        check_smith_diagonal(_sparse_matrix(rng, rows, cols, values, rng.choice((0.1, 0.3, 0.6))))


def test_a_unit_made_by_a_euclid_step_goes_back_on_the_queue(monkeypatch):
    # Both columns of [2, 3] are deferred, so the core is the whole row.
    # The Euclid step pivots on the 2 and clears its row by taking column 0
    # off column 1 once, which leaves [2, 1]: column 1 goes back on the
    # queue, and the unit phase eliminates through its 1.  In the second
    # matrix the 2 alone in its row and column is recorded first.
    appended = []

    class Queue(intmat.deque):
        def append(self, j):
            appended.append(j)
            super().append(j)

    monkeypatch.setattr(intmat, "deque", Queue)
    for rows, core, diagonal, requeued in (
            ([[2, 3]], {0: {0: 2, 1: 3}}, (1,), [1]),
            ([[2, 0, 0], [0, 2, 3]], {0: {0: 2}, 1: {1: 2, 2: 3}}, (1, 2), [2])):
        a = IntMatrix.from_rows(rows)
        assert _core(a) == core
        appended.clear()
        assert check_smith_diagonal(a) == diagonal
        assert appended == requeued


def _chain_matrix(n):
    # Row k = {c_(k+1): 2, c_k: 3, c_(k-1): -2} and the last row
    # {c_(n-1): 1, c_(n-2): 2}.  Every column but the last starts without a
    # unit, and each elimination frees one in the column before it.
    entries = [(k, j, e) for k in range(n - 1)
               for j, e in ((k + 1, 2), (k, 3), (k - 1, -2)) if 0 <= j < n]
    return IntMatrix.from_entries(n, n, entries + [(n - 1, n - 1, 1), (n - 1, n - 2, 2)])


def test_smith_diagonal_requeues_in_linear_time(monkeypatch):
    # Retrying the skipped columns in whole passes would take about n passes
    # here, tens of seconds at n = 10000; the queue takes each column back
    # once.  With no budget, a core left over would raise.
    import time

    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 0)
    n = 10_000
    a = _chain_matrix(n)
    start = time.perf_counter()
    assert smith_diagonal(a)[0] == (1,) * n
    assert time.perf_counter() - start < 5


def test_column_echelon_is_a_basis_and_lifts_exactly(monkeypatch):
    # Block-diagonal relation matrices, each block with dependent columns
    # appended.  The echelon spans the same lattice with independent
    # columns, its pivot rows strictly increase, and no column mixes two
    # blocks.  Forward substitution recovers every combination of it and
    # refuses a column outside its span.
    rng = random.Random(21)
    outside = 0
    for _ in range(200):
        blocks, row0, col0, owner = [], 0, 0, []
        for b in range(rng.randint(0, 3)):
            r = _sparse_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), SMALL + NO_UNIT, 0.5)
            r = r.hstack(r * _sparse_matrix(rng, r.cols, rng.randint(0, 2), (1, -1, 2), 0.5))
            blocks.append((row0, col0, r, 1, True, 1))
            row0, col0, owner = row0 + r.rows, col0 + r.cols, owner + [b] * r.rows
        a = IntMatrix.from_blocks(row0, col0, blocks)
        e = column_echelon(a)
        assert e.rows == a.rows and e.cols == rational_rank(a.to_rows())
        assert oracle_in_span(a, e) and oracle_in_span(e, a)
        tops = [min(i for i in range(e.rows) if e[(i, k)]) for k in range(e.cols)]
        assert all(s < t for s, t in zip(tops, tops[1:]))
        assert all(owner[i] == owner[tops[k]] for i, k, _ in e.nonzeros())
        x = _sparse_matrix(rng, e.cols, rng.randint(0, 3), SMALL, 0.6)
        assert echelon_lift(e, e * x) == x
        for i in range(e.rows):
            unit = IntMatrix.from_entries(e.rows, 1, [(i, 0, 1)])
            if not oracle_in_span(unit, e):
                outside += 1
                with pytest.raises(ValueError, match="not in the column span"):
                    echelon_lift(e, unit.hstack(e))
    assert outside > 100
    with pytest.raises(ValueError, match="row counts differ"):
        echelon_lift(IntMatrix.identity(2), IntMatrix.identity(1))
    # Every column update is charged against the dense budget.
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 0)
    assert column_echelon(IntMatrix.from_rows([[2, 0], [0, 3]])) == \
        IntMatrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(DenseWorkTooLargeError, match="column echelon takes more than 0"):
        column_echelon(IntMatrix.from_rows([[2, 3]]))
