import random

import pytest

from sncweight import intmat
from sncweight.intmat import (
    IntMatrix,
    column_span_basis,
    in_column_span,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve,
    solve_matrix,
)

from _support import oracle_canonical_form, random_matrix, random_unimodular


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[(1, 2)] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.col(1) == (2, 5)
    assert m.transpose().shape == (3, 2)
    assert m.transpose().transpose() == m
    assert (m - m).is_zero
    assert m.scale(2) == m + m


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


def test_block_and_kron():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3]])
    grid = IntMatrix.block([[a, b], [IntMatrix.zeros(2, 2), IntMatrix.from_rows([[5], [6]])]])
    assert grid == IntMatrix.from_rows([[1, 2, 3], [0, 0, 5], [0, 0, 6]])
    k = IntMatrix.from_rows([[1, 2], [3, 4]]).kron(IntMatrix.from_rows([[0, 1]]))
    assert k == IntMatrix.from_rows([[0, 1, 0, 2], [0, 3, 0, 4]])


def test_determinant():
    assert IntMatrix.identity(3).determinant() == 1
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.zeros(2, 2).determinant() == 0
    assert IntMatrix.zeros(0, 0).determinant() == 1


def test_snf_identity_and_zero():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.d == IntMatrix.identity(3)
    dec = smith_normal_form(IntMatrix.zeros(2, 2))
    assert dec.d == IntMatrix.zeros(2, 2)
    assert smith_diagonal(IntMatrix.identity(3)) == (1, 1, 1)
    assert smith_diagonal(IntMatrix.zeros(2, 2)) == ()


def test_snf_divisor_example():
    # gcd of entries forces d1 = 2, |det| = 8 forces d2 = 4
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(a)
    assert dec.diagonal == (2, 4)
    assert dec.u * a * dec.v == dec.d
    assert smith_diagonal(a) == (2, 4)
    assert smith_diagonal(IntMatrix.from_rows([[1, 1], [1, -1]])) == (1, 2)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(rows, cols)
        dec = smith_normal_form(a)
        assert dec.u * a * dec.v == dec.d
        assert dec.u.shape == (rows, rows)
        assert dec.v.shape == (cols, cols)
        assert smith_diagonal(a) == ()


def test_snf_deterministic():
    rng = random.Random(7)
    a = random_matrix(rng, max_dim=6)
    assert smith_normal_form(a) == smith_normal_form(a)


def _check_snf_invariants(a):
    dec = smith_normal_form(a)
    assert dec.u * a * dec.v == dec.d
    assert abs(dec.u.determinant()) == 1
    assert abs(dec.v.determinant()) == 1
    diag = dec.diagonal
    for i in range(min(a.rows, a.cols)):
        for j in range(i + 1, min(a.rows, a.cols)):
            if i != j:
                assert dec.d[(i, j)] == 0 or i == j
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x:
            assert y % x == 0
        else:
            assert y == 0
    return dec


def test_snf_randomized_invariants():
    rng = random.Random(20260809)
    for _ in range(300):
        _check_snf_invariants(random_matrix(rng))


def test_snf_agrees_with_reduction_oracle():
    rng = random.Random(99)
    for _ in range(200):
        a = random_matrix(rng, max_dim=6, bound=12)
        dec = smith_normal_form(a)
        got = tuple(x for x in dec.diagonal if x > 1)
        free, torsion = oracle_canonical_form(a.cols, a.to_rows())
        assert got == torsion
        assert sum(1 for x in dec.diagonal if x) == a.cols - free


SMALL = (1, -1, 2, -2, 3, -3)
NO_UNIT = (2, -2, 3, -3, 4, 6)


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
        assert _check_diagonal(random_unimodular(rng, n, steps=20)) == (1,) * n
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


def test_kernel_basis_spans_kernel():
    rng = random.Random(4)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=6)
        k = kernel_basis(a)
        assert (a * k).is_zero
        # Columns are independent: the basis matrix has full column rank.
        dec = smith_normal_form(k)
        assert sum(1 for x in dec.diagonal if x) == k.cols
        # Random kernel elements must be reachable.
        for _ in range(3):
            coeffs = IntMatrix.column([rng.randint(-3, 3) for _ in range(k.cols)])
            vec = k * coeffs
            assert solve(k, list(vec.col(0))) is not None


def test_column_span_basis():
    rng = random.Random(11)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=6)
        basis = column_span_basis(a)
        # Each original column is in the span of the basis and vice versa.
        assert solve_matrix(basis, a) is not None
        assert solve_matrix(a, basis) is not None


def test_solve():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(a, [4, 9]) == [2, 3]
    assert solve(a, [1, 0]) is None
    assert in_column_span(a, [2, 3])
    assert not in_column_span(a, [1, 1])
    # Underdetermined and overdetermined shapes.
    assert solve(IntMatrix.from_rows([[1, 1]]), [5]) is not None
    assert solve(IntMatrix.from_rows([[1], [1]]), [5, 4]) is None


def test_solve_randomized_consistency():
    rng = random.Random(13)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=5)
        x = [rng.randint(-4, 4) for _ in range(a.cols)]
        b = a * IntMatrix.column(x)
        got = solve(a, list(b.col(0)))
        assert got is not None
        assert a * IntMatrix.column(got) == b
