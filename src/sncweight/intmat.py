"""Dense exact integer matrices and the Smith normal form engine.

Every matrix entry in this package is a Python int, so all arithmetic is
arbitrary precision: normal-form pivoting can blow up intermediate
entries, and fixed-width overflow would silently corrupt torsion
coefficients.  Pivoting always selects a nonzero entry of minimal
absolute value (first such entry in row-major order), which keeps
intermediate entries small at the sizes used here and makes every
decomposition reproducible.

When only the invariant factors are wanted, smith_diagonal first
eliminates unit entries on a sparse copy and runs the dense reduction
on the unit-free core alone; it tracks no transform.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "smith_normal_form",
    "smith_diagonal",
    "kernel_basis",
    "column_span_basis",
    "solve",
    "solve_matrix",
    "in_column_span",
]


class IntMatrix:
    """An immutable rows x cols integer matrix, stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(entries)
        if not all(type(e) is int for e in data):
            # Accept bools and int subclasses, but never floats: silent
            # truncation would corrupt exact arithmetic.
            coerced = []
            for e in data:
                if not isinstance(e, int):
                    raise TypeError(f"matrix entries must be integers, got {type(e).__name__}")
                coerced.append(int(e))
            data = tuple(coerced)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def _make(cls, rows: int, cols: int, data: tuple) -> "IntMatrix":
        # Internal fast path: data must already be a tuple of ints of the right length.
        obj = object.__new__(cls)
        obj.rows = rows
        obj.cols = cols
        obj._data = data
        return obj

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(m, cols, [e for r in rows for e in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._make(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        k = len(values)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        data = [0] * (rows * cols)
        for i, v in enumerate(values):
            data[i * cols + i] = v
        return cls(rows, cols, data)

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        return cls(len(values), 1, values)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of bounds for {self.rows}x{self.cols}")
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self._data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not any(self._data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows,
            [self._data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [c * e for e in self._data])

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix(self.rows, self.cols, [a + b for a, b in zip(self._data, other._data)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.__add__(other.scale(-1))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        m, k, n = self.rows, self.cols, other.cols
        a, b = self._data, other._data
        # These matrices are mostly block-sparse; index the nonzeros once.
        b_nonzero = [
            [(j, b[t * n + j]) for j in range(n) if b[t * n + j]]
            for t in range(k)
        ]
        out = [0] * (m * n)
        for i in range(m):
            base = i * n
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                c = arow[t]
                if c:
                    for j, val in b_nonzero[t]:
                        out[base + j] += c * val
        return IntMatrix._make(m, n, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        data = []
        for i in range(self.rows):
            data.extend(self.row(i))
            data.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols, self._data + other._data)

    def take_rows(self, count: int) -> "IntMatrix":
        if not 0 <= count <= self.rows:
            raise ValueError("row count out of range")
        return IntMatrix(count, self.cols, self._data[: count * self.cols])

    @classmethod
    def block(cls, grid: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        """Assemble a block matrix; shapes must be consistent along rows and columns."""
        if not grid:
            return cls.zeros(0, 0)
        heights = [r[0].rows for r in grid]
        widths = [b.cols for b in grid[0]]
        for r in grid:
            if len(r) != len(widths):
                raise ValueError("ragged block grid")
            for b, w in zip(r, widths):
                if b.cols != w or b.rows != r[0].rows:
                    raise ValueError("inconsistent block shapes")
        data = []
        for r, h in zip(grid, heights):
            for i in range(h):
                for b in r:
                    data.extend(b.row(i))
        return cls(sum(heights), sum(widths), data)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; row (i, r) maps to i * other.rows + r, same for columns."""
        m, n = self.rows, self.cols
        p, q = other.rows, other.cols
        data = [0] * (m * p * n * q)
        width = n * q
        for i in range(m):
            for j in range(n):
                c = self._data[i * n + j]
                if c:
                    for r in range(p):
                        base = (i * p + r) * width + j * q
                        brow = other.row(r)
                        for s in range(q):
                            data[base + s] = c * brow[s]
        return IntMatrix(m * p, n * q, data)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        if self.rows <= 6 and self.cols <= 6:
            return f"IntMatrix.from_rows({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


@dataclass(frozen=True)
class SnfDecomposition:
    """Unimodular u, v and diagonal d with u * a * v = d.

    Diagonal entries are nonnegative and each nonzero entry divides the
    next one.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d[(i, i)] for i in range(k))


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_reduce(a: IntMatrix, want_u=False, want_ui=False, want_v=False, want_vi=False):
    """Reduce a to Smith form; track only the transforms a caller asked for.

    Untracked slots come back as None.  Skipping the bookkeeping matters:
    the downstream cohomology routines run this on every differential.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = _identity_rows(m) if want_u else None
    ui = _identity_rows(m) if want_ui else None
    v = _identity_rows(n) if want_v else None
    vi = _identity_rows(n) if want_vi else None

    def row_add(i, j, q):
        # r_i += q * r_j on d and u; c_j -= q * c_i on the inverse.
        di, dj = d[i], d[j]
        for t in range(n):
            di[t] += q * dj[t]
        if u is not None:
            uu_i, uu_j = u[i], u[j]
            for t in range(m):
                uu_i[t] += q * uu_j[t]
        if ui is not None:
            for t in range(m):
                ui[t][j] -= q * ui[t][i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
        if ui is not None:
            for t in range(m):
                ui[t][i], ui[t][j] = ui[t][j], ui[t][i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if ui is not None:
            for t in range(m):
                ui[t][i] = -ui[t][i]

    def col_add(j, k, q):
        # c_j += q * c_k on d and v; r_k -= q * r_j on the inverse.
        for r in d:
            r[j] += q * r[k]
        if v is not None:
            for r in v:
                r[j] += q * r[k]
        if vi is not None:
            rk, rj = vi[k], vi[j]
            for t in range(n):
                rk[t] -= q * rj[t]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]
        if vi is not None:
            vi[i], vi[j] = vi[j], vi[i]

    def find_pivot(t):
        best = None
        best_abs = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e:
                    ae = -e if e < 0 else e
                    if best_abs is None or ae < best_abs:
                        best, best_abs = (i, j), ae
                        if ae == 1:
                            return best
        return best

    limit = min(m, n)
    t = 0
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            for i in range(t + 1, m):
                e = d[i][t]
                if e:
                    row_add(i, t, -(e // p))
            for j in range(t + 1, n):
                e = d[t][j]
                if e:
                    col_add(j, t, -(e // p))
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                # Leftover remainders are strictly smaller than |p|.
                piv = find_pivot(t)
                continue
            p = d[t][t]
            bad = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # Pull the offending row up so the next pass shrinks the pivot.
            row_add(t, bad, 1)
            piv = find_pivot(t)
        t += 1

    def pack(rows, width):
        return IntMatrix.from_rows(rows, width) if rows is not None else None

    return pack(u, m), IntMatrix.from_rows(d, n), pack(v, n), pack(ui, m), pack(vi, n)


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form of a: u * a * v = d with u, v unimodular.

    >>> dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> dec.diagonal
    (2, 4)
    """
    u, d, v, _, _ = _snf_reduce(a, want_u=True, want_v=True)
    return SnfDecomposition(u, d, v)


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of a, each dividing the next.

    The nonzeros are read into row dicts with a column index, and +-1
    pivots are eliminated in order of least Markowitz cost
    (row count - 1) * (column count - 1), ties going to the lowest row
    and then the lowest column.  Each such pivot is an invariant factor
    1.  The dense reduction runs only on the core left when no unit
    entry remains, and only if that core is nonzero.

    >>> smith_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_diagonal(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    (1, 1, 2)
    >>> smith_diagonal(IntMatrix.zeros(0, 3))
    ()
    """
    n = a.cols
    data = a._data
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i in range(a.rows):
        row = {j: e for j, e in enumerate(data[i * n : (i + 1) * n]) if e}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    # Stale heap entries are skipped when popped: every entry whose row or
    # column count changes is pushed again with its new cost.
    heap = [(cost(i, j), i, j) for i, row in rows.items() for j, e in row.items() if e in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        c, p, q = heappop(heap)
        prow = rows.get(p)
        if prow is None or prow.get(q) not in (1, -1) or c != cost(p, q):
            continue
        units += 1
        del rows[p]
        for j in prow:
            cols[j].discard(p)
        pivot = prow.pop(q)
        touched = set()
        for i in cols.pop(q):
            row = rows[i]
            f = row.pop(q) * pivot
            for j, e in prow.items():
                v = row.get(j, 0) - f * e
                if v:
                    row[j] = v
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                touched.update((i, j) for j in row)
            else:
                del rows[i]
        for j in prow:
            touched.update((i, j) for i in cols[j])
        for i, j in touched:
            if rows[i][j] in (1, -1):
                heappush(heap, (cost(i, j), i, j))
    if not rows:
        return (1,) * units
    core_cols = sorted(j for j, members in cols.items() if members)
    core = tuple(row.get(j, 0) for row in rows.values() for j in core_cols)
    _, d, _, _, _ = _snf_reduce(IntMatrix._make(len(rows), len(core_cols), core))
    k = min(d.rows, d.cols)
    return (1,) * units + tuple(x for x in (d[(t, t)] for t in range(k)) if x)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A matrix whose columns form a basis of {x : a * x = 0} in Z^cols."""
    _, d, v, _, _ = _snf_reduce(a, want_v=True)
    keep = []
    for j in range(a.cols):
        diag = d[(j, j)] if j < a.rows else 0
        if diag == 0:
            keep.append(j)
    data = []
    for i in range(a.cols):
        row = v.row(i)
        data.extend(row[j] for j in keep)
    return IntMatrix(a.cols, len(keep), data)


def column_span_basis(a: IntMatrix) -> IntMatrix:
    """A matrix whose columns form a basis of the column span of a."""
    _, d, _, ui, _ = _snf_reduce(a, want_ui=True)
    pairs = []
    for j in range(min(a.rows, a.cols)):
        diag = d[(j, j)]
        if diag:
            pairs.append((j, diag))
    data = []
    for i in range(a.rows):
        row = ui.row(i)
        data.extend(row[j] * diag for j, diag in pairs)
    return IntMatrix(a.rows, len(pairs), data)


def _solve_reduced(u: IntMatrix, d: IntMatrix, v: IntMatrix, b: Sequence[int]) -> list[int] | None:
    rows, cols = d.shape
    y = u * IntMatrix.column(b)
    xprime = [0] * cols
    for i in range(rows):
        diag = d[(i, i)] if i < cols else 0
        yi = y[(i, 0)]
        if diag:
            if yi % diag:
                return None
            xprime[i] = yi // diag
        elif yi:
            return None
    x = v * IntMatrix.column(xprime)
    return list(x.col(0))


def solve(a: IntMatrix, b: Sequence[int]) -> list[int] | None:
    """An integer solution x of a * x = b, or None if none exists."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    u, d, v, _, _ = _snf_reduce(a, want_u=True, want_v=True)
    return _solve_reduced(u, d, v, b)


def solve_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer matrix x with a * x = b, or None if some column has no solution."""
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    u, d, v, _, _ = _snf_reduce(a, want_u=True, want_v=True)
    y = u * b
    width = b.cols
    xprime = [0] * (a.cols * width)
    for i in range(a.rows):
        diag = d[(i, i)] if i < a.cols else 0
        yrow = y.row(i)
        if diag:
            for j in range(width):
                if yrow[j] % diag:
                    return None
            if i < a.cols:
                base = i * width
                for j in range(width):
                    xprime[base + j] = yrow[j] // diag
        elif any(yrow):
            return None
    return v * IntMatrix._make(a.cols, width, tuple(xprime))


def in_column_span(a: IntMatrix, b: Sequence[int]) -> bool:
    return solve(a, b) is not None
