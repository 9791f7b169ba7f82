"""Exact integer matrices stored as sparse rows, and the Smith normal form engine.

A matrix keeps one dict of nonzero entries per row, so building,
multiplying, stacking and comparing cost the nonzeros, not rows x cols;
every block matrix, stacking included, is written by from_blocks.
Every matrix entry in this package is a Python int: the constructors
refuse any value whose type is not exactly int, bools and floats alike.
So all arithmetic is arbitrary precision: normal-form pivoting can blow
up intermediate entries, and fixed-width overflow would silently corrupt
torsion coefficients.  Pivoting always selects a nonzero entry of minimal
absolute value (first such entry in row-major order), which keeps
intermediate entries small at the sizes used here and makes every
reduction reproducible.  The dense reduction tracks the column transform
v only when asked for it (kernel bases read it) and no row transform.

smith_diagonal and kernel_basis share one unit phase: each first
eliminates unit entries on a copy of the rows and runs the dense
reduction on the unit-free core alone.  The columns are sorted once by
(nonzero count, index) and taken from a first-in first-out queue, so the
elimination order is fixed up front and needs no priority queue.  A
column without a unit entry is deferred and goes back on the queue only
when an elimination sets one of its entries to +-1.  smith_diagonal
tracks no transform.  kernel_basis keeps the pivot rows, reads the
core's kernel off its transform v, and extends it to the pivot
coordinates by back-substitution; it returns the Smith diagonal too, so
a matrix whose kernel is taken is never reduced again for its diagonal.
The dense reduction refuses, before it starts, any input whose work
estimate rows x cols x min(rows, cols) is over MAX_DENSE_WORK; only a
unit-free core ever reaches it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

__all__ = [
    "DenseWorkTooLargeError",
    "IntMatrix",
    "MAX_DENSE_WORK",
    "kernel_basis",
    "smith_diagonal",
]


class IntMatrix:
    """An immutable rows x cols integer matrix, stored as one dict per row.

    Row i maps each column j with a nonzero entry to that entry; zeros are
    never stored and rows are never mutated once built, so rows may be
    shared between matrices and every operation costs its nonzeros.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        """The matrix with the given entries in row-major order."""
        _check_shape(rows, cols)
        data = _int_entries(entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._rows = tuple(
            {j: e for j, e in enumerate(data[i * cols : (i + 1) * cols]) if e}
            for i in range(rows)
        )

    @classmethod
    def _wrap(cls, rows: int, cols: int, row_dicts: tuple) -> "IntMatrix":
        # Internal: row_dicts must hold nonzero int entries in range, one dict per row.
        obj = object.__new__(cls)
        obj.rows = rows
        obj.cols = cols
        obj._rows = row_dicts
        return obj

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [_int_entries(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls._wrap(len(rows), cols, tuple({j: e for j, e in enumerate(r) if e} for r in rows))

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int, int]]
    ) -> "IntMatrix":
        """The rows x cols matrix whose (i, j) entry sums e over every (i, j, e) given.

        >>> IntMatrix.from_entries(2, 3, [(0, 2, 5), (1, 0, -1), (0, 2, 1)])
        IntMatrix.from_rows([[0, 0, 6], [-1, 0, 0]])
        """
        _check_shape(rows, cols)
        out = [{} for _ in range(rows)]
        for i, j, e in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"({i}, {j}) out of bounds for {rows}x{cols}")
            if type(e) is not int:
                raise TypeError(f"matrix entries must be integers, got {type(e).__name__}")
            row = out[i]
            v = row.get(j, 0) + e
            if v:
                row[j] = v
            else:
                row.pop(j, None)
        return cls._wrap(rows, cols, tuple(out))

    @classmethod
    def from_blocks(
        cls, rows: int, cols: int,
        blocks: Iterable[tuple[int, int, "IntMatrix", int, bool, int]],
    ) -> "IntMatrix":
        """The rows x cols matrix made of signed Kronecker blocks, zero elsewhere.

        Each block (row0, col0, r, n, left, sign), sign 1 or -1, is
        sign * (r (x) I_n) if left, else sign * (I_n (x) r), with its top-left
        entry at (row0, col0); a plain block is n = 1.  Blocks may share a row
        when they write disjoint entries.  An entry written twice raises
        ValueError and a block that does not fit raises IndexError.  A
        block costs the rows and nonzeros it writes: each written row is
        one fresh dict, every other row is one shared empty row, and no row
        of a block is changed.

        >>> r = IntMatrix.from_rows([[1, 2]])
        >>> IntMatrix.from_blocks(3, 5, [(1, 1, r, 2, True, 1), (0, 3, r, 1, True, -1)])
        IntMatrix.from_rows([[0, 0, 0, -1, -2], [0, 1, 0, 2, 0], [0, 0, 1, 0, 2]])
        """
        _check_shape(rows, cols)
        out = [_EMPTY_ROW] * rows
        for row0, col0, r, n, left, sign in blocks:
            if not (row0 >= 0 and col0 >= 0 and n >= 0
                    and row0 + r.rows * n <= rows and col0 + r.cols * n <= cols):
                raise IndexError(f"a {r.rows}x{r.cols} block times {n} at ({row0}, {col0}) "
                                 f"does not fit in {rows}x{cols}")
            for k in range(n):
                # Copy k of r: its rows go to at, at + stride, ..., and entry
                # (i, j) of r to column shift + j * step.
                if left:
                    at, stride, shift, step = row0 + k, n, col0 + k, n
                else:
                    at, stride, shift, step = row0 + k * r.rows, 1, col0 + k * r.cols, 1
                for row in r._rows:
                    if row:
                        new = ({shift + j * step: sign * e for j, e in row.items()}
                               if shift or step != 1 or sign != 1 else row.copy())
                        target = out[at]
                        if target is _EMPTY_ROW:
                            out[at] = new
                        elif target.keys().isdisjoint(new):
                            target.update(new)
                        else:
                            raise ValueError(f"two blocks write an entry of row {at}")
                    at += stride
        return cls._wrap(rows, cols, tuple(out))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_shape(rows, cols)
        return cls._wrap(rows, cols, (_EMPTY_ROW,) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_shape(n, n)
        return cls._wrap(n, n, tuple({i: 1} for i in range(n)))

    def nonzeros(self) -> Iterator[tuple[int, int, int]]:
        """Every nonzero entry as (row, column, entry), row by row."""
        for i, row in enumerate(self._rows):
            for j, e in row.items():
                yield i, j, e

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of bounds for {self.rows}x{self.cols}")
        return self._rows[i].get(j, 0)

    def row(self, i: int) -> tuple[int, ...]:
        out = [0] * self.cols
        for j, e in self._rows[i].items():
            out[j] = e
        return tuple(out)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row.get(j, 0) for row in self._rows)

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        negated = ((i, j, -e) for i, j, e in other.nonzeros())
        return IntMatrix.from_entries(self.rows, self.cols, chain(self.nonzeros(), negated))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        b = other._rows
        out = []
        for arow in self._rows:
            acc = {}
            for t, c in arow.items():
                for j, e in b[t].items():
                    acc[j] = acc.get(j, 0) + c * e
            if 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            out.append(acc)
        return IntMatrix._wrap(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        """The block matrix [self | other]; both must have the same row count.

        >>> IntMatrix.from_rows([[1], [2]]).hstack(IntMatrix.from_rows([[0, 3], [4, 0]]))
        IntMatrix.from_rows([[1, 0, 3], [2, 4, 0]])
        """
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return IntMatrix.from_blocks(self.rows, self.cols + other.cols, (
            (0, 0, self, 1, True, 1), (0, self.cols, other, 1, True, 1)))

    def take_rows(self, count: int) -> "IntMatrix":
        if not 0 <= count <= self.rows:
            raise ValueError("row count out of range")
        return IntMatrix._wrap(count, self.cols, self._rows[:count])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(sorted(row.items())) for row in self._rows)))

    def __repr__(self) -> str:
        if self.rows <= 6 and self.cols <= 6:
            return f"IntMatrix.from_rows({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


_EMPTY_ROW: dict = {}


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _int_entries(entries: Iterable[int]) -> list[int]:
    # A list is only read here and by the callers, never kept, so it is not copied.
    data = entries if type(entries) is list else list(entries)
    if not {int}.issuperset(map(type, data)):
        bad = next(e for e in data if type(e) is not int)
        raise TypeError(f"matrix entries must be integers, got {type(bad).__name__}")
    return data


MAX_DENSE_WORK = 10**8


class DenseWorkTooLargeError(ValueError):
    """A dense Smith reduction whose estimated work is over MAX_DENSE_WORK."""


def _snf_reduce(a: IntMatrix, want_v=False):
    """Reduce a to Smith form d = u * a * v for some unimodular u; return (v, d).

    The nonzero diagonal entries come first.  Only the column transform
    v is ever tracked, and only when asked for; otherwise it comes back
    as None.  The work is about rows x cols x min(rows, cols) entry
    updates; over MAX_DENSE_WORK it raises DenseWorkTooLargeError before
    starting.

    >>> v, d = _snf_reduce(IntMatrix.from_rows([[2, 4], [6, 8]]), want_v=True)
    >>> d
    IntMatrix.from_rows([[2, 0], [0, 4]])
    >>> IntMatrix.from_rows([[2, 4], [6, 8]]) * v  # column i is d_i times a column of u^-1
    IntMatrix.from_rows([[2, 0], [6, -4]])
    """
    m, n = a.rows, a.cols
    if m * n * min(m, n) > MAX_DENSE_WORK:
        raise DenseWorkTooLargeError(
            f"a {m}x{n} dense Smith reduction would take about {m * n * min(m, n)} "
            f"entry updates, more than {MAX_DENSE_WORK}"
        )
    d = a.to_rows()
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_v else None

    def row_add(i, j, q):
        # r_i += q * r_j on d.
        di, dj = d[i], d[j]
        for t in range(n):
            di[t] += q * dj[t]

    def col_add(j, k, q):
        # c_j += q * c_k on d and v.
        for r in d:
            r[j] += q * r[k]
        if v is not None:
            for r in v:
                r[j] += q * r[k]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

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
                d[t], d[i0] = d[i0], d[t]
            if j0 != t:
                col_swap(t, j0)
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
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

    return (IntMatrix.from_rows(v, n) if want_v else None), IntMatrix.from_rows(d, n)


def _unit_rows(a: IntMatrix) -> tuple[dict, dict]:
    """A copy of a's nonzero rows, and for each column the set of rows holding it."""
    rows = {i: dict(row) for i, row in enumerate(a._rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    return rows, cols


def _eliminate_units(rows: dict, cols: dict) -> Iterator[tuple[int, int, dict]]:
    """Eliminate +-1 pivots from rows and cols in place, yielding each as (column, pivot, row).

    The columns are sorted once by (initial nonzero count, index) and
    taken from a first-in first-out queue.  A popped column's pivot is
    its +-1 entry in the currently shortest row, ties going to the
    lowest row.  A column with no unit entry is deferred; when an
    elimination sets an entry of a deferred column to +-1, that column
    goes back on the end of the queue.  So when the queue runs dry no
    unit entry is left in rows: they are the unit-free core.  Each
    yielded row is the pivot row without its pivot entry, as it stood
    when eliminated; it holds no earlier pivot column, and no later one
    is ever changed again.
    """
    queue = deque(sorted(cols, key=lambda j: (len(cols[j]), j)))
    deferred = set()
    while queue:
        q = queue.popleft()
        candidates = [(len(rows[i]), i) for i in cols[q] if rows[i][q] in (1, -1)]
        if not candidates:
            deferred.add(q)
            continue
        _, p = min(candidates)
        prow = rows.pop(p)
        for j in prow:
            cols[j].discard(p)
        pivot = prow.pop(q)
        for i in cols.pop(q):
            row = rows[i]
            f = row.pop(q) * pivot
            for j, e in prow.items():
                v = row.get(j, 0) - f * e
                if v:
                    row[j] = v
                    cols[j].add(i)
                    if v in (1, -1) and j in deferred:
                        deferred.discard(j)
                        queue.append(j)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        yield q, pivot, prow


def _core(rows: dict, cols: dict) -> tuple[IntMatrix, list[int]]:
    """The unit-free core over the columns that still hold an entry, and those columns."""
    live = sorted(j for j, members in cols.items() if members)
    index = {j: k for k, j in enumerate(live)}
    core = tuple({index[j]: e for j, e in row.items()} for row in rows.values())
    return IntMatrix._wrap(len(rows), len(live), core), live


def _nonzero_diagonal(d: IntMatrix) -> tuple[int, ...]:
    return tuple(x for x in (d[(t, t)] for t in range(min(d.rows, d.cols))) if x)


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The nonzero invariant factors of a, each dividing the next.

    The +-1 pivots are eliminated first, each one an invariant factor 1
    (see _eliminate_units); the dense reduction runs only on the
    unit-free core that is left, and only if it is nonzero.

    >>> smith_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_diagonal(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    (1, 1, 2)
    >>> smith_diagonal(IntMatrix.zeros(0, 3))
    ()
    """
    rows, cols = _unit_rows(a)
    units = (1,) * sum(1 for _ in _eliminate_units(rows, cols))
    if not rows:
        return units
    _, d = _snf_reduce(_core(rows, cols)[0])
    return units + _nonzero_diagonal(d)


def kernel_basis(a: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """A matrix whose columns form a Z-basis of {x : a * x = 0}, and smith_diagonal(a).

    The unit phase of smith_diagonal runs first and keeps its pivot
    rows.  The dense reduction, with its column transform v, runs only
    on the unit-free core: the core's kernel is spanned by the columns
    of v past its rank, and every non-pivot column that holds no core
    entry adds a unit vector.  Each such vector is extended to the pivot
    coordinates by back-substitution in reverse pivot order: a pivot row
    reads pivot * x_q + (its other entries) . x = 0 with pivot = +-1, so
    x_q is an exact integer.  The extension is a bijection from the
    core's kernel onto a's, so a basis maps to a basis.

    >>> k, diagonal = kernel_basis(IntMatrix.from_rows([[1, 2, 3], [0, 2, 4]]))
    >>> k, diagonal
    (IntMatrix.from_rows([[1], [-2], [1]]), (1, 2))
    """
    rows, cols = _unit_rows(a)
    pivots = list(_eliminate_units(rows, cols))
    diagonal = (1,) * len(pivots)
    kernel: dict[int, dict[int, int]] = {}  # coordinate -> {basis vector: entry}
    live, k = [], 0
    if rows:
        core, live = _core(rows, cols)
        v, d = _snf_reduce(core, want_v=True)
        core_diagonal = _nonzero_diagonal(d)
        diagonal += core_diagonal
        rank = len(core_diagonal)
        k = core.cols - rank
        for i, t, e in v.nonzeros():
            if t >= rank:
                kernel.setdefault(live[i], {})[t - rank] = e
    for j in sorted(set(range(a.cols)).difference(live, (q for q, _, _ in pivots))):
        kernel[j] = {k: 1}
        k += 1
    for q, pivot, prow in reversed(pivots):
        acc: dict[int, int] = {}
        for j, e in prow.items():
            for t, x in kernel.get(j, _EMPTY_ROW).items():
                acc[t] = acc.get(t, 0) - pivot * e * x
        kernel[q] = {t: x for t, x in acc.items() if x}
    basis = tuple(kernel.get(j, _EMPTY_ROW) for j in range(a.cols))
    return IntMatrix._wrap(a.cols, k, basis), diagonal
