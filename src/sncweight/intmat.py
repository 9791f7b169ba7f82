"""Exact integer matrices stored as sparse rows, and the Smith normal form engine.

A matrix keeps one dict of nonzero entries per row, so building,
multiplying, stacking and comparing cost the nonzeros, not rows x cols;
every block matrix, stacking included, is written by from_blocks, and a
row that several blocks share is one dict that each of them writes in
place, so sharing costs no more than the entries written.
Every matrix entry in this package is a Python int: the constructors
refuse any value whose type is not exactly int, bools and floats alike.
So all arithmetic is arbitrary precision: normal-form pivoting can blow
up intermediate entries, and fixed-width overflow would silently corrupt
torsion coefficients.

smith_diagonal is one elimination on a copy of the sparse rows, and
tracks no transform.  Its unit phase eliminates the +-1 entries in an
order fixed up front, and a unit pivot alone in its row updates no
entry: it only takes its column out of the other rows.  On the
unit-free core that is left, Euclid steps pivot on an entry of minimal
absolute value (first such entry in (row, column) order), which keeps
intermediate entries small at the sizes used here and makes every
reduction reproducible.  Before the first Euclid step it refuses a
core whose work estimate rows x cols x min(rows, cols) is over
MAX_DENSE_WORK.  The pivots it records form a diagonal form, and
invariant_factors turns them into the divisibility chain by gcd/lcm
exchanges.

smith_diagonal also reports the rows its unit phase pivoted on before
the first Euclid step, and takes a set of columns to leave out.  That
is the clearing rule of a cochain complex (Chen-Kerber, "Persistent
homology computation with a twist", 2011), restricted to unit pivots so
that it holds over Z.  Suppose D' * D = 0, and the unit phase on D
pivots on row p, column q, before any Euclid step.  Each of its row
operations "row i -= f * row p" is D -> L * D, and D' -> D' * L^-1 only
adds a multiple of column i to column p.  Once column q of D is cleared
to +-e_p it stays so, and D' * L^-1 * (L * D) = 0 makes column p of
D' * L^-1 zero.  Since these operations only change columns that are
pivot rows, leaving those columns out of D' keeps its column lattice,
so its nonzero invariant factors are unchanged; and D' without them
still composes to zero with the next differential, so the rule chains
through a complex.  A pivot taken after a Euclid step does not qualify:
a Euclid row operation adds a multiple of a core row, which changes
that row's column of D', a column that is kept, so a unit that a
deferred column regains then is not covered by the argument.

column_echelon makes a relation matrix injective: it keeps a lower
column-echelon basis of the column span, counting its entry updates
against MAX_DENSE_WORK too.  Its one caller is the constructor of a
presented group (abgroup.FpAbPresentation), so each group's relations
are echelonized once, where the group is built.  echelon_lift solves
E * X = B on such a basis by forward substitution on its pivot rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence, Set as AbstractSet
from itertools import compress
from math import gcd

__all__ = [
    "DenseWorkTooLargeError",
    "IntMatrix",
    "MAX_DENSE_WORK",
    "column_echelon",
    "echelon_lift",
    "invariant_factors",
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
        """The matrix with the given rows, cols wide (the first row's length if None).

        Each entry's type is tested once, a list or tuple row is read
        without a copy, and each row's nonzeros are picked at C level.
        """
        rows = [_int_entries(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        # Every entry is an int, so an entry is picked exactly when it is nonzero.
        return cls._wrap(len(rows), cols, tuple([dict(compress(enumerate(r), r)) for r in rows]))

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
        block costs the rows and nonzeros it writes: the first block to
        reach a row makes that row's dict, each later one writes its
        entries into that dict and finds an entry written twice by the
        dict's length, every other row is one shared empty row, and no row
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
                        target = out[at]
                        if target is _EMPTY_ROW:
                            out[at] = ({shift + j * step: sign * e for j, e in row.items()}
                                       if shift or step != 1 or sign != 1 else row.copy())
                        else:
                            # target is this matrix's own dict: write into it,
                            # and an entry written twice leaves it short.
                            size = len(target)
                            for j, e in row.items():
                                target[shift + j * step] = sign * e
                            if len(target) != size + len(row):
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

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)

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


def _int_entries(entries: Iterable[int]) -> Sequence[int]:
    # A list or tuple is only read here and by the callers, never kept, so it is not copied.
    data = entries if type(entries) is list or type(entries) is tuple else list(entries)
    if not {int}.issuperset(map(type, data)):
        bad = next(e for e in data if type(e) is not int)
        raise TypeError(f"matrix entries must be integers, got {type(bad).__name__}")
    return data


MAX_DENSE_WORK = 10**8


class DenseWorkTooLargeError(ValueError):
    """A Smith core or a column echelon whose work is over MAX_DENSE_WORK."""


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """The invariant factors > 1 of Z/o_1 x ... x Z/o_k, for positive orders o_i.

    Pairwise (gcd, lcm) exchanges of neighbours keep the group and sort
    every prime's exponents into ascending position, which is exactly the
    divisibility chain (Cohen, GTM 138, section 2.4).

    >>> invariant_factors([6, 1, 4])
    (2, 12)
    """
    factors = [o for o in orders if o > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a // g * b
                changed = True
    return tuple(f for f in factors if f > 1)


def smith_diagonal(
    a: IntMatrix, skip: AbstractSet[int] = frozenset()
) -> tuple[tuple[int, ...], frozenset[int]]:
    """The nonzero invariant factors of a, each dividing the next, and the rows cleared.

    The columns in skip are left out from the start, so the core, and the
    budget it is charged, hold only the columns kept; an empty skip set is
    the plain reduction.  When a * prev = 0 and skip holds rows that the
    reduction of prev cleared, each skipped column of a is an integer
    combination of the kept ones, so the diagonal is a's own (the clearing
    rule in the module docstring).  The rows cleared are those of the unit
    pivots taken before the first Euclid step, and only those: a Euclid
    row operation rewrites a core row, so a unit regained after it does
    not make the next matrix's column redundant.

    One elimination on a copy of the rows, the skipped columns dropped as
    they are copied.  Its unit phase takes the columns from a first-in
    first-out queue, sorted once by (initial nonzero count, index).  A
    popped column's pivot is its +-1 entry in the currently shortest
    row, ties going to the lowest row, found in one pass over the
    column; a pivot alone in its row only takes its column's entry off
    the other rows.  A column with no unit entry is deferred.  When the
    queue first runs dry, the rows and columns that still hold an entry
    are the unit-free core, and a core of r rows and c columns with
    r x c x min(r, c) over MAX_DENSE_WORK raises DenseWorkTooLargeError.
    From then on, while the queue is dry, each Euclid step pivots on an
    entry of least absolute value, the first in (row, column) order, and
    clears its column by floor-quotient row operations, then its row by
    column operations; a pivot left alone in its row and column is
    recorded.  An update that sets an entry of a deferred column to +-1
    puts that column back on the end of the queue, so no unit is ever a
    Euclid pivot.  Each unit pivot is an invariant factor 1, and the
    recorded pivots are a diagonal form of the rest (see
    invariant_factors).

    >>> smith_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]]))
    ((2, 4), frozenset())
    >>> smith_diagonal(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    ((1, 1, 2), frozenset({0, 1}))
    >>> diagonal, cleared = smith_diagonal(IntMatrix.from_rows([[1], [1]]))
    >>> diagonal, cleared
    ((1,), frozenset({0}))
    >>> smith_diagonal(IntMatrix.from_rows([[1, -1]]), cleared)
    ((1,), frozenset({0}))
    >>> smith_diagonal(IntMatrix.zeros(0, 3))
    ((), frozenset())
    """
    rows = {}
    for i, row in enumerate(a._rows):
        row = (row.copy() if skip.isdisjoint(row)
               else {j: e for j, e in row.items() if j not in skip})
        if row:
            rows[i] = row
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            members = cols.get(j)
            if members is None:
                cols[j] = {i}
            else:
                members.add(i)
    # Sorted by index, then stably by count: (count, index) order.
    queue = deque(sorted(sorted(cols), key=lambda j: len(cols[j])))
    deferred = set()

    def subtract(i, f, vec):
        # Row i -= f * vec, for a nonzero f; every column of vec is a key of cols.
        row = rows[i]
        for j, e in vec.items():
            v = row.get(j)
            if v is None:
                v = row[j] = -f * e
                cols[j].add(i)
            else:
                v -= f * e
                if not v:
                    del row[j]
                    cols[j].discard(i)
                    continue
                row[j] = v
            if (v == 1 or v == -1) and j in deferred:
                deferred.discard(j)
                queue.append(j)
        if not row:
            del rows[i]

    units, pivots, cleared, checked = 0, [], [], False
    while rows:
        if queue:
            q = queue.popleft()
            p = None  # the unit of column q in the shortest row, ties to the lowest
            for i in cols[q]:
                row = rows[i]
                e = row[q]
                if e == 1 or e == -1:
                    n = len(row)
                    if p is None or n < shortest or (n == shortest and i < p):
                        p, shortest = i, n
            if p is None:
                deferred.add(q)
                continue
            prow = rows.pop(p)
            pivot = prow.pop(q)
            others = cols.pop(q)
            others.discard(p)
            if prow:
                for j in prow:
                    cols[j].discard(p)
                for i in others:
                    subtract(i, rows[i].pop(q) * pivot, prow)
            else:
                # A pivot alone in its row only takes column q off the others.
                for i in others:
                    row = rows[i]
                    del row[q]
                    if not row:
                        del rows[i]
            units += 1
            if not checked:
                cleared.append(p)
            continue
        if not checked:
            m, n = len(rows), sum(1 for members in cols.values() if members)
            if m * n * min(m, n) > MAX_DENSE_WORK:
                raise DenseWorkTooLargeError(
                    f"a {m}x{n} dense Smith reduction would take about {m * n * min(m, n)} "
                    f"entry updates, more than {MAX_DENSE_WORK}"
                )
            checked = True
        least = None
        for i, row in rows.items():
            e = min(map(abs, row.values()))
            if least is None or e < least:
                least, p = e, i
        prow = rows[p]
        q = min(j for j, e in prow.items() if abs(e) == least)
        pivot = prow[q]
        for i in [i for i in cols[q] if i != p]:
            subtract(i, rows[i][q] // pivot, prow)
        quotients = {j: g for j, g in ((j, e // pivot) for j, e in prow.items() if j != q) if g}
        if quotients:
            for i in cols[q]:
                subtract(i, rows[i][q], quotients)
        if len(prow) == 1 and len(cols[q]) == 1:
            pivots.append(least)
            del rows[p]
            del cols[q]
            deferred.discard(q)
    torsion = invariant_factors(pivots)
    return (1,) * (units + len(pivots) - len(torsion)) + torsion, frozenset(cleared)


def _columns(a: IntMatrix) -> list[dict[int, int]]:
    """One dict {row: entry} per column of a."""
    out: list[dict[int, int]] = [{} for _ in range(a.cols)]
    for i, row in enumerate(a._rows):
        for j, e in row.items():
            out[j][i] = e
    return out


def _subtract(c: dict[int, int], q: int, p: dict[int, int]) -> None:
    """c -= q * p, on sparse vectors."""
    for i, e in p.items():
        v = c.get(i, 0) - q * e
        if v:
            c[i] = v
        else:
            c.pop(i, None)


def column_echelon(a: IntMatrix) -> IntMatrix:
    """A lower column-echelon basis of the column span of a.

    Row by row from the top, the columns whose first nonzero entry lies
    in that row are folded into one by Euclid's algorithm, and a column
    whose entry there becomes zero moves on to its next nonzero row.
    Only columns that share a row are combined, so a block-diagonal a
    gives a block-diagonal basis.  Each column update is charged its
    nonzeros; over MAX_DENSE_WORK in all it raises DenseWorkTooLargeError.

    >>> column_echelon(IntMatrix.from_rows([[2, 2, 4], [0, 2, 6]]))
    IntMatrix.from_rows([[2, 0], [0, 2]])
    """
    if not a.cols:
        return a
    waiting: dict[int, list[dict[int, int]]] = {}  # first nonzero row -> its columns
    for col in _columns(a):
        if col:
            waiting.setdefault(min(col), []).append(col)
    basis, work = [], 0
    for r in range(a.rows):
        group = waiting.pop(r, ())
        while len(group) > 1:
            p = min(group, key=lambda c: abs(c[r]))
            work += len(p) * (len(group) - 1)
            if work > MAX_DENSE_WORK:
                raise DenseWorkTooLargeError(f"a {a.rows}x{a.cols} column echelon takes "
                                             f"more than {MAX_DENSE_WORK} entry updates")
            for c in group:
                if c is not p:
                    _subtract(c, c[r] // p[r], p)
                    if c and r not in c:
                        waiting.setdefault(min(c), []).append(c)
            group = [c for c in group if r in c]
        basis += group
    return IntMatrix.from_entries(a.rows, len(basis), (
        (i, k, e) for k, col in enumerate(basis) for i, e in col.items()))


def echelon_lift(e: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix x with e * x = b, for a basis e from column_echelon.

    Forward substitution: in pivot order, each column of e is taken off
    each column of b as many times as clears its pivot row.  A column of
    b that is not cleared is outside the span of e: ValueError.

    >>> echelon_lift(IntMatrix.from_rows([[2, 0], [1, 3]]), IntMatrix.from_rows([[4], [5]]))
    IntMatrix.from_rows([[2], [1]])
    """
    if e.rows != b.rows:
        raise ValueError("row counts differ")
    pivots = [(min(col), col) for col in _columns(e)]
    entries = []
    for j, y in enumerate(_columns(b)):
        for k, (r, col) in enumerate(pivots):
            if r in y:
                q = y[r] // col[r]
                _subtract(y, q, col)
                entries.append((k, j, q))
        if y:
            raise ValueError(f"column {j} is not in the column span")
    return IntMatrix.from_entries(e.cols, b.cols, entries)
