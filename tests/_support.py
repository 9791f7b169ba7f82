"""Shared test helpers: independent oracles, random input generators and record checks.

The reduction oracle here deliberately mirrors none of the package
internals: rank is computed over the rationals with Fraction arithmetic,
and torsion comes from a Bezout-transform diagonalization that picks the
first nonzero pivot instead of the minimal one.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest

from sncweight.abgroup import FgAbGroup, FpAbPresentation, in_span, is_well_defined
from sncweight.builders import point_snc, punctured_curve_snc
from sncweight.checks import _nerve_identity_report, product_snc
from sncweight.dual import (
    GroupPresentation,
    contractibility_report,
    edge_path_presentation,
    nerve,
    real_projective_plane,
    reduced_cohomology,
    simplify_presentation,
)
from sncweight.chain import CochainComplex
from sncweight.intmat import IntMatrix, smith_diagonal
from sncweight.reports import Report
from sncweight.sncdata import SncDatum, StratumData


def difference(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a - b, entry by entry over dense rows; the shapes must agree."""
    assert a.shape == b.shape, (a.shape, b.shape)
    return IntMatrix.from_rows(
        [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.to_rows(), b.to_rows())], a.cols)


def check_nerve_identity(s: SncDatum):
    """The nerve-identity suite on s, with the nerve's cohomology from dual as check runs it."""
    return _nerve_identity_report(s, lambda datum: reduced_cohomology(nerve(datum)))


# Every builder family at small sizes.  Builders and products are valid by
# construction and are not validated when built; tests that validate these
# from scratch stand in for that skipped runtime check.
BUILDER_SPECS = (
    ["point"]
    + [f"affine:{d}" for d in range(1, 5)]
    + [f"torus:{n}" for n in range(1, 5)]
    + [f"curve:{g},{n}" for g in range(3) for n in range(1, 4)]
)


def contractibility(s: SncDatum, budget: int = 10_000):
    """The contractibility report of s's dual boundary complex, as `dual` builds it."""
    k = nerve(s)
    h = reduced_cohomology(k)
    simplified = None if h else simplify_presentation(edge_path_presentation(k), budget)
    return contractibility_report(h, simplified)


# ---------------------------------------------------------------------------
# Independent linear-algebra oracle


def rational_rank(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = m[rank][col]
        m[rank] = [x / scale for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def oracle_diagonalize(rows: list[list[int]]) -> list[int]:
    """Diagonalize by 2x2 Bezout row and column transforms; no divisibility fix."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    t = 0
    while t < min(n_rows, n_cols):
        piv = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if m[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, n_rows):
                if m[i][t]:
                    a, b = m[t][t], m[i][t]
                    if b % a == 0:
                        q = b // a
                        for j in range(n_cols):
                            m[i][j] -= q * m[t][j]
                    else:
                        x, y, g = _xgcd(a, b)
                        ag, bg = a // g, b // g
                        for j in range(n_cols):
                            u, v = m[t][j], m[i][j]
                            m[t][j] = x * u + y * v
                            m[i][j] = -bg * u + ag * v
            if all(m[t][j] == 0 for j in range(t + 1, n_cols)):
                break
            for j in range(t + 1, n_cols):
                if m[t][j]:
                    a, b = m[t][t], m[t][j]
                    if b % a == 0:
                        q = b // a
                        for i in range(n_rows):
                            m[i][j] -= q * m[i][t]
                    else:
                        x, y, g = _xgcd(a, b)
                        ag, bg = a // g, b // g
                        for i in range(n_rows):
                            u, v = m[i][t], m[i][j]
                            m[i][t] = x * u + y * v
                            m[i][j] = -bg * u + ag * v
            if all(m[i][t] == 0 for i in range(t + 1, n_rows)):
                break
        t += 1
    return [abs(m[i][i]) for i in range(min(n_rows, n_cols))]


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of m over GF(p), p prime, by row reduction on sparse rows.

    Each row is reduced by the pivot rows of its leading column until it
    vanishes or leads in a new column; its entries stay below p.
    """
    rows: dict[int, dict[int, int]] = {}
    for i, j, e in m.nonzeros():
        if e % p:
            rows.setdefault(i, {})[j] = e % p
    pivots: dict[int, dict[int, int]] = {}  # leading column -> monic reduced row
    for row in rows.values():
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                inverse = pow(row[top], -1, p)
                pivots[top] = {j: e * inverse % p for j, e in row.items()}
                break
            q = row[top]
            for j, e in pivot.items():
                v = (row.get(j, 0) - q * e) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
    return len(pivots)


def oracle_invariant_factors(orders) -> tuple[int, ...]:
    """Normalize cyclic orders into a divisibility chain by pair exchanges."""
    factors = [abs(o) for o in orders if abs(o) > 1]
    done = False
    while not done:
        done = True
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    done = False
    return tuple(sorted(f for f in factors if f > 1))


def oracle_canonical_form(generators: int, relation_rows: list[list[int]]):
    """(free_rank, invariant factors) of Z^generators modulo the column span."""
    if not relation_rows:
        relation_rows = [[] for _ in range(generators)]
    diag = oracle_diagonalize(relation_rows)
    rank = rational_rank(relation_rows)
    assert rank == sum(1 for x in diag if x), "oracle self-check failed"
    return generators - rank, oracle_invariant_factors(diag)


def oracle_in_span(m: IntMatrix, span: IntMatrix) -> bool:
    """Whether every column of m lies in the column span of span.

    span lies in span | m, so Z^n / span maps onto Z^n / (span | m).
    Finitely generated abelian groups are Hopfian, so the two lattices
    are equal exactly when the two quotients have the same Bezout
    invariant factors.
    """
    rows = span.to_rows()
    joined = [r + e for r, e in zip(rows, m.to_rows())]
    return oracle_canonical_form(m.rows, rows) == oracle_canonical_form(m.rows, joined)


def _fmt(I: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


def oracle_square_problems(s: SncDatum) -> list[str]:
    """The commuting squares whose two paths differ, one square at a time.

    The per-square loop that validate used before it read the squares
    off d after d: for each subset I, each pair i < j in I and each degree
    b, the paths J -> I minus i -> I and J -> I minus j -> I are plain
    products of the stored maps, a missing map giving the zero matrix of
    the square's shape, and they agree when their difference lies in the
    target's relation span, decided here by oracle_in_span.  s must pass
    validate's structure checks.
    """
    def path(outer, inner, shape):
        return IntMatrix.zeros(*shape) if outer is None or inner is None else outer * inner

    problems = []
    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        for i, j in combinations(I, 2):
            Ii = tuple(x for x in I if x != i)
            Ij = tuple(x for x in I if x != j)
            J = tuple(x for x in I if x != i and x != j)
            source_coh = s.strata[J].cohomology
            outer_i, outer_j = stratum.restrictions.get(i, {}), stratum.restrictions.get(j, {})
            inner_i, inner_j = s.strata[Ii].restrictions.get(j, {}), s.strata[Ij].restrictions.get(i, {})
            for b in sorted(source_coh.keys() & stratum.cohomology.keys()):
                target = stratum.cohomology[b]
                shape = (target.generators, source_coh[b].generators)
                via_i = path(outer_i.get(b), inner_i.get(b), shape)
                via_j = path(outer_j.get(b), inner_j.get(b), shape)
                if via_i != via_j and not oracle_in_span(difference(via_i, via_j),
                                                         target.relations):
                    problems.append(
                        f"commuting squares: paths {_fmt(J)} -> {_fmt(Ii)} -> {_fmt(I)} and "
                        f"{_fmt(J)} -> {_fmt(Ij)} -> {_fmt(I)} differ in degree {b}"
                    )
    return problems


def verify_complex(c: CochainComplex) -> Report:
    """Check every differential is well defined and every d(a+1) after d(a) is zero.

    chain.cohomology takes both as its precondition and checks neither;
    the program's complexes hold them by construction, and validate
    decides them for a datum's weight complexes on the blocks of each
    d after d.  This checks them complex by complex.  Both are span
    tests in the target's relations: a differential maps its source's
    relations into them, and a composite need only vanish modulo them.
    The report lists each failure by degree.
    """
    problems = []
    for i, (d, g) in enumerate(zip(c.differentials, c.groups)):
        if not is_well_defined(d, g, c.groups[i + 1]):
            problems.append(f"degree {c.min_degree + i}: differential is not well defined")
    for i, (d, e) in enumerate(zip(c.differentials, c.differentials[1:])):
        if not in_span(e * d, c.groups[i + 2]):
            problems.append(f"degree {c.min_degree + i}: d after d is nonzero")
    return Report("d-squared", not problems, tuple(problems))


def unit_phase_pivot_rows(a: IntMatrix) -> set[int]:
    """The rows of a that smith_diagonal's documented unit phase pivots on.

    A plain transcription of the rule, on dense rows: the columns are
    queued by (nonzero count, index); a popped column's pivot is its +-1
    entry in the shortest row, ties to the lowest row, and it is cleared
    out of the other rows; a column without a unit is deferred, and goes
    back on the end of the queue when an update makes one of its entries
    +-1.  It stops when the queue first runs dry or no row is left.
    """
    rows = {i: list(a.row(i)) for i in range(a.rows) if any(a.row(i))}
    count = [sum(1 for row in rows.values() if row[j]) for j in range(a.cols)]
    queue = deque(sorted((j for j in range(a.cols) if count[j]), key=lambda j: (count[j], j)))
    deferred, pivot_rows = set(), set()
    while queue and rows:
        q = queue.popleft()
        units = [(sum(map(bool, row)), i) for i, row in rows.items() if row[q] in (1, -1)]
        if not units:
            deferred.add(q)
            continue
        p = min(units)[1]
        pivot_rows.add(p)
        prow = rows.pop(p)
        for i, row in sorted(rows.items()):
            f = row[q] * prow[q]
            if f:
                for j, e in enumerate(prow):
                    if not e:
                        continue
                    row[j] -= f * e
                    if row[j] in (1, -1) and j in deferred:
                        deferred.discard(j)
                        queue.append(j)
                if not any(row):
                    del rows[i]
    return pivot_rows


def check_smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Assert what the package reads of smith_diagonal(a), and return the diagonal.

    The diagonal is positive and forms a divisibility chain; its length
    is the rank, and its entries > 1 are the Bezout oracle's invariant
    factors.  The rows cleared are the pivot rows of the documented unit
    phase (unit_phase_pivot_rows), at most one per unit of the diagonal.
    """
    got, cleared = smith_diagonal(a)
    assert cleared == unit_phase_pivot_rows(a)
    assert len(cleared) <= got.count(1)
    assert all(x > 0 for x in got)
    assert all(y % x == 0 for x, y in zip(got, got[1:]))
    free, torsion = oracle_canonical_form(a.rows, a.to_rows())
    assert len(got) == a.rows - free and tuple(x for x in got if x > 1) == torsion
    return got


def oracle_kernel_basis(rows: list[list[int]], n_cols: int) -> list[list[int]]:
    """A Z-basis of {x : A x = 0} as columns, by 2x2 Bezout column moves on [A; I].

    Row by row, the columns past the pivots found so far are folded into
    the first of them, so the pivot columns end in column echelon form;
    the bottom parts of the columns left with a zero top form the basis.
    """
    m = len(rows)
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(n_cols)] for j in range(n_cols)]
    done = 0
    for i in range(m):
        if done == n_cols:
            break
        for j in range(done + 1, n_cols):
            a, b = cols[done][i], cols[j][i]
            if b:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                u, v = cols[done], cols[j]
                cols[done] = [x * p + y * q for p, q in zip(u, v)]
                cols[j] = [-bg * p + ag * q for p, q in zip(u, v)]
        if cols[done][i]:
            done += 1
    return [c[m:] for c in cols[done:]]


def oracle_subquotient(m: int, d_in: list[list[int]], d_out: list[list[int]],
                       middle_rels: list[list[int]], target_rels: list[list[int]]):
    """(free_rank, invariant factors) of ker(d_out) / im(d_in) on Z^m modulo middle_rels.

    All matrices come as dense rows: d_in and middle_rels have m rows,
    d_out and target_rels have the same row count.  The cocycles are the
    top m coordinates of the kernel of [d_out | target_rels]; the
    relations among them are the top coordinates of the kernel of
    [cocycles | d_in | middle_rels].
    """
    outer = [list(a) + list(b) for a, b in zip(d_out, target_rels)]
    n_outer = m + (len(target_rels[0]) if target_rels else 0)
    cocycles = [c[:m] for c in oracle_kernel_basis(outer, n_outer)]
    k = len(cocycles)
    inner = [[c[i] for c in cocycles] + list(d_in[i]) + list(middle_rels[i]) for i in range(m)]
    n_inner = k + (len(d_in[0]) if d_in else 0) + (len(middle_rels[0]) if middle_rels else 0)
    rels = [c[:k] for c in oracle_kernel_basis(inner, n_inner)]
    return oracle_canonical_form(k, [[c[i] for c in rels] for i in range(k)])


def oracle_cochain_cohomology(dims: list[int], deltas: list[list[list[int]]]):
    """Cohomology of a complex of free groups straight from coboundary matrices.

    dims[i] is the rank in degree i; deltas[i] maps degree i to i + 1 and
    is given as dims[i+1] x dims[i] rows.  Torsion in degree i equals the
    nontrivial invariant factors of deltas[i-1]; ranks come from rational
    ranks alone.
    """
    out = {}
    ranks = [rational_rank(d) for d in deltas]
    for i, dim in enumerate(dims):
        rank_out = ranks[i] if i < len(deltas) else 0
        rank_in = ranks[i - 1] if i >= 1 else 0
        free = dim - rank_out - rank_in
        torsion = oracle_invariant_factors(oracle_diagonalize(deltas[i - 1])) if i >= 1 else ()
        if free or torsion:
            out[i] = (free, torsion)
    return out


# ---------------------------------------------------------------------------
# Record semantics


def check_record(cls, fields, values, equal_values, other_values, hashable=True):
    """Assert the value semantics every immutable record class keeps.

    fields names the constructor parameters in order.  values and
    equal_values are equal arguments built as distinct objects;
    other_values differ from them.  Construction by position and by
    keyword agree; equality is by value and never holds against another
    class with the same field values, a subclass included; equal values
    hash equal (when the fields are hashable); fields can be neither
    assigned nor deleted and no attribute can be added; instances have no
    __dict__; repr names every field.
    """
    a = cls(*values)
    b = cls(**dict(zip(fields, equal_values)))
    c = cls(*other_values)
    assert a == b and not a != b
    assert a != c and not a == c
    if hashable:
        assert hash(a) == hash(b)
    look_alike = SimpleNamespace(**{name: getattr(a, name) for name in fields})
    assert a.__eq__(look_alike) is NotImplemented
    assert a != look_alike and look_alike != a
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    assert a != subclass(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert a == b
    text = repr(a)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}=" in text for name in fields), text


# ---------------------------------------------------------------------------
# Random inputs


def random_matrix(rng: random.Random, max_dim: int = 8, bound: int = 20) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])


def random_presentation(rng: random.Random, max_gens: int = 4, max_rels: int = 4,
                        bound: int = 4) -> FpAbPresentation:
    gens = rng.randint(0, max_gens)
    rels = rng.randint(0, max_rels)
    return FpAbPresentation(
        gens, IntMatrix(gens, rels, [rng.randint(-bound, bound) for _ in range(gens * rels)])
    )


def random_unimodular(rng: random.Random, n: int,
                      steps: int = 10) -> tuple[IntMatrix, IntMatrix]:
    """A random n x n unimodular u, built from elementary row moves, and its inverse.

    Each move u <- e * u is undone on the inverse by u^-1 <- u^-1 * e^-1,
    a column move, so the inverse costs no reduction.
    """
    m = IntMatrix.identity(n).to_rows()
    inv = IntMatrix.identity(n).to_rows()
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        op = rng.randint(0, 2)
        if op == 0:
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
            for r in inv:
                r[j] -= q * r[i]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        else:
            m[i] = [-a for a in m[i]]
            for r in inv:
                r[i] = -r[i]
    u, u_inv = IntMatrix.from_rows(m, n), IntMatrix.from_rows(inv, n)
    assert u * u_inv == IntMatrix.identity(n)
    return u, u_inv


def random_presented_complex(rng: random.Random, orders=(0, 0, 1, 2, 3, 4, 6)):
    """A seeded cochain complex of presented groups, and its cohomology by closed forms.

    The complex is a direct sum of pieces Z/m --k--> Z/n and one-term
    pieces Z/m, with 0 standing for Z and k chosen so that the map is well
    defined.  A two-term piece has coker Z/gcd(k, n), and its kernel is
    the subgroup of Z/m generated by n/gcd(n, k).  Each degree is then
    twisted by a unimodular change of basis, with its relations moved
    along and recombined.  Some groups get one more relation column, an
    integer combination of the others, so their relations are dependent.
    Some differentials d_a become d_a + R_(a+1) * X for a random X: the
    same map on the quotients, so the cohomology is unchanged, but then
    d after d is in general zero only modulo the relations.  Returns the
    complex, degree -> FgAbGroup (nonzero entries only), and the relation
    matrix of each group as drawn, before its group stores a basis of it.
    """
    min_degree = rng.randint(-2, 2)
    length = rng.randint(1, 4)
    rels = [[] for _ in range(length)]  # per degree, the order of each generator
    maps = [[] for _ in range(length - 1)]  # per step, (row, col, k)
    cyclic = [[] for _ in range(length)]  # per degree, cohomology orders (0 for Z)
    for _ in range(rng.randint(1, 5)):
        a = rng.randrange(length)
        m = rng.choice(orders)
        if a + 1 < length and rng.random() < 0.7:
            n = rng.choice(orders)
            if n:
                k = n // gcd(n, m) * rng.randint(-2, 2)
            else:
                k = 0 if m else rng.randint(-4, 4)
            maps[a].append((len(rels[a + 1]), len(rels[a]), k))
            rels[a + 1].append(n)
            t = n // gcd(n, k) if n or k else 1
            cyclic[a].append((0 if t else 1) if m == 0 else m // gcd(m, t))
            cyclic[a + 1].append(gcd(k, n))
        else:
            cyclic[a].append(m)
        rels[a].append(m)
    def small(rows, cols):
        return IntMatrix(rows, cols, [rng.choice((-1, 0, 0, 1, 2)) for _ in range(rows * cols)])

    twists = [random_unimodular(rng, len(r)) for r in rels]
    groups, drawn = [], []
    for (u, _), r in zip(twists, rels):
        cols = [[o if i == j else 0 for i in range(len(r))] for j, o in enumerate(r) if o]
        raw = FpAbPresentation.from_relation_columns(len(r), cols).relations
        relations = u * raw * random_unimodular(rng, raw.cols)[0]
        if relations.cols and rng.random() < 0.4:
            relations = relations.hstack(relations * small(relations.cols, 1))
        groups.append(FpAbPresentation(len(r), relations))
        drawn.append(relations)
    diffs = []
    for a, entries in enumerate(maps):
        raw = IntMatrix.from_entries(len(rels[a + 1]), len(rels[a]), entries)
        moved = twists[a + 1][0] * raw * twists[a][1]
        # Drawn from the matrix as made, so the random stream does not
        # depend on how many columns its group keeps.
        target = drawn[a + 1]
        if target.cols and rng.random() < 0.7:
            moved = difference(moved, target * small(target.cols, len(rels[a])))
        diffs.append(moved)
    expected = {}
    for a, found in enumerate(cyclic):
        h = FgAbGroup.from_cyclic_orders([o for o in found if o], found.count(0))
        if not h.is_zero:
            expected[min_degree + a] = h
    return CochainComplex(min_degree, tuple(groups), tuple(diffs)), expected, drawn


def _random_curve_datum(rng: random.Random) -> SncDatum:
    g = rng.randint(0, 2)
    n = rng.randint(1, 3)
    return punctured_curve_snc(g, n)


def _random_surface_datum(rng: random.Random) -> SncDatum:
    """Two curves in a surface meeting at one point; random middle-degree maps."""
    one = IntMatrix.identity(1)
    r1 = rng.randint(0, 2)

    def rand(rows, cols):
        return IntMatrix(rows, cols, [rng.randint(-2, 2) for _ in range(rows * cols)])

    top = {0: FpAbPresentation.free(1), 2: FpAbPresentation.free(2)}
    if r1:
        top[1] = FpAbPresentation.free(r1)
    strata = {(): StratumData(top, {})}
    for i in (1, 2):
        ri = rng.randint(0, 2)
        coh = {0: FpAbPresentation.free(1), 2: FpAbPresentation.free(1)}
        if ri:
            coh[1] = FpAbPresentation.free(ri)
        res = {0: one, 2: rand(1, 2)}
        if ri and r1:
            res[1] = rand(ri, r1)
        strata[(i,)] = StratumData(coh, {i: res})
    strata[(1, 2)] = StratumData(
        {0: FpAbPresentation.free(1)}, {1: {0: one}, 2: {0: one}}
    )
    return SncDatum(2, 2, strata)


def _random_hypersurface_datum(rng: random.Random) -> SncDatum:
    """Projective-space style compactification with random even-degree pullbacks."""
    d = rng.randint(1, 2)
    total = {2 * j: FpAbPresentation.free(1) for j in range(d + 1)}
    boundary = {2 * j: FpAbPresentation.free(1) for j in range(d)}
    res = {0: IntMatrix.identity(1)}
    for j in range(1, d):
        res[2 * j] = IntMatrix.from_rows([[rng.randint(-3, 3)]])
    return SncDatum(d, 1, {
        (): StratumData(total, {}),
        (1,): StratumData(boundary, {1: res}),
    })


def curve_chain_datum(rng: random.Random, n: int, m: int, b1: int) -> SncDatum:
    """A surface with a chain of n boundary curves whose H^1 carry relations.

    Curve i meets curve i+1 in a point.  Each H^1(C_i) is Z^m modulo two
    random relation columns with entries in [-3, 3], and each restriction
    from the surface's H^1 = Z^b1 has entries in [-2, 2].  So the weight
    complex in degree 1 has the total differential D_0 = [d | relations],
    at most (n m) x (b1 + 2n).
    """
    def free(k):
        return FpAbPresentation.free(k)

    def rand(rows, cols, bound):
        return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])

    one = IntMatrix.identity(1)
    total = {0: free(1), 1: free(b1), 2: free(1), 3: free(b1), 4: free(1)}
    strata = {(): StratumData(total, {})}
    for i in range(1, n + 1):
        h1 = FpAbPresentation(m, rand(m, 2, 3))
        strata[(i,)] = StratumData({0: free(1), 1: h1, 2: free(1)}, {i: {
            0: one, 1: rand(m, b1, 2), 2: IntMatrix.from_rows([[rng.choice((1, 2, 3))]]),
        }})
    for i in range(1, n):
        strata[(i, i + 1)] = StratumData({0: free(1)}, {i: {0: one}, i + 1: {0: one}})
    return SncDatum(2, n, strata)


def sparse_restriction_datum(n: int, k: int, seed: int,
                             relations: IntMatrix | None = None) -> SncDatum:
    """A surface with one boundary curve and an n x n sparse restriction in degree 1.

    The surface and the curve both have H^0 = Z, H^1 = Z^n and H^2 = Z,
    and the curve's H^1 is taken modulo relations (n rows) when given.
    Each column of the degree-1 restriction holds k entries +-1, at rows
    and with signs drawn from random.Random(seed); the other restrictions
    are the identity of Z.  The degree-1 weight complex is that matrix,
    from Z^n to the curve's H^1.
    """
    rng = random.Random(seed)
    entries = [(i, j, rng.choice((1, -1))) for j in range(n) for i in rng.sample(range(n), k)]
    one = IntMatrix.identity(1)
    h1 = FpAbPresentation.free(n) if relations is None else FpAbPresentation(n, relations)
    total = {0: FpAbPresentation.free(1), 1: FpAbPresentation.free(n), 2: FpAbPresentation.free(1)}
    curve = {0: FpAbPresentation.free(1), 1: h1, 2: FpAbPresentation.free(1)}
    return SncDatum(2, 1, {
        (): StratumData(total, {}),
        (1,): StratumData(curve, {1: {0: one, 1: IntMatrix.from_entries(n, n, entries), 2: one}}),
    })


def random_valid_datum(rng: random.Random, max_factors: int = 3) -> SncDatum:
    """A random valid datum: a product of random low-dimensional pieces."""
    makers = [_random_curve_datum, _random_surface_datum, _random_hypersurface_datum]
    count = rng.randint(1, max_factors)
    out = point_snc()
    for _ in range(count):
        out = product_snc(out, rng.choice(makers)(rng))
    return out


# ---------------------------------------------------------------------------
# Product oracle
#
# The product by definition, on dense lists: every restriction block is a
# Kronecker product of the factor's map with a dense identity, and each
# degree's matrix is assembled block by block, zero blocks included.


def disjoint_fibres_json() -> dict:
    """P^1 x P^1 with two disjoint fibres {0} x P^1 and {oo} x P^1 as boundary.

    The two components do not meet, so the datum stores no stratum {1, 2}.
    """
    point_line = {"0": {"generators": 1}, "2": {"generators": 1}}
    return {"dim": 2, "components": 2, "strata": [
        {"subset": [],
         "cohomology": {"0": {"generators": 1}, "2": {"generators": 2}, "4": {"generators": 1}},
         "restrictions": {}},
        {"subset": [1], "cohomology": point_line,
         "restrictions": {"1": {"0": [[1]], "2": [[0, 1]]}}},
        {"subset": [2], "cohomology": point_line,
         "restrictions": {"2": {"0": [[1]], "2": [[0, 1]]}}},
    ]}


def _dense_kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _dense_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _ranks(s: SncDatum, I: tuple[int, ...]) -> dict[int, int]:
    return {b: p.generators for b, p in sorted(s.strata[I].cohomology.items()) if p.generators}


def _tensor_pieces(rx: dict[int, int], ry: dict[int, int]) -> dict[int, list[tuple[int, int]]]:
    pieces: dict[int, list[tuple[int, int]]] = {}
    for p in rx:
        for q in ry:
            pieces.setdefault(p + q, []).append((p, q))
    return dict(sorted(pieces.items()))


def reference_product(sx: SncDatum, sy: SncDatum) -> SncDatum:
    """The compactified product of two relation-free data, for product_snc to match.

    Strata are pairs in the factors' order; the degree-b generators are
    the (p, q) pieces with p + q = b, p ascending, each piece Z^m (x) Z^n
    with generator (i, k) at i * n + k.  A restriction on the left leg is
    R (x) I, on the right leg I (x) R, in the block of its own (p, q).
    """
    nx = sx.n_components
    strata = {}
    for ix in sx.nonempty_subsets():
        for iy in sy.nonempty_subsets():
            rx, ry = _ranks(sx, ix), _ranks(sy, iy)
            pieces = _tensor_pieces(rx, ry)
            restrictions = {}
            for e in ix + tuple(j + nx for j in iy):
                left = e <= nx
                if left:
                    src_x, src_y = _ranks(sx, tuple(x for x in ix if x != e)), ry
                    maps = sx.strata[ix].restrictions.get(e, {})
                else:
                    src_x, src_y = rx, _ranks(sy, tuple(y for y in iy if y != e - nx))
                    maps = sy.strata[iy].restrictions.get(e - nx, {})
                src_pieces = _tensor_pieces(src_x, src_y)
                per_degree = {}
                for b, tgt in pieces.items():
                    if b not in src_pieces:
                        continue
                    width = sum(src_x[p] * src_y[q] for p, q in src_pieces[b])
                    rows = []
                    for tp, tq in tgt:
                        height = rx[tp] * ry[tq]
                        blocks = []
                        for sp, sq in src_pieces[b]:
                            if (sp, sq) != (tp, tq):
                                blocks.append([[0] * (src_x[sp] * src_y[sq])] * height)
                            elif left:
                                eye = _dense_identity(ry[tq])
                                blocks.append(_dense_kron(maps[tp].to_rows(), eye))
                            else:
                                eye = _dense_identity(rx[tp])
                                blocks.append(_dense_kron(eye, maps[tq].to_rows()))
                        rows += [sum(parts, []) for parts in zip(*blocks)]
                    per_degree[b] = IntMatrix.from_rows(rows, width)
                if per_degree:
                    restrictions[e] = per_degree
            cohomology = {b: FpAbPresentation.free(sum(rx[p] * ry[q] for p, q in tgt))
                          for b, tgt in pieces.items()}
            strata[ix + tuple(j + nx for j in iy)] = StratumData(cohomology, restrictions)
    return SncDatum(sx.dim + sy.dim, nx + sy.n_components, strata)


# ---------------------------------------------------------------------------
# Tietze simplification oracle
#
# The reduction and key helpers are copies, not imports from dual, so that
# a change to the package's helpers cannot move the oracle along with it.


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def _canonical_relator(word: tuple[int, ...]) -> tuple[int, ...]:
    if not word:
        return word
    candidates = []
    for w in (word, tuple(-x for x in reversed(word))):
        for r in range(len(w)):
            candidates.append(w[r:] + w[:r])
    return min(candidates)


def oracle_simplify_presentation(p: GroupPresentation, budget: int = 10_000) -> GroupPresentation:
    """The quadratic Tietze loop that dual.simplify_presentation replaced, kept as its oracle.

    Moves used: free and cyclic reduction, dropping empty and duplicate
    relators, and eliminating a generator that occurs exactly once in
    some relator.  Every elimination re-sorts, rewrites, renumbers and
    re-keys every relator, and is charged one move per relator.
    """
    n = p.n_generators
    relators = [_cyclic_reduce(r) for r in p.relators]
    moves = 0

    def cleaned(rels: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for r in rels:
            r = _cyclic_reduce(r)
            if not r:
                continue
            key = _canonical_relator(r)
            if key in seen:
                continue
            seen.add(key)
            out.append(r)
        return out

    relators = cleaned(relators)
    while moves < budget:
        # Find a relator using some generator exactly once (over both signs).
        pick = None
        for r in sorted(relators, key=lambda w: (len(w), w)):
            counts: dict[int, int] = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            once = sorted(g for g, c in counts.items() if c == 1)
            if once:
                pick = (r, once[0])
                break
        if pick is None:
            break
        rel, gen = pick
        pos = next(i for i, x in enumerate(rel) if abs(x) == gen)
        rotated = rel[pos:] + rel[:pos]
        if rotated[0] == -gen:
            rotated = tuple(-x for x in reversed(rotated))
            rotated = rotated[-1:] + rotated[:-1]
        # rotated = gen . w, so gen = w^-1
        replacement = tuple(-x for x in reversed(rotated[1:]))

        def substitute(word: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for x in word:
                if x == gen:
                    out.extend(replacement)
                elif x == -gen:
                    out.extend(-y for y in reversed(replacement))
                else:
                    out.append(x)
            return tuple(out)

        new_relators = []
        for r in relators:
            if r == rel:
                continue
            new_relators.append(substitute(r))
            moves += 1
        moves += 1

        def renumber(word: tuple[int, ...]) -> tuple[int, ...]:
            out = []
            for x in word:
                a = abs(x)
                a = a - 1 if a > gen else a
                out.append(a if x > 0 else -a)
            return tuple(out)

        relators = cleaned([renumber(r) for r in new_relators])
        n -= 1
    return GroupPresentation(n, tuple(sorted(relators, key=lambda w: (len(w), w))))


# ---------------------------------------------------------------------------
# Triangulated surfaces, as 0-based triangle lists


def torus_grid(m: int, n: int) -> list[tuple[int, int, int]]:
    """An m x n grid of squares on the torus, each cut along the same diagonal (m, n >= 3)."""
    def v(i, j):
        return (i % m) * n + (j % n)

    return [t for i in range(m) for j in range(n)
            for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


def rp2_triangles() -> list[tuple[int, int, int]]:
    return [tuple(x - 1 for x in f) for f in sorted(real_projective_plane().faces_of_card(3))]


def connected_sum(s1: list, s2: list) -> list[tuple[int, ...]]:
    """Cut the first triangle out of s1 and the last out of s2, and glue the boundaries."""
    shift = max(map(max, s1)) + 1
    glue = dict(zip(s2[-1], s1[0]))
    tris = s1[1:] + [tuple(glue.get(u, u + shift) for u in t) for t in s2[:-1]]
    labels = {u: k for k, u in enumerate(sorted({u for t in tris for u in t}))}
    return [tuple(labels[u] for u in t) for t in tris]


def genus_two_surface() -> list[tuple[int, ...]]:
    return connected_sum(torus_grid(4, 5), torus_grid(5, 6))


def crosscap_surface() -> list[tuple[int, ...]]:
    """Three crosscaps: rp2 # T."""
    return connected_sum(rp2_triangles(), torus_grid(4, 5))


def point_strata_datum(facets: list) -> SncDatum:
    """The datum whose nerve is the complex of the facets (0-based labels).

    Vertex v is component v + 1.  Every face I is a stratum with H^0 = Z,
    every restriction is [1], and dim = max |I|.  Any finite simplicial
    complex is the dual complex of some snc pair (Kollar, "Simple normal
    crossing varieties with prescribed dual complex", Algebr. Geom. 1,
    2014), and the row b = 0 of the table depends only on the nerve.
    """
    faces = {tuple(v + 1 for v in face) for facet in facets
             for size in range(1, len(facet) + 1)
             for face in combinations(sorted(facet), size)}
    z, one = {0: FpAbPresentation.free(1)}, {0: IntMatrix.identity(1)}
    strata = {(): StratumData(z, {})}
    strata.update((I, StratumData(z, {i: one for i in I})) for I in faces)
    return SncDatum(max(map(len, faces)), max(map(max, facets)) + 1, strata)


def surface_json(tris: list) -> dict:
    """The {vertices, facets} file format of dual --complex; labels are 0..count-1."""
    return {"vertices": max(map(max, tris)) + 1, "facets": [list(t) for t in tris]}


def abelianization(p: GroupPresentation) -> FpAbPresentation:
    """The abelian group that p presents once its generators commute."""
    cols = []
    for r in p.relators:
        col = [0] * p.n_generators
        for x in r:
            col[abs(x) - 1] += 1 if x > 0 else -1
        cols.append(col)
    return FpAbPresentation.from_relation_columns(p.n_generators, cols)


def random_group_presentation(rng: random.Random) -> GroupPresentation:
    """0-7 generators and words of length at most 7, with empty words, repeats,
    and cyclic rotations and inverses of earlier relators mixed in."""
    n = rng.randint(0, 7)
    relators = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if relators and kind < 0.15:
            relators.append(rng.choice(relators))
        elif relators and kind < 0.35:
            w = rng.choice(relators)
            r = rng.randrange(len(w) or 1)
            w = w[r:] + w[:r]
            relators.append(tuple(-x for x in reversed(w)) if rng.random() < 0.5 else w)
        else:
            letters = [g * rng.choice((1, -1)) for g in range(1, n + 1)]
            relators.append(tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
                            if letters else ())
    return GroupPresentation(n, tuple(relators))
