"""Expected answers for the benchmark, computed without the package.

Groups are pairs (free_rank, torsion) with torsion the ascending tuple of
invariant factors, each dividing the next.  Kernels and lattice bases
come from 2x2 Bezout transforms, quotients from a diagonal form whose
entries are split into prime powers.  None of this shares code with
sncweight, so agreement between the two is a real check.
"""

import json
import re
from math import comb, gcd

ZERO = (0, ())


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def bezout(a: int, b: int) -> tuple[int, int, int, int]:
    """Unimodular (s, t, u, v) with s*a + t*b = gcd(a, b) and u*a + v*b = 0.

    When a divides b this is plain elimination, which leaves the first
    vector unchanged; diagonalization relies on that to terminate.
    """
    if a and b % a == 0:
        return 1, 0, -(b // a), 1
    g, s, t = xgcd(a, b)
    return s, t, -(b // g), a // g


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors of the direct sum of Z/o over the given orders."""
    by_prime: dict[int, list[int]] = {}
    for o in orders:
        for p, e in _prime_powers(abs(o)).items():
            by_prime.setdefault(p, []).append(e)
    width = max((len(es) for es in by_prime.values()), default=0)
    factors = [1] * width
    for p, es in by_prime.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[k] *= p ** e
    return tuple(sorted(factors))


def diagonal_entries(rows: list[list[int]]) -> list[int]:
    """Nonzero entries of a diagonal form of the matrix (not yet a divisor chain).

    Each step moves a smallest nonzero entry to the corner and clears its
    row and column by division with remainder; a nonzero remainder becomes
    the next, strictly smaller, corner.  Keeping the corner small is what
    keeps the other entries small.
    """
    m = [list(r) for r in rows if any(r)]
    out = []
    while m:
        best = min(((abs(x), i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x),
                   default=None)
        if best is None:
            break
        _, i0, j0 = best
        while True:
            m[0], m[i0] = m[i0], m[0]
            for r in m:
                r[0], r[j0] = r[j0], r[0]
            p = m[0][0]
            for i in range(1, len(m)):
                q = m[i][0] // p
                if q:
                    top = m[0]
                    m[i] = [x - q * y for x, y in zip(m[i], top)]
            for j in range(1, len(m[0])):
                q = m[0][j] // p
                if q:
                    for r in m:
                        r[j] -= q * r[0]
            rem = min(((abs(m[i][0]), i, 0) for i in range(1, len(m)) if m[i][0]), default=None)
            rem = rem or min(((abs(x), 0, j) for j, x in enumerate(m[0]) if j and x),
                             default=None)
            if rem is None:
                break
            _, i0, j0 = rem
        out.append(abs(p))
        m = [r[1:] for r in m[1:] if any(r[1:])]
    return out


def quotient_group(n: int, relation_columns: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Z^n modulo the span of the given columns."""
    diag = diagonal_entries([list(c) for c in relation_columns])
    return (n - len(diag), invariant_factors(d for d in diag if d > 1))


def kernel_basis(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of {x in Z^n : rows * x = 0}, by Bezout column operations."""
    a = [list(r) for r in rows]
    v = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns of V
    p = 0
    for r in a:
        if p == n:
            break
        for j in range(p + 1, n):
            b = r[j]
            if not b:
                continue
            s, t, u, w = bezout(r[p], b)
            for row in a:
                cp, cj = row[p], row[j]
                row[p], row[j] = s * cp + t * cj, u * cp + w * cj
            vp, vj = v[p], v[j]
            v[p] = [s * y + t * z for y, z in zip(vp, vj)]
            v[j] = [u * y + w * z for y, z in zip(vp, vj)]
        if r[p]:
            p += 1
    return v[p:]


def lattice_basis(vectors: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the lattice the vectors span, by Bezout row echelon form."""
    m = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(n):
        rows = [r for r in m if r[col]]
        if not rows:
            continue
        rest = [r for r in m if not r[col]]
        piv = rows[0]
        for r in rows[1:]:
            s, t, u, v = bezout(piv[col], r[col])
            piv, r2 = ([s * x + t * y for x, y in zip(piv, r)],
                       [u * x + v * y for x, y in zip(piv, r)])
            if any(r2):
                rest.append(r2)
        basis.append(piv)
        m = rest
    return basis


def solve_in_basis(basis: list[list[int]], b: list[int]) -> list[int]:
    """Integer y with sum y_k basis[k] = b, for a basis from lattice_basis.

    Such a basis is in echelon form, so forward substitution solves it.
    """
    rest = list(b)
    y = []
    for v in basis:
        lead = next(i for i, x in enumerate(v) if x)
        q, r = divmod(rest[lead], v[lead])
        if r:
            raise ValueError("vector is not in the lattice")
        y.append(q)
        if q:
            rest = [x - q * z for x, z in zip(rest, v)]
    if any(rest):
        raise ValueError("vector is not in the span")
    return y


def complex_cohomology(groups, diffs) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Cohomology of C^0 -> C^1 -> ... of presented groups.

    groups[a] = (n_a, relation columns); diffs[a] = rows of d_a, shape
    n_(a+1) x n_a.  Returns degree -> group, nonzero entries only.
    """
    out = {}
    for a, (n, rels) in enumerate(groups):
        if a < len(diffs):
            n_next, rels_next = groups[a + 1]
            stacked = [list(diffs[a][i]) + [c[i] for c in rels_next] for i in range(n_next)]
            lifted = kernel_basis(stacked, n + len(rels_next))
            cocycles = lattice_basis([x[:n] for x in lifted], n)
        else:
            cocycles = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        bounds = [list(c) for c in rels]
        if a > 0:
            d = diffs[a - 1]
            bounds += [[d[i][j] for i in range(n)] for j in range(groups[a - 1][0])]
        coords = [solve_in_basis(cocycles, b) for b in bounds if any(b)]
        h = quotient_group(len(cocycles), coords)
        if h != ZERO:
            out[a] = h
    return out


# ---------------------------------------------------------------------------
# Groups, tables and closed forms


def tensor(g1, g2):
    r1, t1 = g1
    r2, t2 = g2
    orders = list(t1) * r2 + list(t2) * r1 + [gcd(x, y) for x in t1 for y in t2]
    return (r1 * r2, invariant_factors(orders))


def tor(g1, g2):
    return (0, invariant_factors(gcd(x, y) for x in g1[1] for y in g2[1]))


def direct_sum(g1, g2):
    return (g1[0] + g2[0], invariant_factors(g1[1] + g2[1]))


def kunneth(t1: dict, t2: dict) -> dict:
    """Table of a product from the factor tables: tensor plus shifted Tor."""
    acc: dict = {}

    def add(key, g):
        if g != ZERO:
            acc[key] = direct_sum(acc.get(key, ZERO), g)

    for (a1, b1), g1 in t1.items():
        for (a2, b2), g2 in t2.items():
            add((a1 + a2, b1 + b2), tensor(g1, g2))
            add((a1 + a2 - 1, b1 + b2), tor(g1, g2))
    return acc


def weight_table(datum: dict) -> dict:
    """Weight cohomology table of a datum dict, straight from the definition."""
    strata = {tuple(s["subset"]): s for s in datum["strata"]}
    degrees = sorted({int(b) for s in datum["strata"]
                      for b, p in s["cohomology"].items() if p["generators"]})
    table = {}
    for b in degrees:
        key = str(b)
        levels = [sorted(I for I in strata if len(I) == k) for k in range(datum["dim"] + 1)]

        def pres(I):
            p = strata[I]["cohomology"].get(key)
            return (p["generators"], p["relations"]) if p else (0, [])

        groups = []
        for level in levels:
            sizes = [pres(I)[0] for I in level]
            n = sum(sizes)
            cols = []
            off = 0
            for I, size in zip(level, sizes):
                for c in pres(I)[1]:
                    cols.append([0] * off + list(c) + [0] * (n - off - size))
                off += size
            groups.append((n, cols))
        diffs = []
        for k in range(1, len(levels)):
            src, tgt = levels[k - 1], levels[k]
            src_off, pos = {}, 0
            for J in src:
                src_off[J] = pos
                pos += pres(J)[0]
            rows = []
            for I in tgt:
                height = pres(I)[0]
                block = [[0] * pos for _ in range(height)]
                for j, i in enumerate(I):
                    J = tuple(x for x in I if x != i)
                    mat = strata[I]["restrictions"].get(str(i), {}).get(key)
                    if J not in src_off or not mat:
                        continue
                    sign = -1 if j % 2 else 1
                    for r in range(height):
                        for c, x in enumerate(mat[r]):
                            block[r][src_off[J] + c] += sign * x
                rows.extend(block)
            diffs.append(rows)
        for a, g in complex_cohomology(groups, diffs).items():
            table[(a, b)] = g
    return table


def torus_table(n: int) -> dict:
    """(n - j, 2j) = Z^C(n, j)."""
    return {(n - j, 2 * j): (comb(n, j), ()) for j in range(n + 1)}


def affine_table(d: int) -> dict:
    return {(0, 2 * d): (1, ())}


def curve_table(g: int, n: int) -> dict:
    out = {(0, 2): (1, ())}
    if n > 1:
        out[(1, 0)] = (n - 1, ())
    if g:
        out[(0, 1)] = (2 * g, ())
    return out


def builder_table(spec: str) -> dict:
    name, _, args = spec.partition(":")
    if name == "torus":
        return torus_table(int(args))
    if name == "affine":
        return affine_table(int(args))
    g, n = (int(x) for x in args.split(","))
    return curve_table(g, n)


def builder_betti(spec: str) -> dict[int, int]:
    """Compactly supported Betti numbers: total free rank along a + b = k."""
    out: dict[int, int] = {}
    for (a, b), (r, _) in builder_table(spec).items():
        if r:
            out[a + b] = out.get(a + b, 0) + r
    return out


def builder_nerve(spec: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Reduced nerve cohomology: S^(n-1) for torus:n, n points for curves, a point for affine."""
    name, _, args = spec.partition(":")
    if name == "torus":
        return {int(args) - 1: (1, ())}
    if name == "curve":
        n = int(args.split(",")[1])
        return {0: (n - 1, ())} if n > 1 else {}
    return {}


# ---------------------------------------------------------------------------
# Reading the program's output


def group_str(g) -> str:
    r, t = g
    parts = (["Z"] if r == 1 else [f"Z^{r}"] if r > 1 else []) + [f"Z/{x}" for x in t]
    return " x ".join(parts) if parts else "0"


def parse_group(text: str):
    if text in (".", "0"):
        return ZERO
    r, t = 0, []
    for part in text.split(" x "):
        if part == "Z":
            r = 1
        elif part.startswith("Z^"):
            r = int(part[2:])
        elif part.startswith("Z/"):
            t.append(int(part[2:]))
        else:
            raise ValueError(f"not a group: {text!r}")
    return (r, tuple(t))


def parse_table(out: str, fmt: str) -> dict:
    """The (a, b) -> group table printed by `compute` in any of its formats."""
    if fmt == "json":
        return {(e["a"], e["b"]): (e["free_rank"], tuple(e["torsion"]))
                for e in json.loads(out)["entries"]}
    lines = out.splitlines()
    if fmt == "csv":
        if lines[0] != "a,b,free_rank,torsion":
            raise ValueError("bad csv header")
        table = {}
        for line in lines[1:]:
            a, b, r, t = line.split(",")
            table[(int(a), int(b))] = (int(r), tuple(int(x) for x in t.split(";") if x))
        return table
    if "weight cohomology: zero" in lines:
        return {}
    start = lines.index("weight cohomology table:")
    header = lines[start + 1].split()
    degrees = [int(x) for x in header[1:]]
    table = {}
    for line in lines[start + 2:]:
        # Cells are right-aligned in columns two spaces apart; groups contain
        # single spaces ("Z x Z/2"), so split on runs of two or more.
        cells = re.split(r"\s{2,}", line.strip())
        b = int(cells[0])
        for a, cell in zip(degrees, cells[1:]):
            g = parse_group(cell)
            if g != ZERO:
                table[(a, b)] = g
    return table
