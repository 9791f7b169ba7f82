"""Seeded input generators: compactification data and triangulated surfaces.

Everything here is the benchmark's own code.  Data are built as the
JSON-shaped dicts that `sncweight compute FILE` reads, so the program
only ever sees generated files and builder specs.
"""

import random
from itertools import product as cartesian


def free(n: int) -> dict:
    return {"generators": n, "relations": []}


def stratum(subset, cohomology: dict, restrictions: dict) -> dict:
    return {
        "subset": list(subset),
        "cohomology": {str(b): p for b, p in sorted(cohomology.items())},
        "restrictions": {
            str(i): {str(b): m for b, m in sorted(per.items())}
            for i, per in sorted(restrictions.items())
        },
    }


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# Factors


def curve(g: int, n: int) -> dict:
    """Genus-g curve with n punctures filled by points."""
    coh = {0: free(1), 2: free(1)}
    if g:
        coh[1] = free(2 * g)
    strata = [stratum((), coh, {})]
    strata += [stratum((i,), {0: free(1)}, {i: {0: [[1]]}}) for i in range(1, n + 1)]
    return {"dim": 1, "components": n, "strata": strata}


def affine(d: int) -> dict:
    """Affine d-space in projective d-space: one hyperplane at infinity."""
    return {
        "dim": d,
        "components": 1,
        "strata": [
            stratum((), {2 * j: free(1) for j in range(d + 1)}, {}),
            stratum((1,), {2 * j: free(1) for j in range(d)},
                    {1: {2 * j: [[1]] for j in range(d)}}),
        ],
    }


def hypersurface(k: int) -> dict:
    """Projective plane minus a smooth degree-k curve: H^2 restricts by k."""
    genus = (k - 1) * (k - 2) // 2
    coh = {0: free(1), 2: free(1)}
    if genus:
        coh[1] = free(2 * genus)
    return {
        "dim": 2,
        "components": 1,
        "strata": [
            stratum((), {0: free(1), 2: free(1), 4: free(1)}, {}),
            stratum((1,), coh, {1: {0: [[1]], 2: [[k]]}}),
        ],
    }


def two_curve_surface(rng: random.Random, b1: int, b2: int, g1: int, g2: int) -> dict:
    """A surface whose two boundary curves meet in one point.

    Restrictions from the surface in degrees 1 and 2 are random matrices
    with entries in [-2, 2]; every square commutes because the point has
    cohomology in degree 0 only.
    """
    total = {0: free(1), 1: free(b1), 2: free(b2), 3: free(b1), 4: free(1)}
    strata = [stratum((), total, {})]
    for i, g in ((1, g1), (2, g2)):
        strata.append(stratum((i,), {0: free(1), 1: free(2 * g), 2: free(1)}, {
            i: {0: [[1]], 1: random_matrix(rng, 2 * g, b1), 2: random_matrix(rng, 1, b2)},
        }))
    strata.append(stratum((1, 2), {0: free(1)}, {1: {0: [[1]]}, 2: {0: [[1]]}}))
    return {"dim": 2, "components": 2, "strata": strata}


def curve_chain(rng: random.Random, n: int, m: int, b1: int) -> dict:
    """A surface with a chain of n boundary curves whose H^1 carry relations.

    Curve i meets curve i+1 in a point.  Each H^1(C_i) = Z^m modulo two
    random relation columns, so the weight complex in degree 1 is made of
    presented groups, not free ones.
    """
    total = {0: free(1), 1: free(b1), 2: free(1), 3: free(b1), 4: free(1)}
    strata = [stratum((), total, {})]
    for i in range(1, n + 1):
        relations = random_matrix(rng, 2, m, -3, 3)
        strata.append(stratum((i,), {
            0: free(1),
            1: {"generators": m, "relations": relations},
            2: free(1),
        }, {i: {0: [[1]], 1: random_matrix(rng, m, b1), 2: [[rng.choice((1, 2, 3))]]}}))
    for i in range(1, n):
        strata.append(stratum((i, i + 1), {0: free(1)}, {i: {0: [[1]]}, i + 1: {0: [[1]]}}))
    return {"dim": 2, "components": n, "strata": strata}


# ---------------------------------------------------------------------------
# Products


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _ranks(s: dict) -> dict[int, int]:
    return {int(b): p["generators"] for b, p in s["cohomology"].items() if p["generators"]}


def _restriction(s: dict, i: int, b: int, rows: int, cols: int):
    m = s["restrictions"].get(str(i), {}).get(str(b))
    return m if m else [[0] * cols for _ in range(rows)]


def _pairs(cx: dict, cy: dict) -> dict[int, list]:
    out: dict[int, list] = {}
    for p in sorted(cx):
        for q in sorted(cy):
            out.setdefault(p + q, []).append((p, q))
    return out


def product(x: dict, y: dict) -> dict:
    """Compactified product: strata are pairs, cohomology the graded tensor."""
    nx = x["components"]
    sx = {tuple(s["subset"]): s for s in x["strata"]}
    sy = {tuple(s["subset"]): s for s in y["strata"]}
    strata = []
    for ix, iy in cartesian(sorted(sx, key=lambda I: (len(I), I)),
                            sorted(sy, key=lambda I: (len(I), I))):
        cx, cy = _ranks(sx[ix]), _ranks(sy[iy])
        key = ix + tuple(j + nx for j in iy)
        degrees = _pairs(cx, cy)
        restrictions = {}
        for e in key:
            if e <= nx:
                src_x = _ranks(sx[tuple(v for v in ix if v != e)])
                src_y = cy
            else:
                src_x = cx
                src_y = _ranks(sy[tuple(v for v in iy if v != e - nx)])
            src_pairs = _pairs(src_x, src_y)
            per = {}
            for b, tgt in degrees.items():
                src = src_pairs.get(b)
                if not src:
                    continue
                rows = []
                for tp, tq in tgt:
                    height = cx[tp] * cy[tq]
                    blocks = []
                    for sp, sq in src:
                        width = src_x[sp] * src_y[sq]
                        if (tp, tq) != (sp, sq):
                            blocks.append([[0] * width for _ in range(height)])
                        elif e <= nx:
                            r = _restriction(sx[ix], e, tp, cx[tp], src_x[sp])
                            blocks.append(_kron(r, _identity(cy[tq])))
                        else:
                            r = _restriction(sy[iy], e - nx, tq, cy[tq], src_y[sq])
                            blocks.append(_kron(_identity(cx[tp]), r))
                    rows.extend(sum(parts, []) for parts in zip(*blocks))
                per[b] = rows
            if per:
                restrictions[e] = per
        coh = {b: free(sum(cx[p] * cy[q] for p, q in pairs)) for b, pairs in degrees.items()}
        strata.append(stratum(key, coh, restrictions))
    return {"dim": x["dim"] + y["dim"], "components": nx + y["components"], "strata": strata}


# ---------------------------------------------------------------------------
# Triangulated surfaces


def torus_grid(m: int, n: int) -> list[tuple[int, int, int]]:
    """m x n grid on the torus, each square cut along a diagonal (m, n >= 3)."""
    v = lambda i, j: (i % m) * n + (j % n)  # noqa: E731
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tris


def disk_grid(m: int, n: int) -> list[tuple[int, int, int]]:
    """m x n grid of squares in the plane, each cut along a diagonal."""
    v = lambda i, j: i * (n + 1) + j  # noqa: E731
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tris


def projective_plane() -> list[tuple[int, int, int]]:
    """The six-vertex real projective plane."""
    return [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def connected_sum(s1: list, s2: list) -> list:
    """Remove a triangle from each surface and glue along the two boundaries."""
    a, b, c = s1[0]
    x, y, z = s2[-1]
    offset = max(max(t) for t in s1) + 1
    glue = {x: a, y: b, z: c}
    moved = [tuple(glue.get(u, u + offset) for u in t) for t in s2[:-1]]
    out = s1[1:] + moved
    labels = {u: k for k, u in enumerate(sorted({u for t in out for u in t}))}
    return [tuple(labels[u] for u in t) for t in out]


def surface_counts(tris: list) -> tuple[int, int, int]:
    """(vertices, edges, triangles), after checking it is a closed or bounded surface."""
    tris = [tuple(sorted(t)) for t in tris]
    if len(set(tris)) != len(tris) or any(len(set(t)) != 3 for t in tris):
        raise ValueError("degenerate or repeated triangle")
    edges: dict = {}
    for t in tris:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges[e] = edges.get(e, 0) + 1
    if any(k > 2 for k in edges.values()):
        raise ValueError("edge in more than two triangles")
    vertices = {u for t in tris for u in t}
    return len(vertices), len(edges), len(tris)


def relabel(rng: random.Random, tris: list) -> dict:
    """Shuffle vertex labels and facet order; the {vertices, facets} file format."""
    vertices = sorted({u for t in tris for u in t})
    perm = list(range(len(vertices)))
    rng.shuffle(perm)
    index = {u: perm[k] for k, u in enumerate(vertices)}
    facets = [[index[u] for u in t] for t in tris]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    return {"vertices": len(vertices), "facets": facets}
