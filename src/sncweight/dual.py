"""The dual boundary complex: the nerve of the boundary components.

One vertex per boundary component, one (k-1)-simplex per nonempty
k-fold intersection.  Because every finite intersection of components is
required to be connected upstream, the nerve is an honest simplicial
complex.  The module also carries the generic simplicial machinery
(reduced integral cohomology with torsion, Euler characteristic,
edge-path fundamental group presentations and their simplification).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from itertools import combinations

from .abgroup import FgAbGroup, FpAbHom, FpAbPresentation
from .chain import CochainComplex, cohomology
from .intmat import IntMatrix
from .reports import _Record
from .sncdata import MAX_COUNT, SncDatum, require_valid

__all__ = [
    "SimplicialComplex",
    "GroupPresentation",
    "DisconnectedComplexError",
    "nerve",
    "reduced_cochain_complex",
    "reduced_cohomology",
    "euler_characteristic",
    "edge_path_presentation",
    "simplify_presentation",
    "real_projective_plane",
    "complex_from_dict",
    "complex_to_dict",
]


class DisconnectedComplexError(ValueError):
    def __init__(self, components: list[tuple[int, ...]]):
        self.components = components
        super().__init__(
            f"complex is not connected: {len(components)} components {components}"
        )


class SimplicialComplex(_Record):
    """Vertices plus a downward-closed set of nonempty sorted faces."""

    _fields = __slots__ = ("vertices", "faces")

    def __init__(self, vertices: tuple[int, ...], faces: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        vs = set(vertices)
        for f in faces:
            if not f or list(f) != sorted(set(f)) or not set(f) <= vs:
                raise ValueError(f"bad face {f}")

    @classmethod
    def from_facets(cls, vertices: Iterable[int], facets: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets; isolated vertices are kept.

        The closure may hold at most MAX_COUNT faces; a facet of k vertices
        alone has 2^k - 1, so each one is checked before it is expanded.
        """
        vertices = tuple(sorted(set(vertices)))
        closure = set()
        for facet in facets:
            facet = tuple(sorted(set(facet)))
            if 2 ** len(facet) - 1 > MAX_COUNT:
                raise ValueError(f"a facet of {len(facet)} vertices has more than "
                                 f"{MAX_COUNT} faces")
            for size in range(1, len(facet) + 1):
                closure.update(combinations(facet, size))
            if len(closure) > MAX_COUNT:
                raise ValueError(f"the facets have more than {MAX_COUNT} faces")
        return cls(vertices, frozenset(closure.union((v,) for v in vertices)))

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1

    def faces_of_card(self, k: int) -> list[tuple[int, ...]]:
        return sorted(f for f in self.faces if len(f) == k)

    def connected_components(self) -> list[tuple[int, ...]]:
        return _spanning_forest(self)[0]

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1


class GroupPresentation(_Record):
    """Relators are words in signed 1-based generator indices."""

    _fields = __slots__ = ("n_generators", "relators")

    def __init__(self, n_generators: int, relators: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n_generators", n_generators)
        object.__setattr__(self, "relators", relators)
        for r in relators:
            for x in r:
                if x == 0 or abs(x) > n_generators:
                    raise ValueError(f"relator letter {x} out of range")

    @property
    def is_trivial(self) -> bool:
        return self.n_generators == 0 and not self.relators

    def abelianization(self) -> FpAbPresentation:
        cols = []
        for r in self.relators:
            col = [0] * self.n_generators
            for x in r:
                col[abs(x) - 1] += 1 if x > 0 else -1
            cols.append(col)
        return FpAbPresentation.from_relation_columns(self.n_generators, cols)

    def __str__(self) -> str:
        def letter(x: int) -> str:
            if self.n_generators <= 26:
                c = chr(ord("a") + abs(x) - 1)
                return c.upper() if x < 0 else c
            return f"g{x}" if x > 0 else f"g{-x}^-1"

        gens = ", ".join(letter(i) for i in range(1, self.n_generators + 1))
        rels = ", ".join("".join(letter(x) for x in r) or "1" for r in self.relators)
        return f"< {gens or '-'} | {rels or '-'} >"


def nerve(s: SncDatum) -> SimplicialComplex:
    """Vertices are components with nonempty divisor; faces are nonempty intersections."""
    require_valid(s)
    vertices = tuple(i for i in range(1, s.n_components + 1) if s.is_nonempty((i,)))
    faces = frozenset(I for I in s.strata if I)
    return SimplicialComplex(vertices, faces)


def reduced_cochain_complex(k: SimplicialComplex) -> CochainComplex:
    """Augmented simplicial cochain complex, with Z for the empty face in degree -1."""
    max_card = max((len(f) for f in k.faces), default=0)
    layers = [k.faces_of_card(c) for c in range(1, max_card + 1)]
    groups = [FpAbPresentation.free(1)]
    groups.extend(FpAbPresentation.free(len(layer)) for layer in layers)
    diffs = []
    if layers:
        ones = IntMatrix.column([1] * len(layers[0]))
        diffs.append(FpAbHom(groups[0], groups[1], ones))
    for c in range(1, max_card):
        src_index = {f: i for i, f in enumerate(layers[c - 1])}
        tgt = layers[c]
        entries = (
            (r, src_index[face[:pos] + face[pos + 1 :]], -1 if pos % 2 else 1)
            for r, face in enumerate(tgt)
            for pos in range(len(face))
        )
        matrix = IntMatrix.from_entries(len(tgt), len(layers[c - 1]), entries)
        diffs.append(FpAbHom(groups[c], groups[c + 1], matrix))
    return CochainComplex(-1, tuple(groups), tuple(diffs))


def reduced_cohomology(k: SimplicialComplex) -> dict[int, FgAbGroup]:
    """Reduced integral cohomology, torsion included; nonzero degrees only."""
    return cohomology(reduced_cochain_complex(k))


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum(1 if len(f) % 2 else -1 for f in k.faces)


def _spanning_forest(k: SimplicialComplex) -> tuple[list[tuple[int, ...]], set[tuple[int, int]]]:
    """The connected components, and the edges of a breadth-first tree in each.

    Each search starts at the smallest vertex not yet reached and visits
    neighbours in ascending order.
    """
    adj = {v: set() for v in k.vertices}
    for a, b in k.faces_of_card(2):
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    components = []
    tree = set()
    for v in k.vertices:
        if v in seen:
            continue
        queue = deque([v])
        comp = []
        seen.add(v)
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in sorted(adj[x]):
                if y not in seen:
                    seen.add(y)
                    tree.add((x, y) if x < y else (y, x))
                    queue.append(y)
        components.append(tuple(sorted(comp)))
    return components, tree


def edge_path_presentation(k: SimplicialComplex) -> GroupPresentation:
    """Fundamental group presentation from a spanning tree.

    Generators are the non-tree edges; each triangle contributes the
    relator saying its three edges compose trivially.
    """
    comps, tree = _spanning_forest(k)
    if len(comps) != 1:
        raise DisconnectedComplexError(comps)
    generators = [e for e in k.faces_of_card(2) if e not in tree]
    gen_index = {e: i + 1 for i, e in enumerate(generators)}

    def word(a: int, b: int) -> tuple[int, ...]:
        e = tuple(sorted((a, b)))
        if e in tree:
            return ()
        g = gen_index[e]
        return (g,) if (a, b) == e else (-g,)

    relators = []
    for a, b, c in k.faces_of_card(3):
        rel = word(a, b) + word(b, c) + tuple(-x for x in reversed(word(a, c)))
        rel = _free_reduce(rel)
        relators.append(rel)
    return GroupPresentation(len(generators), tuple(relators))


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


def simplify_presentation(p: GroupPresentation, budget: int = 10_000) -> GroupPresentation:
    """Tietze simplification within a move budget.

    Moves used: free and cyclic reduction, dropping empty and duplicate
    relators, and eliminating a generator that occurs exactly once in
    some relator.  The result presents an isomorphic group; the budget
    only limits how far simplification goes.
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


def real_projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    return SimplicialComplex.from_facets(range(1, 7), facets)


def complex_from_dict(obj: dict) -> SimplicialComplex:
    """Parse {"vertices": count, "facets": [[...], ...]} with 0-based labels."""
    if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
        raise ValueError('expected an object with "vertices" and "facets"')
    v = obj["vertices"]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError('"vertices" must be a nonnegative integer count')
    if v > MAX_COUNT:
        raise ValueError(f'"vertices" must be at most {MAX_COUNT}')
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(
        isinstance(f, list)
        and all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < v for x in f)
        for f in facets
    ):
        raise ValueError('"facets" must be lists of vertex indices below the count')
    return SimplicialComplex.from_facets(range(v), facets)


def complex_to_dict(k: SimplicialComplex) -> dict:
    maximal = sorted(
        f for f in k.faces
        if not any(g != f and set(f) <= set(g) for g in k.faces)
    )
    index = {v: i for i, v in enumerate(k.vertices)}
    return {
        "vertices": len(k.vertices),
        "facets": [[index[x] for x in f] for f in maximal],
    }
