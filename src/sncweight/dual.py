"""The dual boundary complex: the nerve of the boundary components.

One vertex per boundary component, one (k-1)-simplex per nonempty
k-fold intersection.  Because every finite intersection of components is
required to be connected upstream, the nerve is an honest simplicial
complex.  The module also carries the generic simplicial machinery
(reduced integral cohomology with torsion, Euler characteristic,
edge-path fundamental group presentations and their simplification),
and contractibility_report, which classifies a complex from its reduced
cohomology and simplified presentation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations

from .abgroup import FgAbGroup, FpAbPresentation
from .chain import CochainComplex, cohomology
from .intmat import IntMatrix
from .reports import _Record
from .sncdata import MAX_COUNT, DatumParseError, SncDatum

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
    "SIMPLIFY_BUDGET",
    "ContractibilityReport",
    "contractibility_report",
    "STATUS_CONTRACTIBLE",
    "STATUS_HOMOLOGY_POINT",
    "STATUS_SPHERE",
    "STATUS_OTHER",
    "real_projective_plane",
    "complex_from_dict",
]

# The move budget of simplify_presentation when none is given.
SIMPLIFY_BUDGET = 10_000


class DisconnectedComplexError(ValueError):
    def __init__(self, components: list[tuple[int, ...]]):
        self.components = components
        super().__init__(
            f"complex is not connected: {len(components)} components {components}"
        )


class SimplicialComplex(_Record):
    """Vertices plus a downward-closed set of nonempty sorted faces."""

    _fields = ("vertices", "faces")
    # _by_card[c] holds the faces with c vertices in sorted order, for c up to
    # the largest face; _by_card[0] is empty.  It is not a field: equality,
    # hash and repr ignore it.
    __slots__ = _fields + ("_by_card",)

    def __init__(self, vertices: tuple[int, ...], faces: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        vs = set(vertices)
        by_card = [[] for _ in range(max(map(len, faces), default=0) + 1)]
        for f in sorted(faces):
            if not f or list(f) != sorted(set(f)) or not set(f) <= vs:
                raise ValueError(f"bad face {f}")
            by_card[len(f)].append(f)
        object.__setattr__(self, "_by_card", tuple(map(tuple, by_card)))

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
                raise DatumParseError(f"a facet of {len(facet)} vertices has more than "
                                      f"{MAX_COUNT} faces")
            for size in range(1, len(facet) + 1):
                closure.update(combinations(facet, size))
            if len(closure) > MAX_COUNT:
                raise DatumParseError(f"the facets have more than {MAX_COUNT} faces")
        return cls(vertices, frozenset(closure.union((v,) for v in vertices)))

    @property
    def dim(self) -> int:
        return len(self._by_card) - 2

    def faces_of_card(self, k: int) -> list[tuple[int, ...]]:
        return list(self._by_card[k]) if 0 <= k < len(self._by_card) else []


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
    """Vertices are components with nonempty divisor; faces are nonempty intersections.

    s must be valid: its strata are then downward closed, so the faces
    form a simplicial complex.
    """
    vertices = tuple(i for i in range(1, s.n_components + 1) if s.is_nonempty((i,)))
    faces = frozenset(I for I in s.strata if I)
    return SimplicialComplex(vertices, faces)


def reduced_cochain_complex(k: SimplicialComplex) -> CochainComplex:
    """Augmented simplicial cochain complex, with Z for the empty face in degree -1."""
    max_card = k.dim + 1
    layers = [k.faces_of_card(c) for c in range(1, max_card + 1)]
    groups = [FpAbPresentation.free(1)]
    groups.extend(FpAbPresentation.free(len(layer)) for layer in layers)
    diffs = [IntMatrix(len(layers[0]), 1, [1] * len(layers[0]))] if layers else []
    for c in range(1, max_card):
        src_index = {f: i for i, f in enumerate(layers[c - 1])}
        tgt = layers[c]
        entries = (
            (r, src_index[face[:pos] + face[pos + 1 :]], -1 if pos % 2 else 1)
            for r, face in enumerate(tgt)
            for pos in range(len(face))
        )
        diffs.append(IntMatrix.from_entries(len(tgt), len(layers[c - 1]), entries))
    return CochainComplex(-1, tuple(groups), tuple(diffs))


def reduced_cohomology(k: SimplicialComplex) -> dict[int, FgAbGroup]:
    """Reduced integral cohomology, torsion included; nonzero degrees only.

    The simplicial coboundary squares to zero by construction, so the
    complex goes to chain.cohomology without verify_complex.
    """
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


def _first_single(word: tuple[int, ...]) -> int | None:
    """The smallest generator that occurs exactly once (over both signs) in word."""
    counts: dict[int, int] = {}
    for x in word:
        counts[abs(x)] = counts.get(abs(x), 0) + 1
    return min((g for g, c in counts.items() if c == 1), default=None)


def simplify_presentation(p: GroupPresentation, budget: int = SIMPLIFY_BUDGET) -> GroupPresentation:
    """Tietze simplification within a move budget.

    Moves used: free and cyclic reduction, dropping empty and duplicate
    relators (the first in list order stays), and eliminating the
    smallest generator that occurs exactly once in the first relator, in
    (length, word) order, that has one.  The result presents an
    isomorphic group; the budget only limits how far simplification
    goes.  An elimination is charged one move per live relator, so a
    budget stops where it always did, while its work is proportional to
    the relators it rewrites: those that hold the eliminated generator.
    Generators keep their labels until the end; renumbering them then
    keeps every order.
    """
    words: dict[int, tuple[int, ...]] = {}  # list position -> live relator
    keys: dict[int, tuple[int, ...]] = {}  # list position -> canonical key
    owner: dict[tuple[int, ...], int] = {}  # canonical key -> list position
    holders: dict[int, set[int]] = {}  # generator -> positions that use it
    heap: list[tuple[int, tuple[int, ...], int]] = []  # lazy: may hold stale entries

    def unplace(i: int) -> tuple[int, ...]:
        del owner[keys.pop(i)]
        w = words.pop(i)
        for x in w:
            holders[abs(x)].discard(i)
        return w

    def place(i: int, w: tuple[int, ...]) -> None:
        if not w:
            return
        key = _canonical_relator(w)
        j = owner.get(key)
        if j is not None:  # of two equal relators, the one earlier in the list stays
            if j < i:
                return
            unplace(j)
        words[i], keys[i], owner[key] = w, key, i
        for x in w:
            holders.setdefault(abs(x), set()).add(i)
        if _first_single(w) is not None:
            heapq.heappush(heap, (len(w), w, i))

    for i, r in enumerate(p.relators):
        place(i, _cyclic_reduce(r))
    eliminated = []
    moves = 0
    while moves < budget:
        while heap and words.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)
        if not heap:
            break
        _, rel, i = heapq.heappop(heap)
        gen = _first_single(rel)
        moves += len(words)
        pos = next(k for k, x in enumerate(rel) if abs(x) == gen)
        rotated = rel[pos:] + rel[:pos]
        if rotated[0] == -gen:
            rotated = tuple(-x for x in reversed(rotated))
            rotated = rotated[-1:] + rotated[:-1]
        # rotated = gen . w, so gen = w^-1
        replacement = tuple(-x for x in reversed(rotated[1:]))
        inverse = tuple(-y for y in reversed(replacement))

        def substitute(word: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for x in word:
                if x == gen:
                    out.extend(replacement)
                elif x == -gen:
                    out.extend(inverse)
                else:
                    out.append(x)
            return tuple(out)

        unplace(i)
        # Unplace every rewritten relator before placing any, so that a new
        # word meets only the relators that stay as they are.
        rewritten = [(j, unplace(j)) for j in sorted(holders[gen])]
        del holders[gen]
        for j, w in rewritten:
            place(j, _cyclic_reduce(substitute(w)))
        eliminated.append(gen)
    eliminated.sort()

    def renumber(word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x - bisect_left(eliminated, x) if x > 0
                     else x + bisect_left(eliminated, -x) for x in word)

    relators = sorted(words.values(), key=lambda w: (len(w), w))
    return GroupPresentation(p.n_generators - len(eliminated), tuple(map(renumber, relators)))


STATUS_CONTRACTIBLE = "contractible-certified"
STATUS_HOMOLOGY_POINT = "homology-point"
STATUS_SPHERE = "sphere-like"
STATUS_OTHER = "other"


class ContractibilityReport(_Record):
    _fields = __slots__ = ("status", "sphere_dim", "details")

    def __init__(self, status: str, sphere_dim: int | None, details: tuple[str, ...]):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "sphere_dim", sphere_dim)
        object.__setattr__(self, "details", details)

    def render(self) -> str:
        head = self.status
        if self.status == STATUS_SPHERE:
            head += f" (S^{self.sphere_dim})"
        lines = [head]
        lines.extend(f"  {d}" for d in self.details)
        return "\n".join(lines)


def contractibility_report(h: Mapping[int, FgAbGroup],
                           simplified: GroupPresentation | None) -> ContractibilityReport:
    """Classify a dual boundary complex by its reduced cohomology h and pi_1.

    simplified is the complex's edge-path presentation after
    simplify_presentation; it is read only when h vanishes, which forces
    a nonempty connected complex.  Contractibility is certified only when
    all reduced cohomology vanishes and the presentation simplified to
    the literally empty one; a trivial group that the budget could not
    expose is reported as a homology point.
    """
    if not h:
        if simplified.is_trivial:
            return ContractibilityReport(
                STATUS_CONTRACTIBLE, None,
                ("all reduced cohomology vanishes",
                 "edge-path presentation simplifies to the empty presentation"),
            )
        return ContractibilityReport(
            STATUS_HOMOLOGY_POINT, None,
            ("all reduced cohomology vanishes",
             f"fundamental group inconclusive: {simplified}"),
        )
    if len(h) == 1:
        (deg, group), = h.items()
        if group == FgAbGroup.free(1):
            return ContractibilityReport(
                STATUS_SPHERE, deg,
                (f"reduced cohomology is Z concentrated in degree {deg}",),
            )
    lines = tuple(f"H~{deg} = {group}" for deg, group in sorted(h.items()))
    return ContractibilityReport(STATUS_OTHER, None, lines)


def real_projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    return SimplicialComplex.from_facets(range(1, 7), facets)


def complex_from_dict(obj: dict) -> SimplicialComplex:
    """Parse {"vertices": count, "facets": [[...], ...]} (0-based labels), or DatumParseError."""
    if not isinstance(obj, dict) or "vertices" not in obj or "facets" not in obj:
        raise DatumParseError('expected an object with "vertices" and "facets"')
    v = obj["vertices"]
    # An integer is a value of type int: JSON true and false (bools) are refused.
    if type(v) is not int or v < 0:
        raise DatumParseError('"vertices" must be a nonnegative integer count')
    if v > MAX_COUNT:
        raise DatumParseError(f'"vertices" must be at most {MAX_COUNT}')
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(type(x) is int and 0 <= x < v for x in f) for f in facets
    ):
        raise DatumParseError('"facets" must be lists of vertex indices below the count')
    return SimplicialComplex.from_facets(range(v), facets)

