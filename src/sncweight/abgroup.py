"""Finitely generated and finitely presented abelian groups.

An FgAbGroup is the canonical invariant-factor form, so two values are
isomorphic as groups exactly when they compare equal.  An
FpAbPresentation is Z^n modulo the column span of an integer relation
matrix; relations are always stored as columns, here and in every file
format.  An FpAbHom is a homomorphism between presented groups, given by
its matrix on generators.

Canonical forms and span membership read only Smith diagonals; the
presented subquotient reads kernel bases from intmat.kernel_basis, which
reduces only the unit-free core of each matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress
from math import gcd

from .intmat import IntMatrix, _int_entries, kernel_basis, smith_diagonal
# Unused here: bench/tracer.py wraps the private functions another module
# imports, and finds the dense reduction's counters through this name.
from .intmat import _snf_reduce  # noqa: F401
from .reports import _Record

__all__ = [
    "FgAbGroup",
    "FpAbPresentation",
    "FpAbHom",
    "canonical_form",
    "subquotient_cohomology",
]


class FgAbGroup(_Record):
    """Z^free_rank plus cyclic factors Z/d1 x ... x Z/dk with d1 | d2 | ... | dk.

    >>> str(FgAbGroup(2, (2, 4)))
    'Z^2 x Z/2 x Z/4'
    """

    _fields = __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for t in torsion:
            if t < 2:
                raise ValueError(f"torsion coefficient {t} < 2")
            if prev is not None and t % prev:
                raise ValueError(f"invariant factors must divide: {prev} does not divide {t}")
            prev = t

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int], free_rank: int = 0) -> "FgAbGroup":
        """Canonicalize a direct sum of Z/order factors into invariant factors.

        Pairwise (gcd, lcm) exchanges sort every prime's exponents into
        ascending position, which is exactly the divisibility chain.
        """
        factors = [int(o) for o in orders]
        if any(o <= 0 for o in factors):
            raise ValueError("cyclic orders must be positive; use free_rank for Z summands")
        factors = [o for o in factors if o > 1]
        while True:
            changed = False
            for i in range(len(factors) - 1):
                a, b = factors[i], factors[i + 1]
                if b % a:
                    g = gcd(a, b)
                    factors[i], factors[i + 1] = g, a // g * b
                    changed = True
            if not changed:
                break
        return cls(free_rank, tuple(f for f in factors if f > 1))

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_cyclic_orders(
            self.torsion + other.torsion, self.free_rank + other.free_rank
        )

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        orders = list(self.torsion) * other.free_rank
        orders += list(other.torsion) * self.free_rank
        orders += [gcd(a, b) for a in self.torsion for b in other.torsion]
        return FgAbGroup.from_cyclic_orders(orders, self.free_rank * other.free_rank)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_cyclic_orders(
            [gcd(a, b) for a in self.torsion for b in other.torsion]
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"


class FpAbPresentation(_Record):
    """Z^generators modulo the column span of the relation matrix."""

    _fields = __slots__ = ("generators", "relations")

    def __init__(self, generators: int, relations: IntMatrix):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        if relations.rows != generators:
            raise ValueError(
                f"relation matrix has {relations.rows} rows for {generators} generators"
            )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.generators, self.relations) == (other.generators, other.relations)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.generators, self.relations))

    @classmethod
    def free(cls, n: int) -> "FpAbPresentation":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def zero(cls) -> "FpAbPresentation":
        return cls.free(0)

    @classmethod
    def from_relation_columns(cls, generators: int, columns: Sequence[Sequence[int]]) -> "FpAbPresentation":
        cols = [_int_entries(c) for c in columns]
        if any(len(c) != generators for c in cols):
            raise ValueError("relation column length must equal generator count")
        # Every entry's type is checked above, so zeros can be skipped unread;
        # a tuple of positions lets compress skip them without making ints.
        gens = tuple(range(generators))
        entries = ((i, j, c[i]) for j, c in enumerate(cols) for i in compress(gens, c))
        return cls(generators, IntMatrix.from_entries(generators, len(cols), entries))

    @property
    def is_relation_free(self) -> bool:
        return self.relations.cols == 0

    @staticmethod
    def direct_sum(parts: Sequence["FpAbPresentation"]) -> "FpAbPresentation":
        if not parts:
            return FpAbPresentation.zero()
        total = sum(p.generators for p in parts)
        if all(p.relations.cols == 0 for p in parts):
            return FpAbPresentation.free(total)
        blocks = []
        row0 = col0 = 0
        for p in parts:
            blocks.append((row0, col0, p.relations, 1, True, 1))
            row0 += p.generators
            col0 += p.relations.cols
        return FpAbPresentation(total, IntMatrix.from_blocks(total, col0, blocks))


class FpAbHom(_Record):
    """A homomorphism source -> target given by a matrix on generators.

    The matrix acts on column vectors of source coordinates, so it has
    shape target.generators x source.generators.
    """

    _fields = __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpAbPresentation, target: FpAbPresentation, matrix: IntMatrix):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (target.generators, source.generators):
            raise ValueError(
                f"hom matrix shape {matrix.shape} does not match "
                f"{target.generators}x{source.generators}"
            )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.source, self.target, self.matrix)
                    == (other.source, other.target, other.matrix))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    @classmethod
    def zero(cls, source: FpAbPresentation, target: FpAbPresentation) -> "FpAbHom":
        return cls(source, target, IntMatrix.zeros(target.generators, source.generators))

    def is_well_defined(self) -> bool:
        moved = self.matrix * self.source.relations
        return _columns_in_span(moved, self.target.relations)

    def is_zero_hom(self) -> bool:
        """True when every generator maps into the target relation span."""
        return _columns_in_span(self.matrix, self.target.relations)

    def compose(self, inner: "FpAbHom") -> "FpAbHom":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch: inner target differs from outer source")
        return FpAbHom(inner.source, self.target, self.matrix * inner.matrix)


def _columns_in_span(m: IntMatrix, span: IntMatrix) -> bool:
    # span lies in span | m, so Z^n / span maps onto Z^n / (span | m).  Finitely
    # generated abelian groups are Hopfian, so the two lattices are equal
    # exactly when the two cokernels have the same invariant factors.
    if m.is_zero or span.cols == 0:
        return m.is_zero
    return smith_diagonal(span) == smith_diagonal(span.hstack(m))


def canonical_form(p: FpAbPresentation) -> FgAbGroup:
    """Invariant factors of Z^n modulo the relation span.

    >>> canonical_form(FpAbPresentation.from_relation_columns(1, [[2]]))
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    diag = smith_diagonal(p.relations)
    torsion = tuple(x for x in diag if x > 1)
    return FgAbGroup(p.generators - len(diag), torsion)


def subquotient_cohomology(d_in: FpAbHom, d_out: FpAbHom) -> tuple[FgAbGroup, tuple[int, ...]]:
    """Canonical form of ker(d_out) / im(d_in) at the shared middle group,
    and the Smith diagonal of [d_out | target relations].

    Requires target(d_in) == source(d_out), and raises ValueError otherwise.
    Preconditions that are not checked here: both maps are well defined and
    d_out after d_in is the zero map on the quotients (chain.verify_complex
    tests both; the complexes of this package hold them by construction).
    The top rows of a kernel basis of [d_out | target relations] are
    columns G that generate the cocycles.  With B = [d_in | middle
    relations], the result is Z^k modulo {c : G * c lies in the span of
    B}, which is the top k rows of a kernel basis of [G | B].  The
    reduction that gives the first kernel basis gives its matrix's Smith
    diagonal too; it is returned so that the next degree of a complex,
    whose B that matrix is, need not reduce it again.
    """
    if d_in.target != d_out.source:
        raise ValueError("middle groups differ: target(d_in) != source(d_out)")
    middle = d_in.target
    boundaries = d_in.matrix.hstack(middle.relations)
    kernel, diagonal = kernel_basis(d_out.matrix.hstack(d_out.target.relations))
    cocycles = kernel.take_rows(middle.generators)
    rels = kernel_basis(cocycles.hstack(boundaries))[0].take_rows(cocycles.cols)
    return canonical_form(FpAbPresentation(cocycles.cols, rels)), diagonal
