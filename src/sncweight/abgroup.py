"""Finitely generated and finitely presented abelian groups.

An FgAbGroup is the canonical invariant-factor form, so two values are
isomorphic as groups exactly when they compare equal.  An
FpAbPresentation is Z^n modulo the column span of an integer relation
matrix; relations are always stored as columns, here and in every file
format.  A homomorphism between presented groups is a plain IntMatrix
on generators, of shape target.generators x source.generators.

A presented group stores as its relations a lower column-echelon basis
of the span it is given (intmat.column_echelon, Hermite normal form up
to signs): its constructor is the one place that echelonizes.  Every
group fact is read off that injective basis: the rank is generators -
columns, canonical_form takes its Smith diagonal, and in_span, the one
span-membership test of the package, lifts onto it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress
from math import gcd

from .intmat import IntMatrix, _int_entries, column_echelon, echelon_lift, smith_diagonal
from .intmat import invariant_factors
from .reports import _Record

__all__ = [
    "FgAbGroup",
    "FpAbPresentation",
    "canonical_form",
    "in_span",
    "is_well_defined",
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
        """Canonicalize a direct sum of Z/order factors into invariant factors."""
        factors = [int(o) for o in orders]
        if any(o <= 0 for o in factors):
            raise ValueError("cyclic orders must be positive; use free_rank for Z summands")
        return cls(free_rank, invariant_factors(factors))

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
    """Z^generators modulo the relation span; relations holds its column-echelon basis."""

    _fields = __slots__ = ("generators", "relations")

    def __init__(self, generators: int, relations: IntMatrix):
        if relations.rows != generators:
            raise ValueError(
                f"relation matrix has {relations.rows} rows for {generators} generators"
            )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", column_echelon(relations))

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
        total = sum(p.generators for p in parts)
        blocks = []
        row0 = col0 = 0
        for p in parts:
            if p.relations.cols:
                blocks.append((row0, col0, p.relations, 1, True, 1))
            row0 += p.generators
            col0 += p.relations.cols
        # The block diagonal of the parts' bases is already a column-echelon basis.
        out = object.__new__(FpAbPresentation)
        object.__setattr__(out, "generators", total)
        object.__setattr__(out, "relations", IntMatrix.from_blocks(total, col0, blocks))
        return out


def in_span(m: IntMatrix, group: FpAbPresentation) -> bool:
    """True when every column of m lies in the relation span of group.

    m is lifted onto group's relation basis by forward substitution.  A
    row count other than group's generator count raises ValueError; only
    a column that does not lift reads as False.

    >>> z2_z3 = FpAbPresentation.from_relation_columns(2, [[2, 0], [0, 3]])
    >>> in_span(IntMatrix.from_rows([[4], [6]]), z2_z3)
    True
    >>> in_span(IntMatrix.from_rows([[1], [0]]), z2_z3)
    False
    """
    if m.rows != group.generators:
        raise ValueError(f"row counts differ: {m.rows} vs {group.generators}")
    if m.is_zero or group.is_relation_free:
        return m.is_zero
    try:
        echelon_lift(group.relations, m)
    except ValueError:
        return False
    return True


def is_well_defined(m: IntMatrix, source: FpAbPresentation, target: FpAbPresentation) -> bool:
    """Whether m, on generators, maps source's relations into target's span: a homomorphism."""
    return source.is_relation_free or in_span(m * source.relations, target)


def canonical_form(p: FpAbPresentation) -> FgAbGroup:
    """Invariant factors of Z^n modulo the relation span.

    >>> canonical_form(FpAbPresentation.from_relation_columns(1, [[2]]))
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    diag, _ = smith_diagonal(p.relations)
    torsion = tuple(x for x in diag if x > 1)
    return FgAbGroup(p.generators - len(diag), torsion)
