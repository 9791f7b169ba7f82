"""Finitely generated and finitely presented abelian groups.

An FgAbGroup is the canonical invariant-factor form, so two values are
isomorphic as groups exactly when they compare equal.  An
FpAbPresentation is Z^n modulo the column span of an integer relation
matrix; relations are always stored as columns, here and in every file
format.  A homomorphism between presented groups is a plain IntMatrix
on generators, of shape target.generators x source.generators.

A presented group is read through the column echelon of its relations
(intmat.column_echelon): canonical_form takes the echelon's Smith
diagonal, and in_span, the one span-membership test of the package,
lifts onto it.  So does the cohomology of a complex of these groups
(see chain.cohomology).
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
    """Z^generators modulo the column span of the relation matrix."""

    _fields = __slots__ = ("generators", "relations")

    def __init__(self, generators: int, relations: IntMatrix):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        if relations.rows != generators:
            raise ValueError(
                f"relation matrix has {relations.rows} rows for {generators} generators"
            )

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


def in_span(m: IntMatrix, relations: IntMatrix) -> bool:
    """True when every column of m lies in the column span of relations.

    m is lifted onto the column echelon of relations.  Row counts that
    differ raise ValueError, and an echelon over the dense budget raises
    DenseWorkTooLargeError; only a column that does not lift reads as False.

    >>> in_span(IntMatrix.from_rows([[4], [6]]), IntMatrix.from_rows([[2, 0], [0, 3]]))
    True
    >>> in_span(IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[2, 0], [0, 3]]))
    False
    """
    if m.rows != relations.rows:
        raise ValueError(f"row counts differ: {m.rows} vs {relations.rows}")
    if m.is_zero or not relations.cols:
        return m.is_zero
    basis = column_echelon(relations)
    try:
        echelon_lift(basis, m)
    except ValueError:
        return False
    return True


def canonical_form(p: FpAbPresentation) -> FgAbGroup:
    """Invariant factors of Z^n modulo the relation span.

    >>> canonical_form(FpAbPresentation.from_relation_columns(1, [[2]]))
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    diag = smith_diagonal(column_echelon(p.relations))
    torsion = tuple(x for x in diag if x > 1)
    return FgAbGroup(p.generators - len(diag), torsion)
