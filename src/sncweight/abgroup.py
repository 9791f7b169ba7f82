"""Finitely generated and finitely presented abelian groups.

An FgAbGroup is the canonical invariant-factor form, so two values are
isomorphic as groups exactly when they compare equal.  An
FpAbPresentation is Z^n modulo the column span of an integer relation
matrix; relations are always stored as columns, here and in every file
format.  An FpAbHom is a homomorphism between presented groups, given by
its matrix on generators.
"""

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .intmat import (
    IntMatrix,
    _snf_reduce,
    column_span_basis,
    kernel_basis,
    smith_diagonal,
    solve_matrix,
)

__all__ = [
    "FgAbGroup",
    "FpAbPresentation",
    "FpAbHom",
    "IllDefinedHomError",
    "NonzeroCompositionError",
    "canonical_form",
    "kernel",
    "image",
    "cokernel",
    "subquotient_cohomology",
]


class IllDefinedHomError(ValueError):
    """The matrix does not send source relations into the target relation span."""


class NonzeroCompositionError(ValueError):
    """Two maps expected to compose to zero do not."""


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank plus cyclic factors Z/d1 x ... x Z/dk with d1 | d2 | ... | dk.

    >>> str(FgAbGroup(2, (2, 4)))
    'Z^2 x Z/2 x Z/4'
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"torsion coefficient {t} < 2")
            if prev is not None and t % prev:
                raise ValueError(f"invariant factors must divide: {prev} does not divide {t}")
            prev = t

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FgAbGroup":
        if order == 0:
            return cls.free(1)
        return cls.from_cyclic_orders([order])

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


@dataclass(frozen=True)
class FpAbPresentation:
    """Z^generators modulo the column span of the relation matrix."""

    generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.generators:
            raise ValueError(
                f"relation matrix has {self.relations.rows} rows for {self.generators} generators"
            )

    @classmethod
    def free(cls, n: int) -> "FpAbPresentation":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def zero(cls) -> "FpAbPresentation":
        return cls.free(0)

    @classmethod
    def from_relation_columns(cls, generators: int, columns: Sequence[Sequence[int]]) -> "FpAbPresentation":
        cols = [list(c) for c in columns]
        if any(len(c) != generators for c in cols):
            raise ValueError("relation column length must equal generator count")
        data = [c[i] for i in range(generators) for c in cols]
        return cls(generators, IntMatrix(generators, len(cols), data))

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
        grid = [
            [
                p.relations if i == j else IntMatrix.zeros(p.generators, q.relations.cols)
                for j, q in enumerate(parts)
            ]
            for i, p in enumerate(parts)
        ]
        return FpAbPresentation(total, IntMatrix.block(grid))


@dataclass(frozen=True)
class FpAbHom:
    """A homomorphism source -> target given by a matrix on generators.

    The matrix acts on column vectors of source coordinates, so it has
    shape target.generators x source.generators.
    """

    source: FpAbPresentation
    target: FpAbPresentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.generators, self.source.generators):
            raise ValueError(
                f"hom matrix shape {self.matrix.shape} does not match "
                f"{self.target.generators}x{self.source.generators}"
            )

    @classmethod
    def zero(cls, source: FpAbPresentation, target: FpAbPresentation) -> "FpAbHom":
        return cls(source, target, IntMatrix.zeros(target.generators, source.generators))

    @classmethod
    def identity(cls, p: FpAbPresentation) -> "FpAbHom":
        return cls(p, p, IntMatrix.identity(p.generators))

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

    def scale(self, c: int) -> "FpAbHom":
        return FpAbHom(self.source, self.target, self.matrix.scale(c))

    def __add__(self, other: "FpAbHom") -> "FpAbHom":
        if not isinstance(other, FpAbHom):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise ValueError("can only add homs with equal source and target")
        return FpAbHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "FpAbHom") -> "FpAbHom":
        if not isinstance(other, FpAbHom):
            return NotImplemented
        return self.__add__(other.scale(-1))

    @staticmethod
    def direct_sum(homs: Sequence["FpAbHom"]) -> "FpAbHom":
        if not homs:
            return FpAbHom.zero(FpAbPresentation.zero(), FpAbPresentation.zero())
        source = FpAbPresentation.direct_sum([h.source for h in homs])
        target = FpAbPresentation.direct_sum([h.target for h in homs])
        grid = [
            [
                h.matrix if i == j else IntMatrix.zeros(h.target.generators, g.source.generators)
                for j, g in enumerate(homs)
            ]
            for i, h in enumerate(homs)
        ]
        return FpAbHom(source, target, IntMatrix.block(grid))


def _columns_in_span(m: IntMatrix, span: IntMatrix) -> bool:
    if m.is_zero:
        return True
    if span.cols == 0:
        return False
    return solve_matrix(span, m) is not None


def canonical_form(p: FpAbPresentation) -> FgAbGroup:
    """Invariant factors of Z^n modulo the relation span.

    >>> canonical_form(FpAbPresentation.from_relation_columns(1, [[2]]))
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    diag = smith_diagonal(p.relations)
    torsion = tuple(x for x in diag if x > 1)
    return FgAbGroup(p.generators - len(diag), torsion)


def _require_well_defined(f: FpAbHom, what: str = "homomorphism") -> None:
    if not f.is_well_defined():
        raise IllDefinedHomError(
            f"{what} does not send source relations into the target relation span"
        )


def _preimage_basis(matrix: IntMatrix, span: IntMatrix) -> IntMatrix:
    """Basis of the subgroup {x : matrix * x lies in the column span of span}."""
    if span.cols == 0:
        return kernel_basis(matrix)
    stacked = matrix.hstack(span)
    lifted = kernel_basis(stacked)
    gens = lifted.take_rows(matrix.cols)
    return column_span_basis(gens)


def kernel(f: FpAbHom) -> FpAbPresentation:
    """Presentation of the kernel of the induced map on quotient groups."""
    _require_well_defined(f)
    lift = _preimage_basis(f.matrix, f.target.relations)
    rels = solve_matrix(lift, f.source.relations)
    assert rels is not None, "source relations must lie in the kernel lift"
    return FpAbPresentation(lift.cols, rels)


def image(f: FpAbHom) -> FpAbPresentation:
    """Presentation of the image inside the target group."""
    _require_well_defined(f)
    # The image is Z^source-generators modulo everything that maps to zero.
    return FpAbPresentation(f.source.generators, _preimage_basis(f.matrix, f.target.relations))


def cokernel(f: FpAbHom) -> FpAbPresentation:
    """Presentation of target modulo the image."""
    _require_well_defined(f)
    return FpAbPresentation(
        f.target.generators, f.matrix.hstack(f.target.relations)
    )


def subquotient_cohomology(d_in: FpAbHom, d_out: FpAbHom) -> FgAbGroup:
    """Canonical form of ker(d_out) / im(d_in) at the shared middle group.

    Requires target(d_in) == source(d_out) and d_out after d_in to be the
    zero map on the quotients.
    """
    if d_in.target != d_out.source:
        raise ValueError("middle groups differ: target(d_in) != source(d_out)")
    _require_well_defined(d_in, "incoming map")
    _require_well_defined(d_out, "outgoing map")
    if not d_out.compose(d_in).is_zero_hom():
        raise NonzeroCompositionError("composition of the two maps is not zero")
    middle = d_in.target
    boundaries = d_in.matrix.hstack(middle.relations)
    if d_out.target.relations.cols == 0:
        # Free target: read boundary coordinates off the kernel basis directly.
        # With u * B * v = d, the kernel is spanned by the v-columns over zero
        # diagonal entries, and coordinates in that basis are rows of v^-1.
        _, d, _, _, vi = _snf_reduce(d_out.matrix, want_vi=True)
        keep = [
            j for j in range(d_out.matrix.cols)
            if (d[(j, j)] if j < d_out.matrix.rows else 0) == 0
        ]
        lifted = vi * boundaries
        keep_set = set(keep)
        rows = []
        for j in range(lifted.rows):
            if j in keep_set:
                rows.append(lifted.row(j))
            else:
                assert not any(lifted.row(j)), "boundaries must lie in the kernel"
        rels = IntMatrix.from_rows(rows, boundaries.cols)
        return canonical_form(FpAbPresentation(len(keep), rels))
    cocycles = _preimage_basis(d_out.matrix, d_out.target.relations)
    rels = solve_matrix(cocycles, boundaries)
    assert rels is not None, "boundaries must lie in the cocycle subgroup"
    return canonical_form(FpAbPresentation(cocycles.cols, rels))
