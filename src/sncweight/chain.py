"""Bounded cochain complexes of finitely presented abelian groups."""

from typing import Mapping

from .abgroup import (
    FgAbGroup,
    FpAbHom,
    FpAbPresentation,
    subquotient_cohomology,
)
from .intmat import IntMatrix, smith_diagonal
from .reports import Report, _Record

__all__ = [
    "CochainComplex",
    "ComplexMap",
    "InvalidComplexError",
    "NonCommutingMapError",
    "FreeTensorError",
    "verify_complex",
    "cohomology",
    "shift",
    "tensor_complex",
    "cone",
]


class InvalidComplexError(ValueError):
    """The differentials do not square to zero (or are ill defined)."""


class NonCommutingMapError(ValueError):
    """A map of complexes does not commute with the differentials."""


class FreeTensorError(ValueError):
    """Tensor products are only implemented for complexes of free groups."""


class CochainComplex(_Record):
    """Groups indexed by consecutive degrees starting at min_degree.

    differentials[i] maps groups[i] to groups[i + 1]; an empty groups
    tuple is the zero complex.
    """

    _fields = __slots__ = ("min_degree", "groups", "differentials")

    def __init__(self, min_degree: int, groups: tuple[FpAbPresentation, ...],
                 differentials: tuple[FpAbHom, ...]):
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "differentials", differentials)
        expected = max(len(groups) - 1, 0)
        if len(differentials) != expected:
            raise ValueError(f"expected {expected} differentials, got {len(differentials)}")
        for i, d in enumerate(differentials):
            if d.source != groups[i] or d.target != groups[i + 1]:
                raise ValueError(f"differential {i} does not match adjacent groups")

    @classmethod
    def zero(cls) -> "CochainComplex":
        return cls(0, (), ())

    @classmethod
    def concentrated(cls, group: FpAbPresentation, degree: int) -> "CochainComplex":
        return cls(degree, (group,), ())

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.groups) - 1

    @property
    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.groups))

    @property
    def is_empty(self) -> bool:
        return not self.groups

    def group_at(self, degree: int) -> FpAbPresentation:
        if degree in self.degrees:
            return self.groups[degree - self.min_degree]
        return FpAbPresentation.zero()

    def differential_at(self, degree: int) -> FpAbHom:
        i = degree - self.min_degree
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return FpAbHom.zero(self.group_at(degree), self.group_at(degree + 1))


class ComplexMap(_Record):
    """A degreewise map of cochain complexes, expected to commute with d."""

    _fields = __slots__ = ("source", "target", "components")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 components: Mapping[int, FpAbHom]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", components)

    def component_at(self, degree: int) -> FpAbHom:
        if degree in self.components:
            return self.components[degree]
        return FpAbHom.zero(self.source.group_at(degree), self.target.group_at(degree))

    def check(self) -> Report:
        problems = []
        for a, f in sorted(self.components.items()):
            if f.source != self.source.group_at(a) or f.target != self.target.group_at(a):
                problems.append(f"degree {a}: component does not match the complexes")
        degrees = set(self.source.degrees) | set(self.target.degrees)
        for a in sorted(degrees):
            lhs = self.target.differential_at(a).compose(self.component_at(a))
            rhs = self.component_at(a + 1).compose(self.source.differential_at(a))
            if not (lhs - rhs).is_zero_hom():
                problems.append(f"degree {a}: square with the differentials does not commute")
        return Report("complex-map", not problems, tuple(problems))


def verify_complex(c: CochainComplex) -> Report:
    """Check d(a+1) after d(a) is zero in every degree; report failures."""
    problems = []
    for i, d in enumerate(c.differentials):
        if not d.is_well_defined():
            problems.append(f"degree {c.min_degree + i}: differential is not well defined")
    for i in range(len(c.differentials) - 1):
        comp = c.differentials[i + 1].compose(c.differentials[i])
        if not comp.is_zero_hom():
            problems.append(f"degree {c.min_degree + i}: d after d is nonzero")
    return Report("d-squared", not problems, tuple(problems))


def cohomology(c: CochainComplex) -> dict[int, FgAbGroup]:
    """Degree -> cohomology group, nonzero entries only.

    For a complex of free groups, with r_a the rank of d_a, H^a is
    Z^(n_a - r_a - r_(a-1)) plus the invariant factors > 1 of d_(a-1),
    so each differential needs only its Smith diagonal.  Complexes with
    relations take the presented subquotient path.
    """
    rep = verify_complex(c)
    if not rep.passed:
        raise InvalidComplexError("; ".join(rep.details))
    out = {}
    if all(g.is_relation_free for g in c.groups):
        diagonals = [()] + [smith_diagonal(d.matrix) for d in c.differentials] + [()]
        for i, g in enumerate(c.groups):
            d_in, d_out = diagonals[i], diagonals[i + 1]
            h = FgAbGroup(g.generators - len(d_out) - len(d_in),
                          tuple(x for x in d_in if x > 1))
            if not h.is_zero:
                out[c.min_degree + i] = h
        return out
    for a in c.degrees:
        h = subquotient_cohomology(c.differential_at(a - 1), c.differential_at(a))
        if not h.is_zero:
            out[a] = h
    return out


def shift(c: CochainComplex, s: int) -> CochainComplex:
    """The shifted complex c[s], with c[s]^n = c^(n+s) and d scaled by (-1)^s."""
    if c.is_empty or s == 0:
        return c if s == 0 else CochainComplex(c.min_degree - s, c.groups, c.differentials)
    sign = -1 if s % 2 else 1
    diffs = tuple(d.scale(sign) for d in c.differentials)
    return CochainComplex(c.min_degree - s, c.groups, diffs)


def _require_free(c: CochainComplex, who: str) -> None:
    for a in c.degrees:
        if not c.group_at(a).is_relation_free:
            raise FreeTensorError(f"{who} has a non-free group in degree {a}")


def tensor_complex(c: CochainComplex, d: CochainComplex) -> CochainComplex:
    """Total complex of the double complex c^p (x) d^q, Koszul signs on the second factor."""
    _require_free(c, "left factor")
    _require_free(d, "right factor")
    if c.is_empty or d.is_empty:
        return CochainComplex.zero()
    lo = c.min_degree + d.min_degree
    hi = c.max_degree + d.max_degree

    def blocks(n: int) -> list[tuple[int, int, int]]:
        out = []
        for p in c.degrees:
            q = n - p
            if q in d.degrees:
                out.append((p, q, c.group_at(p).generators * d.group_at(q).generators))
        return out

    def offsets(bl):
        off = {}
        pos = 0
        for p, q, size in bl:
            off[(p, q)] = pos
            pos += size
        return off, pos

    groups = []
    diffs = []
    all_blocks = {n: blocks(n) for n in range(lo, hi + 1)}
    for n in range(lo, hi + 1):
        _, total = offsets(all_blocks[n])
        groups.append(FpAbPresentation.free(total))
    for n in range(lo, hi):
        src_off, src_total = offsets(all_blocks[n])
        tgt_off, tgt_total = offsets(all_blocks[n + 1])
        entries = []

        def place(block: IntMatrix, r0: int, c0: int):
            entries.extend((r0 + i, c0 + j, e) for i, j, e in block.nonzeros())

        for p, q, size in all_blocks[n]:
            if size == 0:
                continue
            gp = c.group_at(p).generators
            gq = d.group_at(q).generators
            if (p + 1, q) in tgt_off:
                block = c.differential_at(p).matrix.kron(IntMatrix.identity(gq))
                place(block, tgt_off[(p + 1, q)], src_off[(p, q)])
            if (p, q + 1) in tgt_off:
                sign = -1 if p % 2 else 1
                block = IntMatrix.identity(gp).kron(d.differential_at(q).matrix).scale(sign)
                place(block, tgt_off[(p, q + 1)], src_off[(p, q)])
        diffs.append(
            FpAbHom(
                groups[n - lo],
                groups[n + 1 - lo],
                IntMatrix.from_entries(tgt_total, src_total, entries),
            )
        )
    return CochainComplex(lo, tuple(groups), tuple(diffs))


def cone(f: ComplexMap) -> CochainComplex:
    """Mapping cone: degree n is source^(n+1) + target^n, d = [[-d_S, 0], [f, d_T]]."""
    rep = f.check()
    if not rep.passed:
        raise NonCommutingMapError("; ".join(rep.details))
    s, t = f.source, f.target
    if s.is_empty and t.is_empty:
        return CochainComplex.zero()
    los = [x for x in (s.min_degree - 1 if not s.is_empty else None,
                       t.min_degree if not t.is_empty else None) if x is not None]
    his = [x for x in (s.max_degree - 1 if not s.is_empty else None,
                       t.max_degree if not t.is_empty else None) if x is not None]
    lo, hi = min(los), max(his)
    groups = tuple(
        FpAbPresentation.direct_sum([s.group_at(n + 1), t.group_at(n)])
        for n in range(lo, hi + 1)
    )
    diffs = []
    for n in range(lo, hi):
        ds = s.differential_at(n + 1)
        dt = t.differential_at(n)
        fc = f.component_at(n + 1)
        top = (-ds.matrix).hstack(IntMatrix.zeros(ds.matrix.rows, dt.matrix.cols))
        bottom = fc.matrix.hstack(dt.matrix)
        diffs.append(FpAbHom(groups[n - lo], groups[n + 1 - lo], top.vstack(bottom)))
    return CochainComplex(lo, groups, tuple(diffs))
