"""Bounded cochain complexes of finitely presented abelian groups."""

from .abgroup import (
    FgAbGroup,
    FpAbHom,
    FpAbPresentation,
    subquotient_cohomology,
)
from .intmat import smith_diagonal
from .reports import Report, _Record

__all__ = [
    "CochainComplex",
    "InvalidComplexError",
    "FreeTensorError",
    "verify_complex",
    "cohomology",
]


class InvalidComplexError(ValueError):
    """The differentials do not square to zero (or are ill defined)."""


class FreeTensorError(ValueError):
    """Products of data are only implemented for free stratum cohomology."""


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
    def concentrated(cls, group: FpAbPresentation, degree: int) -> "CochainComplex":
        return cls(degree, (group,), ())

    @property
    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.groups))

    def group_at(self, degree: int) -> FpAbPresentation:
        if degree in self.degrees:
            return self.groups[degree - self.min_degree]
        return FpAbPresentation.zero()

    def differential_at(self, degree: int) -> FpAbHom:
        i = degree - self.min_degree
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return FpAbHom.zero(self.group_at(degree), self.group_at(degree + 1))


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

