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
    "verify_complex",
    "cohomology",
]


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

    Precondition, not checked here: c is a complex, every differential
    well defined and every consecutive composite zero (what verify_complex
    tests).  The weight complexes of a valid datum and the simplicial
    cochain complexes hold it by construction; on anything else the
    answer is undefined.

    At a degree a whose next group is relation-free (the last degree,
    and every degree of a free complex), ker d_a is saturated and holds
    the span of B = [d_(a-1) | relations in degree a], so H^a is
    Z^(n_a - rank d_a - rank B) plus the invariant factors > 1 of B.
    This reads Smith diagonals only, each differential's at most once.
    Every other degree takes the kernel route of subquotient_cohomology,
    which assumes well-defined maps and a zero composite.

    >>> from sncweight.intmat import IntMatrix
    >>> z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    >>> c = CochainComplex(0, (FpAbPresentation.free(1), z2),
    ...                    (FpAbHom(FpAbPresentation.free(1), z2, IntMatrix.from_rows([[1]])),))
    >>> {a: str(h) for a, h in cohomology(c).items()}
    {0: 'Z'}
    >>> z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    >>> c = CochainComplex(0, (z4, z4), (FpAbHom(z4, z4, IntMatrix.from_rows([[2]])),))
    >>> {a: str(h) for a, h in cohomology(c).items()}
    {0: 'Z/2', 1: 'Z/2'}
    """
    out = {}
    last = ()  # the Smith diagonal of d_(a-1) when degree a-1 took the diagonal rule
    for a, g in zip(c.degrees, c.groups):
        d_in, d_out = c.differential_at(a - 1), c.differential_at(a)
        if c.group_at(a + 1).is_relation_free:
            # If g is relation-free, degree a-1 took this rule too and reduced d_in.
            b = last if g.is_relation_free else smith_diagonal(d_in.matrix.hstack(g.relations))
            last = smith_diagonal(d_out.matrix)
            h = FgAbGroup(g.generators - len(last) - len(b), tuple(x for x in b if x > 1))
        else:
            h = subquotient_cohomology(d_in, d_out)
        if not h.is_zero:
            out[a] = h
    return out
