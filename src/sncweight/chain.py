"""Bounded cochain complexes of finitely presented abelian groups.

A complex holds its groups and, between consecutive groups, plain
IntMatrix differentials on generators.  That they form a complex is a
precondition that no function here checks: the complexes the program
builds are complexes by construction, weight.validate decides it for
the weight complexes of a datum from outside, and the tests decide it
complex by complex with their verify_complex oracle.  Cohomology is
read off one free complex: each group Z^n_a / E_a, with E_a the
column-echelon basis the group stores as its relations, is resolved by
E_a, and the total complex of these resolutions is free with the same
cohomology.  So every degree of every complex reads Smith diagonals
only, and a complex of free groups is its own total complex.
"""

from .abgroup import FgAbGroup, FpAbPresentation
from .intmat import IntMatrix, echelon_lift, smith_diagonal
from .reports import _Record

__all__ = [
    "CochainComplex",
    "cohomology",
]


class CochainComplex(_Record):
    """Groups indexed by consecutive degrees starting at min_degree.

    differentials[i] maps groups[i] to groups[i + 1], so its shape is
    (groups[i + 1].generators, groups[i].generators); an empty groups
    tuple is the zero complex.
    """

    _fields = __slots__ = ("min_degree", "groups", "differentials")

    def __init__(self, min_degree: int, groups: tuple[FpAbPresentation, ...],
                 differentials: tuple[IntMatrix, ...]):
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "differentials", differentials)
        expected = max(len(groups) - 1, 0)
        if len(differentials) != expected:
            raise ValueError(f"expected {expected} differentials, got {len(differentials)}")
        for i, d in enumerate(differentials):
            if d.shape != (groups[i + 1].generators, groups[i].generators):
                raise ValueError(f"differential {i} does not match adjacent groups")

    @property
    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.groups))

    def group_at(self, degree: int) -> FpAbPresentation:
        if degree in self.degrees:
            return self.groups[degree - self.min_degree]
        return FpAbPresentation.zero()

    def differential_at(self, degree: int) -> IntMatrix:
        i = degree - self.min_degree
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return IntMatrix.zeros(self.group_at(degree + 1).generators,
                               self.group_at(degree).generators)


def cohomology(c: CochainComplex) -> dict[int, FgAbGroup]:
    """Degree -> cohomology group, nonzero entries only.

    Precondition, not checked here: c is a complex, every differential
    well defined and every consecutive composite zero modulo the target's
    relations (what the tests' verify_complex oracle decides).  The weight
    complexes of a valid datum, whose squares validate has read off each
    d after d, and the simplicial cochain complexes hold it by
    construction; a lift that does not exist raises ValueError, and
    otherwise the answer is undefined.

    With E_a the injective relation basis of the group in degree a (see
    _total_differential), the total complex has T^a = Z^n_a + Z^r_(a+1)
    and differentials D_a.  So H^a is Z^(dim T^a - rank D_a - rank D_(a-1))
    plus the invariant factors > 1 of D_(a-1).  Each D is reduced once,
    and its diagonal is passed on to the next degree, with the rows that
    its unit phase cleared before any Euclid step: D_(a+1) * D_a = 0, so
    the columns of D_(a+1) at those rows are integer combinations of its
    other columns and are left out of its reduction (the clearing rule
    in the intmat docstring).  Units found after a Euclid step are not
    passed on, as the rule does not cover them.

    >>> z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    >>> c = CochainComplex(0, (FpAbPresentation.free(1), z2), (IntMatrix.from_rows([[1]]),))
    >>> {a: str(h) for a, h in cohomology(c).items()}
    {0: 'Z'}
    >>> z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    >>> c = CochainComplex(0, (z4, z4), (IntMatrix.from_rows([[2]]),))
    >>> {a: str(h) for a, h in cohomology(c).items()}
    {0: 'Z/2', 1: 'Z/2'}
    """
    out = {}
    # D_(first-1) maps Z^r_first, which is all of T^(first-1), injectively.
    last, cleared = smith_diagonal(_total_differential(c, c.min_degree - 1))
    for a, g in zip(c.degrees, c.groups):
        diagonal, cleared = smith_diagonal(_total_differential(c, a), cleared)
        size = g.generators + c.group_at(a + 1).relations.cols
        h = FgAbGroup(size - len(diagonal) - len(last), tuple(x for x in last if x > 1))
        last = diagonal
        if not h.is_zero:
            out[a] = h
    return out


def _total_differential(c: CochainComplex, a: int) -> IntMatrix:
    """D_a = [[d_a, E_(a+1)], [-g_a, -h_(a+1)]] of the total complex.

    E_(a+1) and E_(a+2) are the relations of groups a+1 and a+2, zero
    past the last group.  The lifts solve
    E_(a+2) * [g_a | h_(a+1)] = d_(a+1) * [d_a | E_(a+1)]: well-defined
    maps give h, and g is there because a composite need only vanish
    modulo relations, not on the nose.  E_(a+2) is injective, so
    D_(a+1) * D_a = 0.  With no relations in degrees a+1 and a+2, D_a
    is d_a itself.
    """
    e_next, e_after = c.group_at(a + 1).relations, c.group_at(a + 2).relations
    d = c.differential_at(a)
    top = d.hstack(e_next) if e_next.cols else d
    if not e_after.cols:
        return top
    lift = echelon_lift(e_after, c.differential_at(a + 1) * top)
    return IntMatrix.from_blocks(top.rows + lift.rows, top.cols, (
        (0, 0, top, 1, True, 1), (top.rows, 0, lift, 1, True, -1)))
