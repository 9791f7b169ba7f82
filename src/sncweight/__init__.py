"""Exact homological algebra for dual boundary complexes and weight cohomology.

Given the combinatorial data of a compactification of a smooth
quasi-projective variety with very simple normal crossing boundary, this
package computes the dual boundary complex with its integral reduced
cohomology (torsion included), the bigraded weight cohomology with
compact support, and runs the consistency checks tying the two together.
All arithmetic is exact over the integers.
"""

from .intmat import (
    IntMatrix,
    SnfDecomposition,
    smith_normal_form,
    smith_diagonal,
    kernel_basis,
    column_span_basis,
    solve,
    solve_matrix,
    in_column_span,
)
from .abgroup import (
    FgAbGroup,
    FpAbPresentation,
    FpAbHom,
    IllDefinedHomError,
    NonzeroCompositionError,
    canonical_form,
    kernel,
    image,
    cokernel,
    subquotient_cohomology,
)
from .chain import (
    CochainComplex,
    ComplexMap,
    InvalidComplexError,
    NonCommutingMapError,
    FreeTensorError,
    verify_complex,
    cohomology,
    shift,
    tensor_complex,
    cone,
)
from .sncdata import (
    SncDatum,
    StratumData,
    StrataLevel,
    InvalidDatumError,
    validate,
    validate_structure,
    strata_level,
    level_differential,
)
from .dual import (
    SimplicialComplex,
    GroupPresentation,
    DisconnectedComplexError,
    nerve,
    reduced_cochain_complex,
    reduced_cohomology,
    euler_characteristic,
    edge_path_presentation,
    simplify_presentation,
    real_projective_plane,
)
from .weight import (
    WeightCochainComplex,
    BigradedTable,
    ContractibilityReport,
    weight_cochain_complex,
    weight_cohomology_table,
    check_nerve_identity,
    product_snc,
    a1_stability_check,
    e2_page,
    degeneration_check,
    euler_check,
    contractibility_report,
    tensor_table,
)
from .builders import (
    DatumParseError,
    point_snc,
    projective_space_cohomology,
    affine_space_snc,
    torus_snc,
    punctured_curve_snc,
    from_json,
    to_json,
)
from .reports import Report

__version__ = "0.1.0"
