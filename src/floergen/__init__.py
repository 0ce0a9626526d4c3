"""Exact-arithmetic toolkit for monotone toric quantum cohomology,
superpotential Jacobian rings, split-generation verdicts, and
finite-dimensional A-infinity/Hochschild sign verification."""

from .errors import (
    AnomalyError,
    DomainError,
    FloergenError,
    NotMonotoneError,
    ResourceBudgetError,
    UsageError,
    ValidationError,
)
from .scalar import QQ, Field, PrimeField, UniPoly, parse_field, rational_roots, univariate_factor
from .laurent import LaurentPoly, LaurentRing, laurent_from_json
from .grobner import (
    Budget,
    Morphism,
    QuotientAlgebra,
    algebra_morphism,
    buchberger,
    laurent_quotient,
    polynomial_quotient,
)
from .algebra import (
    FiniteAlgebra,
    LocalFactor,
    bezout_idempotents,
    local_decompose,
    madic_profile,
    radical_char_p,
)
from .toric import (
    DelzantPolytope,
    H2Lattice,
    VertexData,
    corpus,
    h2_lattice,
    minimal_chern,
    monotone_normalize,
    polytope_product,
    primitive_collections,
    projective_space,
    superpotential,
    validate,
)
from .quantum import (
    GenerationReport,
    c1_element,
    c1_spectrum,
    classical_cohomology,
    co0_map,
    cohomology_dims,
    critical_points,
    jacobian_ring,
    qh_presentation,
    real_cohomology_dims,
    s_mod_m2,
    toric_generation_report,
)
from .realgen import (
    frobenius_matrix,
    kernel_containment_check,
    real_gen_data,
    real_generation_report,
    reduction_pi,
)

__version__ = "0.1.0"
