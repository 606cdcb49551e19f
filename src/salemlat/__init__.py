"""Exact-arithmetic toolkit for Salem polynomials and lattice isometries."""

__version__ = "0.1.0"

from .intpoly import (
    IntPolynomial,
    count_roots_outside_unit_circle,
    cyclotomic_order,
    cyclotomic_polynomial,
    euler_phi,
    is_cyclotomic_product,
    is_irreducible_over_integers,
    is_reciprocal,
    monic_irreducible_factors,
    sturm_count,
    trace_polynomial,
)
from .isometry import (
    FiniteOrder,
    LatticeIsometry,
    MixedSpectrum,
    SalemType,
    char_poly,
    classify_isometry,
    entropy,
    express_in_powers,
    fixes_isotropic_ray,
    has_simple_spectrum,
    is_primary_charpoly,
    order,
    verify_isometry,
)
from .k3 import (
    DEFAULT_PRIMES,
    K3ConstructionReport,
    PeriodPoint,
    PrimeSelection,
    QuarticAlgebraElement,
    alpha_map,
    build_phi,
    build_sublattices,
    eichler_extension,
    extend_to_lambda,
    extension_order,
    group_rank_via_alpha,
    k3_lattice,
    minimal_primitive_sublattice,
    period_point,
    run_k3,
    torelli_certificate,
    verify_construction,
)
from .lattice import (
    DiscriminantGroup,
    GramLattice,
    LatticeClass,
    SignatureTriple,
    SublatticeEmbedding,
    classify,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    e8_minus_one,
    hyperbolic_plane,
    index_of_sum,
    is_primitive,
    orthogonal_complement,
    quotient_by_radical,
    radical,
    represents,
    saturation,
    signature,
    vectors_of_norm,
)
from .linalg import smith_normal_form
from .parabolic import (
    UnipotentCoordinates,
    abelian_rank_of_image,
    parabolic_coordinates,
    parabolic_group_rank,
)
from .rational import RationalInterval
from .salem import (
    SalemCertificate,
    SalemRejection,
    bounded_power_products,
    classify_salem,
    enumerate_salem,
)
