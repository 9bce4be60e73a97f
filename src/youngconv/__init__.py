"""Optimal constants of Young's convolution inequality on discretized
locally compact groups: exact closed forms where they exist, certified
numerical lower bounds on finite groups and the abelian grids, a grid
diagnostic on the affine grid, and the supporting identities as executable
checks."""

from .exponents import Exponent, ExponentError, YoungExponents, holder_conjugate, young_p
from .constants import (
    beckner_B,
    beckner_Y_Rn,
    boundary_value,
    neg_log_constant,
    product_bound,
)
from .catalog import (
    LieGroupDescriptor,
    builtin_catalog,
    catalog_consistency_check,
    load_catalog,
    max_compact_bound,
    nielsen_exact,
)
from .groups import (
    GroupFunction,
    GroupModel,
    GroupModelError,
    affine_prime_field,
    check_modular_identity,
    cyclic_group,
    finite_product,
    load_group_table,
    make_affine_group,
    make_finite_group,
    make_integer_line,
    make_plane,
    make_real_line,
    make_torus,
)
from .convolution import lp_norm, transform_identity_check, twisted_convolve, young_ratio
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    boundary_witness,
    estimate,
    gaussian_ansatz,
    monotonicity_audit,
)
from .quotient import (
    SubgroupError,
    build_subgroup_pair,
    corrupt_delta,
    left_invariance_check,
    weil_decompose_check,
)
from .chain import (
    build_coset_functionals,
    chain_check,
    generalized_holder,
    identity_checks,
)

__version__ = "0.1.0"
