"""Exact computational algebra for equivariant dimension bounds.

Layers, bottom up: integer matrix normal forms (intmat), finitely
generated abelian groups (abgroups), character rings and ideal
filtrations (fusion), join complexes and their K-theory (joins), modules
modelling equivariant K-theory (kmodules), and certified dimension-bound
reports (reports).  Everything is exact integer arithmetic; nothing
floats.
"""

from .abgroups import (
    FgAbelianGroup,
    Presentation,
    TRIVIAL_GROUP,
    cokernel,
    direct_sum,
    normalize,
    parse_group_literal,
    quotient,
    tensor,
    tor,
)
from .errors import (
    CapExceededError,
    EquikError,
    FusionRingError,
    InputError,
    LatticeContainmentError,
    UnsupportedError,
)
from .fusion import (
    BasedRing,
    IdealLattice,
    RingElement,
    augmentation_ideal,
    circle_ideal_image,
    circle_truncation,
    cyclic_ring,
    from_fusion_file,
    fusion_ring_from_json_dict,
    ideal_power,
    ideal_powers,
    lambda_expansion,
    lattice_quotient,
    multiply,
    regular_class_check,
    regular_dimension,
    ring_from_tag,
    ring_product,
)
from .intmat import (
    HnfResult,
    IntMatrix,
    Lattice,
    SnfDecomposition,
    SparseMatrix,
    hermite_rows,
    hermite_solve,
    hnf,
    kernel_basis,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    smith_invariants,
    snf,
    xgcd,
)
from .joins import (
    BettiTable,
    ChainComplex,
    JoinComplex,
    KTheoryRanks,
    MvDeltaReport,
    OracleCheck,
    boundary_matrices,
    build_join_complex,
    check_boundaries,
    join_k_theory_formula,
    join_step_formula,
    mayer_vietoris_delta,
    oracle_consistency,
    reduced_homology,
)
from .kmodules import (
    ModelDescriptor,
    ModuleInvariantError,
    RingModule,
    circle_model,
    element_stable_nonvanishing,
    factor_ideal_power,
    ideal_image,
    kunneth_pieces,
    max_nonvanishing_power,
    module_direct_sum,
    tensor_model,
    trunc_model,
    trunc_z2_model,
    truncated_ring_module,
    zero_module,
)
from .reports import (
    AnnihilatorWitness,
    BoundReport,
    Citation,
    CollapseReport,
    CommutativeDimension,
    DimBound,
    ExistenceReport,
    INFINITY,
    IndexWitness,
    JoinFactorWitness,
    RuleApplication,
    Stability,
    circle_ah_dimension,
    circle_product_dimension,
    commutative_dimension,
    finite_af_bounds,
    is_infinite,
    product_z2_bounds,
    render_bound,
    report_from_json_dict,
    report_to_json_dict,
    rokhlin_factor_bound,
    rule_report,
    tensor_rule,
    unknown_bound,
    validate,
    validate_bound,
    z2_af_bounds,
    z6_collapse_report,
)

__version__ = "0.1.0"
