"""Exact nef-cone computations for Hilbert schemes of points on the
general nine-point blowup of the plane."""

from .lattice import (
    DivisorClass,
    E,
    F,
    H,
    K,
    ZERO,
    arithmetic_genus,
    divisor,
    format_rational,
    intersect,
    is_minus_one_class,
    parse_divisor,
    self_intersection,
)
from .weyl import (
    Root,
    enumerate_minus_one_classes,
    reflect,
    root_basis,
    weyl_orbit,
)
from .surface_cones import (
    AmplenessReport,
    NefCertificate,
    a1_polarization,
    a2_polarization,
    ample_family,
    is_ample_hf_family,
    is_nef_up_to_degree,
)
from .hilb import (
    C0,
    ContractedCurve,
    CurveClass,
    DecompositionError,
    DualityReport,
    HilbDivisor,
    InducedCurve,
    MembershipCertificate,
    b_negative_ray,
    bounding_cone_decompose,
    bounding_cone_membership,
    cone_duality_check,
    fiber_orthogonal_lift,
    lift,
    pair_hilb,
    recompose,
)
from .bridgeland import (
    CandidatePool,
    ChernChar,
    DegenerateWall,
    GiesekerCertificate,
    GiesekerFalsified,
    Slice,
    VerticalWall,
    Wall,
    WallCandidate,
    gieseker_wall,
    ideal_points_char,
    line_bundle_char,
    mu_ap,
    nef_from_wall,
    numerical_wall,
    rank1_candidates,
    rank2_radius_bound,
    rank2_radius_bound_exact,
    quoted_rank_one_center,
    slice_a1,
    slice_a2,
    slice_for,
    twist,
    wall_oracle,
)
from .translations import (
    CoverageConfig,
    CoverageReport,
    CoverageTrial,
    LatticeMap,
    Translation,
    coverage_experiment,
    low_degree_sections,
    reduce_surface_class,
    translation,
    verify_weyl_necessary_conditions,
    weyl_condition_failures,
)
from .reporting import (
    DiscrepancyRow,
    discrepancy_table,
    dominance_under_recomputed,
    dumps_json,
)
from .campaign import (
    Campaign,
    CampaignResult,
    CampaignUsageError,
    CheckResult,
    run_campaign,
    validate_campaign,
)

__version__ = "0.1.0"
