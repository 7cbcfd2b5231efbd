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
    is_ample,
    is_nef,
)
from .hilb import (
    C0,
    ContractedCurve,
    CurveClass,
    DecompositionError,
    DualityReport,
    HilbDivisor,
    InducedCurve,
    b_negative_ray,
    bounding_cone_decompose,
    cone_duality_check,
    fiber_orthogonal_lift,
    lift,
    pair_hilb,
)
from .bridgeland import (
    SLICES,
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
    nef_from_wall,
    rank1_candidates,
    rank2_radius_bound,
    rank_one_wall,
    wall_oracle,
)
from .translations import (
    CoverageConfig,
    CoverageReport,
    CoverageTrial,
    coverage_experiment,
    reduce_surface_class,
)
from .reporting import (
    DiscrepancyRow,
    discrepancy_table,
    dumps_json,
)
from .campaign import (
    CampaignResult,
    CheckResult,
    run_campaign,
)

__version__ = "0.1.0"
