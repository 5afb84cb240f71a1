"""Rank-2 holomorphic bundles on non-Kähler elliptic surfaces.

Fibre arithmetic on the Tate model, Néron–Severi intersection theory,
sections and bisections of the relative Jacobian, spectral covers of
rank-2 bundles, and the existence classification with replayable
construction recipes.
"""

from .bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    RankTwoBundle,
    SpectralCover,
    SpectralPushBundle,
    SpectralVerificationError,
    apply_modification_ledger,
    chern_data,
    chern_of_extension,
    elementary_modification,
    spectral_accounting,
    spectral_cover,
    trivial_line_bundle,
)
from .existence import (
    Existence,
    Recipe,
    Verdict,
    existence_verdict,
    replay_recipe,
)
from .jacobian import (
    Bisection,
    DoubleCoverData,
    RationalMap,
    RuledBounds,
    SectionOfJ,
    branch_point_count,
    branch_points_numeric,
    genus_and_branching,
    graph_self_intersection,
    involution_on_section,
    irreducible_bisection,
    is_invariant_bisection,
    reducible_bisection,
    ruled_invariant_bounds,
    section_for_class,
    section_pairing,
    sections_equal,
    zero_section,
)
from .surface import (
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    UNIT_LATTICE,
    ZERO_LATTICE,
    base_point,
    discriminant,
    filtrable_bound,
    pairing,
    same_base_point,
    self_intersection,
    spectral_support_count,
)
from .tate import (
    DEFAULT_TOL,
    INF,
    CurveParam,
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    group_inv,
    identity,
    points_equal,
    quotient_x,
    quotient_x_at,
    two_torsion,
    x_preimages,
)

__version__ = "0.1.0"
