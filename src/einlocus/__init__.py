"""Numerical verification of the Einstein condition on real loci of
Kahler manifolds defined by chart potentials and anti-holomorphic maps."""

__version__ = "0.1.0"

from .antiholo import (
    AntiholoMap,
    FixedLocusParam,
    anti_isometry_residual,
    antiholomorphy_residual,
    fixed_locus_residual,
    isometry_residual,
    potential_invariance_residual,
)
from .bundles import (
    ManifoldBundle,
    builtin_cpn,
    builtin_flat_torus,
    builtin_quadric,
    builtin_toric_chart,
    builtin_toric_flat,
    builtin_toric_fs,
    list_builtins,
    make_builtin,
)
from .coords import ChartPoint, j_matrix
from .criterion import (
    SpectralVerdict,
    TraceOperatorAt,
    spectral_test,
    trace_operator_at,
)
from .errors import (
    ChartDomainError,
    DegenerateMetricError,
    EinlocusError,
    JetOrderError,
    NonAnalyticFieldError,
    RankDeficiencyError,
    SpecFormatError,
    UnknownPrimitiveError,
)
from .jets import Jet, JetSpace, jet_space, lift_callable_to_jet
from .locus import (
    LocusGeometry,
    lagrangian_residual,
    locus_point,
    restricted_ricci,
    totally_real_residual,
)
from .metrics import ChartGeometry, PotentialChart, einstein_residual, lift_to_jet
from .sampling import SamplingConfig, halton_points, sample_chart_points
from .specfile import bundle_from_dict, bundle_to_dict, load_spec, save_spec
from .verify import (
    EXIT_DEGENERATE,
    EXIT_EINSTEIN,
    EXIT_HYPOTHESES_FAILED,
    EXIT_NOT_EINSTEIN,
    EXIT_USAGE,
    Tolerances,
    VerificationReport,
    verdict,
)
