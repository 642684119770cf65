"""ratdyn: periodic-point multiplier data, exact spectra and ergodic
diagnostics for rational maps on the Riemann sphere."""

__version__ = "0.1.0"  # the one version string; pyproject.toml repeats it

from .errors import (
    DegenerateMap,
    DegreeCapExceeded,
    DegreeTooLow,
    InexactDivision,
    InPostcriticalSet,
    MapParseError,
    NewtonDiverged,
    NoReturnFound,
    NotACycle,
    NotRepelling,
    OrbitMismatch,
    PeriodCollision,
    RatdynError,
    RootFindingFailed,
    SingularCurve,
    SpectrumNotRational,
)
from .scalars import Qi
from .sphere import (
    INF,
    MoebiusMap,
    PostcriticalTruncation,
    ProjPoint,
    RationalMap,
    build_map,
    chordal,
    conjugate,
    critical_points,
    evaluate,
    postcritical_truncation,
    spherical_norm,
)
from .periodic import (
    CycleRecord,
    PeriodicSolveReport,
    characteristic_exponent,
    cycles_of_period,
    dynatomic_numerator,
    fixed_point_polynomial,
    group_cycles,
    multiplier,
    periodic_points,
)
from .spectra import (
    AlgebraicSpectrum,
    IntegralityVerdict,
    MembershipVerdict,
    NumberFieldSpec,
    algebraic_spectrum,
    factor_spectrum,
    integrality,
    membership,
    multiplier_polynomial,
)
from .exceptional import (
    ExceptionalClass,
    LattesSpec,
    OrbifoldSignature,
    chebyshev_map,
    chebyshev_polynomial,
    classify,
    cm_lattes_fixture,
    flexible_lattes,
    orbifold_signature,
    power_map,
)
from .ergodic import (
    LyapunovEstimate,
    PointCloud,
    backward_orbit_sample,
    lyapunov,
    lyapunov_from_periodic,
    periodic_cloud,
    weak_convergence_report,
    zdunik_scan,
)
from .homoclinic import (
    ExponentSequence,
    HomoclinicSeed,
    convergence_report,
    exponent_sequence,
    find_seed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
