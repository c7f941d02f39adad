"""Spectral-gap stability toolkit for one-dimensional weighted intervals.

Modules:
  measures      grids, CD(N-1,N) densities, the CD(K,N) check (cd_check,
                which alone takes a curvature K),
                the one CSV reader (read_csv), the one Richardson step
                (extrapolate) and the N and D rules (require_dimension,
                require_diameter)
  isoperimetry  diameter-constrained model profiles and comparison constants
  spectral      Neumann eigenproblems, Green operator, cosine decomposition
  obata1d       deficit/distance and diameter/deficit experiment sweeps
  localization  discrete ray-family pipeline up to the final assembly (localize)
  plotting      deterministic SVG rendering of sweep tables
  pool          the process-wide worker pool of the solver's blocked sweeps
  cli           batch front-end (entry point: obatalab)
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    ConfigError,
    DegenerateDensityError,
    DisconnectedSupportError,
    NonCDInputError,
    NormalizationError,
    ObataLabError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from .measures import (
    Grid,
    WeightedInterval,
    cd_check,
    generate_cd_density,
    load_density_csv,
    model_density,
    omega,
)
from .isoperimetry import (
    ProfileQuery,
    asymptotic_constant,
    bbg_constant,
    bbg_ratio_check,
    g_eval,
    profile,
    profile_ode_residual,
    solve_R,
)
from .spectral import (
    bochner_check,
    cosine_decompose,
    deficit,
    green_apply,
    lichnerowicz_check,
    neumann_eigs,
    rayleigh,
)
from .obata1d import (
    ExperimentSpec,
    FitResult,
    deficit_distance_sweep,
    diameter_deficit_sweep,
    loglog_fit,
    upper_gap_check,
)
from .localization import (
    DeficitLedger,
    Localization,
    Ray,
    RayFamily,
    SuspensionGeometry,
    assemble_main,
    bad_set_energy,
    global_deficit,
    load_family,
    localize,
    long_mass_bound,
    normalize,
    per_ray_cosine,
    pole_concentration,
    select_long_rays,
    variance_bound,
    volume_control,
)
from .plotting import render_plot
