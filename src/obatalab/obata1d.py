"""Experiment drivers for deficit-versus-distance and diameter-deficit sweeps.

Each sweep point is an independent job. The jobs run on the process-wide
worker pool (pool.map: OBATALAB_THREADS threads, default 1, the calling
thread taking its share), and each job's solve runs its blocked sweeps
inline on the thread that took the job. Results are collected in the order
of the sweep parameter, and a solve's values keep their bits for any thread
count, so output tables do not depend on the pool's size or on the order in
which jobs finish.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import ParameterDomainError
from .measures import (Grid, WeightedInterval, generate_cd_density, model_density,
                       require_dimension, require_model_in_range)
from .spectral import (
    asymptotic_rate_constant,
    cosine_distance,
    deficit,
    neumann_eigs,
    require_half_grid,
)

FAMILIES = ("truncated-model", "perturbed-cosine", "seeded-generated")

# The rate dist_W12 <= C delta^target is one-sided: a sweep breaks it only when
# C = dist_W12/delta^target grows as delta shrinks, or a power law that fits
# (r_squared >= FIT_FLAG_R2) has a slower rate. A seeded family scatters around
# its constant, and the slope of a poor fit through that scatter is no rate.
GROWTH_LIMIT = 10.0
SLOPE_SLACK = 0.1
FIT_FLAG_R2 = 0.98
# a sweep keeps only rows with delta <= DEFICIT_GUARD: the stability statement
# is a small-deficit theorem, with an unspecified delta_0(N)
DEFICIT_GUARD = 0.5


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y ~ e^intercept x^slope in log-log coordinates."""

    slope: float
    intercept: float
    r_squared: float
    points: int
    flagged: bool  # r_squared < FIT_FLAG_R2


def loglog_fit(x, y) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if lx.size < 2:
        raise ParameterDomainError("need at least two positive points to fit")
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]),
                     r_squared=float(r2), points=int(lx.size),
                     flagged=bool(r2 < FIT_FLAG_R2))


def truncated_model(N, D, n) -> WeightedInterval:
    """Model density restricted to [0, D] and renormalized to unit mass;
    ParameterDomainError where float64 cannot sample it (require_model_in_range)."""
    return require_model_in_range(model_density(N, Grid.uniform(D, n))).normalized()


def dilated_model(N, D, n) -> WeightedInterval:
    """sin^{N-1}(pi t / D) on [0, D], unit mass; CD(N-1, N) with room to spare."""
    g = Grid.uniform(D, n)
    h = np.clip(np.sin(math.pi * g.nodes / D), 0.0, None)  # the last node may be -3e-16
    h **= N - 1.0
    h[-1] = 0.0
    return WeightedInterval(grid=g, h=h, N=N).normalized()


@dataclass(frozen=True)
class ExperimentSpec:
    """One deficit-distance sweep: family name, dimension, grid, parameters.

    sweep semantics by family:
      truncated-model   -> diameters D < pi
      perturbed-cosine  -> perturbation scales s in u = cos + s sin(2t)
      seeded-generated  -> diameter gaps eps = pi - D (seed offsets the rng)
    """

    N: float
    family: str
    grid_n: int = 4096
    sweep: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family!r}")
        require_dimension(self.N)
        if self.seed < 0:
            raise ParameterDomainError(f"seed must be non-negative, got {self.seed}")
        sweep = tuple(float(s) for s in self.sweep) or _default_sweep(self.family)
        if len(sweep) < 5:
            raise ParameterDomainError("sweeps need at least 5 points")
        if not all(0 < s < math.inf for s in sweep):
            raise ParameterDomainError("sweep parameters must be finite and positive")
        object.__setattr__(self, "sweep", sweep)

    @property
    def target(self):
        """The exponent of the rate dist_W12 <= C delta^target: min(1/2, 1/N)."""
        return min(0.5, 1.0 / self.N)


def _default_sweep(family):
    if family == "truncated-model":
        return tuple(math.pi - 2.0 ** (-k) for k in range(3, 8))
    if family == "perturbed-cosine":
        return (0.2, 0.1, 0.05, 0.025, 0.0125)
    return (0.3, 0.24, 0.192, 0.1536, 0.12288)  # geometric eps, ratio 0.8


@dataclass(frozen=True)
class SweepResult:
    family: str
    N: float
    target: float
    param: np.ndarray
    delta: np.ndarray
    dist_l2: np.ndarray
    dist_w12: np.ndarray
    lambda1: np.ndarray
    fit: FitResult        # dist_w12 against delta
    fit_l2: FitResult
    constant_range: tuple  # min/max of dist_w12 / delta^target
    excluded: int          # rows dropped by the small-deficit guard

    @property
    def constant_spread(self):
        lo, hi = self.constant_range
        return hi / lo if lo > 0 else math.inf

    @property
    def constant_growth(self):
        """max over the rows with delta > 0 of C(delta)/C(delta_max); 1 when C
        never rises."""
        consts, delta = _rate_constants(self.delta, self.dist_w12, self.target)
        return float(np.max(consts) / consts[np.argmax(delta)])

    @property
    def rate_violated(self):
        slow = not self.fit.flagged and self.fit.slope < self.target - SLOPE_SLACK
        return self.constant_growth > GROWTH_LIMIT or slow


def _rate_constants(delta, dist, target):
    """C = dist/delta^target on the rows with delta > 0, as the fit takes
    them (a delta at the roundoff floor of the solve may read <= 0), and
    those deltas."""
    keep = delta > 0
    return dist[keep] / delta[keep] ** target, delta[keep]


def deficit_distance_sweep(spec: ExperimentSpec) -> SweepResult:
    """Table of (param, delta, dist_L2, dist_W12, lambda1) plus power-law fits.

    Instances with delta > DEFICIT_GUARD are excluded.
    """
    N, n = spec.N, spec.grid_n
    require_half_grid(n)
    params = sorted(spec.sweep)

    if spec.family == "perturbed-cosine":
        w_model = model_density(N, Grid.uniform(math.pi, n))
        lam_model = float(N)  # the model's lambda_1, exactly

        def job(s):
            t = w_model.grid.nodes
            u = w_model.standardize(np.cos(t) + s * np.sin(2 * t))
            delta = deficit(w_model, u)
            _, d2, dw = cosine_distance(w_model, u)
            return delta, d2, dw, lam_model
    else:
        if spec.family == "truncated-model":
            def density(D):
                return truncated_model(N, D, n)
        else:
            seed_of = {eps: spec.seed + k for k, eps in enumerate(params)}

            def density(eps):
                return generate_cd_density(N, seed_of[eps], Grid.uniform(math.pi - eps, n))

        def job(p):
            w = density(p)
            res = neumann_eigs(w, k=1)
            lam = float(res.richardson[0])
            _, d2, dw = cosine_distance(w, w.standardize(res.eigenfunctions[:, 0]))
            return lam - N, d2, dw, lam

    rows = pool.map(job, params)
    table = [(p,) + r for p, r in zip(params, rows)]
    kept = [row for row in table if row[1] <= DEFICIT_GUARD]
    excluded = len(table) - len(kept)
    if len(kept) < 2:
        raise ParameterDomainError("small-deficit guard left fewer than 2 points")
    param, delta, d2, dw, lam = (np.array(col) for col in zip(*kept))
    fit = loglog_fit(delta, dw)  # refuses fewer than two rows with delta > 0
    consts, _ = _rate_constants(delta, dw, spec.target)
    return SweepResult(
        family=spec.family,
        N=N,
        target=spec.target,
        param=param,
        delta=delta,
        dist_l2=d2,
        dist_w12=dw,
        lambda1=lam,
        fit=fit,
        fit_l2=loglog_fit(delta, d2),
        constant_range=(float(np.min(consts)), float(np.max(consts))),
        excluded=excluded,
    )


@dataclass(frozen=True)
class DiameterSweepResult:
    N: float
    eps: np.ndarray        # pi - D
    gap: np.ndarray        # lambda_1 - N
    lower: np.ndarray      # C_N eps^N
    holds: np.ndarray      # lower <= gap, pointwise, no tolerance
    all_hold: bool
    ratio_range: tuple     # min/max of gap / lower
    fit: FitResult         # gap against eps, slope should approach N; None when
                           # fewer than two gaps are positive


def diameter_deficit_sweep(N, D_sweep=None, grid_n=4096) -> DiameterSweepResult:
    """lambda_1 - N against pi - D on truncated models, with the exact-direction
    check C_N (pi - D)^N <= lambda_1 - N at every point.

    The verdict is per point and needs no fit: when fewer than two gaps are
    positive (at the roundoff floor of the solve) the result carries no fit."""
    if D_sweep is None:
        D_sweep = _default_sweep("truncated-model")
    Ds = sorted(float(D) for D in D_sweep)
    if len(Ds) < 2:
        raise ParameterDomainError("diameter sweep needs at least two diameters")
    if any(not 0 < D < math.pi for D in Ds):
        raise ParameterDomainError("diameter sweep wants 0 < D < pi")
    require_half_grid(grid_n)

    def job(D):
        return float(neumann_eigs(truncated_model(N, D, grid_n), k=1).richardson[0])

    lams = np.array(pool.map(job, Ds))
    eps = math.pi - np.array(Ds)
    gap = lams - N
    lower = asymptotic_rate_constant(N) * eps ** N
    holds = lower <= gap
    ratios = gap / lower
    return DiameterSweepResult(
        N=N,
        eps=eps,
        gap=gap,
        lower=lower,
        holds=holds,
        all_hold=bool(np.all(holds)),
        ratio_range=(float(np.min(ratios)), float(np.max(ratios))),
        fit=loglog_fit(eps, gap) if np.count_nonzero(gap > 0) >= 2 else None,
    )


@dataclass(frozen=True)
class UpperGapReport:
    N: float
    eps: np.ndarray
    gap: np.ndarray              # lambda_1 - N on the dilated model
    ratios: np.ndarray           # gap / eps
    max_ratio: float
    spread: float                # max/min of ratios; stability under halving
    candidate_deficit: np.ndarray  # deficit() of sqrt(N+1) cos
    candidate_max_ratio: float


def upper_gap_check(N, grid_n=4096) -> UpperGapReport:
    """Linear upper bound lambda_1 - N <= C (pi - D) on the dilated model, at
    D = pi - eps for eps = 0.2, 0.1, 0.05.

    The dilated density sin^{N-1}(pi t / D) satisfies CD(N-1, N) (its curvature
    is (N-1)(pi/D)^2 > N-1), so it witnesses that no power better than linear
    can hold in the upper direction. It is the model rescaled by s = pi t / D,
    and the Rayleigh quotient scales by (ds/dt)^2, so its lambda_1 is exactly
    N (pi/D)^2: the gap is taken in that closed form, with no solve, and
    test_neumann_solve_matches_closed_form_models holds the solver to it.
    Also evaluates the explicit candidate sqrt(N+1) cos(t) on the grid, whose
    deficit must be O(eps).
    """
    Ds = [math.pi - e for e in (0.2, 0.1, 0.05)]
    require_half_grid(grid_n)

    def job(D):
        w = dilated_model(N, D, grid_n)
        return deficit(w, math.sqrt(N + 1.0) * np.cos(w.grid.nodes))

    cand = np.array(pool.map(job, Ds))
    eps = math.pi - np.array(Ds)
    gap = N * (math.pi / np.array(Ds)) ** 2 - N
    ratios = gap / eps
    return UpperGapReport(
        N=N,
        eps=eps,
        gap=gap,
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
        spread=float(np.max(ratios) / np.min(ratios)),
        candidate_deficit=cand,
        candidate_max_ratio=float(np.max(cand / eps)),
    )
