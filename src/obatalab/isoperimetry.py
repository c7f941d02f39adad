"""Model isoperimetric profiles and the diameter-improved comparison constant.

I_{N,D}(v) = inf over windows [b, b+D] of sin^{N-1}(R(b,v)) / int_b^{b+D} sin^{N-1},
where R(b,v) splits the window mass in ratio v. The D = pi case reduces to the
closed one-window profile I_N. C_{N,D} is the explicit comparison constant
(int_0^{pi/2} cos^{N-1} / int_0^{D/2} cos^{N-1})^{1/N} and its D -> pi
asymptotics (pi-D)^N/(C^2-1) -> 2^{N-2} N^2 omega_N are reproduced numerically.
"""
import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .errors import ParameterDomainError
from .measures import extrapolate, omega, require_diameter, require_dimension, sinpow_cum

BRACKET_TOL = 1e-9  # default width in b of profile's final bracket
RESIDUAL_TOL = 1e-12  # relative split residual that solve_R guarantees
_REFINE_POINTS = 16  # interior points per bracket in each refinement step
# 10-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun, table 25.4),
# tabulated so that importing makes no LAPACK call. On a window no longer than
# a quarter of its distance to the poles it is exact to rounding.
_GL_X = np.array([0.14887433898163121, 0.43339539412924719, 0.67940956829902441,
                  0.86506336668898451, 0.97390652851717172])
_GL_W = np.array([0.29552422471475287, 0.26926671930999636, 0.21908636251598204,
                  0.14945134915058059, 0.066671344308688138])
_GL_NODES = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_WEIGHTS = np.concatenate([_GL_W[::-1], _GL_W])


@dataclass(frozen=True)
class ProfileQuery:
    N: float
    D: float
    v: float

    def __post_init__(self):
        require_dimension(self.N)
        require_diameter(self.D)
        if not 0.0 < self.v < 1.0:
            raise ParameterDomainError("need 0 < v < 1")


@dataclass(frozen=True)
class ProfileResult:
    value: float
    argmin_b: float
    R_at_argmin: float
    iterations: int  # total g evaluations spent


def _sinpow_inv(N, S):
    """Seed for the x in [0, pi] with sinpow_cum(N, x) = S: the inverse
    incomplete beta on the branch `sinpow_cum` evaluates there, and the
    leading term x^N/N of its series near the poles, where sin^2 x would
    underflow."""
    half = 0.5 * omega(N)
    near = np.clip(np.minimum(S, 2.0 * half - S), 0.0, half)  # mass to the nearer pole
    c = np.sqrt(betaincinv(0.5, N / 2.0, np.minimum(np.abs(half - S) / half, 1.0)))
    s = np.sqrt(betaincinv(N / 2.0, 0.5, near / half))
    x = np.where(N * near < 1e-5 ** N, (N * near) ** (1.0 / N), np.arcsin(s))
    edge = np.where(S <= half, x, np.pi - x)
    return np.where(c * c < 1.0 / (N + 1.0), np.arccos(np.copysign(c, half - S)), edge)


def _solve_R(N, b, v, D):
    """R(b, v) and the window mass int_b^{b+D} sin^{N-1}, vectorized over b and v.

    Integrals over [b, x] are differences of S_N taken from the nearer pole
    (from pi when b + x > pi), or a Gauss-Legendre sum where [b, x] is short
    against its distance to the poles and the difference would cancel; both
    keep their relative accuracy. R is seeded by `_sinpow_inv` and polished
    by at most four Newton steps clipped to [b, b + D], stopping once every
    step is within two ulps of R. A window mass that underflows to 0 raises
    FloatingPointError (_in_float64 turns it into ParameterDomainError),
    unless the window is narrower in float64 than the smallest normal
    double, so that any R in it is within a subnormal distance of the root.
    """
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    Sb, Sb_far = sinpow_cum(N, np.stack([b, np.pi - b]))

    def integral(x):  # int_b^x sin^{N-1}
        Sx, Sx_far = sinpow_cum(N, np.stack([x, np.pi - x]))
        diff = np.where(b + x <= np.pi, Sx - Sb, Sb_far - Sx_far)
        mid, half = 0.5 * (x + b), 0.5 * (x - b)
        nodes = mid[..., None] + half[..., None] * _GL_NODES
        gauss = half * (np.abs(np.sin(nodes)) ** (N - 1) @ _GL_WEIGHTS)
        return np.where(x - b <= 0.25 * np.minimum(b, np.pi - x), gauss, diff)

    mass = integral(b + D)
    if np.count_nonzero(mass) < mass.size and np.any(
            (mass == 0.0) & (b + D - b >= np.finfo(float).tiny)):
        raise FloatingPointError("window mass underflows to 0")
    rhs = v * mass
    left = 2.0 * b + D <= np.pi
    x = _sinpow_inv(N, np.where(left, Sb + rhs, Sb_far - rhs))
    R = np.clip(np.where(left, x, np.pi - x), b, b + D)
    for _ in range(4):
        df = np.abs(np.sin(R)) ** (N - 1)
        step = (integral(R) - rhs) / np.where(df > 0.0, df, np.inf)
        R = np.clip(R - step, b, b + D)
        if np.all(np.abs(step) <= 2.0 * np.spacing(R)):
            break
    R = np.where(v <= 0.0, b, np.where(v >= 1.0, b + D, R))
    return R, mass


def _g(N, b, v, D):
    """(g(b, v), R(b, v)), vectorized over b and v."""
    R, mass = _solve_R(N, b, v, D)
    return np.abs(np.sin(R)) ** (N - 1) / mass, R  # |sin|: R may pass 0 or pi by 1e-9


@contextlib.contextmanager
def _in_float64(N, D):
    """The guard of profile, solve_R, g_eval and bbg_ratio_check: a float
    division by zero, overflow or invalid operation, or a window mass that
    underflows to 0, as for a tiny D or a huge N, raises ParameterDomainError
    instead of giving a NaN, an inf or a RuntimeWarning."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ParameterDomainError(
            f"profile cannot be computed in float64 at N = {N:g}, D = {D:g} ({exc})") from exc


def _check_split(N, b, v, D):
    require_dimension(N)
    if not 0.0 <= v <= 1.0:
        raise ParameterDomainError("volume fraction v must lie in [0, 1]")
    if not (D > 0.0 and b >= -1e-12 and b + D <= math.pi + 1e-9):
        raise ParameterDomainError("window [b, b+D] must have D > 0 and sit inside [0, pi]")


def solve_R(N, b, v, D):
    """The unique R in [b, b+D] with int_b^R sin^{N-1} = v * int_b^{b+D} sin^{N-1}.

    Seeded by the inverse incomplete beta (`scipy.special.betaincinv`) and
    polished by Newton steps (see `_solve_R`). The residual is below 1e-12
    of the right-hand side, or below the rounding of R and of the right-hand
    side to doubles where that is larger (R within one ulp of the root).
    """
    _check_split(N, b, v, D)
    with _in_float64(N, D):
        return float(_solve_R(N, b, v, D)[0])


def g_eval(N, b, v, D):
    """g(b, v) = sin^{N-1}(R(b,v)) / int_b^{b+D} sin^{N-1}."""
    _check_split(N, b, v, D)
    with _in_float64(N, D):
        return float(_g(N, b, v, D)[0])


def _profile_lanes(N, D, vs, n_scan=129, tol=BRACKET_TOL):
    """Minimize g(., v) over b in [0, pi - D] for every v of `vs` at once.

    Each v is one lane. A scan of `n_scan` points of [0, pi - D] brackets
    each lane's lowest point between its two scan neighbours; every
    refinement step then evaluates `_REFINE_POINTS` evenly spaced interior
    points of each bracket in one `_g` call, reuses the bracket-end values,
    and keeps the two neighbours of the lowest point. All lanes take the
    same steps, until every bracket is no wider than `tol` (or than a few
    ulps of b, where rounding stalls it). Returns (values, argmin_b, R at
    argmin_b, g evaluations per lane); D = pi has the single candidate b = 0.
    """
    if isinstance(n_scan, bool) or not isinstance(n_scan, (int, np.integer)) or n_scan < 2:
        raise ParameterDomainError("n_scan must be an integer >= 2")
    if not 0.0 < tol < math.inf:
        raise ParameterDomainError("tol must be finite and positive")
    vs = np.asarray(vs, dtype=float)
    if D >= math.pi:
        val, R = _g(N, 0.0, vs, math.pi)
        return val, np.zeros_like(val), R, 1
    v = vs[:, None]
    lanes = np.arange(vs.size)
    bs = np.linspace(0.0, math.pi - D, n_scan)
    gs = _g(N, bs, v, D)[0]
    pts = np.broadcast_to(bs, gs.shape)
    evals = n_scan
    frac = np.arange(1, _REFINE_POINTS + 1) / (_REFINE_POINTS + 1.0)
    while True:
        i = np.argmin(gs, axis=1)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, pts.shape[1] - 1)
        a, b = pts[lanes, lo], pts[lanes, hi]
        if np.all(b - a <= np.maximum(tol, 4.0 * np.spacing(b))):
            break
        inner = a[:, None] + (b - a)[:, None] * frac
        gs = np.concatenate([gs[lanes, lo][:, None], _g(N, inner, v, D)[0],
                             gs[lanes, hi][:, None]], axis=1)
        pts = np.concatenate([a[:, None], inner, b[:, None]], axis=1)
        evals += _REFINE_POINTS
    bstar = 0.5 * (a + b)
    val, R = _g(N, bstar, vs, D)
    return val, bstar, R, evals + 1


def profile(q: ProfileQuery, n_scan=129, tol=BRACKET_TOL) -> ProfileResult:
    """Minimize g(., v) over b in [0, pi - D]: a coarse scan, then bracket
    refinement by batches of evenly spaced points (one lane of `_profile_lanes`).

    g is smooth in b but not proven unimodal, so the scan guards the
    refinement against secondary minima. `n_scan` must be an integer >= 2
    and `tol`, the final bracket width in b, finite and positive. A query
    that float64 cannot evaluate raises ParameterDomainError (_in_float64).
    """
    with _in_float64(q.N, q.D):
        val, b, R, evals = _profile_lanes(q.N, q.D, [q.v], n_scan, tol)
    return ProfileResult(float(val[0]), float(b[0]), float(R[0]), evals)


@dataclass(frozen=True)
class OdeResidualReport:
    max_residual: float  # max over v_grid of |residual + N| / N
    excluded: tuple      # v values skipped because v +- step left (0,1)


def profile_ode_residual(N, v_grid, step=1e-3) -> OdeResidualReport:
    """Finite-difference check of (I_N^{N/(N-1)})'' I_N^{(N-2)/(N-1)} = -N."""
    require_dimension(N)
    if not step > 0.0:
        raise ParameterDomainError("step must be positive")
    vs = np.asarray(v_grid, dtype=float)
    inside = (vs - step > 0.0) & (vs + step < 1.0)
    kept = vs[inside]
    Im, I0, Ip = (_g(N, 0.0, kept + d, math.pi)[0] for d in (-step, 0.0, step))
    p = N / (N - 1.0)
    phi2 = (Im ** p - 2.0 * I0 ** p + Ip ** p) / step ** 2
    res = phi2 * I0 ** ((N - 2.0) / (N - 1.0))
    worst = float(np.max(np.abs(res + N) / N, initial=0.0))
    return OdeResidualReport(worst, tuple(float(v) for v in vs[~inside]))


def _check_constant(N, D):
    require_dimension(N)
    require_diameter(D)


def bbg_constant(N, D):
    """C_{N,D} = (int_0^{pi/2} cos^{N-1} / int_0^{D/2} cos^{N-1})^{1/N} >= 1."""
    _check_constant(N, D)
    half = float(sinpow_cum(N, math.pi / 2))
    tail = float(sinpow_cum(N, (math.pi - D) / 2))  # int_{D/2}^{pi/2} cos^{N-1}
    return ((half) / (half - tail)) ** (1.0 / N)


def c_squared_minus_one(N, D):
    """C_{N,D}^2 - 1 without cancellation (log1p/expm1 route)."""
    _check_constant(N, D)
    half = float(sinpow_cum(N, math.pi / 2))
    tail = float(sinpow_cum(N, (math.pi - D) / 2))
    x = tail / (half - tail)
    return float(np.expm1((2.0 / N) * np.log1p(x)))


def bbg_ratio_check(N, D, v_grid):
    """min over v of I_{N,D}(v)/I_N(v) - C_{N,D}; >= -1e-7 certifies the bound."""
    vs = np.asarray(v_grid, dtype=float)
    if vs.size == 0:
        raise ParameterDomainError("v_grid is empty")
    C = bbg_constant(N, D)
    if not np.all((vs > 0.0) & (vs < 1.0)):
        raise ParameterDomainError("need 0 < v < 1 for every v")
    with _in_float64(N, D):
        num = _profile_lanes(N, D, vs)[0]
        den = _g(N, 0.0, vs, math.pi)[0]
        return float(np.min(num / den - C))


@dataclass(frozen=True)
class AsymptoticResult:
    ratios: tuple    # (pi - D)^N / (C^2 - 1) along the sweep
    limit: float     # Richardson-extrapolated (correction is O(eps^2))
    target: float    # closed form 2^{N-2} N^2 omega_N


def asymptotic_constant(N, D_sweep) -> AsymptoticResult:
    """Ratios (pi-D)^N/(C^2_{N,D}-1) along a sweep D -> pi, with extrapolation."""
    Ds = np.asarray(D_sweep, dtype=float)
    if Ds.size == 0:
        raise ParameterDomainError("D_sweep is empty")
    if np.any(Ds >= math.pi) or np.any(np.diff(Ds) <= 0):
        raise ParameterDomainError("D_sweep must increase strictly toward pi")
    eps = math.pi - Ds
    ratios = tuple(float(e ** N / c_squared_minus_one(N, math.pi - e)) for e in eps)
    limit = (extrapolate(ratios[-1], ratios[-2], eps[-1], eps[-2])[0] if len(ratios) >= 2
             else ratios[-1])
    target = 2.0 ** (N - 2.0) * N * N * omega(N)
    return AsymptoticResult(ratios, float(limit), float(target))
