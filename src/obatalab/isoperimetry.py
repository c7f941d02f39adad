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
from scipy.special import betainc, betaincinv

from .errors import ParameterDomainError
from .measures import extrapolate, omega, require_diameter, require_dimension, sinpow_cum

BRACKET_TOL = 1e-9  # width of profile's final bracket in b, in units of min(D, 1)
RESIDUAL_TOL = 1e-12  # relative split residual that solve_R guarantees
ODE_STEP = 1e-3  # step in v of profile_ode_residual's second difference
# profile refuses a smaller D: below it a window ending near pi is within a
# few ulps of its start, and profile(2, D, 1/2) missed 1/(2 sin(D/2)) by 6e-11
# at D = 7e-16; from this floor up it is within 1e-15
MIN_PROFILE_DIAMETER = 1e-15
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
    """Seed for the x in [0, pi] with sinpow_cum(N, x) = S, evaluated per
    element on one branch. Where c^2 = I^{-1}_{|1 - S/half|}(1/2, N/2) is
    below 1/(N+1), near pi/2, the seed is arccos(+-c). Every other element
    takes the inverse incomplete beta on the branch `sinpow_cum` evaluates
    there, arcsin of sqrt(I^{-1}_{near/half}(N/2, 1/2)) for the mass `near`
    to the nearer pole, or the leading term x^N/N of its series near the
    poles, where sin^2 x would underflow; reflected to pi - x past half."""
    half = 0.5 * omega(N)
    S = np.asarray(S, dtype=float)
    c = np.sqrt(betaincinv(0.5, N / 2.0, np.minimum(np.abs(half - S) / half, 1.0)))
    out = np.empty_like(S)
    mid = c * c < 1.0 / (N + 1.0)
    if np.count_nonzero(mid):
        out[mid] = np.arccos(np.copysign(c[mid], half - S[mid]))
    edge = ~mid
    if np.count_nonzero(edge):
        Se = S[edge]
        near = np.clip(np.minimum(Se, 2.0 * half - Se), 0.0, half)  # mass to the nearer pole
        pole = N * near < 1e-5 ** N
        x = np.empty_like(Se)
        x[pole] = (N * near[pole]) ** (1.0 / N)
        x[~pole] = np.arcsin(np.sqrt(betaincinv(N / 2.0, 0.5, near[~pole] / half)))
        out[edge] = np.subtract(np.pi, x, out=x, where=Se > half)
    return out


def _integral(N, b, Sb, x):
    """int_b^x sin^{N-1}, elementwise over windows [b, x] in [0, pi], given
    Sb = sinpow_cum(N, stack([b, pi - b])).

    It is a difference of S_N taken from the nearer pole: one `sinpow_cum`
    of x where b + x <= pi, else of pi - x. Where [b, x] is short against its
    distance to the poles and that difference would cancel, it is a
    Gauss-Legendre sum instead. The sum is formed only when some window is
    short, and then over every window, so its bits do not depend on which
    windows are short. Both keep their relative accuracy.
    """
    near = b + x <= np.pi
    Sx = sinpow_cum(N, np.where(near, x, np.pi - x))
    out = np.where(near, Sx - Sb[0], Sb[1] - Sx)
    short = x - b <= 0.25 * np.minimum(b, np.pi - x)
    if np.count_nonzero(short):
        mid, half = 0.5 * (x + b), 0.5 * (x - b)
        nodes = mid[..., None] + half[..., None] * _GL_NODES
        gauss = half * (np.abs(np.sin(nodes)) ** (N - 1) @ _GL_WEIGHTS)
        out = np.where(short, gauss, out)
    return out


def _newton(f, df, rhs, x, lo, hi):
    """At most four Newton steps on f(x) = rhs clipped to [lo, hi], stopping
    once every step is within two ulps of x."""
    for _ in range(4):
        d = df(x)
        step = (f(x) - rhs) / np.where(d > 0.0, d, np.inf)
        x = np.clip(x - step, lo, hi)
        if np.all(np.abs(step) <= 2.0 * np.spacing(x)):
            break
    return x


def _solve_short(N, b, v, D):
    """(R, sin^{N-1} R, mass) on windows [b, b + D] no longer than a quarter
    of their distance to the poles, solved for the offset r = R - b.

    sin(b + t) is taken as sin b cos t + cos b sin t, so the density at
    b + t keeps its relative accuracy where b + t itself would round to the
    ulp of b (near pi, that rounding is a relative error of the window
    ulp(pi) / D). On such a window the Gauss-Legendre sums are exact to
    rounding.
    """
    sb, cb = np.sin(b)[..., None], np.cos(b)[..., None]

    def density(t):  # sin^{N-1}(b + t) for t[..., None]
        return np.abs(sb * np.cos(t) + cb * np.sin(t)) ** (N - 1)

    def integral(r):  # int_b^{b+r} sin^{N-1}
        half = 0.5 * np.asarray(r)[..., None]
        return half * density(half * (1.0 + _GL_NODES)) @ _GL_WEIGHTS

    def df(r):
        return density(np.asarray(r)[..., None])[..., 0]

    mass = integral(D)
    r = _newton(integral, df, v * mass, v * D, 0.0, D)
    r = np.where(v <= 0.0, 0.0, np.where(v >= 1.0, D, r))
    return b + r, df(r), mass


def _solve_R(N, b, v, D):
    """(R(b, v), sin^{N-1} R, int_b^{b+D} sin^{N-1}), vectorized over b and v.

    Integrals over [b, x] come from `_integral`. R is seeded by
    `_sinpow_inv` and polished by `_newton` within [b, b + D]. A window no
    longer than a quarter of its distance to the poles is solved instead by
    `_solve_short`, in offsets from b: (b + D) - b and the root near pi
    would round to the ulp of b, and the relative error ulp(b) / D grows
    without bound as D -> 0. A window mass that underflows to 0 raises
    FloatingPointError (_in_float64 turns it into ParameterDomainError),
    unless the window is narrower in float64 than the smallest normal
    double, so that any R in it is within a subnormal distance of the root.
    """
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    Sb = sinpow_cum(N, np.stack([b, np.pi - b]))
    mass = _integral(N, b, Sb, b + D)
    if np.count_nonzero(mass) < mass.size and np.any(
            (mass == 0.0) & (b + D - b >= np.finfo(float).tiny)):
        raise FloatingPointError("window mass underflows to 0")
    rhs = v * mass
    left = 2.0 * b + D <= np.pi
    x = _sinpow_inv(N, np.where(left, Sb[0] + rhs, Sb[1] - rhs))

    def density(R):  # |sin|: R may pass 0 or pi by 1e-9
        return np.abs(np.sin(R)) ** (N - 1)

    R = _newton(lambda R: _integral(N, b, Sb, R), density, rhs,
                np.clip(np.where(left, x, np.pi - x), b, b + D), b, b + D)
    R = np.where(v <= 0.0, b, np.where(v >= 1.0, b + D, R))
    out = R, density(R), mass
    short = D <= 0.25 * np.minimum(b, np.pi - (b + D))
    if np.count_nonzero(short):
        out = tuple(np.where(short, s, o) for s, o in zip(_solve_short(N, b, v, D), out))
    return out


def _g(N, b, v, D):
    """(g(b, v), R(b, v)), vectorized over b and v."""
    R, num, mass = _solve_R(N, b, v, D)
    return num / mass, R


@contextlib.contextmanager
def _in_float64(N, D):
    """The guard of profile, solve_R, g_eval and bbg_ratio_check: a float
    division by zero, overflow or invalid operation, a window mass that
    underflows to 0, as for a tiny D or a huge N, or a profile D below
    MIN_PROFILE_DIAMETER raises ParameterDomainError instead of giving a
    NaN, an inf, a RuntimeWarning or a value off by more than 1e-12."""
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


def _profile_lanes(N, D, vs, n_scan=129):
    """Minimize g(., v) over b in [0, pi - D] for every v of `vs` at once.

    Each v is one lane. A scan of `n_scan` points of [0, pi - D] brackets
    each lane's lowest point between its two scan neighbours; every
    refinement step then evaluates `_REFINE_POINTS` evenly spaced interior
    points of each bracket in one `_g` call, reuses the bracket-end values,
    and keeps the two neighbours of the lowest point. All lanes take the
    same steps, until every bracket is no wider than BRACKET_TOL min(D, 1) (or
    than a few ulps of b, where rounding stalls it): below D = 1 the
    minimiser b moves on the scale of D, which an absolute width would not
    resolve. Returns (values, argmin_b, R at argmin_b, g evaluations per
    lane); D = pi has the single candidate b = 0.

    The mirror x -> pi - x takes the split of [b, b + D] at v to that of
    [pi - D - b, pi - b] at 1 - v, so I(v) = I(1 - v): a lane with v > 1/2
    is solved at 1 - v (exact, by Sterbenz), and its argmin b and R are
    mirrored back to (pi - D) - b and pi - R.
    """
    if isinstance(n_scan, bool) or not isinstance(n_scan, (int, np.integer)) or n_scan < 2:
        raise ParameterDomainError("n_scan must be an integer >= 2")
    if D < MIN_PROFILE_DIAMETER:
        raise FloatingPointError(f"D is below the floor {MIN_PROFILE_DIAMETER:g}")
    vs = np.asarray(vs, dtype=float)
    upper = vs > 0.5
    vs = np.where(upper, 1.0 - vs, vs)
    if D >= math.pi:
        val, R = _g(N, 0.0, vs, math.pi)
        return val, np.zeros_like(val), np.where(upper, math.pi - R, R), 1
    v = vs[:, None]
    lanes = np.arange(vs.size)
    bs = np.linspace(0.0, math.pi - D, n_scan)
    gs = _g(N, bs, v, D)[0]
    pts = np.broadcast_to(bs, gs.shape)
    evals = n_scan
    frac = np.arange(1, _REFINE_POINTS + 1) / (_REFINE_POINTS + 1.0)
    width = BRACKET_TOL * min(D, 1.0)
    while True:
        i = np.argmin(gs, axis=1)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, pts.shape[1] - 1)
        a, b = pts[lanes, lo], pts[lanes, hi]
        if np.all(b - a <= np.maximum(width, 4.0 * np.spacing(b))):
            break
        inner = a[:, None] + (b - a)[:, None] * frac
        gs = np.concatenate([gs[lanes, lo][:, None], _g(N, inner, v, D)[0],
                             gs[lanes, hi][:, None]], axis=1)
        pts = np.concatenate([a[:, None], inner, b[:, None]], axis=1)
        evals += _REFINE_POINTS
    bstar = 0.5 * (a + b)
    val, R = _g(N, bstar, vs, D)
    return (val, np.where(upper, (math.pi - D) - bstar, bstar), np.where(upper, math.pi - R, R),
            evals + 1)


def profile(q: ProfileQuery, n_scan=129) -> ProfileResult:
    """Minimize g(., v) over b in [0, pi - D]: a coarse scan, then bracket
    refinement by batches of evenly spaced points (one lane of `_profile_lanes`).

    g is smooth in b but not proven unimodal, so the scan guards the
    refinement against secondary minima, which stops at a bracket width
    in b of BRACKET_TOL min(D, 1). `n_scan` must be an integer >= 2. A query
    that float64 cannot evaluate raises ParameterDomainError (_in_float64).
    """
    with _in_float64(q.N, q.D):
        val, b, R, evals = _profile_lanes(q.N, q.D, [q.v], n_scan)
    return ProfileResult(float(val[0]), float(b[0]), float(R[0]), evals)


@dataclass(frozen=True)
class OdeResidualReport:
    max_residual: float  # max over v_grid of |residual + N| / N
    excluded: tuple      # v values skipped because v +- ODE_STEP left (0,1)


def profile_ode_residual(N, v_grid) -> OdeResidualReport:
    """Finite-difference check of (I_N^{N/(N-1)})'' I_N^{(N-2)/(N-1)} = -N,
    at step ODE_STEP in v."""
    require_dimension(N)
    step = ODE_STEP
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


def _cap_masses(N, D):
    """(half, tail): int_0^{pi/2} and int_{D/2}^{pi/2} of cos^{N-1}. The cap
    int_0^{D/2} cos^{N-1} is half - tail while tail <= half / 2, where the
    difference loses at most one bit; below that it is `_log_cap`."""
    _check_constant(N, D)
    return float(sinpow_cum(N, math.pi / 2)), float(sinpow_cum(N, (math.pi - D) / 2))


def _log_cap(N, D):
    """log int_0^{a} cos^{N-1} at a = D/2, taken directly:
    log(omega/2 * I_{sin^2 a}(1/2, N/2)), or where N a^2 < 1e-5 the series
    log(a (1 - (N-1) a^2/6 + ((N-1)^2/8 - (N-1)/12) a^4/5)), which holds
    also where a or the cap underflow."""
    a, m = 0.5 * D, N - 1.0
    if N * a * a < 1e-5:
        return (math.log(D) - math.log(2.0)
                + math.log1p(-m * a * a / 6.0 + (m * m / 8.0 - m / 12.0) * a ** 4 / 5.0))
    return math.log(0.5 * omega(N) * float(betainc(0.5, N / 2.0, math.sin(a) ** 2)))


def bbg_constant(N, D):
    """C_{N,D} = (int_0^{pi/2} cos^{N-1} / int_0^{D/2} cos^{N-1})^{1/N} >= 1;
    inf where it exceeds the float range (N near 1 and D below 1e-300)."""
    half, tail = _cap_masses(N, D)
    if tail <= 0.5 * half:
        return (half / (half - tail)) ** (1.0 / N)
    with np.errstate(over="ignore"):
        return float(np.exp((math.log(half) - _log_cap(N, D)) / N))


def c_squared_minus_one(N, D):
    """C_{N,D}^2 - 1 without cancellation (log1p/expm1 route); inf where it
    exceeds the float range."""
    half, tail = _cap_masses(N, D)
    if tail <= 0.5 * half:
        log_ratio = np.log1p(tail / (half - tail))
    else:
        log_ratio = math.log(half) - _log_cap(N, D)  # log1p(tail / cap) = log(half / cap)
    with np.errstate(over="ignore"):
        return float(np.expm1((2.0 / N) * log_ratio))


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
        den = _profile_lanes(N, math.pi, vs)[0]
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
