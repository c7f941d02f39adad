"""Neumann spectral problems on weighted intervals.

The eigenproblem -(h u')' = lambda h u is discretized by conservative
midpoint fluxes with a mass-lumped right side. Fluxes and masses are both
assembled from cell-midpoint densities, so nothing ever divides by a nodal
h value and densities vanishing at the endpoints (the model) need no special
casing. A diagonal similarity turns the pencil into a symmetric tridiagonal
standard problem. A grid with an even cell count is solved on its half grid
first, recursively, down to a base: the coarsest exact halving with at least
max(256, 8 k^{3/2}) cells for k pairs. Only the base (or a grid with no such
halving) is solved directly, by bisection + inverse iteration. On the way up
each half-grid eigenvector is interpolated linearly and polished by inverse
iteration shifted by its half-grid eigenvalue until two successive estimates
of |lambda - shift| agree to 1e-8 of lambda (2 to 6 steps). A level where a
pair does not converge, or has the wrong number of sign changes, is solved
directly instead. At most MAX_PAIRS pairs are computed.

The package has one discrete Rayleigh quotient, the flux form
sum f (u_{i+1} - u_i)^2 / sum M u_i^2 (_flux_quotient). Every eigenvalue is
that quotient of its eigenvector, which converges cleanly as O(grid^2) where
bisection eigenvalues carry an error of about eps n^2. rayleigh() takes it of
any function, so by min-max it is >= lambda_1; deficit() extrapolates it on
(n, n/2) as richardson does the eigenvalues.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    ConditioningError,
    DegenerateDensityError,
    DisconnectedSupportError,
    ObataLabError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from .isoperimetry import bbg_constant, c_squared_minus_one
from .measures import Grid, WeightedInterval, first_diff, omega, second_diff


@dataclass(frozen=True)
class SpectralResult:
    """Lowest Neumann eigenpairs of a weighted interval.

    eigenvalues: lambda_1 <= ... <= lambda_k, each rayleigh() of its computed
        eigenvector, so rayleigh(w, v) >= lambda_1 for every v (min-max)
        (lambda_0 ~ 0 dropped, kept in lam0: exactly 0 on a grid
        refined from its half grid, whose lambda_0 vector is the constant;
        ~1e-23 on a grid solved directly, the base or a fallback level)
    eigenfunctions: column j is the j-th eigenfunction, L2(m)-normalized in the
        discrete mass inner product, zero m-mean, sign fixed positive at the
        first significant node
    residuals: per pair, the backward error ||(T - lam) y||_inf /
        (||T||_inf ||y||_inf) of the eigenvalue and its eigenvector y = u/s in
        the symmetric scaled form T of the discrete problem: rounding level
        (~1e-16 to 1e-13) at every grid size for a converged pair. It
        measures the solve, not the discretisation error (see err_bar)
    half_eigenvalues: lambda_1..lambda_k of the same density on the half grid
        (every other node), signed. On a grid refined from its half grid
        (an even grid above the base) they are the values the refinement
        started from, kept when the level falls back to a direct solve; on a
        grid solved directly the half grid is solved directly as well. NaN
        unless has_half_grid(n) holds for the n cells of the grid
    err_bar: |lambda(n) - lambda(n/2)| per pair; NaN without the half grid
    richardson: lambda(n) + (lambda(n) - lambda(n/2))/3, which removes the
        O(dt^2) term of the scheme; NaN without the half grid
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    residuals: np.ndarray
    lam0: float
    half_eigenvalues: np.ndarray

    @property
    def err_bar(self):
        return np.abs(self.eigenvalues - self.half_eigenvalues)

    @property
    def richardson(self):
        return self.eigenvalues + (self.eigenvalues - self.half_eigenvalues) / 3.0


# neumann_eigs computes at most this many pairs: a direct solve grows with
# k n (256 pairs on one core: 1.3 s on 4096 cells, 5.4 s on 16384)
MAX_PAIRS = 256
# the base of the nested solve has at least this many cells (and 8 k^{3/2})
_DIRECT_CELLS = 256
# inverse iteration per refined pair: step bounds, and the agreement of two
# successive |lambda - shift| estimates, relative to lambda, that ends it
_MIN_STEPS, _MAX_STEPS, _STEP_RTOL = 2, 6, 1e-8


def has_half_grid(n):
    """Whether n cells halve exactly into a grid of at least 15 cells."""
    return n % 2 == 0 and n // 2 >= 15


def require_half_grid(n):
    """Refuse a grid without has_half_grid: Richardson's 1/3 needs ratio 2."""
    if not has_half_grid(n):
        raise ParameterDomainError(
            f"grid_n must be even with grid_n/2 >= 15 for Richardson, got {n}")


def _refines(n, k):
    """Whether k pairs on n cells are refined from the half grid: n is even
    and n/2 keeps at least max(_DIRECT_CELLS, 8 k^{3/2}) cells, so that
    k <= (n/16)^{2/3} pairs are resolved on the half grid."""
    return n % 2 == 0 and n // 2 >= max(_DIRECT_CELLS, 8.0 * k ** 1.5)


def _coarsest_cells(n, k):
    """Cells of the coarsest grid neumann_eigs solves directly for k pairs on
    n cells: the base of the nested refinement, or the half grid of a direct
    solve."""
    m = n
    while _refines(m, k):
        m //= 2
    return m // 2 if m == n and has_half_grid(n) else m


def _assemble(t, h):
    dt = np.diff(t)
    hmid = 0.5 * (h[:-1] + h[1:])
    f = hmid / dt
    M = np.zeros(len(t))
    M[:-1] += 0.5 * dt * hmid
    M[1:] += 0.5 * dt * hmid
    diag = np.zeros(len(t))
    diag[:-1] += f
    diag[1:] += f
    return f, M, diag


def _support_checks(h):
    pos = np.nonzero(h > 0)[0]
    if pos.size == 0:
        raise DegenerateDensityError("density is identically zero")
    span = slice(pos[0], pos[-1])
    hmid = 0.5 * (h[:-1] + h[1:])
    if np.any(hmid[span] == 0.0):
        raise DisconnectedSupportError("density vanishes on an interior subinterval")
    if hmid[0] == 0.0 or hmid[-1] == 0.0:
        raise DegenerateDensityError(
            "density vanishes on a whole end cell, leaving an end node without mass")


def _scaled(t, h):
    """Flux, mass, 1/sqrt(mass) and the symmetric matrix diag s^2, -f s s."""
    f, M, diag = _assemble(t, h)
    s = 1.0 / np.sqrt(M)
    return f, M, s, diag * s * s, -f * s[:-1] * s[1:]


def _flux_quotient(u, f, M):
    """The flux Rayleigh quotient sum f (u_{i+1} - u_i)^2 / sum M u_i^2 of
    the vector u, and its mass sum M u_i^2."""
    du = np.diff(u)
    mass = float(np.sum(M * u ** 2))
    if not 0.0 < mass < math.inf:
        raise UndefinedQuotientError("function has zero variance against m")
    return float(np.sum(f * du * du)) / mass, mass


def _finish(u, f, M):
    """M-normalise and sign-fix the columns of u in place; return their
    _flux_quotient values."""
    ray = np.empty(u.shape[1])
    for j in range(u.shape[1]):
        uj = u[:, j]
        ray[j], mass = _flux_quotient(uj, f, M)
        uj /= math.sqrt(mass)
        a = np.abs(uj)
        if uj[np.argmax(a > 1e-12 * np.max(a))] < 0:
            uj *= -1.0
    return ray


def _solve_tridiagonal(scaled, k):
    f, M, s, d, e = scaled
    vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k))[1]
    u = vecs * s[:, None]
    return _finish(u, f, M), u


def _sign_changes(u):
    sg = np.sign(u)
    sg = sg[sg != 0.0]
    return int(np.count_nonzero(sg[1:] != sg[:-1]))


def _prolong(t, v):
    """Columns of v, given on the half grid t[::2], interpolated linearly to t."""
    theta = ((t[1::2] - t[:-1:2]) / (t[2::2] - t[:-1:2]))[:, None]
    u = np.empty((len(t), v.shape[1]), order="F")
    u[::2] = v
    u[1::2] = v[:-1] + theta * (v[1:] - v[:-1])
    return u


def _inverse_iterate(d, e, y, shift):
    """Inverse iteration on the symmetric tridiagonal (d, e) from y, until two
    successive estimates 1/||z|| of |lambda - shift| agree to _STEP_RTOL of
    the eigenvalue; ConditioningError when _MAX_STEPS do not get there.

    The agreement is taken relative to |shift|, not to the estimate itself:
    the estimate carries a rounding noise of 1e-9 to 1e-7 of itself at 2^20
    cells, so a converged pair would often never agree to 1e-8 of it.
    """
    dl, dd, du, du2, ipiv, info = dgttrf(e, d - shift, e, overwrite_d=1)
    if info != 0:
        raise ConditioningError(f"inverse iteration is singular at shift {shift!r}")
    # the iterate is rescaled only on return: the estimate of a step is the
    # ratio of successive norms, and _MAX_STEPS steps stay far from overflow
    norm = float(np.linalg.norm(y))
    gap = math.inf
    for step in range(1, _MAX_STEPS + 1):
        y = dgttrs(dl, dd, du, du2, ipiv, y, overwrite_b=1)[0]
        last, prev = gap, norm
        norm = float(np.linalg.norm(y))
        if not 0.0 < norm < math.inf:
            raise ConditioningError(f"inverse iteration is singular at shift {shift!r}")
        gap = prev / norm
        if step >= _MIN_STEPS and abs(gap - last) <= _STEP_RTOL * abs(shift):
            y /= norm
            return y
    raise ConditioningError(
        f"inverse iteration at shift {shift!r} did not converge in {_MAX_STEPS} steps")


def _refine(scaled, u, shifts):
    """Polish prolonged eigenvectors u (columns 0..k) in place, given the
    _scaled matrix of their grid; return their flux Rayleigh quotients.

    Column j takes inverse iteration shifted by shifts[j], its half-grid
    eigenvalue, in the symmetric form y = u/s of the direct solve, until it
    converges (_inverse_iterate); column 0 becomes the constant. Pair j must
    change sign exactly j times (Sturm oscillation: the off-diagonals are
    negative on the support). Either failure raises ConditioningError.
    """
    f, M, s, d, e = scaled
    u[:, 0] = 1.0
    for j in range(1, u.shape[1]):
        y = u[:, j]
        y /= s
        y = _inverse_iterate(d, e, y, shifts[j])
        np.multiply(y, s, out=u[:, j])
    ray = _finish(u, f, M)
    for j in range(1, u.shape[1]):
        changes = _sign_changes(u[:, j])
        if changes != j:
            raise ConditioningError(
                f"refined pair {j} changes sign {changes} times, not {j}")
    return ray


def _eigenpairs(t, h, k):
    """Flux Rayleigh eigenvalues lambda_0..lambda_k, their eigenvectors, the
    half-grid eigenvalues when the pairs were refined from the half grid, and
    the _scaled matrix of the grid.

    A grid that _refines is refined from its half grid, recursively; the base
    and grids with no exact half are solved directly, and so is a refined
    level whose refinement raises ConditioningError.
    """
    _support_checks(h)
    if _refines(len(t) - 1, k):
        half, u = _eigenpairs(t[::2], h[::2], k)[:2]
        u = _prolong(t, u)
        scaled = _scaled(t, h)
        try:
            ray = _refine(scaled, u, half)
        except ConditioningError:
            ray, u = _solve_tridiagonal(scaled, k)
        return ray, u, half, scaled
    scaled = _scaled(t, h)
    ray, u = _solve_tridiagonal(scaled, k)
    return ray, u, None, scaled


def _backward_errors(scaled, u, lams):
    """||(T - lam) y||_inf / (||T||_inf ||y||_inf) per column, for T the
    symmetric matrix (d, e) of _scaled and y = u/s its form of the column."""
    s, d, e = scaled[2:]
    absum = np.abs(d)
    absum[:-1] += np.abs(e)
    absum[1:] += np.abs(e)
    tnorm = float(np.max(absum))
    out = np.empty(len(lams))
    for j, lam in enumerate(lams):
        y = u[:, j] / s
        r = (d - lam) * y
        r[:-1] += e * y[1:]
        r[1:] += e * y[:-1]
        out[j] = float(np.max(np.abs(r))) / (tnorm * float(np.max(np.abs(y))))
    return out


def neumann_eigs(w: WeightedInterval, k=1) -> SpectralResult:
    """First k nonzero Neumann eigenpairs of -(h u')' = lambda h u on w."""
    if not 1 <= k <= MAX_PAIRS:
        raise ParameterDomainError(f"need 1 <= k <= {MAX_PAIRS}, got k = {k}")
    t, h = w.grid.nodes, w.h
    cells = _coarsest_cells(len(t) - 1, k)
    if k > cells:
        raise ParameterDomainError(
            f"k = {k} exceeds the {cells} cells of the coarsest grid solved")
    vals, u, half, scaled = _eigenpairs(t, h, k)
    if half is None and has_half_grid(len(t) - 1):
        half = _eigenpairs(t[::2], h[::2], k)[0]
    lams = vals[1:]
    funcs = u[:, 1:]
    return SpectralResult(
        eigenvalues=lams,
        eigenfunctions=funcs,
        residuals=_backward_errors(scaled, funcs, lams),
        lam0=float(vals[0]),
        half_eigenvalues=np.full(len(lams), np.nan) if half is None else half[1:],
    )


def rayleigh(w: WeightedInterval, u):
    """Flux Rayleigh quotient of u recentred to zero lumped-mass (M) mean: the
    quotient every eigenvalue of neumann_eigs is, so rayleigh(w, u) >=
    lambda_1 of the same grid. Without the recentring a constant component
    would add mass and no energy, and min-max would fail."""
    f, M = _assemble(w.grid.nodes, w.h)[:2]
    u = np.asarray(u, dtype=float)
    return _flux_quotient(u - float(np.sum(M * u)) / float(np.sum(M)), f, M)[0]


def deficit(w: WeightedInterval, u):
    """delta(u) = R(n) + (R(n) - R(n/2))/3 - N for R the rayleigh quotient on
    the grid and on its half grid (every other node, as neumann_eigs takes
    it): the O(grid^2) term of R cancels as it does in richardson."""
    g = w.grid
    require_half_grid(g.n)
    half = WeightedInterval(grid=Grid(D=g.D, n=g.n // 2, nodes=g.nodes[::2]),
                            h=w.h[::2], K=w.K, N=w.N)
    ray = rayleigh(w, u)
    return ray + (ray - rayleigh(half, np.asarray(u, dtype=float)[::2])) / 3.0 - w.N


@dataclass(frozen=True)
class LichnerowiczReport:
    margin: float        # lambda_1 - N C^2_{N,D}
    c_squared: float     # C^2_{N,D}
    deficit: float       # lambda_1 - N
    diam_lower: float    # C_N (pi - D)^N
    diam_ok: bool        # diam_lower <= deficit + 1e-6


def asymptotic_rate_constant(N):
    """C_N = N/(2 limit) = 1/(2^{N-1} N omega_N), the concrete banked constant
    in the diameter lower bound C_N (pi - D)^N <= lambda_1 - N."""
    return 1.0 / (2.0 ** (N - 1.0) * N * omega(N))


def lichnerowicz_check(w: WeightedInterval, lam1) -> LichnerowiczReport:
    """Margins of the improved spectral gap lambda_1 >= N C^2_{N,D}."""
    N, D = w.N, min(w.grid.D, math.pi)  # Grid admits D up to pi + 1e-12
    c2 = 1.0 + c_squared_minus_one(N, D)
    dfc = lam1 - N
    lower = asymptotic_rate_constant(N) * (math.pi - D) ** N
    return LichnerowiczReport(
        margin=float(lam1 - N * c2),
        c_squared=float(c2),
        deficit=float(dfc),
        diam_lower=float(lower),
        diam_ok=bool(lower <= dfc + 1e-6),
    )


@dataclass(frozen=True)
class BochnerReport:
    norm: float      # ||u'' + u||_{L2(m)} on the window h >= 1e-6 max h
    gap: float       # lambda - N
    ratio: float     # norm / sqrt(gap), inf when gap <= 0
    in_range: bool   # N <= lambda <= 2N


def bochner_check(w: WeightedInterval, eigenpair) -> BochnerReport:
    """||u'' + u|| against sqrt(lambda - N), windowed away from degenerate ends."""
    lam, u = eigenpair
    t = w.grid.nodes
    h = w.h
    mask = h >= 1e-6 * np.max(h)
    mask[0] = mask[-1] = False
    z = second_diff(t, u) + u
    norm = math.sqrt(max(w.mean(np.where(mask, z * z, 0.0)), 0.0))
    gap = float(lam - w.N)
    ratio = norm / math.sqrt(gap) if gap > 0 else math.inf
    return BochnerReport(norm=norm, gap=gap, ratio=ratio,
                         in_range=bool(w.N <= lam <= 2 * w.N))


@dataclass(frozen=True)
class GreenResult:
    v0: np.ndarray
    residual: float      # max interior |v0'' + v0 - z| by central differences
    norm_v0: float
    norm_z: float
    boundary_max: bool   # argmax of h fell on an endpoint (op proceeds)


def green_apply(w: WeightedInterval, z, x0=None) -> GreenResult:
    """v0(t) = int_{x0}^t sin(t - s) z(s) ds through spline antiderivatives.

    sin(t-s) is split as sin t cos s - cos t sin s so both factors integrate
    once; the antiderivatives are cubic-spline exact to O(grid^4). Enforces
    the norm bound ||v0|| <= pi ||z|| + 1e-8.
    """
    t = w.grid.nodes
    z = np.asarray(z, dtype=float)
    if len(z) != len(t):
        raise ParameterDomainError("z must be sampled on the grid")
    # no CLI command calls this op, so scipy.interpolate stays off the start-up path
    from scipy.interpolate import CubicSpline

    imax = int(np.argmax(w.h))  # ties resolve to the smaller t
    boundary = imax in (0, len(t) - 1)
    if x0 is None:
        x0 = float(t[imax])
    Ic = CubicSpline(t, np.cos(t) * z).antiderivative()
    Is = CubicSpline(t, np.sin(t) * z).antiderivative()
    cz = Ic(t) - Ic(x0)
    sz = Is(t) - Is(x0)
    v0 = np.sin(t) * cz - np.cos(t) * sz

    norm_v = math.sqrt(max(w.mean(v0 * v0), 0.0))
    norm_z = math.sqrt(max(w.mean(z * z), 0.0))
    if norm_v > math.pi * norm_z + 1e-8:
        raise ObataLabError(
            f"Green operator norm bound violated: {norm_v} > pi*{norm_z}"
        )
    resid = float(np.max(np.abs((second_diff(t, v0) + v0 - z)[1:-1])))
    return GreenResult(v0=v0, residual=resid, norm_v0=norm_v, norm_z=norm_z,
                       boundary_max=boundary)


@dataclass(frozen=True)
class CosineReport:
    sign: float
    dist_L2: float
    dist_W12: float
    alpha: float
    beta: float
    u0_norm: float
    recon_error: float   # max node error of u0 + alpha sin + beta cos vs u
    window_0r: float     # L2(m) distance restricted to [0, r], if r given
    window_band: float   # same on [r - eta, r + eta]


def cosine_distance(w: WeightedInterval, u):
    """min over sign of (L2, W12) distances of u to +-sqrt(N+1) cos.

    The sign minimises the W12 distance, +1 on a tie. Returns (sign, dist_L2,
    dist_W12). u is used as given (no renormalization).
    """
    t = w.grid.nodes
    c = math.sqrt(w.N + 1.0) * np.cos(t)
    dc = -math.sqrt(w.N + 1.0) * np.sin(t)
    du = first_diff(t, u)
    l2_plus, l2_minus = w.sign_distances(u, c)
    d_plus, d_minus = w.sign_distances(du, dc)
    if l2_plus + d_plus <= l2_minus + d_minus:
        return 1.0, math.sqrt(l2_plus), math.sqrt(l2_plus + d_plus)
    return -1.0, math.sqrt(l2_minus), math.sqrt(l2_minus + d_minus)


def cosine_decompose(w: WeightedInterval, u_star, r=None, eta=None) -> CosineReport:
    """Split an eigenfunction as u = u0 + alpha sin + beta cos.

    z = u'' + u by first differences applied twice, u0 = green_apply(z),
    then (alpha, beta) solve the 2x2 least-squares system of u - u0 against
    (sin, cos) in L2(m). Reports distances to +-sqrt(N+1) cos and, when r is
    supplied, the windowed distances on [0, r] and [r - eta, r + eta].
    """
    t = w.grid.nodes
    u = np.asarray(u_star, dtype=float)
    z = first_diff(t, first_diff(t, u)) + u
    g = green_apply(w, z)
    u0 = g.v0
    rdiff = u - u0
    st, ct = np.sin(t), np.cos(t)
    a12 = w.mean(st * ct)
    gram = np.array([[w.mean(st * st), a12], [a12, w.mean(ct * ct)]])
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(f"sin/cos normal system condition {cond:.3e}")
    rhs = np.array([w.mean(st * rdiff), w.mean(ct * rdiff)])
    alpha, beta = np.linalg.solve(gram, rhs)
    recon = u0 + alpha * st + beta * ct
    recon_err = float(np.max(np.abs(recon - u)))
    sign, dist_l2, dist_w12 = cosine_distance(w, u)
    u0_norm = math.sqrt(max(w.mean(u0 * u0), 0.0))

    window_0r = math.nan
    window_band = math.nan
    if r is not None:
        if eta is None:
            eta = 0.5 * r
        dev2 = (u - sign * math.sqrt(w.N + 1.0) * ct) ** 2
        m0 = t <= r
        mb = (t >= r - eta) & (t <= r + eta)
        if np.any(m0):
            window_0r = math.sqrt(w.mean(np.where(m0, dev2, 0.0)))
        if np.any(mb):
            window_band = math.sqrt(w.mean(np.where(mb, dev2, 0.0)))

    return CosineReport(
        sign=float(sign),
        dist_L2=float(dist_l2),
        dist_W12=float(dist_w12),
        alpha=float(alpha),
        beta=float(beta),
        u0_norm=u0_norm,
        recon_error=recon_err,
        window_0r=window_0r,
        window_band=window_band,
    )


@dataclass(frozen=True)
class PoincareReport:
    lhs: float
    rhs: float
    ratio: float
    ball: tuple
    big_ball: tuple


def _segmented_simpson(F, pts):
    pts = np.asarray(pts, dtype=float)
    lo, hi = pts[:-1], pts[1:]
    mid = 0.5 * (lo + hi)
    return float(np.sum((hi - lo) / 6.0 * (F(lo) + 4.0 * F(mid) + F(hi))))


def _breakpoints(t, a, b, extra=()):
    inside = t[(t > a) & (t < b)]
    pts = np.unique(np.concatenate([[a, b], inside, np.asarray(extra, dtype=float)]))
    return pts[(pts >= a) & (pts <= b)]


def _crossings(t, y, c, a, b):
    # kinks of |PL(y) - c| inside (a, b), for exact p = 1 integrals
    out = []
    d = y - c
    for i in range(len(t) - 1):
        if t[i + 1] <= a or t[i] >= b:
            continue
        if d[i] == 0.0 or d[i] * d[i + 1] < 0:
            if d[i + 1] == d[i]:
                continue
            x = t[i] + (0.0 - d[i]) / (d[i + 1] - d[i]) * (t[i + 1] - t[i])
            if a < x < b:
                out.append(x)
    return out


def poincare_check(w: WeightedInterval, u, x, r, p=2) -> PoincareReport:
    """Weak local Poincare ratio at center x and radius r, exponent p in {1,2}.

    fint_{B_r} |u - fint u|^p dm <= C r fint_{B_10r} |u'|^p dm is tested with
    the p-th powers as stated (no roots). Integrals treat h and u as
    piecewise linear and are exact on partial end cells (the products are
    piecewise cubic at worst, so per-segment Simpson is exact).
    """
    if p not in (1, 2):
        raise ParameterDomainError("p must be 1 or 2")
    t = w.grid.nodes
    h = w.h
    D = w.grid.D
    a, b = max(0.0, x - r), min(D, x + r)
    A, B = max(0.0, x - 10 * r), min(D, x + 10 * r)
    if b <= a:
        raise DegenerateDensityError("empty ball")
    u = np.asarray(u, dtype=float)

    def hf(q):
        return np.interp(q, t, h)

    def uf(q):
        return np.interp(q, t, u)

    pts = _breakpoints(t, a, b)
    den = _segmented_simpson(hf, pts)
    if den <= 0.0:
        raise DegenerateDensityError("zero-mass ball")
    ubar = _segmented_simpson(lambda q: hf(q) * uf(q), pts) / den
    extra = _crossings(t, u, ubar, a, b) if p == 1 else ()
    pts = _breakpoints(t, a, b, extra)
    lhs = _segmented_simpson(lambda q: hf(q) * np.abs(uf(q) - ubar) ** p, pts) / den

    du = first_diff(t, u)

    def df(q):
        return np.interp(q, t, du)

    extra = _crossings(t, du, 0.0, A, B) if p == 1 else ()
    PTS = _breakpoints(t, A, B, extra)
    DEN = _segmented_simpson(hf, PTS)
    if DEN <= 0.0:
        raise DegenerateDensityError("zero-mass comparison ball")
    rhs = r * _segmented_simpson(lambda q: hf(q) * np.abs(df(q)) ** p, PTS) / DEN

    if lhs <= 0.0:
        ratio = 0.0
    elif rhs <= 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    return PoincareReport(lhs=float(lhs), rhs=float(rhs), ratio=float(ratio),
                          ball=(a, b), big_ball=(A, B))
