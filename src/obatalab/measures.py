"""Weighted intervals and curvature-dimension densities.

A weighted interval is ([0, D], |.|, h dt) with a node-sampled density h,
interpolated piecewise-linearly between nodes. This module owns the L2(m)
algebra on weighted intervals (moments, normalisation, sign fits), the two
derivative stencils every other module uses, the model density
sin^{N-1}/omega_N, verification of the CD(K,N) concavity inequality
(cd_check), and a seeded generator of CD densities.

A grid forms its cell widths once, on the first moment or difference taken
on it, and keeps them (Grid.widths). Every moment takes the trapezoid rule
on the kept widths with the bits of np.trapezoid(y, nodes), and every first
difference forms the coefficients of its three-point stencil from them
(Grid.stencil) with the bits of np.gradient(u, nodes, edge_order=2): the
same expressions in the same order, without numpy's per-call differencing.

The generator builds exact CD(N-1, N) densities h = w^{N-1} from
w'' = -(1 + a) w with a piecewise-constant excess a >= 0: on each piece w is
a closed-form rotation, so the samples do not depend on the grid.

It also owns file I/O: read_csv is the one parser of the density files
and ray samples, and replace_file the one writer of the CLI artifacts. And
it owns the Richardson step, extrapolate, which every extrapolated value
takes, and the two parameter rules of CD(N - 1, N) on
[0, D]: require_dimension (1 < N < inf) and require_diameter (0 < D <= pi),
which every validator of N or D calls.
"""
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, beta as beta_fn

from .errors import (
    ConfigError,
    DegenerateDensityError,
    ParameterDomainError,
    UndefinedQuotientError,
)

# evaluation lattice size for cd_check: 33 evenly spaced node indices
CD_LATTICE = 33
# cd_check samples at most this many quasi-random pairs beyond its lattice:
# each takes about 106 bytes of index and value arrays (about 220 MB at the cap)
MAX_SAMPLE_PAIRS = 2 ** 21
# Grid.uniform builds at most this many nodes, and refuses more before it
# allocates: the most a Neumann solve takes (spectral.MAX_PAIR_NODES, one pair)
MAX_GRID_NODES = 2 ** 25
# cd_check passes a density whose worst violation of the concavity inequality
# is at most this (the CLI reports it as cd_tol)
CD_TOL = 1e-8


# ---------------------------------------------------------------------------
# grids and weighted intervals


def require_dimension(N):
    """The dimension rule of CD(N - 1, N): 1 < N < inf."""
    if not 1 < N < math.inf:
        raise ParameterDomainError(
            f"need N > 1 and finite: dimension parameter N must exceed 1, got {N}")


def require_diameter(D):
    """The diameter rule 0 < D <= pi, with 1e-12 of rounding allowed above pi."""
    if not 0.0 < D <= math.pi + 1e-12:
        raise ParameterDomainError("need 0 < D <= pi")


@dataclass(frozen=True)
class Grid:
    """Node set 0 = t_0 < ... < t_n = D. Field n counts cells, nodes has n+1.

    A grid holds no array but its nodes until a moment or difference is
    taken on it. Then it forms its cell widths (widths) once and keeps them:
    every moment (integral) and difference (first_diff, second_diff) reads
    them instead of differencing the nodes per call."""

    D: float
    n: int
    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", t)
        require_diameter(self.D)
        if t.ndim != 1 or len(t) < 16:
            raise ParameterDomainError("grid needs at least 16 nodes")
        if abs(t[0]) > 1e-12:
            raise ParameterDomainError("grid must start at t = 0")
        if np.any(t[1:] <= t[:-1]):
            raise ParameterDomainError("grid nodes must be strictly increasing")
        if abs(t[-1] - self.D) > 1e-12:
            raise ParameterDomainError("last node must equal D")
        if self.n != len(t) - 1:
            raise ParameterDomainError("n must equal len(nodes) - 1")

    @staticmethod
    def uniform(D, n):
        """n equal cells on [0, D]; D and the node count are checked before
        the nodes are built."""
        D, n = float(D), int(n)
        require_diameter(D)
        if not 16 <= n + 1 <= MAX_GRID_NODES:
            raise ParameterDomainError(
                f"grid needs 16 to {MAX_GRID_NODES} nodes, got {n + 1}")
        return Grid(D=D, n=n, nodes=np.linspace(0.0, D, n + 1))

    @functools.cached_property
    def widths(self):
        """Cell widths t_{i+1} - t_i (np.diff(nodes)), formed on first read
        and kept."""
        return np.diff(self.nodes)

    def stencil(self):
        """Coefficients of first_diff, the three-point stencil of
        np.gradient(u, nodes, edge_order=2) in numpy's expressions, formed
        from the kept widths on each call: (inner, first, last), the (a, b, c)
        of the first and last node, and inner the rows (a, b, c) of the
        interior nodes or, on a grid of exactly equal widths (numpy's uniform
        branch), the divisor 2 dx of the central difference. The rows are not
        kept: most grids take a single first difference, and keeping them on
        the 2^16-node grids of a two-thread sweep raised the peak RSS of the
        sweep and a 2^20-node solve after it by about 1.1 MB."""
        d = self.widths
        if (d == d[0]).all():
            dx = float(d[0])
            return 2.0 * dx, (-1.5 / dx, 2.0 / dx, -0.5 / dx), (0.5 / dx, -2.0 / dx, 1.5 / dx)
        dx1, dx2 = d[:-1], d[1:]
        inner = (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                 dx1 / (dx2 * (dx1 + dx2)))
        (l1, l2), (r1, r2) = map(float, d[:2]), map(float, d[-2:])
        return (inner,
                (-(2.0 * l1 + l2) / (l1 * (l1 + l2)), (l1 + l2) / (l1 * l2),
                 -l1 / (l2 * (l1 + l2))),
                (r2 / (r1 * (r1 + r2)), -(r2 + r1) / (r1 * r2),
                 (2.0 * r2 + r1) / (r2 * (r1 + r2))))

    def integral(self, y, keep=True):
        """Trapezoid rule int_0^D y dt of node samples y: np.trapezoid(y,
        nodes) bit for bit, the cell terms widths (y_i + y_{i+1}) / 2 summed
        by np.add.reduce. With keep False, a grid that has formed no widths
        forms them for this sum alone, so that a grid only weighed
        (WeightedInterval.total_mass) holds no array but its nodes."""
        kept = keep or "widths" in vars(self)
        d = self.widths if kept else self.nodes[1:] - self.nodes[:-1]
        cells = y[1:] + y[:-1]
        cells *= d
        cells /= 2.0
        return float(np.add.reduce(cells))

    @property
    def max_step(self):
        return float(np.max(self.widths))


@dataclass(frozen=True)
class WeightedInterval:
    """([0, D], |.|, h dt) with density samples h at grid nodes.

    Owns the L2(m) algebra of node-sampled functions: every moment is the
    trapezoid rule against h (Grid.integral, on the grid's kept widths, with
    np.trapezoid's bits), normalised by total_mass. total_mass alone keeps
    no widths on the grid.
    """

    grid: Grid
    h: np.ndarray
    K: float
    N: float
    total_mass: float = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if len(h) != len(self.grid.nodes):
            raise ParameterDomainError("density sample count must match grid nodes")
        if np.any(h < 0):
            raise ParameterDomainError("density must be non-negative")
        require_dimension(self.N)
        if not math.isfinite(self.K):
            raise ParameterDomainError("curvature parameter K must be finite")
        object.__setattr__(self, "total_mass", self.grid.integral(h, keep=False))

    def mean(self, f):
        """Normalised m-moment int f h dt / total_mass of node samples f."""
        return self.grid.integral(self.h * f) / self.total_mass

    def normalized(self):
        """Unit-mass copy: h / total_mass on the same grid."""
        return WeightedInterval(grid=self.grid, h=self.h / self.total_mass,
                                K=self.K, N=self.N)

    def standardize(self, u):
        """u recentred to zero m-mean and scaled to unit L2(m) norm."""
        u = np.asarray(u, dtype=float)
        u = u - self.mean(u)
        nrm2 = self.mean(u * u)
        if nrm2 <= 0.0 or not math.isfinite(nrm2):
            raise UndefinedQuotientError("function has zero variance against m")
        return u / math.sqrt(nrm2)

    def sign_distances(self, u, g):
        """(||u - g||^2, ||u + g||^2) in L2(m), each by direct subtraction."""
        return tuple(self.mean((u - s * g) ** 2) for s in (1.0, -1.0))


def first_diff(grid, u):
    """Central first difference of node samples u, one-sided second order at
    the two ends: np.gradient(u, grid.nodes, edge_order=2) bit for bit, from
    the grid's stencil."""
    inner, (a0, b0, c0), (a1, b1, c1) = grid.stencil()
    out = np.empty(len(u))
    mid = out[1:-1]
    if isinstance(inner, tuple):
        a, b, c = inner
        np.multiply(a, u[:-2], out=mid)
        mid += b * u[1:-1]
        mid += c * u[2:]
    else:
        np.subtract(u[2:], u[:-2], out=mid)
        mid /= inner
    out[0] = a0 * u[0] + b0 * u[1] + c0 * u[2]
    out[-1] = a1 * u[-3] + b1 * u[-2] + c1 * u[-1]
    return out


def second_diff(grid, u):
    """3-point second difference at interior nodes (zero at the two ends),
    on the grid's kept widths; reduces to (u+ - 2u + u-)/dx^2 on uniform
    grids."""
    dl = grid.widths[:-1]
    dr = grid.widths[1:]
    out = np.zeros_like(u)
    out[1:-1] = 2.0 * ((u[2:] - u[1:-1]) / dr - (u[1:-1] - u[:-2]) / dl) / (dl + dr)
    return out


def extrapolate(fine, coarse, h_fine=1.0, h_coarse=2.0):
    """One Richardson step (Richardson 1911) on values with an O(h^2) error,
    taken at steps h_fine < h_coarse: (fine + (fine - coarse) h_fine^2 /
    (h_coarse^2 - h_fine^2), |fine - coarse|), the extrapolated value and the
    raw difference. The default steps, a grid and its half grid, give
    fine + (fine - coarse)/3. Scalars or arrays."""
    return (fine + (fine - coarse) * h_fine ** 2 / (h_coarse ** 2 - h_fine ** 2),
            abs(fine - coarse))


def read_csv(path, names=()):
    """Columns of a CSV file by header name, each a contiguous float array.

    The header row must begin with names; every data row holds one finite
    value per header name (np.loadtxt, no comment lines). Any failure is
    one ConfigError."""
    try:
        with open(path) as fh:
            header = [c.strip() for c in fh.readline().split(",")]
            body = fh.read()
        if header[:len(names)] != list(names):
            raise ConfigError(f"{path}: expected header '{','.join(names)}'")
        if not body.strip():
            raise ConfigError(f"{path}: no data rows")
        data = np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable file, or a ragged or non-numeric row ({exc})") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: ragged rows of {data.shape[1]} values, {len(header)} names")
    if not np.isfinite(data).all():
        raise ConfigError(f"{path}: non-finite value")
    return dict(zip(header, data.T.copy()))


def replace_file(path, text=None):
    """Remove the file (or symlink) at path, then write text to a new file there.

    The old file is never truncated in place: ext4 flushes a file that was
    truncated and rewritten when it is closed, about 120 us a file against
    20 us to remove it and create a new one. A rename over the old file is
    flushed too. A symlink is replaced, not written through. With text None
    the file is only removed."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    if text is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def load_density_csv(path, K, N):
    """Parse a `t,h` CSV (read_csv) into a WeightedInterval.

    Grid and WeightedInterval check the samples (at least 16 nodes, t strictly
    increasing from 0, h >= 0); a rule they refuse is a ConfigError naming
    the file."""
    cols = read_csv(path, ("t", "h"))
    t = cols["t"]
    try:
        grid = Grid(D=float(t[-1]), n=len(t) - 1, nodes=t)
        return WeightedInterval(grid=grid, h=cols["h"], K=float(K), N=float(N))
    except ParameterDomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# sine-power integrals

# Coefficients of the small-x series of int_0^x sin^{N-1}: x^N/N - (N-1)x^{N+2}/(6(N+2)) + c4 x^{N+4}/(N+4)
def _sinpow_series(N, x):
    c4 = (N - 1) * (N - 2) / 72.0 + (N - 1) / 120.0
    return x ** N / N - (N - 1) * x ** (N + 2) / (6 * (N + 2)) + c4 * x ** (N + 4) / (N + 4)


@functools.lru_cache(maxsize=256)
def omega(N):
    """omega_N = int_0^pi sin^{N-1} = B(N/2, 1/2), closed form, once per N."""
    return float(beta_fn(N / 2.0, 0.5))


def sinpow_cum(N, x):
    """S_N(x) = int_0^x sin^{N-1} t dt on [0, pi], via the incomplete beta.

    Vectorized; each element takes one of three branches, and only its own
    branch is evaluated on it. Where sin^2 x > N/(N+1), near pi/2, the ratio
    below is ill-conditioned, so those elements take the complement
    omega/2 * (1 - sign(cos x) * I_{cos^2 x}(1/2, N/2)); the switch at
    N/(N+1) is the a/(a+b) rule of DiDonato & Morris (ACM TOMS Alg. 708,
    1992). Below x = 1e-5 and above pi - 1e-5, where the beta ratio loses
    relative accuracy, the elements take the series of `_sinpow_series`
    (about the nearer pole). Every other element is
    omega/2 * I_{sin^2 x}(N/2, 1/2), reflected about pi/2. The relative
    error is a few ulps on (0, pi).
    """
    x = np.asarray(x, dtype=float)
    w = omega(N)
    split = N / (N + 1.0)
    s2 = np.sin(x) ** 2
    out = np.empty_like(x)
    mid = s2 > split
    small, tail = x < 1e-5, x > np.pi - 1e-5
    edge = ~(mid | small | tail)
    if np.count_nonzero(mid):
        c = np.cos(x[mid])
        out[mid] = 0.5 * w * (1.0 - np.sign(c) * betainc(0.5, N / 2.0, np.minimum(c * c, 1.0 - split)))
    if np.count_nonzero(edge):
        Se = 0.5 * w * betainc(N / 2.0, 0.5, s2[edge])
        out[edge] = np.subtract(w, Se, out=Se, where=x[edge] > np.pi / 2)  # reflect
    # x^N would overflow at large N outside the series band
    if np.count_nonzero(small):
        out[small] = _sinpow_series(N, np.maximum(x[small], 0.0))
    if np.count_nonzero(tail):
        out[tail] = w - _sinpow_series(N, np.maximum(np.pi - x[tail], 0.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# distortion coefficients


def _sigma_raw(K, dim, t, theta):
    # sigma^{(t)}_{K,dim}(theta) for any dim > 0, elementwise over arrays t and
    # theta; K <= 0 by the sinh/linear extension
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = t
    if K != 0.0:
        s = math.sqrt(abs(K) / dim)
        b = theta * s
        with np.errstate(all="ignore"):
            if K > 0.0:
                out = np.where(b >= math.pi, math.inf, np.sin(t * theta * s) / np.sin(b))
            else:
                # past b = 700 sinh overflows; there sinh(a)/sinh(b) is
                # e^{a-b}(1 - e^{-2a}) to within e^{-1400}
                out = np.where(b < 700.0, np.sinh(t * theta * s) / np.sinh(b),
                               np.exp(t * b - b) * -np.expm1(-2.0 * t * b))
    return np.where(theta == 0.0, t, out)


# ---------------------------------------------------------------------------
# model density and verification


def model_density(N, grid: Grid) -> WeightedInterval:
    """h_N(t) = sin^{N-1}(t)/omega_N sampled on grid (grid.D <= pi), built in
    place in one array."""
    t = grid.nodes
    h = np.sin(t)
    # sin(pi) evaluates to ~1.2e-16; the density really vanishes at the pole,
    # and a spurious positive value there trips the theta = pi coefficient.
    # Only nodes past pi - 1e-6 can be within 1e-12 of it.
    k = np.searchsorted(t, math.pi - 1e-6)
    h[k:][np.abs(t[k:] - math.pi) < 1e-12] = 0.0
    np.clip(h, 0.0, None, out=h)
    h **= N - 1
    h /= omega(N)
    return WeightedInterval(grid=grid, h=h, K=N - 1.0, N=float(N))


def require_model_in_range(w: WeightedInterval) -> WeightedInterval:
    """w, a model_density, unless float64 cannot sample it: sin^{N-1} is
    unimodal on [0, D], so its least interior sample is the first or the
    last, and where that underflows an end cell has no mass. Then
    ParameterDomainError, naming the float range; model_density itself
    builds such samples."""
    h = w.h
    if 0.5 * (h[0] + h[1]) == 0.0 or 0.5 * (h[-2] + h[-1]) == 0.0:
        raise ParameterDomainError(
            f"the model density sin^(N-1)/omega_N at N = {w.N:g} on diameter {w.grid.D:g} "
            "underflows to 0 in float64: it leaves the float range")
    return w


@dataclass(frozen=True)
class CdVerdict:
    passed: bool
    witness: tuple  # (x0, x1, t) of the worst violation, or None
    violation: float
    checked: int

    def __bool__(self):
        return self.passed


def _lattice_triples(ncell):
    """Index triples (i0, i1, j) of the cd_check lattice, pair by pair.

    Lattice nodes a < b at least two cells apart; j runs over the lattice
    nodes strictly between them, then their midpoint if it is not one.
    """
    lattice = np.unique(np.round(np.linspace(0, ncell, CD_LATTICE)).astype(int))
    a, b = np.triu_indices(len(lattice), 1)
    keep = lattice[b] - lattice[a] >= 2
    a, b = a[keep], b[keep]
    mid = (lattice[a] + lattice[b]) // 2
    inner = b - a - 1 + ~np.isin(mid, lattice)
    pair = np.repeat(np.arange(len(a)), inner)
    pos = np.arange(len(pair)) - np.repeat(np.cumsum(inner) - inner, inner)
    # position b - a - 1 of a pair, past its lattice nodes, is the midpoint
    j = np.where(pos < (b - a - 1)[pair], lattice[a[pair] + 1 + pos], mid[pair])
    return lattice[a][pair], lattice[b][pair], j


def _kronecker_triples(ncell, count):
    """Quasi-random index triples from the Kronecker sequence in sqrt 2, 3, 5."""
    k = np.arange(1, int(count) + 1)
    f0, f1, f2 = ((0.5 + k * math.sqrt(r)) % 1.0 for r in (2.0, 3.0, 5.0))
    i0 = (f0 * (ncell - 1)).astype(int)
    i1 = np.minimum(i0 + 2 + (f1 * (ncell - i0 - 1)).astype(int), ncell)
    keep = i1 - i0 >= 2
    i0, i1, f2 = i0[keep], i1[keep], f2[keep]
    return i0, i1, i0 + 1 + (f2 * (i1 - i0 - 1)).astype(int)


def cd_check(w: WeightedInterval, sample_pairs=0) -> CdVerdict:
    """Verify the CD(K,N) concavity inequality for the density of w.

    Checks h(x_t)^{1/(N-1)} >= sigma^{(t)}(|x1-x0|) h(x1)^{1/(N-1)}
                             + sigma^{(1-t)}(|x1-x0|) h(x0)^{1/(N-1)}
    on a deterministic lattice of node triples plus `sample_pairs` (0 to
    MAX_SAMPLE_PAIRS) quasi-random node triples, all evaluated in one array
    pass. It passes when the worst violation is at most CD_TOL, and the
    witness is the first worst triple. All evaluation points are
    grid nodes: the interpolation parameter t is rationalized so that x_t
    lands on a node, because the piecewise-linear interpolant overshoots the
    concave h^{1/(N-1)} inside degenerate end cells and would produce
    spurious failures on the exact model otherwise.
    """
    if not 0 <= sample_pairs <= MAX_SAMPLE_PAIRS:
        raise ParameterDomainError(
            f"need 0 <= sample_pairs <= {MAX_SAMPLE_PAIRS}, got {sample_pairs}")
    t_nodes = w.grid.nodes
    N, K = w.N, w.K
    if K > 0:
        dmax = math.pi * math.sqrt((N - 1) / K)
        if w.grid.D - dmax > 1e-9:
            return CdVerdict(False, (0.0, w.grid.D, 1.0), math.inf, 0)
    hp = np.asarray(w.h, dtype=float) ** (1.0 / (N - 1.0))
    ncell = len(t_nodes) - 1
    i0, i1, j = (np.concatenate(c) for c in zip(
        _lattice_triples(ncell), _kronecker_triples(ncell, sample_pairs)))
    x0, x1 = t_nodes[i0], t_nodes[i1]
    theta = x1 - x0
    lam = (t_nodes[j] - x0) / theta

    def term(tt, hpi):
        # h = 0 kills the term even when sigma blows up
        with np.errstate(invalid="ignore"):
            return np.where(hpi == 0.0, 0.0, _sigma_raw(K, N - 1.0, tt, theta) * hpi)

    violations = term(lam, hp[i1]) + term(1.0 - lam, hp[i0]) - hp[j]
    worst = int(np.argmax(violations))
    violation = violations[worst]
    if violation > CD_TOL:
        return CdVerdict(False, (x0[worst], x1[worst], lam[worst]), float(violation),
                         len(violations))
    return CdVerdict(True, None, float(max(violation, 0.0)), len(violations))


# ---------------------------------------------------------------------------
# generation


def _rotation_flow(t, edges, levels, w0, wp0):
    """Nodes t of the exact solution of w'' = -(1 + a) w, (w, w')(0) = (w0, wp0),
    for a = levels[j] on [edges[j], edges[j+1]) (the last piece closed).

    On piece j, with k = sqrt(1 + levels[j]) and s = t - edges[j], the solution
    is the rotation w_j cos(k s) + (w'_j / k) sin(k s); the state (w_j, w'_j)
    is carried across the edges in closed form.
    """
    k = np.sqrt(1.0 + levels)
    kL = k * np.diff(edges)
    cs, sn = np.cos(kL), np.sin(kL)
    ws = np.empty(len(levels))
    wps = np.empty(len(levels))
    y, yp = w0, wp0
    for j in range(len(levels)):
        ws[j], wps[j] = y, yp
        y, yp = y * cs[j] + yp / k[j] * sn[j], yp * cs[j] - y * k[j] * sn[j]
    j = np.minimum(np.searchsorted(edges, t, side="right") - 1, len(levels) - 1)
    ks = k[j] * (t - edges[j])
    return ws[j] * np.cos(ks) + wps[j] / k[j] * np.sin(ks)


def generate_cd_density(N, seed, grid: Grid) -> WeightedInterval:
    """Seeded CD(N-1, N) density on grid: h = w^{N-1} with w'' = -(1 + a(t)) w.

    The excess a >= 0 is piecewise constant, so on each piece w is an exact
    rotation (see _rotation_flow) and (N-1) w''/w = -(N-1)(1 + a) <= -K holds
    exactly wherever w > 0: the density is an exact CD(N-1, N) density sampled
    at the nodes, and does not depend on the grid beyond the sampling.

    a has 6 pieces with seeded edges and levels, w starts at a seeded phase,
    and each sqrt(1 + a) is capped so that the phase can advance by at most
    the budget left below pi; the cap does not bound the phase jumps at the
    piece edges, so if w is not positive at every node the levels shrink by
    0.7 per retry (at most 40). Deterministic per seed; a negative seed is
    refused.
    """
    if seed < 0:
        raise ParameterDomainError(f"seed must be non-negative, got {seed}")
    if grid.D >= math.pi:
        raise ParameterDomainError("generator needs D < pi")
    t = grid.nodes
    D = grid.D

    rng = np.random.default_rng(seed)
    margin = 0.02 * (math.pi - D) + 1e-3
    avail = math.pi - margin - D
    phase = rng.uniform(0.1, 0.6) * avail
    budget = math.pi - margin - phase  # total allowed advance of the phase
    rho = budget / D
    amax = max(rho * rho - 1.0, 0.0)
    pieces = 6
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, D, pieces - 1)), [D]])
    levels0 = rng.uniform(0.0, amax, pieces)

    scale = 1.0
    for _ in range(40):
        w = _rotation_flow(t, edges, levels0 * scale, math.sin(phase), math.cos(phase))
        if np.all(w > 0):
            return WeightedInterval(grid=grid, h=w ** (N - 1.0), K=N - 1.0,
                                    N=float(N)).normalized()
        scale *= 0.7
    raise DegenerateDensityError("no positive solution after 40 retries; try a smaller interval")
