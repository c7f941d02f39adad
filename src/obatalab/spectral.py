"""Neumann spectral problems on weighted intervals.

The eigenproblem -(h u')' = lambda h u is discretized by conservative
midpoint fluxes with a mass-lumped right side. Fluxes and masses are both
assembled from cell-midpoint densities, so nothing ever divides by a nodal
h value and densities vanishing at the endpoints (the model) need no special
casing. A diagonal similarity turns the pencil into a symmetric tridiagonal
standard problem.

The reported gap takes lambda(n) and lambda(n/2) only (richardson), so a
grid is solved in two refined levels, the half grid and the grid itself,
from a base: the coarsest exact halving with at least max(256, 8 k^{3/2})
cells for k pairs, solved directly by bisection + inverse iteration. The
base eigenvectors of lambda_1..lambda_k are interpolated linearly straight
to the half grid and polished there by inverse iteration shifted by the base
eigenvalues; the half-grid ones are interpolated to the grid and polished
with the half-grid eigenvalues as shifts. Each pair iterates until two
successive estimates of |lambda - shift| agree to 1e-8 of lambda (2 to 6
steps). A level where a pair does not converge, or has the wrong number of
sign changes, fails: after a failed jump of several doublings the solve
climbs from the base one doubling at a time, and a one-doubling level that
fails is solved directly instead. lambda_0 is exactly 0 on a refined level,
whose lambda_0 vector is the constant and is never iterated. A grid with no
such base is solved directly. At most MAX_PAIRS pairs are computed, and at
most MAX_PAIR_NODES values per grid-by-pairs array.

The discrete problem rescales exactly: nodes t 2^p and densities h 2^q, with
p + q even, scale the eigenvalues by 4^-p and the eigenvectors by
2^-(p+q)/2, with no rounding. neumann_eigs takes once, before the solve, the
(p, q) that bring the diameter into [1/2, 1) and the peak density into
[1/2, 2): the scale is what bounds lambda. A grid with |p|, |q| at most
_EXACT_EXPONENT is solved as it is, any other on scaled copies whose values
are scaled back, and eigenvalues past the float range are refused.

A refined level is its nodes and densities (t, h): the grid's own, and
contiguous copies of every other one for the half grid. A level of more than
one block holds no arrays of its own. Each sweep that reads its flux and
mass forms them once per block of about 2^15 nodes (_block_level: _assemble
on the block's slice with a one-node halo), along with the symmetric form
where it is needed (_symmetric): the factor rows with the scaling y = u/s,
the unscaling u = y s with the flux quotient, and the backward errors. A
refined level of one block is formed once, with its symmetric form, for all
its sweeps. The backward errors of a grid (SpectralResult.residuals) are
taken on first read, per block in this way on any grid; the blocked form
has the bits of the whole-grid form.

The blocked sweeps (the factor rows, the flux quotient and unscaling, the
sign count, the backward errors) and the prolongation run on the
process-wide worker pool (pool.map: OBATALAB_THREADS threads, the caller's
own among them). Each thread takes the next block from a shared counter and
reuses its own scratch rows, made on the calling thread, and a block writes
only its own nodes and the cells that start in them: the unscaling reads
the next block's first node as it was before the sweep, and the sign count
joins the blocks' (first sign, last sign, count) in block order. A solve
inside a pool task, such as a job of an obata1d sweep, runs its sweeps
inline; the inverse-iteration solves themselves (dgttrs) are serial.
Blocking only regroups elementwise arithmetic, every sum runs over a whole
row after its sweep, and maxima are joined in block order, so each value
keeps the bits of the whole-grid form, which the grids solved by bisection
(_scaled) still build, for any thread count.

The package has one discrete Rayleigh quotient, the flux form
sum f (u_{i+1} - u_i)^2 / sum M u_i^2 (_flux_quotient). Every eigenvalue is
that quotient of its eigenvector, which converges cleanly as O(grid^2) where
bisection eigenvalues carry an error of about eps n^2. rayleigh() takes it of
any function, so by min-max it is >= lambda_1; deficit() extrapolates it on
(n, n/2) through measures.extrapolate, as richardson does the eigenvalues.
"""
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from . import pool
from .errors import (
    ConditioningError,
    DegenerateDensityError,
    DisconnectedSupportError,
    ObataLabError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from .isoperimetry import c_squared_minus_one
from .measures import (MAX_GRID_NODES, Grid, WeightedInterval, extrapolate, first_diff,
                       omega, second_diff)


@dataclass(frozen=True)
class SpectralResult:
    """Lowest Neumann eigenpairs of a weighted interval.

    eigenvalues: lambda_1 <= ... <= lambda_k, each rayleigh() of its computed
        eigenvector, so rayleigh(w, v) >= lambda_1 for every v (min-max)
    eigenfunctions: column j is the j-th eigenfunction, L2(m)-normalized in the
        discrete mass inner product, zero m-mean, sign fixed positive at the
        first significant node
    residuals: per pair, the backward error ||(T - lam) y||_inf /
        (||T||_inf ||y||_inf) of the eigenvalue and its eigenvector y = u/s in
        the symmetric scaled form T of the discrete problem. It is rounding
        that grows with the n cells of the grid: on the model at D < pi about
        1e-15 at n = 2^12, 4e-13 at 2^16 and up to 9e-12 at 2^20, at most
        about 1e-17 n, while at D = pi it stays below 2e-13 at every n. It
        measures the solve, not the discretisation error (see err_bar).
        Taken on first read (_errors, which holds the grid's own nodes and
        densities), so a solve whose residuals nobody reads does not pay
        for them
    lam0: lambda_0 ~ 0, dropped from eigenvalues. Exactly 0 on a grid refined
        from its half grid, whose lambda_0 vector is the constant and is not
        computed; the bisection value (~1e-23) on a grid solved directly,
        including a level that fell back
    half_eigenvalues: lambda_1..lambda_k of the same density on the half grid
        (every other node), signed. On a refined grid they are the half-grid
        level of the two-level solve, the shifts the grid was refined from,
        kept when the grid falls back to a direct solve. That level is reached
        from the base in one jump where neumann_eigs on the half grid itself
        takes two levels, so the two agree to rounding (~1e-15 relative), not
        bitwise. On a grid solved directly the half grid is solved directly
        as well. NaN unless has_half_grid(n) holds for the n cells of the grid
    err_bar: |lambda(n) - lambda(n/2)| per pair; NaN without the half grid
    richardson: lambda(n) + (lambda(n) - lambda(n/2))/3 (measures.extrapolate),
        which removes the O(dt^2) term of the scheme; NaN without the half grid
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    lam0: float
    half_eigenvalues: np.ndarray
    _errors: object = field(repr=False, compare=False)  # () -> residuals

    @functools.cached_property
    def residuals(self):
        return self._errors()

    @property
    def err_bar(self):
        return extrapolate(self.eigenvalues, self.half_eigenvalues)[1]

    @property
    def richardson(self):
        return extrapolate(self.eigenvalues, self.half_eigenvalues)[0]


# neumann_eigs computes at most this many pairs: a direct solve grows with
# k n (256 pairs on one core: 1.3 s on 4096 cells, 5.4 s on 16384)
MAX_PAIRS = 256
# and at most this many (grid nodes) x k values: each n x k array of a solve
# on n cells holds 8 (n + 1) k bytes (256 MiB at the cap). It is the node cap
# of Grid.uniform, so no uniform grid is built that no solve would take
MAX_PAIR_NODES = MAX_GRID_NODES
# the base of the nested solve has at least this many cells (and 8 k^{3/2})
_DIRECT_CELLS = 256
# a refined level holds no arrays: its flux, mass and symmetric form are
# formed in blocks of this many nodes (256 KiB per row) wherever they are read
_BLOCK = 2 ** 15
# a sweep over fewer blocks runs inline: the threads hand the interpreter lock
# over at each numpy call, which on 2^15 values costs about what the call
# does, and two or three blocks do not win it back (interleaved medians, one
# thread against two, k = 1: 2^16 cells 11.7 and 12.9 ms, 98304 cells 18.6
# and 20.0 ms, 2^17 cells 24.8 and 24.0 ms)
_POOL_BLOCKS = 4
# neumann_eigs solves a grid as it is while |p| and |q| are at most this (D of
# at least 2^-65): model grids (4096 to 2^18 cells, 1 to 200 pairs) kept every
# bit of the scaled solve up to |p| = 124 and |q| = 896, and past |p| ~ 130
# (lambda ~ 4^p) inverse iteration underflows. D = pi has (p, q) = (-2, 0)
_EXACT_EXPONENT = 64
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


def _assemble(t, h, out=None):
    """Flux f = hmid/dt per cell and lumped mass M per node, from the
    cell-midpoint densities hmid. out, when given, is four rows of at least
    len(t) values that take the cell widths, f, the half-cell masses and M
    from their start, so that a blocked sweep allocates them once."""
    m = len(t)
    if out is None:
        out = [np.empty(m) for _ in range(4)]
    dt, f, half_cell, M = out[0][:m - 1], out[1][:m - 1], out[2][:m - 1], out[3][:m]
    np.subtract(t[1:], t[:-1], out=dt)  # np.diff(t), without its dispatch
    np.add(h[:-1], h[1:], out=f)
    f *= 0.5
    np.multiply(f, dt, out=half_cell)
    half_cell *= 0.5
    M[0], M[-1] = half_cell[0], half_cell[-1]
    np.add(half_cell[:-1], half_cell[1:], out=M[1:-1])
    f /= dt
    return f, M


def _support_checks(h):
    """Refuse h >= 0 whose cell midpoints 0.5 (h_i + h_{i+1}) vanish between
    its first and last positive node, or on an end cell. A midpoint rounds to
    0 only where h_i is at most the least subnormal, so only those cells are
    formed."""
    pos = h > 0
    first = int(pos.argmax())
    if not pos[first]:
        raise DegenerateDensityError("density is identically zero")
    last = len(h) - 1 - int(pos[::-1].argmax())
    c = np.flatnonzero(h[first:last] <= 5e-324) + first  # the least subnormal
    if not (0.5 * (h[c] + h[c + 1])).all():
        raise DisconnectedSupportError("density vanishes on an interior subinterval")
    if 0.5 * (h[0] + h[1]) == 0.0 or 0.5 * (h[-2] + h[-1]) == 0.0:
        raise DegenerateDensityError(
            "density vanishes on a whole end cell, leaving an end node without mass")


def _blocks(nodes):
    """(lo, hi) node ranges that tile 0..nodes-1: _BLOCK nodes each, but the
    last takes the rest, up to _BLOCK + 1 nodes (2^p cells end in a lone
    node)."""
    return [(lo, lo + _BLOCK if lo + _BLOCK < nodes - 1 else nodes)
            for lo in range(0, nodes - 1, _BLOCK)]


def _inv_sqrt(M, out):
    """s = 1/sqrt(M), the scaling y = u/s of the symmetric form, into out."""
    np.sqrt(M, out=out)
    return np.reciprocal(out, out=out)


def _block_level(t, h, lo, hi, scratch=None):
    """Flux f and mass M of the level (t, h) for the nodes lo..hi-1:
    _assemble (into scratch, when given) of their slice with one halo node on
    each side. f is the flux of every cell that touches the nodes (from cell
    lo - 1, or 0 at the grid's start), M their masses (a halo node's misses
    a cell); each value holds the bits of the whole-grid _assemble(t, h)."""
    a, b = max(lo - 1, 0), min(hi + 1, len(t))
    f, M = _assemble(t[a:b], h[a:b], scratch)
    return f, M[lo - a:hi - a]


def _scratch(nodes, rows=4):
    """Rows (four for _block_level) that hold any block of _blocks(nodes),
    widened by up to one node on each side."""
    return np.empty((rows, min(nodes, _BLOCK + 4)))


def _sweep(fn, nodes, rows=4):
    """[fn(lo, hi, scratch) for each block (lo, hi) of _blocks(nodes)] on the
    worker pool (pool.map): each thread's share reuses its own scratch, rows
    of _scratch(nodes, rows) made on the calling thread. A grid of fewer than
    _POOL_BLOCKS blocks runs inline."""
    return pool.map(lambda span, scratch: fn(*span, scratch), _blocks(nodes),
                    lambda: _scratch(nodes, rows), _POOL_BLOCKS)


def _symmetric(f, M, start, end, out=None):
    """The symmetric form diag(d), off-diagonal e of the pencil on the nodes
    of M, given the fluxes f of the cells that touch them (_block_level;
    start and end tell whether the nodes begin and end the grid):
    s = 1/sqrt(M) and d = (f_{i-1} + f_i) s_i^2 per node (one flux at an end
    of the grid), e = -f_i s_i s_{i+1} per cell between two of them. out,
    when given, is three rows that take s, d and e from their start."""
    m, off = len(M), 0 if start else 1  # node i has the cells i - 1 + off, i + off
    if out is None:
        out = np.empty((3, m))
    s = _inv_sqrt(M, out[0][:m])
    d, e = out[1][:m], out[2][:m - 1]
    p, q = (1 if start else 0), (m - 1 if end else m)  # the nodes between two cells
    np.add(f[p - 1 + off:q - 1 + off], f[p + off:q + off], out=d[p:q])
    if start:
        d[0] = f[0]
    if end:
        d[-1] = f[-1]
    d *= s
    d *= s
    np.negative(f[off:off + m - 1], out=e)
    e *= s[:-1]
    e *= s[1:]
    return s, d, e


def _scaled(t, h):
    """Flux, mass and the _symmetric form s, d, e of the whole grid: the
    matrix of a grid solved by bisection. ConditioningError when the form is
    not finite, as for a density of too wide a range for float64."""
    f, M = _assemble(t, h)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s, d, e = _symmetric(f, M, True, True)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConditioningError(
            "the symmetric form of the grid is not finite (masses or fluxes out of float range)")
    return f, M, s, d, e


def _flux_quotient(u, t, h, work=None, unscale=False, level=None):
    """The flux Rayleigh quotient sum f (u_{i+1} - u_i)^2 / sum M u_i^2 of
    the vector u on the level (t, h), and its mass sum M u_i^2; work, when
    given, is a 2 x len(u) scratch array. With unscale, u holds the symmetric
    form y = u/s and is set to y s in place first. f and M are formed per
    block (_block_level) on the worker pool (_sweep); level, the whole grid's
    (f, M), with s = 1/sqrt(M) to unscale with, when it is formed already,
    is read as one block instead. Each block unscales only its own nodes:
    its last cell reads the next block's first node as it was before the
    sweep, unscaled with the bits of its s. The terms go into whole rows, and
    each sum is taken over its whole row."""
    nodes = len(u)
    sq, energy = work if work is not None else np.empty((2, nodes))
    after = {} if level else {lo: u[lo] for lo, _ in _blocks(nodes)[1:]}

    def block(lo, hi, scratch):
        top = min(hi + 1, nodes)  # with the next block's first node
        flux, M = level[:2] if level else _block_level(t, h, lo, top, scratch)
        ub, nxt = u[lo:hi], after.get(hi)
        if unscale:
            s = level[2] if level else _inv_sqrt(M, scratch[0][:top - lo])
            ub *= s[:hi - lo]
            if nxt is not None:
                nxt = nxt * s[hi - lo]
        c = min(hi, nodes - 1)  # the cells lo..c-1 start in the block
        f = flux[1 if lo else 0:][:c - lo]  # flux starts at cell lo - 1 inside the grid
        # du borrows the block of the mass row until the masses overwrite it
        inner = min(c + 1, hi)
        np.subtract(u[lo + 1:inner], u[lo:inner - 1], out=sq[lo:inner - 1])
        if nxt is not None:
            sq[hi - 1] = nxt - u[hi - 1]
        du = sq[lo:c]
        np.multiply(f, du, out=energy[lo:c])
        energy[lo:c] *= du
        np.multiply(ub, ub, out=sq[lo:hi])
        sq[lo:hi] *= M[:hi - lo]

    if level:
        block(0, nodes, None)
    else:
        _sweep(block, nodes)
    mass = float(sq.sum())
    if not 0.0 < mass < math.inf:
        raise UndefinedQuotientError("function has zero variance against m")
    return float(energy[:-1].sum()) / mass, mass


def _sign_changes(u, scale=None):
    """Sign changes along u, exact zeros skipped; with scale, u is first
    divided by it in place. Each block counts its own on the worker pool
    (_sweep) and reports its first and last sign, and the blocks are joined
    in block order."""
    def block(lo, hi, scratch):
        part = u[lo:hi]
        if scale is not None:
            part /= scale
        neg = part < 0.0
        if not part.all():
            neg = neg[part != 0.0]
            if not len(neg):
                return None
        return neg[0], neg[-1], int(np.count_nonzero(neg[1:] != neg[:-1]))

    changes, last = 0, None
    for first, end, count in filter(None, _sweep(block, len(u), 0)):
        changes += count + int(last is not None and first != last)
        last = end
    return changes


def _finish(u, t, h, work=None, count=False, level=None):
    """Set the columns of u, eigenvectors y of the symmetric form of the grid
    (t, h), to y s in place, then M-normalise and sign-fix them, positive at
    the first node above 1e-12 of the column's peak; return their
    _flux_quotient values, taken in the sweep that unscales (work and level
    as in _flux_quotient), and, with count, their _sign_changes, counted in
    the sweep that normalises."""
    ray = np.empty(u.shape[1])
    changes = []
    if work is None:
        work = np.empty((2, len(u)))
    for j in range(u.shape[1]):
        uj = u[:, j]
        ray[j], mass = _flux_quotient(uj, t, h, work, unscale=True, level=level)
        floor = 1e-12 * max(uj.max(), -uj.min())
        first = 0 if abs(uj[0]) > floor else int(np.argmax(np.abs(uj) > floor))
        scale = math.copysign(math.sqrt(mass), uj[first])
        if count:
            changes.append(_sign_changes(uj, scale))
        else:
            uj /= scale
    return ray, changes


def _solve_tridiagonal(t, h, k):
    f, M, s, d, e = _scaled(t, h)
    try:
        u = eigh_tridiagonal(d, e, select="i", select_range=(0, k))[1]
    except np.linalg.LinAlgError as exc:  # stebz fails on forms near the float limits
        raise ConditioningError(f"tridiagonal bisection failed ({exc})") from exc
    if not np.isfinite(u).all():  # and stein, on slightly milder ones
        raise ConditioningError("tridiagonal eigenvectors are not finite (out of float range)")
    return _finish(u, t, h, level=(f, M, s))[0], u


def _direct(t, h, k):
    """lambda_0, lambda_1..lambda_k and the eigenvectors of lambda_1..lambda_k
    (one column each) of the grid (t, h), solved directly."""
    ray, u = _solve_tridiagonal(t, h, k)
    return float(ray[0]), ray[1:], u[:, 1:]


def _prolong(t, v, stride):
    """Columns of v, given on the coarse grid t[::stride], interpolated
    linearly to the nodes t; stride divides the cell count len(t) - 1. Runs
    of coarse cells of about _BLOCK nodes go to the worker pool (from
    _POOL_BLOCKS runs on), each share with its own scratch row of
    interpolation weights."""
    tc = t[::stride]
    run = max(_BLOCK // stride, 1)  # coarse cells per item
    u = np.empty((len(t), v.shape[1]), order="F")

    def cells(a, scratch):
        b = min(a + run, len(tc) - 1)
        theta = scratch[:(b - a) * (stride - 1)].reshape(b - a, stride - 1)
        np.subtract(t[a * stride:b * stride].reshape(-1, stride)[:, 1:], tc[a:b, None], out=theta)
        theta /= (tc[a + 1:b + 1] - tc[a:b])[:, None]
        for j in range(v.shape[1]):
            vj = v[a:b + 1, j]
            # a view: the column is contiguous
            fine = u[a * stride:b * stride, j].reshape(-1, stride)
            fine[:, 0] = vj[:-1]
            np.multiply(theta, (vj[1:] - vj[:-1])[:, None], out=fine[:, 1:])
            fine[:, 1:] += vj[:-1, None]

    pool.map(cells, range(0, len(tc) - 1, run), lambda: np.empty(run * (stride - 1)),
             _POOL_BLOCKS)
    u[-1] = v[-1]
    return u


def _inverse_iterate(work, y, shift):
    """Inverse iteration in place on y, a contiguous vector that dgttrs
    overwrites, with the symmetric tridiagonal matrix minus shift, whose
    bands dl, dd, du are the rows of work (3 of len(y); factored in place),
    until two successive estimates 1/||z|| of |lambda - shift| agree to
    _STEP_RTOL of |shift|, from step _MIN_STEPS on. ConditioningError when
    the factor or an iterate is singular, or after _MAX_STEPS.

    The agreement is taken relative to |shift|, not to the estimate itself:
    the estimate carries a rounding noise of 1e-9 to 1e-7 of itself at 2^20
    cells, so a converged pair would often never agree to 1e-8 of it.
    """
    dl, dd, du, du2, ipiv, info = dgttrf(work[0][:-1], work[1], work[2][:-1],
                                         overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise ConditioningError(f"inverse iteration is singular at shift {shift!r}")
    # the iterate is never rescaled: the estimate of a step is the ratio of
    # successive norms, each step divides it by about |lambda - shift|, which
    # neumann_eigs's scale bounds, and the caller normalises it (_finish)
    norm = math.sqrt(y.dot(y))  # np.linalg.norm(y), without its dispatch
    gap = math.inf
    tol = _STEP_RTOL * abs(shift)
    for step in range(1, _MAX_STEPS + 1):
        y = dgttrs(dl, dd, du, du2, ipiv, y, overwrite_b=1)[0]
        last, prev = gap, norm
        norm = math.sqrt(y.dot(y))
        if not 0.0 < norm < math.inf:
            raise ConditioningError(f"inverse iteration is singular at shift {shift!r}")
        gap = prev / norm
        if step >= _MIN_STEPS and abs(gap - last) <= tol:
            return
    raise ConditioningError(
        f"inverse iteration at shift {shift!r} did not converge in {_MAX_STEPS} steps")


def _shifted_rows(t, h, work, y, shift, level=None):
    """Write the bands dl, dd, du of the symmetric form of the level (t, h),
    minus shift, into the rows of work, and scale y to y/s in place, per
    block on the worker pool (_sweep); level, the flux, mass and symmetric
    form (f, M, s, d, e) of a level of one block, is read instead. A block
    writes only its own nodes and the cells that start in them."""
    nodes = len(t)
    dl, dd, du = work
    if level:
        s, d, e = level[2:]
        y /= s
        np.subtract(d, shift, out=dd)
        dl[:-1] = e
        du[:-1] = e
        return

    def block(lo, hi, scratch):
        # s and d reach one node past the block, for the cell hi - 1, in the
        # scratch rows the assembly is done with; e goes straight to dl
        top = min(hi + 1, nodes)
        s, d, e = _symmetric(*_block_level(t, h, lo, top, scratch), lo == 0, top == nodes,
                             (scratch[0], scratch[2], dl[lo:top]))
        y[lo:hi] /= s[:hi - lo]
        du[lo:top - 1] = e
        np.subtract(d[:hi - lo], shift, out=dd[lo:hi])

    _sweep(block, nodes)


def _refine(t, h, u, shifts):
    """Polish prolonged eigenvectors u of lambda_1..lambda_k (one column
    each) in place on the level (t, h) by inverse iteration in the symmetric
    form y = u/s, shifted by shifts, their eigenvalues on the coarser grid;
    return their flux Rayleigh quotients. A level of one block has its
    flux, mass and symmetric form formed once for all its sweeps; on a
    larger one each sweep forms its blocks (_block_level).
    ConditioningError when a pair does not converge, or when pair j does not
    change sign exactly j times (Sturm oscillation).
    """
    # three rows apart, not one 3 x n block: each can reuse a freed grid-sized block
    work = [np.empty(len(t)) for _ in range(3)]
    level = None
    if len(_blocks(len(t))) == 1:
        f, M = _block_level(t, h, 0, len(t))
        level = (f, M) + _symmetric(f, M, True, True)
    for j, shift in enumerate(shifts):
        y = u[:, j]
        _shifted_rows(t, h, work, y, shift, level)
        _inverse_iterate(work, y, shift)
    ray, changes = _finish(u, t, h, work[:2], count=True, level=level)
    for j, count in enumerate(changes, 1):
        if count != j:
            raise ConditioningError(
                f"refined pair {j} changes sign {count} times, not {j}")
    return ray


def _eigenpairs(t, h, k):
    """lambda_0, the flux Rayleigh eigenvalues lambda_1..lambda_k and their
    eigenvectors (one column each), and the half-grid eigenvalues when the
    grid was refined from its half grid (None otherwise).

    A grid that _refines is reached in two refined levels from its base
    (_coarsest_cells, solved directly): the base pairs are prolonged straight
    to the half grid and refined there, shifted by the base eigenvalues, and
    the half-grid pairs to the grid, shifted by the half-grid eigenvalues. A
    refined level is its nodes and densities: the grid's own (t, h), and
    contiguous copies of every other node of them for the half grid.
    When the refinement of a jump of several doublings raises
    ConditioningError, the solve climbs from the base one doubling at a time
    instead; a one-doubling level that raises is solved directly. lambda_0 is
    exactly 0 on a refined level, whose lambda_0 vector is the constant.
    Every grid solved passes _support_checks, the grid itself first.
    """
    _support_checks(h)
    n = len(t) - 1
    if not _refines(n, k):
        return _direct(t, h, k) + (None,)
    have = n // _coarsest_cells(n, k)  # stride of the finest level solved
    _support_checks(h[::have])
    lam0, vals, v = _direct(t[::have], h[::have], k)
    goal = min(have // 2, 2)  # the half grid, then the grid
    while True:
        stride = have // goal
        # a strided level would slow every sweep over it; the copies (half
        # the grid's size at most) are dropped before the grid is refined
        tg, hg = (t, h) if goal == 1 else (t[::goal].copy(), h[::goal].copy())
        u = _prolong(tg, v, stride)
        if stride == 2:
            v = None  # a one-doubling level falls back to bisection, not to v
        if goal > 1:
            _support_checks(hg)
        half = vals
        try:
            vals = _refine(tg, hg, u, half)
            lam0 = 0.0
        except ConditioningError:
            if stride > 2:
                goal = have // 2
                continue
            lam0, vals, u = _direct(tg, hg, k)
        if goal == 1:
            return lam0, vals, u, half
        have, goal, v = goal, goal // 2, u


def _backward_errors(t, h, u, lams):
    """||(T - lam) y||_inf / (||T||_inf ||y||_inf) per column, for T the
    symmetric matrix of the level (t, h) and y = u/s its form of the column.
    T is formed per block (_symmetric) with one halo node on each side, on
    the worker pool (_sweep), with the bits of the whole-grid form. The
    norms are maxima of the blocks' maxima, taken in block order."""
    nodes = len(t)

    def block(lo, hi, scratch):
        a, b = max(lo - 1, 0), min(hi + 1, nodes)
        s, d, e = _symmetric(*_block_level(t, h, a, b, scratch), a == 0, b == nodes,
                             (scratch[0], scratch[2], scratch[4]))
        m, own = b - a, slice(lo - a, hi - a)  # the block's rows in the halo
        # y and r take the rows of f and M, which the form is done with
        ye, re, ae = scratch[1][:m], scratch[3][:m], scratch[5][:m - 1]
        np.abs(d, out=re)
        np.abs(e, out=ae)
        re[:-1] += ae
        re[1:] += ae
        tmax, rs, ys = re[own].max(), [], []
        for lam, uj in zip(lams, u.T):
            np.divide(uj[a:b], s, out=ye)
            np.subtract(d, lam, out=re)
            re *= ye
            np.multiply(e, ye[1:], out=ae)
            re[:-1] += ae
            np.multiply(e, ye[:-1], out=ae)
            re[1:] += ae
            ro = re[own]  # a halo row misses a neighbour's term
            rs.append((ro.max(), -ro.min()))
            ys.append((ye.max(), -ye.min()))
        return tmax, rs, ys

    tnorm = 0.0
    rmax, ymax = [0.0] * len(lams), [0.0] * len(lams)
    for bt, rs, ys in _sweep(block, nodes, 6):
        tnorm = max(tnorm, bt)
        for j, (r, y) in enumerate(zip(rs, ys)):
            rmax[j] = max(rmax[j], *r)
            ymax[j] = max(ymax[j], *y)
    return np.array([rj / (tnorm * yj) for rj, yj in zip(rmax, ymax)])


def _spectrum(t, h, k):
    """SpectralResult of k pairs on the grid (t, h)."""
    lam0, lams, funcs, half = _eigenpairs(t, h, k)
    if half is None and has_half_grid(len(t) - 1):
        half = _eigenpairs(t[::2], h[::2], k)[1]
    return SpectralResult(
        eigenvalues=lams,
        eigenfunctions=funcs,
        lam0=lam0,
        half_eigenvalues=np.full(k, np.nan) if half is None else half,
        _errors=functools.partial(_backward_errors, t, h, funcs, lams),
    )


def neumann_eigs(w: WeightedInterval, k=1) -> SpectralResult:
    """First k nonzero Neumann eigenpairs of -(h u')' = lambda h u on w."""
    if not 1 <= k <= MAX_PAIRS:
        raise ParameterDomainError(f"need 1 <= k <= {MAX_PAIRS}, got k = {k}")
    t, h = w.grid.nodes, w.h
    if len(t) * k > MAX_PAIR_NODES:
        raise ParameterDomainError(
            f"need (grid_n + 1) k <= {MAX_PAIR_NODES}, got {len(t)} nodes x k = {k}")
    cells = _coarsest_cells(len(t) - 1, k)
    if k > cells:
        raise ParameterDomainError(
            f"k = {k} exceeds the {cells} cells of the coarsest grid solved")
    # diameter and peak density into [1/2, 1), the density's exponent made as
    # even as p's (peak in [1/2, 2)): the scaling is exact
    p, q = -math.frexp(t[-1])[1], -math.frexp(float(np.max(h)))[1]
    q += (p + q) % 2
    scaled = max(abs(p), abs(q)) > _EXACT_EXPONENT
    if scaled:
        t, h = np.ldexp(t, p), np.ldexp(h, q)
    res = _spectrum(t, h, k)
    if not scaled:
        return res
    with np.errstate(over="ignore"):
        lams, half, lam0 = (np.ldexp(x, 2 * p) for x in
                            (res.eigenvalues, res.half_eigenvalues, res.lam0))
        funcs = np.ldexp(res.eigenfunctions, (p + q) // 2)
    if any(np.isinf(x).any() for x in (lams, half, funcs)):
        raise ParameterDomainError(
            f"the spectrum on diameter {w.grid.D:g} is not finite in float64: its "
            "eigenvalues, of order 1/D^2, leave the float range")
    return SpectralResult(eigenvalues=lams, eigenfunctions=funcs, lam0=float(lam0),
                          half_eigenvalues=half,
                          _errors=lambda errors=res.residuals: errors)  # taken now, on the copies


def rayleigh(w: WeightedInterval, u):
    """Flux Rayleigh quotient of u recentred to zero lumped-mass (M) mean: the
    quotient every eigenvalue of neumann_eigs is, so rayleigh(w, u) >=
    lambda_1 of the same grid. Without the recentring a constant component
    would add mass and no energy, and min-max would fail."""
    t, h = w.grid.nodes, w.h
    f, M = _assemble(t, h)
    u = np.asarray(u, dtype=float)
    return _flux_quotient(u - float(np.sum(M * u)) / float(np.sum(M)), t, h, level=(f, M))[0]


def deficit(w: WeightedInterval, u):
    """delta(u) = R(n) + (R(n) - R(n/2))/3 - N for R the rayleigh quotient on
    the grid and on its half grid (every other node, as neumann_eigs takes
    it): extrapolate cancels the O(grid^2) term of R as in richardson."""
    g = w.grid
    require_half_grid(g.n)
    half = WeightedInterval(grid=Grid(D=g.D, n=g.n // 2, nodes=g.nodes[::2]),
                            h=w.h[::2], K=w.K, N=w.N)
    return extrapolate(rayleigh(w, u), rayleigh(half, np.asarray(u, dtype=float)[::2]))[0] - w.N


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
    h = w.h
    mask = h >= 1e-6 * np.max(h)
    mask[0] = mask[-1] = False
    z = second_diff(w.grid, u) + u
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


def green_apply(w: WeightedInterval, z) -> GreenResult:
    """v0(t) = int_{x0}^t sin(t - s) z(s) ds through spline antiderivatives,
    from the node x0 of the largest density (the first, on a tie).

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
    resid = float(np.max(np.abs((second_diff(w.grid, v0) + v0 - z)[1:-1])))
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
    du = first_diff(w.grid, u)
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
    z = first_diff(w.grid, first_diff(w.grid, u)) + u
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
