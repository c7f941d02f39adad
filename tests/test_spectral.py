import functools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obatalab import spectral
from obatalab.errors import (
    ConditioningError,
    DegenerateDensityError,
    DisconnectedSupportError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from obatalab.measures import Grid, WeightedInterval, model_density, generate_cd_density
from obatalab.obata1d import loglog_fit, truncated_model
from obatalab.spectral import (
    bochner_check,
    cosine_decompose,
    cosine_distance,
    deficit,
    green_apply,
    lichnerowicz_check,
    neumann_eigs,
    rayleigh,
)

# Frozen oracle values (tests/oracles/frozen.txt)
DEFICIT_PERTURBED = 0.042216358839
SHOOTING_N2_D30 = 2.0149343789
SHOOTING_N3_D28 = 3.0242843129
GREEN_7NODE = [0.5, 0.17121331, 0.02327508, 0.0, -0.02327508, -0.17121331, -0.5]


def uniform_interval(n, D=1.0):
    g = Grid.uniform(D, n)
    return WeightedInterval(grid=g, h=np.ones(n + 1), K=0.0, N=2.0)


# ---------------------------------------------------------------------------
# neumann_eigs


def test_uniform_interval_classical():
    w = uniform_interval(1024)
    res = neumann_eigs(w, k=2)
    assert res.eigenvalues[0] == pytest.approx(math.pi**2, abs=1e-4)
    assert res.eigenvalues[1] == pytest.approx(4 * math.pi**2, abs=1e-3)
    # lambda_0 ~ 0 sanity
    assert abs(res.lam0) <= 1e-9 * res.eigenvalues[0]
    # eigenfunction proportional to cos(pi t); solver normalizes in L2(m)
    u = res.eigenfunctions[:, 0]
    target = math.sqrt(2.0) * np.cos(math.pi * w.grid.nodes)
    assert min(np.max(np.abs(u - target)), np.max(np.abs(u + target))) <= 1e-8


def test_model_eigenvalue_is_N():
    for N in (2.0, 3.0):
        w = model_density(N, Grid.uniform(math.pi, 4096))
        res = neumann_eigs(w, k=1)
        assert res.eigenvalues[0] == pytest.approx(N, abs=1e-5)


def test_model_eigenfunction_is_cosine():
    w = model_density(2.0, Grid.uniform(math.pi, 2048))
    res = neumann_eigs(w, k=1)
    u = res.eigenfunctions[:, 0]
    target = math.sqrt(3.0) * np.cos(w.grid.nodes)
    # sign fix makes the solved function positive at the left end
    assert np.max(np.abs(u - target)) <= 1e-4


def test_eigen_orthogonality_and_rayleigh_agreement():
    w = model_density(2.5, Grid.uniform(math.pi, 1024))
    res = neumann_eigs(w, k=2)
    u1, u2 = res.eigenfunctions[:, 0], res.eigenfunctions[:, 1]
    inner = np.trapezoid(u1 * u2 * w.h, w.grid.nodes)
    assert abs(inner) <= 1e-8
    # each eigenvalue is the rayleigh() quotient of its eigenfunction
    for j, lam in enumerate(res.eigenvalues):
        assert rayleigh(w, res.eigenfunctions[:, j]) == pytest.approx(lam, rel=1e-12)


def test_grid_refinement_within_error_bar():
    for N in (2.0, 3.0):
        l_half = float(neumann_eigs(model_density(N, Grid.uniform(math.pi, 512)), 1).eigenvalues[0])
        l_n = float(neumann_eigs(model_density(N, Grid.uniform(math.pi, 1024)), 1).eigenvalues[0])
        l_2n = float(neumann_eigs(model_density(N, Grid.uniform(math.pi, 2048)), 1).eigenvalues[0])
        assert abs(l_2n - l_n) <= 4.0 * abs(l_n - l_half)


def test_neumann_validation():
    w = uniform_interval(64)
    with pytest.raises(ParameterDomainError):
        neumann_eigs(w, k=0)
    # k <= cells of the coarsest grid solved: the half grid, or the nested base
    assert len(neumann_eigs(w, k=32).eigenvalues) == 32
    with pytest.raises(ParameterDomainError, match="coarsest grid"):
        neumann_eigs(w, k=33)
    # k is capped before any solve: bisecting thousands of pairs takes minutes
    assert spectral.MAX_PAIRS == 256
    with pytest.raises(ParameterDomainError, match="k <= 256, got k = 257"):
        neumann_eigs(uniform_interval(12288), k=257)
    g = Grid.uniform(1.0, 64)
    h = np.ones(65)
    h[20:40] = 0.0
    with pytest.raises(DisconnectedSupportError):
        neumann_eigs(WeightedInterval(grid=g, h=h, K=0.0, N=2.0), k=1)


def test_pair_node_cap_refuses_before_allocating():
    # (n + 1) k is capped: each n x k array of the solve holds 8 (n + 1) k
    # bytes, 2 GiB for 256 pairs on 2^20 cells
    assert spectral.MAX_PAIR_NODES == 2 ** 25
    w = model_density(2.0, Grid.uniform(math.pi, 2 ** 20))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterDomainError, match=r"\(grid_n \+ 1\) k <= 33554432"):
            neumann_eigs(w, k=32)  # 32 (2^20 + 1) is just above 2^25
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_peak_memory_of_a_nested_solve(monkeypatch):
    # a refined level is the grid's nodes and densities (contiguous copies of
    # every other one for the half grid, dropped before the grid is refined),
    # its flux, mass and symmetric form are formed per block, and scratch
    # rows are reused: about 6.5 arrays of n + 1 values at the peak (the
    # k = 2 columns, one factorization's bands and pivots), under 7.5. With
    # two threads each has its own scratch rows of one block, and the peak
    # stays under the same bound
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    n = 2 ** 18
    w = model_density(3.0, Grid.uniform(math.pi, n))
    for threads in ("1", "2"):
        monkeypatch.setenv("OBATALAB_THREADS", threads)
        tracemalloc.start()
        try:
            neumann_eigs(w, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 8 * (n + 1), (threads, peak / (8 * (n + 1)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _random_level(nodes, seed=0):
    # nodes and a random positive density of a nonuniform grid on [0, 1]
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, nodes - 1))])
    h = 1.0 + 0.9 * rng.uniform(-1.0, 1.0, nodes)
    return t / t[-1], h


def _whole_grid_assembly(t, h):
    # flux and lumped mass as they were assembled over the whole grid at once
    dt = np.diff(t)
    f = h[:-1] + h[1:]
    f *= 0.5
    half_cell = f * dt
    half_cell *= 0.5
    M = np.empty(len(t))
    M[0], M[-1] = half_cell[0], half_cell[-1]
    np.add(half_cell[:-1], half_cell[1:], out=M[1:-1])
    f /= dt
    return f, M


def _whole_grid_form(f, M):
    # the symmetric form as it was built over the whole grid at once
    s = np.sqrt(M)
    np.reciprocal(s, out=s)
    d = np.empty(len(M))
    d[0], d[-1] = f[0], f[-1]
    np.add(f[:-1], f[1:], out=d[1:-1])
    d *= s
    d *= s
    e = np.negative(f)
    e *= s[:-1]
    e *= s[1:]
    return s, d, e


_B = spectral._BLOCK
_BLOCK_EDGE_NODES = [_B - 1, _B, _B + 1, 2 * _B + 1, 3 * _B + 7, 301]


def _levels(nodes):
    # (t, h) of a nonuniform and a uniform grid, contiguous, and strided as
    # every other node of a grid twice as fine
    t, h = _random_level(nodes)
    fine_t, fine_h = _random_level(2 * nodes - 1, seed=1)
    uniform = np.linspace(0.0, 1.0, nodes)
    return [(t, h), (uniform, 2.0 + np.sin(7.0 * uniform)), (fine_t[::2], fine_h[::2])]


def _block_ranges(nodes):
    # the node ranges the sweeps read per block: the block itself (the flux
    # quotient), one node past it (the factor rows), and one halo node on
    # each side (the backward errors)
    return [r for lo, hi in spectral._blocks(nodes)
            for r in ((lo, hi), (lo, min(hi + 1, nodes)), (max(lo - 1, 0), min(hi + 1, nodes)))]


@pytest.mark.parametrize("nodes", _BLOCK_EDGE_NODES)
def test_block_level_matches_whole_grid_assembly(nodes):
    # a refined level is (t, h): every reader forms f, M and the symmetric
    # form per block from a slice with a one-node halo, and each value holds
    # the bits of _assemble and _scaled over the whole grid, on uniform and
    # nonuniform, contiguous and strided grids, at both grid ends, with the
    # scratch rows a sweep reuses or without
    blocks = spectral._blocks(nodes)
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(nodes))
    assert max(hi - lo for lo, hi in blocks) <= _B + 1
    for t, h in _levels(nodes):
        f, M, *form = spectral._scaled(t, h)
        want_f, want_M = _whole_grid_assembly(t, h)
        assert np.array_equal(_bits(f), _bits(want_f))
        assert np.array_equal(_bits(M), _bits(want_M))
        for got, want in zip(form, _whole_grid_form(f, M)):
            assert np.array_equal(_bits(got), _bits(want))
        scratch = spectral._scratch(nodes)
        ranges = _block_ranges(nodes)
        assert ranges[0][0] == 0 and ranges[-1][1] == nodes
        for lo, hi in ranges:
            for rows in (None, scratch):
                # the cells that touch the nodes lo..hi-1, and their masses
                bf, bM = spectral._block_level(t, h, lo, hi, rows)
                assert np.array_equal(_bits(bf), _bits(f[max(lo - 1, 0):min(hi, nodes - 1)]))
                assert np.array_equal(_bits(bM), _bits(M[lo:hi])), (lo, hi)
                got = spectral._symmetric(bf, bM, lo == 0, hi == nodes)
                for g, want in zip(got, (form[0][lo:hi], form[1][lo:hi], form[2][lo:hi - 1])):
                    assert np.array_equal(_bits(g), _bits(want)), (lo, hi)


@pytest.mark.parametrize("nodes", _BLOCK_EDGE_NODES)
def test_block_form_matches_whole_grid_form(nodes):
    # every block of the symmetric form, with or without its halo nodes,
    # holds the bits of the whole-grid form, and the blocks tile the grid
    t, h = _random_level(nodes)
    f, M = spectral._assemble(t, h)
    ref = _whole_grid_form(f, M)
    for got, want in zip(spectral._symmetric(f, M, True, True), ref):
        assert np.array_equal(_bits(got), _bits(want))
    blocks = spectral._blocks(nodes)
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(nodes))
    assert max(hi - lo for lo, hi in blocks) <= _B + 1
    out = np.empty((3, _B + 2))
    for lo, hi in blocks:
        for a, b in ((lo, hi), (lo, min(hi + 1, nodes)), (max(lo - 1, 0), min(hi + 1, nodes))):
            level = spectral._block_level(t, h, a, b)
            s, d, e = spectral._symmetric(*level, a == 0, b == nodes, out)
            assert np.array_equal(_bits(s), _bits(ref[0][a:b])), (a, b)
            assert np.array_equal(_bits(d), _bits(ref[1][a:b])), (a, b)
            assert np.array_equal(_bits(e), _bits(ref[2][a:b - 1])), (a, b)


def _whole_grid_backward_errors(f, M, u, lams):
    # the backward errors as they were taken over the whole grid at once
    s, d, e = _whole_grid_form(f, M)
    y, r, ey = np.empty(len(d)), np.empty(len(d)), np.abs(e)
    np.abs(d, out=r)
    r[:-1] += ey
    r[1:] += ey
    tnorm = float(r.max())
    out = np.empty(len(lams))
    for j, lam in enumerate(lams):
        np.divide(u[:, j], s, out=y)
        np.subtract(d, lam, out=r)
        r *= y
        np.multiply(e, y[1:], out=ey)
        r[:-1] += ey
        np.multiply(e, y[:-1], out=ey)
        r[1:] += ey
        out[j] = max(r.max(), -r.min()) / (tnorm * max(y.max(), -y.min()))
    return out


@pytest.mark.parametrize("nodes", [2 * _B + 1, 3 * _B + 7, 301])
def test_blocked_backward_errors_match_whole_grid(nodes):
    rng = np.random.default_rng(nodes)
    t, h = _random_level(nodes, seed=1)
    u = np.asfortranarray(rng.standard_normal((nodes, 3)))
    # exact zeros across block edges and at the ends
    u[:3, 0] = 0.0
    u[_B - 2:_B + 3, 1] = 0.0
    u[-4:, 2] = 0.0
    lams = rng.uniform(1.0, 100.0, 3)
    got = spectral._backward_errors(t, h, u, lams)
    want = _whole_grid_backward_errors(*spectral._assemble(t, h), u, lams)
    assert np.array_equal(_bits(got), _bits(want))
    # the columns of a solve, and a perturbed eigenvalue
    w = model_density(3.0, Grid.uniform(math.pi, nodes - 1))
    level = spectral._assemble(w.grid.nodes, w.h)
    res = neumann_eigs(w, k=3)
    for lam in (res.eigenvalues, res.eigenvalues * (1.0 + 1e-9)):
        got = spectral._backward_errors(w.grid.nodes, w.h, res.eigenfunctions, lam)
        want = _whole_grid_backward_errors(*level, res.eigenfunctions, lam)
        assert np.array_equal(_bits(got), _bits(want))


def test_one_block_grid_forms_each_level_once(monkeypatch):
    # on a grid of one block each level's flux, mass and symmetric form are
    # formed once: the base (bisected), the half grid and the grid, whose
    # form its backward errors read too; each pair's factor rows and the
    # unscaling take them from there
    assembled = _count_calls(monkeypatch, "_assemble")
    formed = _count_calls(monkeypatch, "_symmetric")
    res = neumann_eigs(model_density(3.0, Grid.uniform(math.pi, 4096)), k=2)
    assert assembled == [257, 2049, 4097]
    assert formed == [256, 2048, 4096]  # their fluxes, one per cell
    assert np.all(res.residuals <= 1e-13)


def test_backward_errors_are_taken_on_first_read(monkeypatch):
    # only spectrum reads residuals: a solve takes no backward errors, and
    # the first read takes them once, with the bits of the blocked form
    calls = _count_calls(monkeypatch, "_backward_errors")
    w = model_density(3.0, Grid.uniform(math.pi, 4096))
    res = neumann_eigs(w, k=2)
    assert calls == []
    first = res.residuals
    assert res.residuals is first and calls == [4097]
    want = spectral._backward_errors(w.grid.nodes, w.h, res.eigenfunctions, res.eigenvalues)
    assert np.array_equal(_bits(first), _bits(want))


def test_blocked_sweeps_match_whole_grid():
    # the flux quotient and the sign count run block by block; the quotient
    # sums whole rows, so both equal their whole-grid forms bitwise (on
    # 100003 nodes a sum of per-block sums would differ in the last bits)
    nodes = 100003
    rng = np.random.default_rng(3)
    t, h = _random_level(nodes, seed=2)
    f, M = spectral._assemble(t, h)
    u = np.cos(np.linspace(0.0, 7.5 * math.pi, nodes)) + 1e-3 * rng.standard_normal(nodes)
    du = u[1:] - u[:-1]
    energy = f * du
    energy *= du
    sq = u * u
    sq *= M
    mass = float(np.sum(sq))
    assert spectral._flux_quotient(u, t, h) == (float(np.sum(energy)) / mass, mass)
    # unscaled in the same sweep: y = u/s is set to y s in place, bitwise
    # the whole-grid product, and the quotient is that of y s
    s = _whole_grid_form(f, M)[0]
    y = u / s
    want_u = y * s
    du = want_u[1:] - want_u[:-1]
    energy = f * du
    energy *= du
    sq = want_u * want_u
    sq *= M
    mass = float(np.sum(sq))
    assert spectral._flux_quotient(y, t, h, unscale=True) == (float(np.sum(energy)) / mass, mass)
    assert np.array_equal(_bits(y), _bits(want_u))

    def whole_grid_changes(v):
        neg = (v < 0.0)[v != 0.0]
        return int(np.count_nonzero(neg[1:] != neg[:-1]))

    flip = np.ones(nodes)
    flip[_B:] = -1.0  # one sign change, right at the first block edge
    gap = flip.copy()
    gap[_B - 4:_B + 4] = 0.0  # the same change across zeros on both sides
    lone = np.zeros(nodes)
    lone[[5, _B + 10, 2 * _B]] = (-1.0, 1.0, -1.0)  # a block of zeros between
    for v in (u, flip, gap, lone, np.where(np.arange(nodes) < _B + 1, 0.0, u)):
        want = whole_grid_changes(v)
        assert spectral._sign_changes(v) == want
        scaled = v.copy()
        assert spectral._sign_changes(scaled, -2.5) == want
        assert np.array_equal(_bits(scaled), _bits(v / -2.5))
    assert [whole_grid_changes(v) for v in (flip, gap, lone)] == [1, 1, 2]


def test_richardson_equals_two_build_formula_on_model():
    # the model's h[::2] is the model rebuilt on the half grid, so the
    # half-grid values inside neumann_eigs are those of a separate build: to
    # rounding when the half grid is refined (it is reached from the base in
    # one jump, the separate build in two), exactly when it is the base
    for N, n, rel in ((2.0, 4096, 1e-14), (3.0, 1000, 0.0)):
        lam_n = float(neumann_eigs(model_density(N, Grid.uniform(math.pi, n))).eigenvalues[0])
        lam_h = float(neumann_eigs(model_density(N, Grid.uniform(math.pi, n // 2))).eigenvalues[0])
        res = neumann_eigs(model_density(N, Grid.uniform(math.pi, n)))
        half = float(res.half_eigenvalues[0])
        assert abs(half / lam_h - 1.0) <= rel
        assert float(res.richardson[0]) == lam_n + (lam_n - half) / 3.0


def test_half_grid_values_need_exact_half():
    # an odd cell count or a half grid under 15 cells leaves them NaN
    for n in (1023, 28):
        res = neumann_eigs(model_density(2.0, Grid.uniform(math.pi, n)), k=2)
        assert np.isnan(res.half_eigenvalues).all()
        assert np.isnan(res.err_bar).all() and np.isnan(res.richardson).all()
    res = neumann_eigs(model_density(2.0, Grid.uniform(math.pi, 30)), k=2)
    assert np.isfinite(res.half_eigenvalues).all()
    assert np.array_equal(res.err_bar, np.abs(res.eigenvalues - res.half_eigenvalues))


def test_zero_mass_end_node_raises():
    # h vanishing on a whole end cell leaves that end node without lumped
    # mass; this used to warn and then fail inside the eigensolver
    g = Grid.uniform(1.0, 64)
    for end in (slice(None, 3), slice(-3, None)):
        h = 1.0 + g.nodes
        h[end] = 0.0
        w = WeightedInterval(grid=g, h=h, K=0.0, N=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDensityError, match="end cell"):
                neumann_eigs(w, k=1)


def test_support_check_midpoint_rounding_to_zero():
    # 0.5 (5e-324 + 0) rounds to 0: that interior cell has no mass, as when
    # the check formed every midpoint; 0.5 (1e-323 + 0) = 5e-324 does not
    h = np.ones(65)
    h[30], h[31] = 5e-324, 0.0
    with pytest.raises(DisconnectedSupportError):
        spectral._support_checks(h)
    h[30] = 1e-323
    spectral._support_checks(h)
    h = np.ones(65)
    h[-2:] = (5e-324, 0.0)
    with pytest.raises(DegenerateDensityError, match="end cell"):
        spectral._support_checks(h)


def test_tiny_diameter_is_rescaled_or_refused():
    # the discrete problem rescales exactly by powers of 2, so a diameter
    # whose form leaves the float range (stein's eigenvectors overflowed at
    # 3e-72, stebz failed at 1e-75, the masses underflowed at 1e-300) is
    # solved at diameter ~1 and scaled back: lambda_1 D^2 is the same to
    # rounding at every D down to the float limit of lambda_1 ~ 14.7/D^2.
    # Below it the spectrum is refused, with no warning
    ref = float(neumann_eigs(model_density(2.0, Grid.uniform(1e-10, 4096)), k=1).eigenvalues[0])
    ref *= 1e-10 ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for D in (3e-72, 1e-75, 1e-80, 1e-150, 3e-154):
            res = neumann_eigs(model_density(2.0, Grid.uniform(D, 4096)), k=1)
            assert abs(res.eigenvalues[0] * D * D / ref - 1.0) <= 1e-12, D
            assert res.lam0 == 0.0 and res.residuals[0] <= 1e-14, D
        for D in (2.8e-154, 1e-300):
            with pytest.raises(ParameterDomainError, match="float range"):
                neumann_eigs(model_density(2.0, Grid.uniform(D, 4096)), k=1)


def test_scaled_copies_are_the_exact_scaling():
    # nodes t 2^a and densities h 2^b scale the eigenvalues by 4^-a and the
    # eigenvectors by 2^-(a+b)/2; a copy past the scale bound is solved on
    # copies scaled back to diameter ~1, and every value is the exact ldexp
    # of the direct solve's D = 1.5, with the same bits
    w = model_density(3.0, Grid.uniform(1.5, 2048))
    direct = neumann_eigs(w, k=2)
    t = w.grid.nodes
    for a, b in ((-70, 0), (0, 100), (-70, 100)):
        g = Grid(D=math.ldexp(w.grid.D, a), n=w.grid.n, nodes=np.ldexp(t, a))
        res = neumann_eigs(WeightedInterval(grid=g, h=np.ldexp(w.h, b), K=w.K, N=w.N), k=2)
        for got, want, e in ((res.eigenvalues, direct.eigenvalues, -2 * a),
                             (res.half_eigenvalues, direct.half_eigenvalues, -2 * a),
                             (res.eigenfunctions, direct.eigenfunctions, -(a + b) // 2),
                             (res.residuals, direct.residuals, 0)):
            assert np.array_equal(_bits(got), _bits(np.ldexp(want, e))), (a, b)


def test_tiny_diameter_takes_one_bisection(monkeypatch):
    # from D ~ 1e-45 down to 3e-72, every level of a solve at the grid's own
    # scale fell back to bisection (11 calls at 2^18 cells, over ten times
    # the time): the scale is decided before the solve, so each grid bisects
    # only its base, and lambda_1 D^2 keeps its D = 1e-10 value
    calls = []
    bisect = spectral.eigh_tridiagonal
    monkeypatch.setattr(spectral, "eigh_tridiagonal",
                        lambda *a, **kw: calls.append(1) or bisect(*a, **kw))
    for n in (4096, 2 ** 18):
        scaled = {}
        for D in (1e-10, 1e-45, 1e-60, 1e-75):
            calls.clear()
            res = neumann_eigs(model_density(2.0, Grid.uniform(D, n)), k=1)
            assert len(calls) == 1, (n, D, len(calls))
            scaled[D] = float(res.eigenvalues[0]) * D * D
        for D in (1e-45, 1e-60, 1e-75):
            assert abs(scaled[D] - scaled[1e-10]) <= 1e-12, (n, scaled)


def test_richardson_gap_grid_independent():
    # ROADMAP item 1: the gap lambda_1 - N of the truncated model no longer
    # drifts with n (bisection's eps n^2 floor moved it 13% at N=3, 2^-7)
    for N in (2.0, 3.0):
        for k in range(3, 8):
            D = math.pi - 2.0 ** -k
            gaps = np.array([float(neumann_eigs(truncated_model(N, D, n)).richardson[0]) - N
                             for n in (4096, 2 ** 14, 2 ** 16, 2 ** 18)])
            assert np.max(np.abs(gaps / gaps[-1] - 1.0)) <= 1e-5, (N, k, gaps)


def test_model_error_monotone_to_2_20():
    for N in (2.0, 3.0):
        errs = [abs(float(neumann_eigs(model_density(N, Grid.uniform(math.pi, 2 ** p)))
                          .eigenvalues[0]) - N) for p in range(12, 21)]
        assert all(b <= a for a, b in zip(errs, errs[1:])), (N, errs)


def test_residual_is_backward_error_at_every_grid():
    # the residual column is the backward error of the computed pair: at
    # D = pi it stays below 1e-12, and at D < pi it is rounding that grows
    # with the n cells (9e-12 at 2^20, about 1e-17 n), bounded by 2e-17 n
    for p in (12, 14, 16, 18, 20):
        n = 2 ** p
        for N, D in ((2.0, math.pi), (3.0, math.pi), (2.0, 1.0), (2.0, 1e-3), (2.0, 1e-10),
                     (3.0, 1.0)):
            res = neumann_eigs(model_density(N, Grid.uniform(D, n)), k=2)
            bound = 1e-12 if D == math.pi else 2e-17 * n
            assert np.all(res.residuals <= bound), (N, D, p, res.residuals)


def test_residual_flags_a_perturbed_eigenvalue():
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    t, h = w.grid.nodes, w.h
    d, e = spectral._scaled(t, h)[3:]
    ray, u = spectral._solve_tridiagonal(t, h, 1)
    good = spectral._backward_errors(t, h, u[:, 1:], ray[1:])
    bad = spectral._backward_errors(t, h, u[:, 1:], ray[1:] + 1e-6)
    tnorm = np.max(np.abs(d) + np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)])
    assert good[0] <= 1e-13
    assert bad[0] == pytest.approx(1e-6 / tnorm, rel=1e-3)


def test_seeded_richardson_grid_independent():
    # the seeded densities are exact CD densities, so their Richardson
    # eigenvalue no longer moves with the grid
    lams = [float(neumann_eigs(generate_cd_density(3.0, 2, Grid.uniform(math.pi - 0.192, n)))
                  .richardson[0]) for n in (2048, 4096, 8192, 16384, 32768, 65536)]
    assert max(lams) / min(lams) - 1.0 <= 1e-8, lams


def _direct_eigenvalues(w, k):
    return spectral._solve_tridiagonal(w.grid.nodes, w.h, k)[0][1:]


def test_nested_matches_direct_solve():
    # an even grid is refined from its half grid down to a base of at least
    # max(256, 8 k^{3/2}) cells, inverse-iterating each pair until it converges
    # (a level that does not is solved directly); a direct bisection solve of
    # the same grid gives the same pairs
    cases = [model_density(3.0, Grid.uniform(math.pi, n)) for n in (512, 4096, 8192, 2 ** 16)]
    cases += [generate_cd_density(2.5, 4, Grid.uniform(2.9, n)) for n in (512, 4096, 8192)]
    for w in cases:
        res = neumann_eigs(w, k=2)
        vals, vecs = spectral._solve_tridiagonal(w.grid.nodes, w.h, 2)
        assert np.max(np.abs(res.eigenvalues / vals[1:] - 1.0)) <= 1e-10
        assert np.max(np.abs(res.eigenfunctions - vecs[:, 1:])) <= 1e-8
        for j, lam in enumerate(res.eigenvalues):
            assert rayleigh(w, res.eigenfunctions[:, j]) == pytest.approx(lam, rel=1e-12)


def test_eigenvalues_match_long_double_reference():
    # inverse iteration in long double on the same flux / lumped-mass pencil
    # (tests/oracles/longdouble.py), shifted from the continuous model values
    # j (j + N - 1): the nested and the direct solve agree with it to rounding
    from oracles.longdouble import eigenpair, sign_changes

    N = 3.0
    for w in (model_density(N, Grid.uniform(math.pi, 1024)),
              truncated_model(N, math.pi - 2.0 ** -5, 1024)):
        ref = []
        for j in (1, 2, 3):
            lam, u = eigenpair(w.grid.nodes, w.h, j * (j + N - 1.0))
            assert sign_changes(u) == j
            ref.append(lam)
        ref = np.array(ref)
        nested = neumann_eigs(w, k=3).eigenvalues
        direct = _direct_eigenvalues(w, 3)
        for lams in (nested, direct):
            assert float(np.max(np.abs(lams / ref - 1.0))) <= 1e-14


def test_nested_base_grows_with_k():
    # the base is the coarsest exact halving with at least max(256, 8 k^{3/2})
    # cells; below that, and on odd grids, the grid and its half are direct
    assert spectral._coarsest_cells(4096, 1) == 256
    assert spectral._coarsest_cells(4096, 10) == 256
    assert spectral._coarsest_cells(4096, 11) == 512
    assert spectral._coarsest_cells(4097, 1) == 4097
    assert spectral._coarsest_cells(300, 1) == 150
    # 3072 pairs on 12288 cells are too many to refine from any half grid
    assert not spectral._refines(12288, 3072)
    assert spectral._coarsest_cells(12288, 3072) == 6144
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    for k in (10, 11, 32, 55):
        res = neumann_eigs(w, k=k)
        assert np.max(np.abs(res.eigenvalues / _direct_eigenvalues(w, k) - 1.0)) <= 1e-10, k


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(spectral, name)

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def test_smooth_families_converge_without_fallback(monkeypatch):
    # two refined levels, the half grid and the grid: each of their pairs is
    # factored once and takes 2 or 3 inverse-iteration steps, and only the
    # 256-cell base is solved by bisection
    steps = []
    factor = spectral.dgttrf
    solve = spectral.dgttrs

    def counted_factor(*args, **kwargs):
        steps.append(0)
        return factor(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        steps[-1] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "dgttrf", counted_factor)
    monkeypatch.setattr(spectral, "dgttrs", counted_solve)
    bisections = _count_calls(monkeypatch, "eigh_tridiagonal")
    n = 2 ** 14
    cases = [model_density(N, Grid.uniform(math.pi, n)) for N in (2.0, 3.0)]
    cases += [truncated_model(3.0, math.pi - 2.0 ** -5, n),
              generate_cd_density(3.0, 2, Grid.uniform(2.8, n)),
              # here |lambda - shift| estimates carry rounding of up to 1e-7 of
              # themselves, so agreement is measured against lambda instead
              truncated_model(3.0, math.pi - 2.0 ** -5, 2 ** 20)]
    for w in cases:
        steps.clear()
        bisections.clear()
        neumann_eigs(w, k=2)
        assert len(steps) == 2 * 2 and set(steps) <= {2, 3}, steps
        assert bisections == [257]


def _rough_density(name, n):
    g = Grid.uniform(1.0, n)
    t = g.nodes
    if name.startswith("noise"):
        h = 1.0 + float(name[5:]) * np.random.default_rng(5).uniform(-1.0, 1.0, n + 1)
    elif name.startswith("square"):  # period of 32 nodes
        h = 1.0 + float(name[6:]) * np.sign(np.sin(np.pi * (np.arange(n + 1) + 0.5) / 16))
    elif name == "spike":
        h = np.ones(n + 1)
        h[n // 3] = 1e4
    elif name == "notch":
        h = np.ones(n + 1)
        h[n // 2 - 8:n // 2 + 8] = 1e-4
    elif name == "two-wells":
        h = np.exp(-1000.0 * ((t - 0.25) * (t - 0.75)) ** 2)
    else:
        return model_density(3.0, Grid.uniform(math.pi, n))
    return WeightedInterval(grid=g, h=h, K=0.0, N=2.0)


_ROUGH_CASES = ["noise0.5", "noise0.9", "noise0.99", "square0.9", "square0.999",
                "spike", "notch", "two-wells", "model"]

# nodes of each grid bisected after the 257-node base, per (cells, k). A
# failed jump from the base is followed by a climb from the base one
# doubling at a time, so only a one-doubling level is ever bisected (513
# nodes at 4096 cells, not 2049): the grids the recursive solve bisected.
# The spike sits on an odd node, so only the grid itself sees it.
_ROUGH_FALLBACKS = {
    "square0.9": {(4096, 1): [513], (4096, 3): [513, 1025],
                  (16384, 1): [2049], (16384, 3): [2049]},
    "square0.999": {(4096, 1): [513], (4096, 3): [513, 1025],
                    (16384, 1): [2049], (16384, 3): [2049, 4097]},
    "spike": {(4096, 1): [4097], (4096, 3): [4097], (16384, 1): [16385], (16384, 3): [16385]},
    "notch": {(4096, 1): [513], (4096, 3): [513], (16384, 1): [2049], (16384, 3): [2049]},
}


@pytest.mark.parametrize("name", _ROUGH_CASES)
def test_nested_matches_direct_on_rough_densities(name, monkeypatch):
    # the coarse levels sample these densities badly: pairs that do not
    # converge, or have the wrong sign count, fail their level
    bisections = _count_calls(monkeypatch, "eigh_tridiagonal")
    for n in (4096, 16384):
        w = _rough_density(name, n)
        for k in (1, 3):
            bisections.clear()
            res = neumann_eigs(w, k=k)
            assert bisections == [257] + _ROUGH_FALLBACKS.get(name, {}).get((n, k), []), (n, k)
            assert np.max(np.abs(res.eigenvalues / _direct_eigenvalues(w, k) - 1.0)) <= 1e-10


_THREAD_NODES = [_B - 1, _B + 1, 2 * _B + 1, 3 * _B + 7]
_SMOOTH = ["model", "truncated", "seeded"]


def _thread_density(name, n):
    if name == "truncated":
        return truncated_model(3.0, math.pi - 2.0 ** -5, n)
    if name == "seeded":
        return generate_cd_density(3.0, 2, Grid.uniform(2.8, n))
    return _rough_density(name, n)  # the model for "model"


@pytest.mark.parametrize("name", _SMOOTH + [c for c in _ROUGH_CASES if c != "model"])
def test_thread_count_keeps_every_bit(name, monkeypatch):
    # the blocked sweeps run on the worker pool with 1, 2 and 3 threads (the
    # caller and up to two pool threads, each with its own scratch): every
    # field of neumann_eigs, rayleigh and deficit keeps its bits, on one
    # block, just past it, on two blocks (inline), on four (the last of 7
    # nodes) and, for the smooth densities, on 2^18 cells; k = 1..3 on each
    # grid of a smooth density, and in turn over the grids of a rough one
    # (its fallbacks are bisections)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    smooth = name in _SMOOTH
    for i, nodes in enumerate(_THREAD_NODES + [2 ** 18 + 1] * smooth):
        w = _thread_density(name, nodes - 1)
        got = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("OBATALAB_THREADS", threads)
            fields = []
            for k in (1, 2, 3) if smooth else (1 + i % 3,):
                res = neumann_eigs(w, k=k)
                fields += [res.eigenvalues, res.eigenfunctions, res.residuals,
                           res.lam0, res.half_eigenvalues]
            u = res.eigenfunctions[:, 0]
            fields += [rayleigh(w, u), deficit(w, u)]
            got[threads] = [_bits(np.atleast_1d(f)).tobytes() for f in fields]
        assert got["2"] == got["1"], nodes
        assert got["3"] == got["1"], nodes


def test_sweeps_of_fewer_than_four_blocks_run_inline(monkeypatch):
    # on two or three blocks the pool's thread handoffs cost more than they
    # save, so with two threads every block of a 3-block grid (and of its
    # 2-block half grid) is formed on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setenv("OBATALAB_THREADS", "2")
    threads, inner = set(), spectral._block_level

    def traced(*args, **kwargs):
        threads.add(threading.get_ident())
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, "_block_level", traced)
    nodes = 3 * _B + 1
    assert len(spectral._blocks(nodes)) == 3 < spectral._POOL_BLOCKS
    neumann_eigs(model_density(3.0, Grid.uniform(math.pi, nodes - 1)), k=2)
    assert threads == {threading.get_ident()}


@functools.lru_cache(maxsize=None)
def _first_pair(name):
    w = _rough_density(name, 1024)
    res = neumann_eigs(w, k=1)
    return w, float(res.eigenvalues[0]), res.eigenfunctions[:, 0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(_ROUGH_CASES), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e4]),
       offset=st.floats(-10.0, 10.0))
def test_rayleigh_obeys_min_max(name, seed, scale, offset):
    # rayleigh() is the quotient the solver minimises, and it recentres to
    # zero lumped-mass mean, so no function falls below the discrete lambda_1:
    # u1 itself, u1 plus noise of any size, and constant offsets of both (the
    # central-difference quotient read up to 6e-2 below lambda_1 at u1 here)
    w, lam1, u1 = _first_pair(name)
    v = u1 + scale * np.random.default_rng(seed).standard_normal(len(u1)) + offset
    assert rayleigh(w, v) >= lam1 * (1.0 - 1e-14)
    assert rayleigh(w, u1) >= lam1 * (1.0 - 1e-14)


@st.composite
def _piecewise_smooth(draw):
    """A positive density on [0, D], smooth between up to four breakpoints, on
    1024 cells (the half grid one doubling above the 256-cell base) or 8192
    (a jump of four doublings from the base to the half grid)."""
    D = draw(st.floats(0.5, 3.0))
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=4)))
    pieces = draw(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-2.0, 2.0),
                                     st.floats(0.0, 12.0), st.floats(0.0, 0.9)),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    g = Grid.uniform(D, draw(st.sampled_from([1024, 8192])))
    s = g.nodes / D
    which = np.searchsorted(cuts, s)
    h = np.empty_like(s)
    for i, (level, slope, freq, amp) in enumerate(pieces):
        on = which == i
        h[on] = level * np.exp(slope * s[on]) * (1.0 + amp * np.sin(freq * s[on]))
    return WeightedInterval(grid=g, h=h, K=0.0, N=2.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(w=_piecewise_smooth(), k=st.integers(1, 3))
def test_nested_matches_direct_property(w, k):
    res = neumann_eigs(w, k=k)
    assert np.max(np.abs(res.eigenvalues / _direct_eigenvalues(w, k) - 1.0)) <= 1e-10


def test_nested_half_grid_values_are_the_half_grid_solve():
    # the half grid is reached from the base in one jump, and neumann_eigs on
    # the half grid itself takes two: the same values up to rounding
    for p in (10, 12, 14, 16, 18):
        lam_h = neumann_eigs(model_density(2.0, Grid.uniform(math.pi, 2 ** (p - 1))), k=2).eigenvalues
        res = neumann_eigs(model_density(2.0, Grid.uniform(math.pi, 2 ** p)), k=2)
        assert np.max(np.abs(res.half_eigenvalues / lam_h - 1.0)) <= 1e-14, p
        assert res.lam0 == 0.0  # lambda_0's refined vector is the constant


def test_nested_pairs_have_sturm_sign_changes():
    w = generate_cd_density(3.0, 2, Grid.uniform(2.8, 2 ** 16))
    res = neumann_eigs(w, k=3)
    assert [spectral._sign_changes(res.eigenfunctions[:, j]) for j in range(3)] == [1, 2, 3]


def test_refine_rejects_wrong_index():
    # shifting pair 1 by lambda_2 converges it onto the second eigenvector,
    # which the sign-change count catches
    t = Grid.uniform(1.0, 8192).nodes
    h = np.exp(t)
    half, u_half = spectral._eigenpairs(t[::2], h[::2], 2)[1:3]
    spectral._refine(t, h, spectral._prolong(t, u_half, 2), half)
    wrong = half.copy()
    wrong[0] = half[1]
    with pytest.raises(ConditioningError, match="pair 1 changes sign 2 times"):
        spectral._refine(t, h, spectral._prolong(t, u_half, 2), wrong)


def test_shooting_cross_check():
    # independent oracle: solve -(h u')' = lam h u with h = cos^{N-1}(t - D/2)
    # by shooting (tests/oracles/derived_values.py); the tridiagonal solver
    # must reproduce the frozen eigenvalues after Richardson extrapolation
    for N, D, frozen in ((2.0, 3.0, SHOOTING_N2_D30), (3.0, 2.8, SHOOTING_N3_D28)):

        def build(n, N=N, D=D):
            g = Grid.uniform(D, n)
            h = np.cos(g.nodes - D / 2.0) ** (N - 1.0)
            h /= np.trapezoid(h, g.nodes)
            return WeightedInterval(grid=g, h=h, K=0.0, N=N)

        lam = float(neumann_eigs(build(4096)).richardson[0])
        assert lam == pytest.approx(frozen, abs=5e-8)


# ---------------------------------------------------------------------------
# rayleigh and deficit


def test_rayleigh_classical_cosine():
    w = uniform_interval(4096)
    val = rayleigh(w, np.cos(math.pi * w.grid.nodes))
    assert val == pytest.approx(math.pi**2, abs=1e-5)


def test_deficit_model_eigenfunction_zero():
    w = model_density(3.0, Grid.uniform(math.pi, 4096))
    u = 2.0 * np.cos(w.grid.nodes)  # sqrt(N+1) cos with N=3
    assert abs(deficit(w, u)) <= 1e-6


def test_deficit_perturbed_cosine_frozen():
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    t = w.grid.nodes
    d = deficit(w, np.cos(t) + 0.1 * np.cos(2 * t))
    assert d == pytest.approx(DEFICIT_PERTURBED, abs=1e-10)


def test_deficit_needs_half_grid():
    with pytest.raises(ParameterDomainError, match="grid_n must be even"):
        deficit(model_density(2.0, Grid.uniform(math.pi, 1023)), np.cos(np.linspace(0, 1, 1024)))


def test_rayleigh_rejects_constant():
    w = uniform_interval(128)
    with pytest.raises(UndefinedQuotientError):
        rayleigh(w, np.ones(129))


# ---------------------------------------------------------------------------
# lichnerowicz


def test_lichnerowicz_model_equality_case():
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    lam = float(neumann_eigs(w).richardson[0])
    rep = lichnerowicz_check(w, lam)
    assert abs(rep.margin) <= 1e-5
    assert rep.c_squared == pytest.approx(1.0, abs=1e-12)
    assert rep.diam_ok


def test_lichnerowicz_grid_just_past_pi():
    # Grid admits D up to pi + 1e-12; (pi - D)^N used to turn complex there
    g = Grid.uniform(math.pi + 5e-13, 1024)
    w = WeightedInterval(grid=g, h=np.abs(np.sin(g.nodes)) ** 1.5, K=1.5, N=2.5)
    rep = lichnerowicz_check(w, 2.5)
    assert rep.c_squared == 1.0 and rep.diam_lower == 0.0 and rep.margin == 0.0


def test_lichnerowicz_truncated_positive_margin():
    w = truncated_model(2.0, 3.0, 2048)
    lam = float(neumann_eigs(w, 1).eigenvalues[0])
    rep = lichnerowicz_check(w, lam)
    assert rep.margin >= 0.0
    assert rep.deficit > 0.0
    assert rep.diam_ok  # C_N (pi - D)^N <= lambda_1 - N direction


def test_lichnerowicz_seeded_densities():
    for seed in range(20):
        D = 2.3 + 0.03 * seed
        w = generate_cd_density(2.5, seed, Grid.uniform(D, 1024))
        lam = float(neumann_eigs(w, 1).eigenvalues[0])
        assert lichnerowicz_check(w, lam).margin >= -1e-6


def test_lichnerowicz_floor():
    # lambda_1 >= N - 1e-6 for anything passing cd_check(K = N-1)
    for N, seed, D in ((2.0, 3, 2.9), (3.0, 9, 2.6)):
        w = generate_cd_density(N, seed, Grid.uniform(D, 1024))
        lam = float(neumann_eigs(w, 1).eigenvalues[0])
        assert lam >= N - 1e-6


# ---------------------------------------------------------------------------
# bochner


def test_bochner_model_exact_cosine():
    w = model_density(3.0, Grid.uniform(math.pi, 4096))
    res = neumann_eigs(w, k=1)
    rep = bochner_check(w, (float(res.eigenvalues[0]), res.eigenfunctions[:, 0]))
    assert rep.norm <= 1e-4  # pure discretization noise
    # the discrete lambda_1 sits a hair under N here, so gap ~ 0 but the
    # [N, 2N] range flag is allowed to trip
    assert abs(rep.gap) <= 1e-5


def test_bochner_truncated_sweep_stable():
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        D = math.pi - eps

        def build(n, D=D):
            return truncated_model(2.0, D, n)

        w = build(2048)
        lam = float(neumann_eigs(w).richardson[0])
        rep = bochner_check(w, (lam, neumann_eigs(w, 1).eigenfunctions[:, 0]))
        assert rep.in_range
        assert math.isfinite(rep.ratio)
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) <= 3.0


def test_bochner_out_of_range_flag():
    w = model_density(2.0, Grid.uniform(math.pi, 1024))
    u = neumann_eigs(w, 1).eigenfunctions[:, 0]
    assert not bochner_check(w, (5.0, u)).in_range  # 5 outside [N, 2N] = [2, 4]


# ---------------------------------------------------------------------------
# green


def test_green_zero_source():
    w = model_density(2.0, Grid.uniform(math.pi, 512))
    res = green_apply(w, np.zeros(513))
    assert np.max(np.abs(res.v0)) == 0.0
    assert res.residual == 0.0


def test_green_cosine_closed_form():
    # v0(t) = ((t - pi/2) sin t + cos t)/2 for z = cos, x0 = pi/2
    w = model_density(2.0, Grid.uniform(math.pi, 768))
    t = w.grid.nodes
    res = green_apply(w, np.cos(t))
    assert not res.boundary_max  # argmax of sin is interior
    closed = ((t - math.pi / 2) * np.sin(t) + np.cos(t)) / 2.0
    assert np.max(np.abs(res.v0 - closed)) <= 1e-10
    idx = [0, 128, 256, 384, 512, 640, 768]  # t = k pi/6
    assert np.max(np.abs(res.v0[idx] - GREEN_7NODE)) <= 1e-7


def test_green_residual_second_order():
    vals = {}
    for n in (2048, 4096):
        w = model_density(2.0, Grid.uniform(math.pi, n))
        t = w.grid.nodes
        vals[n] = green_apply(w, np.cos(2 * t) + 0.3 * np.sin(3 * t)).residual
    assert vals[4096] <= 1e-6
    assert 2.0 <= vals[2048] / vals[4096] <= 8.0


def test_green_norm_bound_random_sources():
    w = model_density(2.0, Grid.uniform(math.pi, 1024))
    t = w.grid.nodes
    rng = np.random.default_rng(2)
    for _ in range(25):
        coef = rng.standard_normal(5)
        z = sum(c * np.cos(j * t) for j, c in enumerate(coef, start=1))
        res = green_apply(w, z)
        assert res.norm_v0 <= math.pi * res.norm_z + 1e-8


def test_green_boundary_argmax_flag():
    g = Grid.uniform(1.0, 512)
    h = 2.0 - g.nodes
    w = WeightedInterval(grid=g, h=h / np.trapezoid(h, g.nodes), K=0.0, N=2.0)
    res = green_apply(w, np.cos(g.nodes))
    assert res.boundary_max
    assert res.norm_v0 <= math.pi * res.norm_z + 1e-8


# ---------------------------------------------------------------------------
# cosine decomposition


def test_cosine_distance_exact():
    w = model_density(2.0, Grid.uniform(math.pi, 1024))
    u = math.sqrt(3.0) * np.cos(w.grid.nodes)
    sign, d2, dw = cosine_distance(w, u)
    assert sign == 1.0
    # L2 part is exact; the W12 part carries O(grid^2) derivative noise
    assert d2 <= 1e-12 and dw <= 1e-5
    sign_f, d2_f, _ = cosine_distance(w, -u)
    assert sign_f == -1.0 and d2_f <= 1e-12


def test_cosine_distance_orders():
    w = model_density(2.0, Grid.uniform(math.pi, 1024))
    t = w.grid.nodes
    _, d2, dw = cosine_distance(w, math.sqrt(3.0) * np.cos(t) + 0.05 * np.sin(2 * t))
    assert d2 <= dw


def test_cosine_distance_sign_minimises_w12():
    # both signs are far off; +cos is the nearer one in W12 (5.0823 against
    # 5.1990 for -cos), and the reported sign must be the one that wins
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    t = w.grid.nodes
    u = 0.1 * math.sqrt(3.0) * np.cos(t) + 3.0 * np.cos(2.0 * t)
    sign, _, dw = cosine_distance(w, u)
    assert sign == 1.0
    assert dw == pytest.approx(5.0823, abs=1e-4)
    _, _, dw_flip = cosine_distance(w, -u)
    assert dw_flip == dw


def test_decompose_model_eigenfunction():
    w = model_density(2.0, Grid.uniform(math.pi, 8192))
    res = neumann_eigs(w, k=1)
    rep = cosine_decompose(w, res.eigenfunctions[:, 0])
    assert abs(rep.alpha) <= 1e-6
    assert abs(rep.beta) == pytest.approx(math.sqrt(3.0), abs=1e-6)
    assert rep.u0_norm <= 1e-6
    assert rep.recon_error <= 1e-7
    assert rep.dist_L2 <= rep.dist_W12


def _stretched_grid(n):
    # smooth non-uniform nodes on [0, pi]: t = s - 0.1 sin 2s, s uniform
    s = np.linspace(0.0, math.pi, n + 1)
    return Grid(D=math.pi, n=n, nodes=s - 0.1 * np.sin(2.0 * s))


def test_decompose_reconstruction_second_order():
    # recon error is pure discretization and shrinks ~4x per halving,
    # so the node-level identity u = u0 + alpha sin + beta cos holds
    # to any tolerance in the grid limit, on uniform and stretched grids
    for make_grid in (lambda n: Grid.uniform(math.pi, n), _stretched_grid):
        errs = []
        for n in (2048, 4096):
            w = model_density(2.0, make_grid(n))
            res = neumann_eigs(w, k=1)
            rep = cosine_decompose(w, res.eigenfunctions[:, 0])
            errs.append(rep.recon_error)
        assert 2.0 <= errs[0] / errs[1] <= 8.0


def test_decompose_alpha_sweep_stable():
    consts = []
    for eps in (0.04, 0.02, 0.01):
        D = math.pi - eps

        def build(n, D=D):
            return truncated_model(2.0, D, n)

        w = build(4096)
        lam = float(neumann_eigs(w).richardson[0])
        res = neumann_eigs(w, k=1)
        rep = cosine_decompose(w, res.eigenfunctions[:, 0])
        delta = lam - 2.0
        consts.append(abs(rep.alpha) / math.sqrt(delta))
    assert max(consts) / min(consts) <= 10.0


def test_decompose_beta_exponent():
    # |beta -+ sqrt(N+1)| ~ delta^p with p >= min(1/2, 1/N) - 0.1; the
    # measured decay on this family is in fact nearly linear in delta
    devs, deltas = [], []
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        D = math.pi - eps

        def build(n, D=D):
            return truncated_model(2.0, D, n)

        w = build(4096)
        lam = float(neumann_eigs(w).richardson[0])
        res = neumann_eigs(w, k=1)
        rep = cosine_decompose(w, res.eigenfunctions[:, 0])
        dev = min(abs(math.sqrt(3.0) - rep.beta), abs(math.sqrt(3.0) + rep.beta))
        devs.append(dev)
        deltas.append(lam - 2.0)
    fit = loglog_fit(np.array(deltas), np.array(devs))
    assert fit.slope >= 0.5 - 0.1


def test_decompose_windows():
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    res = neumann_eigs(w, k=1)
    rep = cosine_decompose(w, res.eigenfunctions[:, 0], r=0.4, eta=0.1)
    assert rep.window_0r <= 1e-6
    assert rep.window_band <= 1e-6
