import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obatalab import isoperimetry as iso
from obatalab.errors import ConfigError, ParameterDomainError
from obatalab.measures import (
    CdVerdict,
    Grid,
    WeightedInterval,
    _rotation_flow,
    _sigma_raw,
    cd_check,
    generate_cd_density,
    load_density_csv,
    model_density,
    extrapolate,
    first_diff,
    omega,
    read_csv,
    require_diameter,
    require_dimension,
    second_diff,
    sinpow_cum,
)
from obatalab.localization import RayFamily
from obatalab.obata1d import ExperimentSpec, truncated_model

# Frozen oracle values (tests/oracles/frozen.txt). Recompute with
# tests/oracles/derived_values.py before touching these.
OMEGA_2_5 = 1.74803836952808
LINEAR_WORST = 7.121332  # h(t)=t on [0,1], K=10, N=2, witness (0.05, 1.0, 0.5)


# ---------------------------------------------------------------------------
# grids and densities


def test_grid_uniform_counts_cells():
    g = Grid.uniform(math.pi, 64)
    assert len(g.nodes) == 65
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(math.pi, abs=0)


def test_grid_rejects_tiny_and_too_long():
    with pytest.raises(ParameterDomainError):
        Grid.uniform(1.0, 4)
    with pytest.raises(ParameterDomainError):
        Grid.uniform(math.pi + 0.1, 64)


def test_weighted_interval_rejects_negative_density():
    g = Grid.uniform(1.0, 32)
    h = np.ones(33)
    h[5] = -0.01
    with pytest.raises(ParameterDomainError):
        WeightedInterval(grid=g, h=h, K=0.0, N=2.0)


def test_weighted_interval_rejects_small_N():
    g = Grid.uniform(1.0, 32)
    with pytest.raises(ParameterDomainError):
        WeightedInterval(grid=g, h=np.ones(33), K=0.0, N=1.0)


def test_weighted_interval_rejects_non_finite_parameters():
    # a nan K slipped through every K > 0 branch and passed cd_check
    g = Grid.uniform(1.0, 32)
    for K, N in ((math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0),
                 (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ParameterDomainError):
            WeightedInterval(grid=g, h=np.ones(33), K=K, N=N)


def test_load_density_csv_roundtrip(tmp_path):
    g = Grid.uniform(2.0, 64)
    h = 1.0 + 0.1 * np.cos(g.nodes)
    p = tmp_path / "d.csv"
    p.write_text("t,h\n" + "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(g.nodes, h)))
    w = load_density_csv(p, K=0.0, N=2.0)
    assert np.array_equal(w.grid.nodes, g.nodes)
    assert np.array_equal(w.h, h)


def test_load_density_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,h\n0.0,1.0\n0.5,nope\n")
    with pytest.raises(ConfigError):
        load_density_csv(p, K=0.0, N=2.0)
    p.write_text("t,h\n0.0,1.0\n1.0,1.0\n")  # too few rows
    with pytest.raises(ConfigError):
        load_density_csv(p, K=0.0, N=2.0)
    # Grid and WeightedInterval check the samples; their refusal names the file
    t = np.linspace(0.0, 2.0, 20)
    cases = {"at least 16 nodes": (t[:8], np.ones(8)),
             "strictly increasing": (t[[0, 2, 1, *range(3, 20)]], np.ones(20)),
             "non-negative": (t, np.where(t > 1.0, -1.0, 1.0))}
    for rule, (tt, h) in cases.items():
        p.write_text("t,h\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(tt, h)))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: .*{rule}"):
            load_density_csv(p, K=0.0, N=2.0)
    t = np.linspace(0.0, 2.0, 20)
    for col, bad in ((1, "nan"), (1, "inf"), (0, "nan")):
        rows = [[repr(float(x)), "1.0"] for x in t]
        rows[7][col] = bad
        p.write_text("t,h\n" + "\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(ConfigError, match="non-finite"):
            load_density_csv(p, K=0.0, N=2.0)


def test_read_csv_columns_match_float_parse(fixtures_dir):
    # every committed CSV reads to the bits float() gives, column by column
    for path in sorted(fixtures_dir.glob("*.csv")):
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        cols = read_csv(path, names[:1])
        assert list(cols) == names
        for k, name in enumerate(names):
            want = np.array([float(line.split(",")[k]) for line in lines[1:]])
            assert np.array_equal(cols[name], want), (path.name, name)
            assert cols[name].flags.c_contiguous


@pytest.mark.parametrize("text, message", [
    ("t,x\n0,1\n", "expected header 't,h'"),
    ("t,h\n", "no data rows"),
    ("t,h\n\n\n", "no data rows"),
    ("t,h\n0,1\n1\n", "ragged"),
    ("t,h\n0,1,2\n1,1,2\n", "ragged"),
    ("t,h\n0,1\n#1,1\n", "non-numeric"),
    ("t,h\n0,1\n1,nope\n", "non-numeric"),
    ("t,h\n0,1\n1,inf\n", "non-finite"),
])
def test_read_csv_refusals(tmp_path, text, message):
    p = tmp_path / "in.csv"
    p.write_text(text)
    with pytest.raises(ConfigError, match=message):
        read_csv(p, ("t", "h"))


def test_read_csv_unreadable_file(tmp_path):
    with pytest.raises(ConfigError, match="unreadable"):
        read_csv(tmp_path / "missing.csv")


def test_read_csv_skips_blank_lines_and_spaces(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text(" t , h \n0, 1\n\n2 ,3\n")
    cols = read_csv(p, ("t", "h"))
    assert cols["t"].tolist() == [0.0, 2.0] and cols["h"].tolist() == [1.0, 3.0]


# ---------------------------------------------------------------------------
# distortion coefficients


def test_sigma_theta_zero_returns_t():
    assert _sigma_raw(2.0, 2.0, 0.5, 0.0) == 0.5
    # and across a small parameter lattice
    for K in (-1.0, 0.0, 3.0):
        for N in (2.0, 3.5):
            for t in (0.0, 0.25, 1.0):
                assert _sigma_raw(K, N, t, 0.0) == t


def test_sigma_sine_branch_closed_form():
    assert _sigma_raw(2.0, 2.0, 0.5, math.pi / 2) == pytest.approx(math.sin(math.pi / 4), abs=1e-10)


def test_sigma_infinite_branch():
    assert _sigma_raw(2.0, 2.0, 0.5, math.pi) == math.inf
    # boundary of the finite branch: theta = pi sqrt(N/K)
    assert _sigma_raw(10.0, 2.0, 0.5, math.pi * math.sqrt(0.2)) == math.inf


def test_sigma_nonpositive_K_extension():
    # K = 0 degenerates to the linear interpolant
    assert _sigma_raw(0.0, 2.0, 0.3, 2.0) == pytest.approx(0.3)
    # K < 0 is the sinh ratio with rate sqrt(-K/N)
    s = math.sqrt(4.0 / 2.0)
    got = _sigma_raw(-4.0, 2.0, 0.3, 1.0)
    assert got == pytest.approx(math.sinh(0.3 * s) / math.sinh(s), rel=1e-12)


def test_sigma_continuous_near_zero_theta():
    assert _sigma_raw(3.0, 2.5, 0.4, 1e-9) == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("build", [
    lambda: WeightedInterval(grid=Grid.uniform(1.0, 16), h=np.ones(17), K=0.0, N=math.inf),
    lambda: iso.ProfileQuery(N=math.inf, D=2.0, v=0.5),
    lambda: iso.solve_R(math.inf, 0.0, 0.5, 2.0),
    lambda: iso.profile_ode_residual(math.inf, [0.5]),
    lambda: iso.bbg_constant(math.inf, 2.0),
    lambda: RayFamily(N=math.inf, rays=()),
    lambda: ExperimentSpec(N=math.inf, family="perturbed-cosine"),
], ids=["WeightedInterval", "ProfileQuery", "_check_split",
        "profile_ode_residual", "_check_constant", "RayFamily", "ExperimentSpec"])
def test_infinite_dimension_message_says_finite(build):
    # every two-sided N check tells the user that N must also be finite
    with pytest.raises(ParameterDomainError, match="finite"):
        build()


def test_one_dimension_rule_and_one_diameter_rule():
    # every N check is require_dimension, with one message, and every
    # diameter check require_diameter, which allows 1e-12 of rounding above pi
    for N in (1.0, 0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(ParameterDomainError,
                           match=f"^need N > 1 and finite: dimension parameter N must exceed 1, got {N}$"):
            require_dimension(N)
    require_dimension(1.0 + 1e-12)
    for D in (0.0, -1.0, math.nan, math.inf, math.pi + 2e-12):
        with pytest.raises(ParameterDomainError, match="^need 0 < D <= pi$"):
            require_diameter(D)
    require_diameter(math.pi + 1e-12)
    # the isoperimetric queries take the allowance as D = pi
    assert iso.bbg_constant(3.0, math.pi + 1e-12) == 1.0
    assert iso.profile(iso.ProfileQuery(3.0, math.pi + 1e-12, 0.37)).value == \
        iso.profile(iso.ProfileQuery(3.0, math.pi, 0.37)).value


def test_extrapolate_is_the_richardson_step():
    # the default steps, a grid and its half grid, give fine + (fine - coarse)/3
    # bit for bit, and any two steps cancel an O(h^2) error
    rng = np.random.default_rng(5)
    fine, coarse = rng.uniform(1.0, 2.0, 64), rng.uniform(1.0, 2.0, 64)
    value, bar = extrapolate(fine, coarse)
    assert np.array_equal(value, fine + (fine - coarse) / 3.0)
    assert np.array_equal(bar, np.abs(fine - coarse))
    h, H = 0.01, 0.03
    value, bar = extrapolate(2.0 + 5.0 * h * h, 2.0 + 5.0 * H * H, h, H)
    assert value == pytest.approx(2.0, abs=1e-15)
    assert bar == pytest.approx(5.0 * (H * H - h * h), rel=1e-12)


def test_total_mass_is_taken_from_h():
    g = Grid.uniform(1.0, 64)
    with pytest.raises(TypeError):
        WeightedInterval(grid=g, h=np.ones(65), K=0.0, N=2.0, total_mass=2.0)
    assert WeightedInterval(grid=g, h=np.ones(65), K=0.0, N=2.0).total_mass == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# model density and omega


def test_omega_closed_forms():
    assert omega(2.0) == pytest.approx(2.0, abs=1e-12)
    assert omega(3.0) == pytest.approx(math.pi / 2, abs=1e-12)


def test_omega_fractional_matches_dense_riemann():
    assert omega(2.5) == pytest.approx(OMEGA_2_5, abs=1e-9)


@pytest.mark.parametrize("N", [1.5, 2.0, 2.5, 3.0, 5.0, 8.0])
def test_omega_matches_mpmath(N):
    with mp.workdps(40):
        ref = mp.quad(lambda t: mp.sin(t) ** (N - 1), [0, mp.pi / 2, mp.pi])
    assert abs(omega(N) - float(ref)) <= 1e-14 * float(ref)


def test_sinpow_cum_endpoints():
    assert sinpow_cum(2.0, math.pi) == pytest.approx(omega(2.0), abs=1e-12)
    assert sinpow_cum(3.0, math.pi / 2) == pytest.approx(omega(3.0) / 2, abs=1e-12)
    assert sinpow_cum(2.5, 0.0) == 0.0


@pytest.mark.parametrize("N", [1.5, 2.0, 3.0, 5.0])
def test_sinpow_cum_matches_mpmath(N):
    # around pi/2 the direct beta ratio I_{sin^2 x}(N/2, 1/2) loses up to
    # 1e-8 relative; the complement branch keeps a few ulps
    h = math.pi / 2
    switch = math.asin(math.sqrt(N / (N + 1.0)))  # where sinpow_cum changes branch
    xs = [1e-3, 0.3, math.pi / 4, 1.0, switch - 1e-9, switch + 1e-9,
          h - 1e-6, h + 1e-6, h - 1e-8, h + 1e-8, h, 2.0, 2.5, 3.0, math.pi - 1e-3]
    got = sinpow_cum(N, np.array(xs))
    with mp.workdps(40):
        for x, val in zip(xs, got):
            x_mp = mp.mpf(x)
            ref = mp.quad(lambda t: mp.sin(t) ** (N - 1), [0, min(x_mp, mp.pi / 2), x_mp])
            assert abs(val - ref) <= 1e-14 * ref, x


def test_model_density_midpoint_value():
    g = Grid.uniform(math.pi, 4096)
    w = model_density(2.0, g)
    assert w.h[2048] == pytest.approx(0.5, abs=1e-12)  # h_2(pi/2) = sin/2
    assert w.h[0] == 0.0 and w.h[-1] == 0.0
    assert w.total_mass == pytest.approx(1.0, abs=1e-6)


def test_model_density_passes_cd_check():
    for N in (2.0, 2.5, 3.0):
        w = model_density(N, Grid.uniform(math.pi, 1024))
        assert cd_check(w).passed


# ---------------------------------------------------------------------------
# cd_check


def test_cd_check_constant_density():
    g = Grid.uniform(1.0, 128)
    w = WeightedInterval(grid=g, h=np.ones(129), K=0.0, N=2.5)
    assert cd_check(w).passed


def test_cd_check_linear_density_fails():
    g = Grid.uniform(1.0, 256)
    w = WeightedInterval(grid=g, h=g.nodes.copy(), K=10.0, N=2.0)
    v = cd_check(w)
    assert not v.passed
    assert not bool(v)
    assert v.violation >= 1.0
    assert v.witness is not None


def test_cd_check_linear_density_frozen_witness():
    # worst violation from the brute-scan oracle: 7.121332 at (0.05, 1.0, 0.5)
    lam, x0, x1 = 0.5, 0.05, 1.0
    th = x1 - x0
    lhs = x0 + lam * (x1 - x0)
    rhs = _sigma_raw(10.0, 1.0, lam, th) * x1 + _sigma_raw(10.0, 1.0, 1.0 - lam, th) * x0
    assert rhs - lhs == pytest.approx(LINEAR_WORST, abs=1e-5)


def test_cd_check_diameter_guard():
    # K = 10, N = 2 caps the diameter at pi/sqrt(10) ~ 0.99; a 3-long interval
    # fails immediately with the (0, D, 1) witness and no lattice work
    g = Grid.uniform(3.0, 64)
    w = WeightedInterval(grid=g, h=np.ones(65), K=10.0, N=2.0)
    v = cd_check(w)
    assert not v.passed
    assert v.witness == (0.0, 3.0, 1.0)
    assert v.violation == math.inf
    assert v.checked == 0


def test_cd_check_sample_pairs_deterministic():
    w = model_density(2.0, Grid.uniform(math.pi, 512))
    v1 = cd_check(w, sample_pairs=200)
    v2 = cd_check(w, sample_pairs=200)
    assert v1.passed and v2.passed
    assert v1.checked == v2.checked > cd_check(w).checked


def test_cd_check_sample_pairs_capped_before_allocating():
    # 10^9 pairs would build index arrays of 7.45 GiB each; the count is
    # checked before anything is allocated
    from obatalab import measures

    assert measures.MAX_SAMPLE_PAIRS == 2 ** 21
    w = model_density(2.0, Grid.uniform(math.pi, 512))
    tracemalloc.start()
    try:
        for bad in (10 ** 9, measures.MAX_SAMPLE_PAIRS + 1, -5, -1, math.nan):
            with pytest.raises(ParameterDomainError, match="sample_pairs <= 2097152"):
                cd_check(w, sample_pairs=bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    assert cd_check(w, sample_pairs=0) == cd_check(w)


def test_uniform_grid_capped_before_allocating(monkeypatch):
    # 2^45 cells used to fail inside np.linspace with _ArrayMemoryError, and
    # -5 with its ValueError; the node count is checked first, against the
    # solver's own cap
    from obatalab import measures, spectral

    assert measures.MAX_GRID_NODES == spectral.MAX_PAIR_NODES == 2 ** 25
    tracemalloc.start()
    try:
        for n in (2 ** 45, -5, 14):
            with pytest.raises(ParameterDomainError,
                               match=f"grid needs 16 to 33554432 nodes, got {n + 1}$"):
                Grid.uniform(math.pi, n)
        for D in (math.inf, -math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ParameterDomainError, match="need 0 < D <= pi"):
                Grid.uniform(D, 2 ** 45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # the bounds themselves: 16 and n + 1 = cap build, one node more does not
    monkeypatch.setattr(measures, "MAX_GRID_NODES", 1025)
    assert Grid.uniform(1.0, 15).n == 15
    assert Grid.uniform(1.0, 1024).n == 1024
    with pytest.raises(ParameterDomainError, match="grid needs 16 to 1025 nodes, got 1026"):
        Grid.uniform(1.0, 1025)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _assert_numpy_forms(g, h, u):
    # every moment is np.trapezoid, every first difference np.gradient with
    # edge_order=2 and every second difference the form with two np.diff
    # calls, bit for bit, though the grid keeps its widths
    t = g.nodes
    w = WeightedInterval(grid=g, h=h, K=0.0, N=2.0)
    mass = np.trapezoid(h, t)
    dl, dr = np.diff(t)[:-1], np.diff(t)[1:]
    second = np.zeros_like(u)
    second[1:-1] = 2.0 * ((u[2:] - u[1:-1]) / dr - (u[1:-1] - u[:-2]) / dl) / (dl + dr)
    for _ in range(2):  # as the grid forms them, and from what it kept
        assert np.array_equal(_bits(w.total_mass), _bits(mass))
        assert np.array_equal(_bits(w.mean(u)), _bits(np.trapezoid(h * u, t) / mass))
        assert np.array_equal(_bits(g.integral(u)), _bits(np.trapezoid(u, t)))
        assert np.array_equal(_bits(first_diff(g, u)), _bits(np.gradient(u, t, edge_order=2)))
        assert np.array_equal(_bits(second_diff(g, u)), _bits(second))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(15, 600), uniform=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.integers(-30, 30))
@example(n=15, uniform=False, seed=0, scale=0)
@example(n=15, uniform=True, seed=0, scale=0)
def test_moments_and_differences_keep_the_numpy_bits(n, uniform, seed, scale):
    # nonuniform grids of random widths on [0, D], and exactly uniform ones
    # (k 2^-e, whose widths are all equal, numpy's uniform branch)
    rng = np.random.default_rng(seed)
    if uniform:
        step = 2.0 ** -int(rng.integers(math.ceil(math.log2(n / math.pi)), 40))
        t = np.arange(n + 1) * step
    else:
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, n))])
        t *= rng.uniform(1e-3, math.pi) / t[-1]
    g = Grid(D=float(t[-1]), n=n, nodes=t)
    assert isinstance(g.stencil()[0], tuple) != uniform
    h = rng.uniform(0.0, 2.0, n + 1) * 2.0 ** scale
    _assert_numpy_forms(g, h, rng.standard_normal(n + 1) * 2.0 ** -scale)


def test_fixture_grids_keep_the_numpy_bits(fixtures_dir):
    paths = sorted(fixtures_dir.glob("*.csv"))
    assert len(paths) >= 4
    rng = np.random.default_rng(5)
    for path in paths:
        cols = read_csv(path)
        t = cols["t"]
        g = Grid(D=float(t[-1]), n=len(t) - 1, nodes=t)
        values = cols.get("h", cols.get("u"))
        _assert_numpy_forms(g, np.abs(values), rng.standard_normal(len(t)))
        _assert_numpy_forms(g, rng.uniform(0.0, 1.0, len(t)), values)


def test_grid_keeps_only_its_widths():
    # weighing a grid (total_mass) keeps no array on it: the 2^18-cell model
    # holds its nodes and density and nothing else of grid size. A moment
    # and first differences then leave the widths alone: the stencil's
    # coefficient rows are formed per first difference, not kept
    n = 2 ** 18
    row = 8 * (n + 1)
    for nodes in (None, np.arange(n + 1) * 2.0 ** -17):  # nonuniform, exactly uniform
        tracemalloc.start()
        try:
            g = Grid.uniform(math.pi, n) if nodes is None else Grid(D=2.0, n=n, nodes=nodes)
            w = model_density(3.0, g)
            assert w.total_mass > 0.0
            built = tracemalloc.get_traced_memory()[0]
            u = np.cos(g.nodes)
            before = tracemalloc.get_traced_memory()[0]
            w.mean(u)
            for _ in range(2):
                first_diff(g, u)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert built < (2 if nodes is None else 1) * row + 2 ** 16, built / row
        assert kept < row + 2 ** 16, kept / row
        assert isinstance(g.stencil()[0], tuple) == (nodes is None)


def test_generate_cd_density_refuses_negative_seed():
    with pytest.raises(ParameterDomainError, match="seed must be non-negative"):
        generate_cd_density(2.0, -1, Grid.uniform(2.9, 512))


def _sigma_scalar(K, dim, t, theta):
    # reference: the scalar distortion coefficient in math-module arithmetic
    if theta == 0.0:
        return t
    if K > 0.0:
        s = math.sqrt(K / dim)
        if theta * s >= math.pi:
            return math.inf
        return math.sin(t * theta * s) / math.sin(theta * s)
    if K == 0.0:
        return t
    s = math.sqrt(-K / dim)
    return math.sinh(t * theta * s) / math.sinh(theta * s)


def _cd_check_loop(w, sample_pairs=0, tol=1e-8):
    # reference: cd_check as a per-triple loop, the form it had before it was
    # vectorised; the array version must reproduce its verdicts bit for bit
    t_nodes = w.grid.nodes
    N, K = w.N, w.K
    if K > 0 and w.grid.D - math.pi * math.sqrt((N - 1) / K) > 1e-9:
        return CdVerdict(False, (0.0, w.grid.D, 1.0), math.inf, 0)
    hp = np.asarray(w.h, dtype=float) ** (1.0 / (N - 1.0))
    ncell = len(t_nodes) - 1
    lattice = np.unique(np.round(np.linspace(0, ncell, 33)).astype(int))
    triples = []
    for a in range(len(lattice)):
        for b in range(a + 1, len(lattice)):
            i0, i1 = int(lattice[a]), int(lattice[b])
            if i1 - i0 < 2:
                continue
            inner = [int(j) for j in lattice if i0 < j < i1]
            mid = (i0 + i1) // 2
            if mid not in inner and i0 < mid < i1:
                inner.append(mid)
            triples += [(i0, i1, j) for j in inner]
    for k in range(int(sample_pairs)):
        f0 = (0.5 + (k + 1) * math.sqrt(2.0)) % 1.0
        f1 = (0.5 + (k + 1) * math.sqrt(3.0)) % 1.0
        f2 = (0.5 + (k + 1) * math.sqrt(5.0)) % 1.0
        i0 = int(f0 * (ncell - 1))
        i1 = min(i0 + 2 + int(f1 * (ncell - i0 - 1)), ncell)
        if i1 - i0 >= 2:
            triples.append((i0, i1, i0 + 1 + int(f2 * (i1 - i0 - 1))))
    worst = (-math.inf, None)
    for i0, i1, j in triples:
        x0, x1, xt = t_nodes[i0], t_nodes[i1], t_nodes[j]
        theta = x1 - x0
        lam = (xt - x0) / theta
        rhs = 0.0
        for sig, hpi in ((_sigma_scalar(K, N - 1.0, lam, theta), hp[i1]),
                         (_sigma_scalar(K, N - 1.0, 1.0 - lam, theta), hp[i0])):
            rhs += 0.0 if hpi == 0.0 else sig * hpi
        if rhs - hp[j] > worst[0]:
            worst = (rhs - hp[j], (x0, x1, lam))
    violation, witness = worst
    if violation > tol:
        return CdVerdict(False, witness, float(violation), len(triples))
    return CdVerdict(True, None, float(max(violation, 0.0)), len(triples))


def test_cd_check_matches_reference_loop(fixtures_dir):
    cases = [load_density_csv(fixtures_dir / name, K=1.0, N=2.0)
             for name in ("model_n2.csv", "noncd_density.csv", "slowgap_density_n2.csv")]
    cases.append(model_density(3.0, Grid.uniform(math.pi, 1000)))  # inf branch, h = 0
    g = Grid.uniform(1.0, 256)
    cases.append(WeightedInterval(grid=g, h=np.exp(g.nodes ** 2), K=0.0, N=2.0))
    for w in cases:
        for pairs in (0, 2000):
            assert cd_check(w, sample_pairs=pairs) == _cd_check_loop(w, pairs)


def test_cd_check_negative_K_matches_reference_loop(fixtures_dir):
    # np.sinh and math.sinh may differ in the last bit, so the violation is
    # compared to rounding; the triple and its count are exact
    w = load_density_csv(fixtures_dir / "noncd_density.csv", K=-0.5, N=2.0)
    for pairs in (0, 2000):
        got, ref = cd_check(w, sample_pairs=pairs), _cd_check_loop(w, pairs)
        assert (got.passed, got.witness, got.checked) == (ref.passed, ref.witness, ref.checked)
        assert got.violation == pytest.approx(ref.violation, rel=1e-14)


def test_cd_check_large_negative_K_has_no_overflow():
    # sinh(theta sqrt(-K/(N-1))) overflows past 710; the ratio is taken in
    # exponential form there, so a CD(1, 2) density passes CD(-1e6, 2)
    g = Grid.uniform(math.pi, 512)
    w = WeightedInterval(grid=g, h=model_density(2.0, g).h, K=-1e6, N=2.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        v = cd_check(w, sample_pairs=200)
    assert v.passed and v.violation == 0.0


# ---------------------------------------------------------------------------
# generator


def test_generator_deterministic_per_seed():
    g = Grid.uniform(2.9, 512)
    w1 = generate_cd_density(2.0, 5, g)
    w2 = generate_cd_density(2.0, 5, g)
    assert np.array_equal(w1.h, w2.h)
    w3 = generate_cd_density(2.0, 6, g)
    assert not np.array_equal(w1.h, w3.h)


def test_generator_self_certifies():
    for N, seed, D in ((2.0, 1, 2.9), (3.0, 2, 2.5), (2.5, 3, 3.0)):
        w = generate_cd_density(N, seed, Grid.uniform(D, 512))
        assert w.total_mass == pytest.approx(1.0, abs=1e-12)
        assert cd_check(w).passed


def _flow_density(N, grid, edges, levels):
    """The unit-mass density w^{N-1} of the rotation flow from (w, w') = (0, 1)
    with the excess levels on the pieces between edges, as the generator
    builds its densities."""
    w = _rotation_flow(grid.nodes, np.array(edges), np.array(levels), 0.0, 1.0)
    return WeightedInterval(grid=grid, h=w ** (N - 1.0), K=N - 1.0, N=N).normalized()


def test_generator_zero_excess_recovers_model():
    D = math.pi - 1e-3
    g = Grid.uniform(D, 2048)
    w = _flow_density(2.0, g, [0.0, D], [0.0])
    ref = truncated_model(2.0, D, 2048)
    assert np.max(np.abs(w.h - ref.h)) <= 1e-12


def test_generator_piecewise_excess_route():
    # a = 3 on the first half keeps the flow positive on [0, 1.5]
    g = Grid.uniform(1.5, 1024)
    w = _flow_density(2.0, g, [0.0, 0.75, 1.5], [3.0, 0.0])
    assert np.all(w.h[1:-1] > 0)
    assert cd_check(w).passed


def test_generator_excess_is_exact_rotation():
    # a = 3 on [0, 0.75]: w = sin(2t)/2 there, then w(0.75) cos s + w'(0.75) sin s
    g = Grid.uniform(1.5, 1024)
    w = _flow_density(2.0, g, [0.0, 0.75, 1.5], [3.0, 0.0])
    t = g.nodes
    s = np.maximum(t - 0.75, 0.0)
    exact = np.where(t < 0.75, 0.5 * np.sin(2.0 * t),
                     0.5 * math.sin(1.5) * np.cos(s) + math.cos(1.5) * np.sin(s))
    assert np.max(np.abs(w.h * np.trapezoid(exact, t) - exact)) <= 1e-15


def test_generator_rejects_full_circle():
    with pytest.raises(ParameterDomainError, match="needs D < pi"):
        generate_cd_density(2.0, 0, Grid.uniform(math.pi, 256))


def test_generator_density_grid_independent():
    # exact rotations: the nodes of the n-cell grid carry the same density
    # (up to the mass normalisation) as every other node of the 2n-cell grid
    for N, seed, D in ((2.0, 1, 2.9), (3.0, 2, math.pi - 0.192), (2.5, 7, 1.3)):
        coarse = generate_cd_density(N, seed, Grid.uniform(D, 1000)).h
        fine = generate_cd_density(N, seed, Grid.uniform(D, 2000)).h[::2]
        ratio = fine / coarse
        assert np.max(np.abs(ratio / ratio[500] - 1.0)) <= 1e-13


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(N=st.floats(1.5, 5.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1),
       D=st.floats(1.0, math.pi - 0.01, exclude_max=True), n=st.integers(256, 2048))
def test_generator_output_is_certified_cd(N, seed, D, n):
    g = Grid.uniform(D, n)
    w = generate_cd_density(N, seed, g)
    assert w.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(w.h[1:-1] > 0)
    assert cd_check(w).passed
    assert np.array_equal(generate_cd_density(N, seed, g).h, w.h)


# ---------------------------------------------------------------------------
# m-integrals: int f dm = w.mean(f) * w.total_mass


def _integral(w, f):
    return w.mean(f) * w.total_mass


def test_integrate_probability_mass():
    w = truncated_model(2.0, 3.0, 1024)
    assert _integral(w, np.ones(1025)) == pytest.approx(1.0, abs=1e-10)


def test_integrate_cos_vanishes_on_model():
    w = model_density(3.0, Grid.uniform(math.pi, 4096))
    assert abs(_integral(w, np.cos(w.grid.nodes))) <= 1e-10


def test_integrate_cos_squared_model():
    w = model_density(3.0, Grid.uniform(math.pi, 4096))
    f = np.cos(w.grid.nodes) ** 2
    assert _integral(w, f) == pytest.approx(0.25, abs=1e-10)


def test_integrate_validation():
    w = model_density(2.0, Grid.uniform(math.pi, 64))
    with pytest.raises(ValueError):
        _integral(w, np.ones(10))


def test_integral_comparison_stable_constant():
    # |int f dm - int f dm_N| <= C eps on the truncated sweep with C stable
    # under eps-halving (spec window [0.3, 3]); measured ratio sits at 0.5
    N = 2.0
    wN = model_density(N, Grid.uniform(math.pi, 4096))
    ref = _integral(wN, np.cos(wN.grid.nodes))
    consts = []
    for eps in (0.04, 0.02, 0.01):
        w = truncated_model(N, math.pi - eps, 4096)
        val = _integral(w, np.cos(w.grid.nodes))
        consts.append(abs(val - ref) / eps)
    for a, b in zip(consts, consts[1:]):
        assert 0.3 <= b / a <= 3.0


# ---------------------------------------------------------------------------
# misc verdict plumbing


def test_verdict_truthiness():
    w = model_density(2.0, Grid.uniform(math.pi, 256))
    assert bool(cd_check(w)) is True
