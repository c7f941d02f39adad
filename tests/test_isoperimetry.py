import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obatalab import isoperimetry as iso
from obatalab.errors import ParameterDomainError
from obatalab.isoperimetry import (
    RESIDUAL_TOL,
    AsymptoticResult,
    ProfileQuery,
    asymptotic_constant,
    bbg_constant,
    bbg_ratio_check,
    c_squared_minus_one,
    g_eval,
    profile,
    profile_ode_residual,
    solve_R,
)

# Frozen oracle values (tests/oracles/frozen.txt)
PROFILE_3_30_037 = 0.609784899428624
BBG_3_29 = 1.000248758148393


# ---------------------------------------------------------------------------
# solve_R


def test_solve_R_endpoints():
    assert solve_R(2.0, 0.0, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert solve_R(2.0, 0.0, 1.0, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_solve_R_half_mass_closed_form():
    # 1 - cos R = 1/2 * (1 - cos(pi/2)) => R = pi/3
    assert solve_R(2.0, 0.0, 0.5, math.pi / 2) == pytest.approx(math.pi / 3, abs=1e-10)


def _sinpow_integral(N, a, x):
    """int_a^x |sin|^{N-1} in mpmath, integrand scaled to O(1) so quad's
    tolerance is relative even for tiny windows."""
    a, x = mp.mpf(a), mp.mpf(x)
    if x == a:
        return mp.mpf(0)
    f = lambda t: abs(mp.sin(t)) ** (N - 1)  # noqa: E731
    ref = max(f(a), f(x), f((a + x) / 2))
    return mp.quad(lambda u: f(a + (x - a) * u) / ref, [0, 1]) * (x - a) * ref


def _split_error(N, b, v, D, R):
    """(|int_b^R - v int_b^{b+D}|, v int_b^{b+D}) at 40 digits."""
    with mp.workdps(40):
        rhs = mp.mpf(v) * _sinpow_integral(N, b, mp.mpf(b) + mp.mpf(D))
        return float(abs(_sinpow_integral(N, b, R) - rhs)), float(rhs)


def test_gauss_legendre_table():
    from obatalab.isoperimetry import _GL_NODES, _GL_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.abs(_GL_NODES - nodes).max() <= 4e-16
    assert np.abs(_GL_WEIGHTS - weights).max() <= 4e-16


def test_solve_R_residual_contract_over_scan():
    # R ~ pi/2 on this scan, where the direct beta ratio was ill-conditioned
    N, D, v = 1.5, 1.0, 0.5
    for b in np.linspace(0.0, math.pi - D, 129):
        err, rhs = _split_error(N, b, v, D, solve_R(N, b, v, D))
        assert err <= RESIDUAL_TOL * rhs, b


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.floats(1.0, 8.0, exclude_min=True),
       D=st.floats(0.0, math.pi, exclude_min=True),
       b_frac=st.floats(0.0, 1.0), v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0))
# windows short against their pole distance, solved in offsets from b
@example(N=3.0, D=1e-13, b_frac=(math.pi - 1e-3) / (math.pi - 1e-13), v1=0.1, v2=0.9)
@example(N=2.0, D=1e-9, b_frac=0.6, v1=0.3, v2=0.5)
@example(N=5.0, D=0.2, b_frac=0.7, v1=0.0, v2=1.0)
def test_solve_R_contract_property(N, D, b_frac, v1, v2):
    b = (math.pi - D) * b_frac
    v1, v2 = sorted((v1, v2))
    R1, R2 = solve_R(N, b, v1, D), solve_R(N, b, v2, D)
    assert b <= R1 <= R2 <= b + D
    err, rhs = _split_error(N, b, v1, D, R1)
    # below RESIDUAL_TOL * rhs the contract is the rounding of R and of rhs to doubles
    floor = math.sin(R1) ** (N - 1) * np.spacing(R1) + np.spacing(rhs)
    assert err <= RESIDUAL_TOL * rhs + floor


def test_solve_R_domain():
    # N <= 1, a NaN b and D <= 0 used to return a value (R = -1 for D = -1)
    for args in ((1.0, 0.0, 0.5, 2.0), (0.5, 0.0, 0.5, 2.0), (2.0, math.nan, 0.5, 1.0),
                 (2.0, 0.0, 0.5, -1.0), (2.0, 0.0, 0.5, 0.0), (2.0, 0.0, 1.5, 1.0)):
        for fn in (solve_R, g_eval):
            with pytest.raises(ParameterDomainError):
                fn(*args)


def test_solve_R_monotone_in_v():
    vs = np.linspace(0.05, 0.95, 19)
    Rs = [solve_R(3.0, 0.2, v, 2.5) for v in vs]
    assert all(a < b for a, b in zip(Rs, Rs[1:]))
    assert all(0.2 <= R <= 0.2 + 2.5 for R in Rs)


# ---------------------------------------------------------------------------
# g_eval


def test_g_closed_forms():
    assert g_eval(2.0, 0.0, 0.5, math.pi / 2) == pytest.approx(math.sin(math.pi / 3), abs=1e-10)
    assert g_eval(2.0, 0.0, 0.5, math.pi) == pytest.approx(0.5, abs=1e-10)


def test_g_window_edge_tolerance():
    # the window may pass pi by 1e-9; g used to come back complex there
    val = g_eval(2.5, 0.0, 1.0, math.pi + 1e-10)
    assert isinstance(val, float) and 0.0 <= val < 1e-15


def test_g_symmetry_pair():
    D = 2.8
    a = g_eval(3.0, 0.1, 0.3, D)
    b = g_eval(3.0, math.pi - 0.1 - D, 0.7, D)
    assert a == pytest.approx(b, abs=1e-10)


def test_g_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        N = 2.0 + 2.0 * rng.random()
        D = 1.0 + (math.pi - 1.0) * rng.random()
        b = (math.pi - D) * rng.random()
        v = 0.05 + 0.9 * rng.random()
        lhs = g_eval(N, b, v, D)
        rhs = g_eval(N, math.pi - b - D, 1.0 - v, D)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# profile


def test_profile_model_half_volume():
    r2 = profile(ProfileQuery(N=2.0, D=math.pi, v=0.5))
    assert r2.value == pytest.approx(0.5, abs=1e-10)
    r3 = profile(ProfileQuery(N=3.0, D=math.pi, v=0.5))
    assert r3.value == pytest.approx(2.0 / math.pi, abs=1e-10)
    # D = pi leaves the single candidate b = 0
    assert r2.argmin_b == 0.0 and r3.argmin_b == 0.0


def test_profile_frozen_value():
    r = profile(ProfileQuery(N=3.0, D=3.0, v=0.37))
    assert r.value == pytest.approx(PROFILE_3_30_037, abs=1e-15)  # the bench oracle's bound
    assert r.argmin_b == pytest.approx(0.059284844, abs=1e-6)
    assert 0.0 <= r.argmin_b <= math.pi - 3.0
    assert r.argmin_b <= r.R_at_argmin <= r.argmin_b + 3.0
    assert r.value > 0


def test_profile_model_symmetry():
    for v in (0.2, 0.35, 0.41):
        a = profile(ProfileQuery(N=2.5, D=math.pi, v=v)).value
        b = profile(ProfileQuery(N=2.5, D=math.pi, v=1.0 - v)).value
        assert a == pytest.approx(b, abs=1e-10)


def _golden_profile(N, D, v, n_scan=129, tol=1e-9):
    """Reference: the scalar scan plus golden-section search that `profile`
    ran before its brackets were refined in lanes; returns the value."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    bs = np.linspace(0.0, math.pi - D, n_scan)
    i = int(np.argmin(iso._g(N, bs, v, D)[0]))
    a_, b_ = bs[max(i - 1, 0)], bs[min(i + 1, n_scan - 1)]
    c_ = b_ - inv_phi * (b_ - a_)
    d_ = a_ + inv_phi * (b_ - a_)
    fc, fd = g_eval(N, c_, v, D), g_eval(N, d_, v, D)
    while abs(b_ - a_) > tol:
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - inv_phi * (b_ - a_)
            fc = g_eval(N, c_, v, D)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + inv_phi * (b_ - a_)
            fd = g_eval(N, d_, v, D)
    return g_eval(N, 0.5 * (a_ + b_), v, D)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(N=st.floats(1.5, 5.0), D=st.floats(0.5, math.pi, exclude_max=True),
       v=st.floats(0.05, 0.95))
def test_profile_matches_golden_section(N, D, v):
    r = profile(ProfileQuery(N, D, v))
    ref = _golden_profile(N, D, v)
    # near its minimum g is flat up to a rounding noise of a few ulps, so the
    # two searches stop at different points of that noise
    assert r.value <= ref + 8 * np.spacing(ref)
    assert r.value == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert 0.0 <= r.argmin_b <= math.pi - D


def test_profile_lanes_match_profile():
    vs = np.array([0.03, 0.2, 0.37, 0.5, 0.81, 0.97])
    for N, D in ((3.0, 3.0), (2.0, 0.6), (4.5, 2.0), (2.5, math.pi)):
        vals, bs, Rs, evals = iso._profile_lanes(N, D, vs)
        for v, val, b, R in zip(vs, vals, bs, Rs):
            r = profile(ProfileQuery(N, D, float(v)))
            assert val == pytest.approx(r.value, rel=1e-15, abs=0.0)
            assert r.iterations <= evals  # the batch runs its slowest lane's steps
            assert 0.0 <= b <= max(math.pi - D, 0.0) and b <= R <= b + D


def test_profile_is_mirror_symmetric():
    # x -> pi - x maps the split of [b, b + D] at v to that of
    # [pi - D - b, pi - b] at 1 - v, so I(v) = I(1 - v). Computed apart, the
    # two sides differed by 3.8e-6 relative at (2, 1e-10, 0.2), 8.6e-9 at
    # (2, 1e-8, 0.3), and in the last bit at D = 3; now they share their bits,
    # and the window and split point are mirrored
    for N in (2.0, 3.0, 5.5):
        for D in (math.pi, 3.0, 1.0, 1e-4, 1e-8, 1e-10):
            for v in (0.5, 0.55, 0.6, 0.63, 0.7, 0.8, 0.95):
                hi, lo = profile(ProfileQuery(N, D, v)), profile(ProfileQuery(N, D, 1.0 - v))
                assert hi.value == lo.value, (N, D, v)
                if v > 0.5:
                    assert hi.argmin_b == (0.0 if D == math.pi else (math.pi - D) - lo.argmin_b)
                    assert hi.R_at_argmin == math.pi - lo.R_at_argmin
    # the frozen value of v < 1/2 keeps its bits
    assert profile(ProfileQuery(3.0, 3.0, 0.37)).value == 0.60978489942862435


def _count_g(monkeypatch):
    """Patch `_g` to count g evaluations (points of b times v) per call."""
    calls = []
    real = iso._g

    def counted(N, b, v, D):
        calls.append(np.broadcast(np.asarray(b), np.asarray(v)).size)
        return real(N, b, v, D)

    monkeypatch.setattr(iso, "_g", counted)
    return calls


def test_profile_iterations_count_g_evaluations(monkeypatch):
    calls = _count_g(monkeypatch)
    for n_scan in (2, 17, 129):
        calls.clear()
        r = profile(ProfileQuery(3.0, 2.5, 0.4), n_scan=n_scan)
        assert r.iterations == sum(calls)
        steps, rest = divmod(r.iterations - n_scan - 1, iso._REFINE_POINTS)
        assert rest == 0 and len(calls) == steps + 2
    calls.clear()
    assert profile(ProfileQuery(3.0, math.pi, 0.4)).iterations == sum(calls) == 1
    calls.clear()
    vs = np.linspace(0.1, 0.9, 5)
    evals = iso._profile_lanes(2.0, 1.5, vs)[3]
    assert sum(calls) == vs.size * evals


def test_profile_rejects_bad_search_settings():
    # n_scan 1 used to return g at b = 0, and n_scan 0 to raise numpy's ValueError
    q = ProfileQuery(3.0, 3.0, 0.37)
    for n_scan in (1, 0, -5, 2.5, 129.0, True):
        with pytest.raises(ParameterDomainError):
            profile(q, n_scan=n_scan)
    assert profile(q, n_scan=np.int64(2)).value == pytest.approx(PROFILE_3_30_037, abs=1e-12)


def test_profile_tol_below_rounding_terminates():
    # a bracket cannot shrink below a few ulps of b; the search stops there.
    # At v = 1/2 the centred window is optimal, far from the poles, and at
    # D = 1e-9 the width BRACKET_TOL D is below 4 spacing(b)
    D = 1e-9
    r = profile(ProfileQuery(2.0, D, 0.5))
    assert 4.0 * np.spacing(r.argmin_b) > iso.BRACKET_TOL * D
    assert r.value == pytest.approx(1.0 / (2.0 * math.sin(D / 2.0)), rel=1e-12)
    assert r.iterations < 129 + 20 * iso._REFINE_POINTS


def test_profile_query_validation():
    with pytest.raises(ParameterDomainError):
        ProfileQuery(N=2.0, D=math.pi, v=0.0)
    with pytest.raises(ParameterDomainError):
        ProfileQuery(N=2.0, D=3.5, v=0.5)
    with pytest.raises(ParameterDomainError):
        ProfileQuery(N=1.0, D=3.0, v=0.5)
    with pytest.raises(ParameterDomainError, match="N must exceed 1"):
        ProfileQuery(N=math.inf, D=2.0, v=0.5)


def test_profile_large_dimension_is_warning_free():
    # sinpow_cum's pole series overflows at N = 1e6 if evaluated off its band
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = profile(ProfileQuery(1e6, 2.0, 0.5))
    assert r.value == pytest.approx(math.sqrt(1e6 / (2.0 * math.pi)), rel=1e-5)


@pytest.mark.parametrize("N, D", [(2.0, 1e-300), (1e300, 3.0), (100.0, 1e-4)])
def test_profile_out_of_float_range_raises(N, D):
    # window masses underflow to 0: the value used to come back inf or NaN,
    # after numpy's divide-by-zero or invalid-value warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="cannot be computed in float64"):
            profile(ProfileQuery(N, D, 0.5))


def test_profile_short_windows_match_closed_forms():
    # at v = 1/2 the centred window is optimal: I = 1/(2 sin(D/2)) at N = 2 and
    # 2/(D + sin D) at N = 3. The window mass used to take its width from
    # (b + D) - b, rounded to the ulp of b: N = 2 read 1.4e-10 low at D = 1e-6,
    # 3.1e-4 at 1e-13 and 32% at 3e-16
    Ds = [1e-6, 1e-10, 1e-13, *np.geomspace(iso.MIN_PROFILE_DIAMETER, 1.0, 31)]
    with mp.workdps(30):
        for D in Ds:
            d = mp.mpf(D)
            for N, exact in ((2.0, 1 / (2 * mp.sin(d / 2))), (3.0, 2 / (d + mp.sin(d)))):
                got = profile(ProfileQuery(N, D, 0.5)).value
                assert abs(got - exact) <= 1e-12 * exact, (N, D)


def test_profile_small_diameter_scales_as_one_over_D():
    # bracket_tol is in units of min(D, 1): an absolute 1e-9 in b could not
    # resolve the minimiser below D ~ 1e-9, and D I_{N,D}(v) read up to 31%
    # high (the flat window's 1) at D = 1e-15. As D -> 0 the optimal window
    # sits near the pole, where sin t ~ t: at N = 2 the limit of D I is
    # 2 sqrt(v (1 - v)), the profile of a linear density minimised over its
    # offset, and D = 1e-6 is within 4e-14 of it. Tested at 1e-12, against
    # 8.3e-14 measured
    Ds = np.geomspace(iso.MIN_PROFILE_DIAMETER, 1e-6, 10)
    for N in (2.0, 3.0):
        for v in (0.2, 0.3, 0.4):
            ref = 1e-6 * profile(ProfileQuery(N, 1e-6, v)).value
            if N == 2.0:
                assert abs(ref / (2.0 * math.sqrt(v * (1.0 - v))) - 1.0) <= 1e-12, v
            for D in Ds:
                got = D * profile(ProfileQuery(N, float(D), v)).value
                assert abs(got / ref - 1.0) <= 1e-12, (N, v, D, got, ref)


def test_profile_refuses_diameters_below_the_floor():
    # a window ending near pi is a few ulps wide there: profile(2, 7e-16, 1/2)
    # missed 1/(2 sin(D/2)) by 6e-11 and below 2.2e-16 it divided by zero
    for call in (lambda D: profile(ProfileQuery(2.0, D, 0.5)),
                 lambda D: bbg_ratio_check(2.0, D, [0.5])):
        for D in (0.99 * iso.MIN_PROFILE_DIAMETER, 3e-16, 1e-20):
            with pytest.raises(ParameterDomainError, match="below the floor 1e-15"):
                call(D)
    assert profile(ProfileQuery(2.0, iso.MIN_PROFILE_DIAMETER, 0.5)).value > 0.0


@pytest.mark.parametrize("call", [
    lambda: solve_R(100.0, 0.0, 0.5, 1e-4),
    lambda: g_eval(100.0, 0.0, 0.5, 1e-4),
    lambda: bbg_ratio_check(100.0, 1e-4, [0.3, 0.5]),
], ids=["solve_R", "g_eval", "bbg_ratio_check"])
def test_underflowing_window_mass_raises(call):
    # at N = 100 the mass of the window [0, 1e-4] underflows to 0: solve_R
    # returned 0.0 where the root is 1e-4 * 0.5^{1/100}, and g_eval and
    # bbg_ratio_check NaN after an invalid-value warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="window mass underflows to 0"):
            call()
        # the centred window of the same width keeps its mass
        assert solve_R(100.0, math.pi / 2 - 5e-5, 0.5, 1e-4) == pytest.approx(math.pi / 2)


# ---------------------------------------------------------------------------
# profile ODE


def test_profile_ode_residual_model():
    rep = profile_ode_residual(2.0, np.linspace(0.1, 0.9, 81))
    assert rep.max_residual <= 1e-4
    assert rep.excluded == ()


def test_profile_ode_residual_midpoint():
    rep = profile_ode_residual(3.0, [0.5])
    assert rep.max_residual <= 1e-5


def test_profile_ode_excluded_band():
    rep = profile_ode_residual(2.0, [0.0005, 0.5, 0.9995])
    assert rep.excluded == (0.0005, 0.9995)


def test_profile_ode_residual_matches_scalar_loop():
    # reference: the per-v loop over g_eval; the batched solve may differ in
    # the last bits of I, which the 1/step^2 difference quotient amplifies
    N, step = 3.0, iso.ODE_STEP
    vs = np.linspace(0.1, 0.9, 9)
    p = N / (N - 1.0)
    worst = 0.0
    for v in vs:
        Im, I0, Ip = (g_eval(N, 0.0, v + d, math.pi) for d in (-step, 0.0, step))
        res = (Im ** p - 2.0 * I0 ** p + Ip ** p) / step ** 2 * I0 ** ((N - 2.0) / (N - 1.0))
        worst = max(worst, abs(res + N) / N)
    got = profile_ode_residual(N, vs).max_residual
    assert got == pytest.approx(worst, abs=64 * np.finfo(float).eps / step ** 2)


def test_profile_ode_residual_domain():
    for N in (1.0, 0.5, math.inf):
        with pytest.raises(ParameterDomainError):
            profile_ode_residual(N, [0.5])


def test_profile_power_midpoint_concave():
    # I_N^{N/(N-1)} is concave on (0,1); test midpoint concavity on triples
    for N in (2.0, 3.0):
        p = N / (N - 1.0)
        for v1, v2 in ((0.1, 0.5), (0.2, 0.9), (0.4, 0.6)):
            f1 = g_eval(N, 0.0, v1, math.pi) ** p
            f2 = g_eval(N, 0.0, v2, math.pi) ** p
            fm = g_eval(N, 0.0, 0.5 * (v1 + v2), math.pi) ** p
            assert fm >= 0.5 * (f1 + f2) - 1e-12


# ---------------------------------------------------------------------------
# BBG constant


def test_bbg_equals_one_at_pi():
    for N in (2.0, 2.5, 3.0, 4.0):
        assert bbg_constant(N, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_bbg_half_circle_closed_form():
    assert bbg_constant(2.0, math.pi / 2) == pytest.approx(2.0 ** 0.25, abs=1e-10)


def test_bbg_frozen_value():
    assert bbg_constant(3.0, 2.9) == pytest.approx(BBG_3_29, abs=1e-10)


def test_bbg_monotone_in_D():
    Ds = np.linspace(1.0, math.pi, 12)
    cs = [bbg_constant(2.5, D) for D in Ds]
    assert all(a >= b - 1e-14 for a, b in zip(cs, cs[1:]))
    assert all(c >= 1.0 - 1e-14 for c in cs)


def test_c_squared_minus_one_consistency():
    assert c_squared_minus_one(2.0, 2.5) == pytest.approx(
        bbg_constant(2.0, 2.5) ** 2 - 1.0, abs=1e-14
    )


def test_c_squared_minus_one_no_cancellation():
    # computed through the tail integral, so it stays positive arbitrarily
    # close to pi instead of rounding to zero
    val = c_squared_minus_one(2.0, math.pi - 1e-8)
    assert 0.0 < val < 1e-15


def test_c_squared_minus_one_domain():
    # used to return 0.0, NaN with a RuntimeWarning, and ZeroDivisionError
    for D in (4.0, -1.0, 0.0):
        with pytest.raises(ParameterDomainError):
            c_squared_minus_one(2.0, D)
    for N in (1.0, -1.0, math.inf):  # -1 used to raise ZeroDivisionError
        for fn in (c_squared_minus_one, bbg_constant):
            with pytest.raises(ParameterDomainError):
                fn(N, 2.0)


def test_bbg_small_diameter_closed_form():
    # at N = 2, C_{2,D} = sin(D/2)^{-1/2}. The cap int_0^{D/2} cos used to be
    # half - tail, off by 6.7e-13 at D = 1e-4 and 4.4e-5 at 1e-12
    with mp.workdps(30):
        for D in np.geomspace(1e-12, math.pi, 61):
            s = mp.sin(mp.mpf(D) / 2)
            assert abs(bbg_constant(2.0, D) - s ** -0.5) <= 1e-13 * s ** -0.5, D
            assert abs(c_squared_minus_one(2.0, D) - (1 / s - 1)) <= 1e-13 * (1 / s - 1), D


@pytest.mark.parametrize("N", [1.5, 3.0, 7.5, 100.0])
def test_bbg_matches_mpmath_on_both_cap_forms(N):
    # the cap is half - tail while tail <= half / 2 and is taken directly
    # below that. The reference, in units of half: the cap I_{sin^2 a}(1/2, N/2)
    # and the tail I_{cos^2 a}(N/2, 1/2), a = D/2 (mpmath's quad of cos^99
    # loses digits)
    with mp.workdps(40):
        for D in (1e-10, 1e-4, 0.1, 0.5, 1.0, 2.0, 3.0):
            a = mp.mpf(D) / 2
            cap = mp.betainc(0.5, N / 2, 0, mp.sin(a) ** 2, regularized=True)
            tail = mp.betainc(N / 2, 0.5, 0, mp.cos(a) ** 2, regularized=True)
            exact = ((cap + tail) / cap) ** (1 / mp.mpf(N))
            assert abs(bbg_constant(N, D) - exact) <= 1e-13 * exact, D
            exact2 = mp.expm1(2 / mp.mpf(N) * mp.log1p(tail / cap))
            assert abs(c_squared_minus_one(N, D) - exact2) <= 1e-12 * exact2, D


def test_bbg_answers_at_every_diameter():
    # from about D = 1e-16 down, half - tail was 0 and bbg_constant,
    # c_squared_minus_one and lichnerowicz_check raised ZeroDivisionError
    from obatalab.measures import Grid, model_density
    from obatalab.spectral import lichnerowicz_check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (1.0001, 2.0, 3.0, 50.0):
            for D in (5e-324, 1e-320, 1e-300, 1e-100, 1e-16):
                assert bbg_constant(N, D) > 1.0
                assert c_squared_minus_one(N, D) > 0.0
            for D in (1e-300, 1e-16):
                rep = lichnerowicz_check(model_density(N, Grid.uniform(D, 16)), N + 1.0)
                assert rep.margin < 0.0 and not rep.diam_ok
    # C_{2,D} = sin(D/2)^{-1/2} is finite all the way down; C^2 - 1 overflows
    assert bbg_constant(2.0, 5e-324) == pytest.approx(float((mp.mpf(5e-324) / 2) ** -0.5), rel=1e-13)
    assert c_squared_minus_one(2.0, 5e-324) == math.inf


# ---------------------------------------------------------------------------
# ratio check and asymptotics


def test_bbg_ratio_empty_grid_raises():
    # an empty grid used to return +inf, which reads as a certified margin
    with pytest.raises(ParameterDomainError):
        bbg_ratio_check(2.0, 2.0, [])


def test_bbg_ratio_rejects_bad_v_before_solving(monkeypatch):
    calls = _count_g(monkeypatch)
    for vs in ([0.5, 1.0], [math.nan], [0.0, 0.5]):
        with pytest.raises(ParameterDomainError):
            bbg_ratio_check(3.0, 2.5, vs)
    assert calls == []


def test_bbg_ratio_matches_scalar_loop():
    N, D, vs = 3.0, 2.5, [0.2, 0.5, 0.8]
    C = bbg_constant(N, D)
    ref = min(profile(ProfileQuery(N, D, v)).value / g_eval(N, 0.0, v, math.pi) - C
              for v in vs)
    assert bbg_ratio_check(N, D, vs) == pytest.approx(ref, abs=1e-14)


def test_bbg_ratio_identity_at_pi():
    assert bbg_ratio_check(2.0, math.pi, np.linspace(0.1, 0.9, 9)) == pytest.approx(0.0, abs=1e-12)


def test_bbg_ratio_positive_margin():
    margin = bbg_ratio_check(3.0, 2.5, np.linspace(0.01, 0.99, 99))
    assert margin >= -1e-7
    assert margin == pytest.approx(0.009299155019137695, abs=1e-14)  # the per-v golden section
    assert bbg_ratio_check(2.0, 1.5, [0.5]) >= -1e-7


def test_profile_dominates_bbg_times_model():
    for N in (2.0, 3.0):
        for D in (1.5, 2.5, 3.0):
            C = bbg_constant(N, D)
            for v in (0.2, 0.5, 0.7):
                lhs = profile(ProfileQuery(N=N, D=D, v=v)).value
                rhs = C * profile(ProfileQuery(N=N, D=math.pi, v=v)).value
                assert lhs >= rhs - 1e-7


def test_asymptotic_constant_targets():
    for N, target in ((2.0, 8.0), (3.0, 9.0 * math.pi)):
        Ds = [math.pi - 1e-2, math.pi - 5e-3, math.pi - 2e-3, math.pi - 1e-3]
        res = asymptotic_constant(N, Ds)
        assert isinstance(res, AsymptoticResult)
        assert res.target == pytest.approx(target, rel=1e-12)
        # monotone convergence: 5% at pi - 1e-2, 0.5% at pi - 1e-3
        assert abs(res.ratios[0] / target - 1.0) <= 0.05
        assert abs(res.ratios[-1] / target - 1.0) <= 0.005
        assert res.limit == pytest.approx(target, rel=1e-6)


def test_asymptotic_sweep_validation():
    with pytest.raises(ParameterDomainError):
        asymptotic_constant(2.0, [3.0, 2.9, 3.1])
    with pytest.raises(ParameterDomainError):
        asymptotic_constant(2.0, [3.0, 3.1, math.pi])


def test_asymptotic_empty_sweep_raises():
    # used to raise IndexError
    with pytest.raises(ParameterDomainError):
        asymptotic_constant(2.0, [])
