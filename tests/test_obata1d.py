import json
import math
import os

import numpy as np
import pytest

from obatalab import cli
from obatalab.errors import ParameterDomainError
from obatalab.measures import Grid, model_density
from obatalab.obata1d import (
    FAMILIES,
    ExperimentSpec,
    SweepResult,
    deficit_distance_sweep,
    diameter_deficit_sweep,
    dilated_model,
    loglog_fit,
    truncated_model,
    upper_gap_check,
)
from obatalab.spectral import deficit, neumann_eigs


# ---------------------------------------------------------------------------
# fitting


def test_loglog_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**1.7
    fit = loglog_fit(x, y)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.flagged
    assert fit.points == 4


def test_loglog_fit_flags_poor_fit():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**1.7 * np.array([1.0, 3.0, 0.3, 2.0])
    fit = loglog_fit(x, y)
    assert fit.r_squared < 0.98
    assert fit.flagged


def test_loglog_fit_validation():
    with pytest.raises(ParameterDomainError):
        loglog_fit(np.array([1.0]), np.array([2.0]))
    # non-positive points are dropped before fitting
    fit = loglog_fit(np.array([1.0, -2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert fit.points == 2
    with pytest.raises(ParameterDomainError):
        loglog_fit(np.array([-1.0, -2.0, 3.0]), np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# spec plumbing


def test_experiment_spec_validation():
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(N=2.0, family="mystery")
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(N=1.0, family="perturbed-cosine")
    with pytest.raises(ParameterDomainError, match="need N > 1"):
        ExperimentSpec(N=math.inf, family="perturbed-cosine")
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(N=2.0, family="perturbed-cosine", sweep=(0.1, 0.05))
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(N=2.0, family="perturbed-cosine", sweep=(0.1, 0.05, 0.0, 0.01, 0.005))


def test_experiment_spec_refuses_negative_seed_and_non_finite_points():
    with pytest.raises(ParameterDomainError, match="seed must be non-negative"):
        ExperimentSpec(N=2.0, family="seeded-generated", seed=-1)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ParameterDomainError, match="finite and positive"):
            ExperimentSpec(N=2.0, family="perturbed-cosine", sweep=(bad, 0.1, 0.2, 0.3, 0.4))
    assert ExperimentSpec(N=2.0, family="seeded-generated", seed=0).seed == 0


def test_experiment_spec_default_target():
    assert ExperimentSpec(N=2.0, family="perturbed-cosine").target == 0.5
    assert ExperimentSpec(N=3.0, family="perturbed-cosine").target == pytest.approx(1.0 / 3.0)


def test_model_family_constructors():
    w = truncated_model(2.0, 3.0, 512)
    assert w.total_mass == pytest.approx(1.0, abs=1e-12)
    d = dilated_model(2.0, 3.0, 512)
    assert d.total_mass == pytest.approx(1.0, abs=1e-12)
    assert d.h[-1] == 0.0
    assert d.h[0] == 0.0
    # sin(pi t / D) at the last node is -3.2e-16 here: for non-integer N its
    # power was NaN, with a RuntimeWarning
    d = dilated_model(5.5, math.pi - 0.2, 4096)
    assert np.all(np.isfinite(d.h)) and np.all(d.h >= 0.0)
    assert d.h[-1] == 0.0


# ---------------------------------------------------------------------------
# deficit-distance sweeps


def test_exact_cosine_has_zero_deficit_and_distance():
    w = model_density(2.0, Grid.uniform(math.pi, 4096))
    u = math.sqrt(3.0) * np.cos(w.grid.nodes)
    assert abs(deficit(w, u)) <= 1e-6
    from obatalab.spectral import cosine_distance

    _, d2, _ = cosine_distance(w, u)
    assert d2 <= 1e-10


def test_perturbed_cosine_sweep_exponent():
    spec = ExperimentSpec(N=3.0, family="perturbed-cosine", grid_n=2048)
    assert spec.sweep == (0.2, 0.1, 0.05, 0.025, 0.0125)
    res = deficit_distance_sweep(spec)
    assert res.fit.slope >= min(0.5, 1.0 / 3.0) - 0.1
    assert res.constant_spread <= 10.0
    assert res.excluded == 0
    # inequality direction with a single constant at every row
    cmax = max(res.dist_w12 / res.delta**res.target)
    assert np.all(res.dist_w12 <= cmax * res.delta**res.target + 1e-12)


def test_truncated_sweep_stable_constant():
    Ds = tuple(math.pi - 0.3 * 0.8**j for j in range(5))
    res = deficit_distance_sweep(
        ExperimentSpec(N=2.0, family="truncated-model", grid_n=2048, sweep=Ds)
    )
    assert res.constant_spread <= 10.0
    assert np.all(res.delta > 0)
    # dist <= C sqrt(delta) with one C across the sweep
    cmax = max(res.dist_w12 / np.sqrt(res.delta))
    assert np.all(res.dist_w12 <= cmax * np.sqrt(res.delta) + 1e-12)


def test_truncated_sweep_monotone_delta():
    res = deficit_distance_sweep(ExperimentSpec(N=2.0, family="truncated-model", grid_n=2048))
    # param is the diameter D; larger D means smaller pi - D means smaller delta
    assert all(a < b for a, b in zip(res.param, res.param[1:]))
    assert all(a > b for a, b in zip(res.delta, res.delta[1:]))


def test_sweep_small_deficit_guard():
    res = deficit_distance_sweep(
        ExperimentSpec(N=2.0, family="perturbed-cosine", grid_n=1024, sweep=(2.0, 1.0, 0.5, 0.1, 0.05))
    )
    assert res.excluded == 1
    assert len(res.param) == 4
    with pytest.raises(ParameterDomainError):
        deficit_distance_sweep(
            ExperimentSpec(N=2.0, family="perturbed-cosine", grid_n=1024, sweep=(3.0, 2.5, 2.0, 1.8, 1.6))
        )


def test_seeded_family_runs():
    res = deficit_distance_sweep(ExperimentSpec(N=2.5, family="seeded-generated", grid_n=1024, seed=3))
    assert len(res.param) >= 2
    assert np.all(res.delta > 0)
    assert np.all(res.dist_w12 >= res.dist_l2)


def test_sweep_grid_stable_slope():
    # the central-difference quotient drifted 0.012 in slope from 512 to 4096
    # cells at N = 3; the Richardson-extrapolated flux quotient does not
    for N, grids, bound in ((2.0, (1024, 2048), 0.02), (3.0, (512, 4096), 1e-3)):
        s_lo, s_hi = (deficit_distance_sweep(ExperimentSpec(
            N=N, family="perturbed-cosine", grid_n=n)).fit.slope for n in grids)
        assert abs(s_hi - s_lo) < bound, (N, s_lo, s_hi)


@pytest.mark.parametrize("N", [2.0, 3.0])
def test_perturbed_cosine_deficit_converged_at_default_grid(N):
    # deficit() is Richardson-extrapolated, so 4096 cells already give the
    # 2^18-cell value of every default sweep point to 1e-7
    w_hi = model_density(N, Grid.uniform(math.pi, 2 ** 18))
    w_lo = model_density(N, Grid.uniform(math.pi, 4096))
    for s in ExperimentSpec(N=N, family="perturbed-cosine").sweep:
        hi, lo = (deficit(w, np.cos(w.grid.nodes) + s * np.sin(2.0 * w.grid.nodes))
                  for w in (w_hi, w_lo))
        assert lo == pytest.approx(hi, rel=1e-7), s


# ---------------------------------------------------------------------------
# sweep verdict: one-sided in the constant


def _synthetic_sweep(power, target=0.5):
    # dist = 0.3 delta^power on the default deficit ladder, in sweep order
    delta = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    dist = 0.3 * delta**power
    consts = dist / delta**target
    return SweepResult(
        family="truncated-model", N=2.0, target=target, param=np.pi - delta,
        delta=delta, dist_l2=dist, dist_w12=dist, lambda1=2.0 + delta,
        fit=loglog_fit(delta, dist), fit_l2=loglog_fit(delta, dist),
        constant_range=(float(consts.min()), float(consts.max())), excluded=0,
    )


def test_sweep_verdict_flags_slow_rate():
    res = _synthetic_sweep(power=0.25)  # delta^(target/2)
    assert res.fit.slope == pytest.approx(0.25, abs=1e-12)
    assert res.constant_growth == pytest.approx(16.0**0.25, rel=1e-12)
    assert res.rate_violated


def test_sweep_verdict_flags_growing_constant():
    res = _synthetic_sweep(power=0.5)
    dist = res.dist_w12.copy()
    dist[2] *= 20.0  # one mid-sweep row with a 20x constant
    res = SweepResult(**{**res.__dict__, "dist_w12": dist})
    assert res.fit.slope >= res.target - 0.1
    assert res.constant_growth == pytest.approx(20.0, rel=1e-12)
    assert res.rate_violated


def test_sweep_verdict_is_one_sided():
    # dist = delta^(3 target) beats the rate: the constant falls 16x, which the
    # two-sided spread would call unstable
    res = _synthetic_sweep(power=1.5)
    assert res.constant_spread == pytest.approx(16.0, rel=1e-12)
    assert res.constant_growth == 1.0
    assert not res.rate_violated


def test_sweep_verdict_ignores_slope_of_a_poor_fit():
    # seeded densities scatter: this seed fits slope 0.30 < target - 0.1 with
    # r^2 0.55, while C = dist/delta^target stays within 0.48-0.71
    res = deficit_distance_sweep(
        ExperimentSpec(N=2.0, family="seeded-generated", seed=1755883897)
    )
    assert res.fit.flagged
    assert res.fit.slope < res.target - 0.1
    assert res.constant_growth < 1.5
    assert not res.rate_violated


def test_sweep_cli_exits_2_on_slow_rate(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "deficit_distance_sweep", lambda spec: _synthetic_sweep(0.25))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--dim", "2", "--family", "truncated-model", "--out", str(out)])
    assert code == 2
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["tolerances"]["constant_growth_limit"] == 10.0
    assert summary["tolerances"]["slope_slack"] == 0.1
    assert summary["results"]["constant_growth"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("N", [2.0, 3.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_default_sweeps_keep_the_rate(family, N):
    # the default truncated-model sweep used to fail the two-sided spread test
    # (11.1 at N=2) although its constant only falls as delta shrinks
    res = deficit_distance_sweep(ExperimentSpec(N=N, family=family, seed=3))
    assert res.constant_growth <= 1.05
    assert res.fit.slope >= res.target - 0.01  # perturbed-cosine at N=2 fits 0.499995
    assert not res.rate_violated


# ---------------------------------------------------------------------------
# diameter sweeps


def test_diameter_sweep_slope_and_direction():
    res = diameter_deficit_sweep(2.0, grid_n=2048)
    assert res.all_hold
    assert bool(np.all(res.holds))
    assert abs(res.fit.slope / 2.0 - 1.0) <= 0.15
    # gap/lower stays on one side, never below 1
    assert res.ratio_range[0] >= 1.0


def test_diameter_sweep_validation():
    with pytest.raises(ParameterDomainError):
        diameter_deficit_sweep(2.0, D_sweep=[3.0, math.pi])
    # a fit needs two points, so a sweep does too
    with pytest.raises(ParameterDomainError, match="at least two diameters"):
        diameter_deficit_sweep(2.0, D_sweep=[3.0])


def test_sweeps_need_exact_half_grid():
    # Richardson's 1/3 factor assumes the half grid is every other node
    for n in (4097, 29):
        with pytest.raises(ParameterDomainError):
            diameter_deficit_sweep(2.0, grid_n=n)
        with pytest.raises(ParameterDomainError):
            upper_gap_check(2.0, grid_n=n)
        for family in ("truncated-model", "perturbed-cosine", "seeded-generated"):
            with pytest.raises(ParameterDomainError):
                deficit_distance_sweep(ExperimentSpec(N=2.0, family=family, grid_n=n))


def test_upper_gap_linear_bound():
    rep = upper_gap_check(3.0, grid_n=2048)
    # diameters are sorted ascending, so eps = pi - D comes out descending
    assert np.allclose(rep.eps, [0.2, 0.1, 0.05], atol=1e-12)
    # ratios (lambda_1 - N)/eps within factor 2 across the sweep
    assert rep.spread <= 2.0
    assert rep.max_ratio < 10.0
    # sqrt(N+1) cos has deficit O(eps)
    assert rep.candidate_max_ratio < 10.0
    assert np.all(rep.candidate_deficit > 0)


@pytest.mark.parametrize("N", [2.0, 3.0, 5.5])
def test_neumann_solve_matches_closed_form_models(N):
    # the closed forms that upper_gap_check and the perturbed-cosine sweep take
    # instead of a solve: the dilated model sin^{N-1}(pi t / D) is the model
    # rescaled by pi / D, so lambda_1 = N (pi/D)^2, and the model's own is N
    for D in (math.pi - 0.2, math.pi - 0.1, math.pi - 0.05):
        lam = neumann_eigs(dilated_model(N, D, 4096), k=1).richardson[0]
        assert abs(lam / (N * (math.pi / D) ** 2) - 1.0) <= 1e-11, D
    lam = neumann_eigs(model_density(N, Grid.uniform(math.pi, 4096)), k=1).richardson[0]
    assert abs(lam / N - 1.0) <= 1e-11


def test_closed_form_paths_solve_nothing(monkeypatch):
    from obatalab import obata1d, spectral

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return neumann_eigs(*args, **kwargs)

    monkeypatch.setattr(obata1d, "neumann_eigs", counting)
    monkeypatch.setattr(spectral, "neumann_eigs", counting)
    rep = upper_gap_check(3.0, grid_n=512)
    assert calls == []
    assert np.array_equal(rep.gap, 3.0 * (math.pi / (math.pi - rep.eps)) ** 2 - 3.0)
    res = deficit_distance_sweep(ExperimentSpec(N=2.0, family="perturbed-cosine", grid_n=512))
    assert calls == []
    assert np.all(res.lambda1 == 2.0)
    # the wrapper is live: the truncated-model sweep solves each of its 5 points
    deficit_distance_sweep(ExperimentSpec(N=2.0, family="truncated-model", grid_n=512))
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# determinism


def test_thread_pool_size_does_not_change_results(monkeypatch, run_cli):
    # the sweep points run on the worker pool, and so do the blocked sweeps
    # of a 2^17-cell solve (five blocks): the table and the spectrum's
    # artifacts keep their bits for any thread count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    rows, files = {}, {}
    for threads in ("1", "4"):
        monkeypatch.setenv("OBATALAB_THREADS", threads)
        rows[threads] = repr(diameter_deficit_sweep(2.0, grid_n=1024).gap.tolist())
        proc, out = run_cli("spectrum", "--model", "--dim", "3", "--k", "2",
                            "--grid", "131072", out=f"spectrum-{threads}")
        assert proc.returncode == 0, proc.stderr
        files[threads] = (proc.stdout, (out / "summary.json").read_bytes(),
                          (out / "results.csv").read_bytes())
    assert rows["1"] == rows["4"]
    assert files["1"] == files["4"]
