"""Acceptance gate: the eleven primary criteria, one test per criterion.

Every test runs the full stated configuration at the stated tolerance and
prints one summary line with the measured margin (visible with pytest -s).
"""
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from obatalab.isoperimetry import asymptotic_constant, bbg_constant
from obatalab.localization import (
    SuspensionGeometry,
    load_family,
    localize,
    volume_control,
)
from obatalab.measures import Grid, generate_cd_density, model_density
from obatalab.obata1d import (
    ExperimentSpec,
    deficit_distance_sweep,
    diameter_deficit_sweep,
    loglog_fit,
    truncated_model,
)
from obatalab.spectral import (
    bochner_check,
    green_apply,
    lichnerowicz_check,
    neumann_eigs,
)


def test_criterion_01_model_eigenvalue():
    worst = 0.0
    slowest = 0.0
    for N in (2.0, 2.5, 3.0, 4.0):
        w = model_density(N, Grid.uniform(math.pi, 4096))
        t0 = time.perf_counter()
        lam1 = float(neumann_eigs(w, 1).eigenvalues[0])
        elapsed = time.perf_counter() - t0
        rel = abs(lam1 - N) / N
        worst = max(worst, rel)
        slowest = max(slowest, elapsed)
        assert rel <= 1e-5, f"N={N}: lambda1={lam1!r}"
        assert elapsed < 5.0
    print(f"criterion 01 PASS: max rel err {worst:.3g}, max time {slowest:.2f}s")


def test_criterion_02_bbg_closed_forms():
    err_quarter = abs(bbg_constant(2.0, math.pi / 2.0) - 2.0 ** 0.25)
    assert err_quarter <= 1e-10
    worst = 0.0
    for N in (2.0, 2.5, 3.0, 4.0):
        err = abs(bbg_constant(N, math.pi) - 1.0)
        worst = max(worst, err)
        assert err <= 1e-12, f"N={N}"
    print(f"criterion 02 PASS: C_2,pi/2 err {err_quarter:.3g}, "
          f"C_N,pi err {worst:.3g}")


def test_criterion_03_asymptotic_limit():
    targets = {2.0: 8.0, 3.0: 9.0 * math.pi}
    worst = 0.0
    for N, target in targets.items():
        Ds = [math.pi - 1e-3 * 2.0 ** k for k in range(4, -1, -1)]
        res = asymptotic_constant(N, Ds)
        assert math.isclose(res.target, target, rel_tol=1e-12)
        rel = abs(res.ratios[-1] / target - 1.0)
        worst = max(worst, rel)
        assert rel <= 0.01, f"N={N}: ratio {res.ratios[-1]!r}"
    print(f"criterion 03 PASS: worst rel err at D=pi-1e-3 is {worst:.3g}")


def test_criterion_04_improved_spectral_gap():
    violations = 0
    worst = math.inf
    for N in (2.0, 3.0):
        for seed in range(20):
            D = 2.2 + 0.8 * (seed % 5) / 5.0
            w = generate_cd_density(N, seed, Grid.uniform(D, 1024))
            lam1 = float(neumann_eigs(w, 1).eigenvalues[0])
            rep = lichnerowicz_check(w, lam1)
            worst = min(worst, rep.margin)
            if rep.margin < -1e-6:
                violations += 1
    assert violations == 0
    print(f"criterion 04 PASS: 40 densities, worst margin {worst:.4f}")


def test_criterion_05_diameter_sharpness():
    for N in (2.0, 3.0):
        res = diameter_deficit_sweep(N)
        assert res.all_hold, f"N={N}: lower bound broken"
        assert abs(res.fit.slope / N - 1.0) <= 0.15, f"N={N}: {res.fit.slope}"
        assert res.ratio_range[0] >= 1.0
        print(f"criterion 05 N={N:g}: slope {res.fit.slope:.5f} PASS")


def test_criterion_06_function_stability():
    for N in (2.0, 3.0):
        res = deficit_distance_sweep(ExperimentSpec(N=N, family="perturbed-cosine"))
        target = min(0.5, 1.0 / N)
        assert res.excluded == 0
        assert res.fit.slope >= target - 0.1, f"N={N}: {res.fit.slope}"
        assert res.constant_spread <= 10.0, f"N={N}: {res.constant_spread}"
        print(f"criterion 06 N={N:g}: exponent {res.fit.slope:.5f}, "
              f"spread {res.constant_spread:.4f} PASS")


def test_criterion_07_green_bound():
    n = 2048
    families = (
        model_density(2.0, Grid.uniform(math.pi, n)),
        truncated_model(3.0, 3.0, n),
        generate_cd_density(2.5, 11, Grid.uniform(2.9, n)),
    )
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    for w in families:
        t = w.grid.nodes
        for _ in range(100):
            coef = rng.standard_normal(6)
            z = sum(c * np.cos(j * t) for j, c in enumerate(coef, start=1))
            res = green_apply(w, z)
            assert res.norm_v0 <= math.pi * res.norm_z + 1e-8
            worst = max(worst, res.norm_v0 / (math.pi * res.norm_z))
            checked += 1
    assert checked == 300
    residuals = []
    for m in (2048, 4096):
        w = model_density(2.0, Grid.uniform(math.pi, m))
        t = w.grid.nodes
        residuals.append(green_apply(w, np.cos(2.0 * t) + 0.3 * np.sin(3.0 * t)).residual)
    ratio = residuals[0] / residuals[1]
    assert 2.0 <= ratio <= 8.0, f"residual halving ratio {ratio}"
    print(f"criterion 07 PASS: 300 sources, worst ratio {worst:.4f}, "
          f"residual ratio {ratio:.3f}")


def test_criterion_08_bochner_scaling():
    for N in (2.0, 3.0):
        ratios2 = []
        for j in range(5):
            D = math.pi - 0.3 * 0.8 ** j

            def build(n, N=N, D=D):
                return truncated_model(N, D, n)

            w = build(2048)
            lam = float(neumann_eigs(w).richardson[0])
            u = neumann_eigs(w, 1).eigenfunctions[:, 0]
            rep = bochner_check(w, (lam, u))
            assert rep.gap > 0.0
            ratios2.append(rep.norm ** 2 / rep.gap)
        spread = max(ratios2) / min(ratios2)
        assert spread <= 10.0, f"N={N}: spread {spread}"
        print(f"criterion 08 N={N:g}: ratio^2 range {spread:.4f} PASS")


def test_criterion_09_localization_pipeline(fixtures_dir):
    for N, tag in ((2.0, "n2"), (3.0, "n3")):
        deltas, finals, var_ratios, mass_ratios = [], [], [], []
        for k in range(5):
            run = localize(load_family(fixtures_dir / f"sweep_{tag}_k{k}.json"))
            led, sel = run.ledger, run.selection
            weights = run.family.weights
            # (a) global deficit pays for the localized deficits
            paid = math.fsum(
                weights[i] * led.delta_q[i] * led.c[i] ** 2
                for i in sel.Q_long
            )
            assert led.delta >= paid - 1e-10
            # (b) Chebyshev mass certificate at the stated exponent
            assert sel.excluded_c2 <= led.delta ** (1.0 - sel.beta) + 1e-12
            var_ratios.append(run.variance.ratio)
            mass_ratios.append(run.mass.ratio)
            deltas.append(led.delta)
            finals.append(run.assembly.final_dist)
        # (c) sweep-stable envelope constants
        assert max(var_ratios) / min(var_ratios) <= 10.0
        assert max(mass_ratios) / min(mass_ratios) <= 10.0
        # (d) final-distance exponent against 1/(8N+4)
        fit = loglog_fit(np.array(deltas), np.array(finals))
        target = 1.0 / (8.0 * N + 4.0)
        assert fit.slope >= target - 0.05, f"N={N}: slope {fit.slope}"
        print(f"criterion 09 N={N:g}: slope {fit.slope:.5f} "
              f"(target >= {target - 0.05:.5f}), var range "
              f"{max(var_ratios) / min(var_ratios):.4f}, mass range "
              f"{max(mass_ratios) / min(mass_ratios):.4f} PASS")
    for name in ("rigid.json", "rigid_n3.json", "flip_n2.json",
                 "rigid3_n2.json"):
        run = localize(load_family(fixtures_dir / name))
        assert run.assembly.final_dist == 0.0, name
        assert run.variance.variance == 0.0, name
    print("criterion 09 rigid fixtures: exact zeros PASS")


def test_criterion_10_volume_control(fixtures_dir):
    checked = 0
    for name in ("rigid.json", "volume_trunc_n2.json", "volume_mixed_n3.json"):
        fam = load_family(fixtures_dir / name)
        geo = SuspensionGeometry.from_family(fam)
        for r in np.linspace(0.1, geo.pole_distance - 0.05, 17):
            rep = volume_control(geo, float(r))  # raises on any violation
            assert rep.ok_lower and rep.ok_upper
            checked += 1
    assert checked == 51
    print(f"criterion 10 PASS: {checked} radii, zero violations")


CLI_CASES = (
    ("profile", "--dim", "3", "--diam", "3.0", "--v", "0.37", "--grid", "256"),
    ("spectrum", "--model", "--dim", "2", "--grid", "512"),
    ("obata", "--dim", "2", "--grid", "256"),
    ("sweep", "--dim", "2", "--family", "perturbed-cosine", "--grid", "512"),
    ("localize", "--config", "fixtures/rigid.json"),
    ("localize", "--config", "fixtures/sweep_n2_k2.json"),
    ("check-density", "fixtures/model_n2.csv", "--dim", "2"),
)


def test_criterion_11_determinism(tmp_path):
    root = Path(__file__).resolve().parents[1]
    for j, args in enumerate(CLI_CASES):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{j}{tag}"
            cmd = [sys.executable, "-m", "obatalab.cli", *args,
                   "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=str(root))
            assert proc.returncode in (0, 2), (args, proc.stderr)
            outs.append(out)
        names = ["summary.json", "results.csv"]
        if (outs[0] / "plot.svg").exists():
            names.append("plot.svg")
        for name in names:
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert same, f"{args}: {name} differs between reruns"
    print(f"criterion 11 PASS: {len(CLI_CASES)} commands byte-stable")
