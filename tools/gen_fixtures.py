"""Regenerate everything under fixtures/.

Run from the repository root:

    python3 tools/gen_fixtures.py

Every file is produced from fixed seeds and fixed grids, so reruns are
byte-identical. The sweep families are calibrated so that the deficit of
sweep point k is about 0.7 * delta0_k while every structural check in the
localization pipeline stays on its designed side:

  - 8 truncated-model rays, equal weights, start offset a = 0 and the whole
    length deficit at the far pole (b = pi - D), so suspension geometry is
    pole-complete at t = 0;
  - per-ray deficits delta_q ~ 0.4 * delta0 hit by bisection on the sin(2t)
    admixture;
  - per-ray amplitudes drawn once per N and reused across the sweep, so the
    variance-to-envelope ratio is sweep-stable by construction;
  - unspanned mass 0.3 * delta0^(2 eta), matching the mass-envelope exponent.
"""

import json
import math
import os

import numpy as np

import obatalab as ol
from obatalab import localization as loc
from obatalab.measures import first_diff

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "fixtures")

DELTA0 = (0.2, 0.1, 0.05, 0.025, 0.0125)
SWEEP_GRID = 2048
RIGID_GRID = 4096


def dump(name, doc):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def dump_samples(name, t, v, header):
    path = os.path.join(OUT, name)
    rows = "\n".join("%.17g,%.17g" % (a, b) for a, b in zip(t, v))
    with open(path, "w") as fh:
        fh.write(header + "\n" + rows + "\n")
    return path


def model_ray(weight=1.0, scale=1.0, n=RIGID_GRID):
    return {
        "weight": weight,
        "D": math.pi,
        "a": 0.0,
        "b": 0.0,
        "density": {"kind": "model", "n": n},
        "u": {"kind": "cosine", "scale": scale},
        "e": {"kind": "zero"},
    }


def family(N, rays, unspanned=0.0):
    return {"schema": "rayfam-v1", "N": N, "unspanned_mass": unspanned, "rays": rays}


# --- sweep calibration -----------------------------------------------------


def _delta_q_of_s(N, w, s):
    # deficit of the recentred profile cos + s sin(2t) on the ray's measure
    t = w.grid.nodes
    u = np.cos(t) + s * np.sin(2.0 * t)
    uc = u - w.mean(u)
    du = first_diff(w.grid, uc)
    return w.mean(du * du) / w.mean(uc * uc) - N


def _solve_s(N, w, target):
    lo, hi = 0.0, 2.0
    if _delta_q_of_s(N, w, lo) >= target:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _delta_q_of_s(N, w, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_family(N, delta0, amp_draws, deficit_draws):
    beta = loc.default_beta(N)
    eta = loc.final_exponent(N)
    nu = (0.05 * delta0**beta) ** (1.0 / N)
    D = math.pi - nu
    unspanned = 0.3 * delta0 ** (2.0 * eta)
    q = (1.0 - unspanned) / 8.0

    w = ol.model_density(N, ol.Grid.uniform(D, SWEEP_GRID)).normalized()

    theta_v = 3.0 / (4.0 * N + 2.0)
    sigma_c = 0.4 * delta0 ** (0.5 * theta_v)

    rays = []
    for i in range(8):
        target = 0.4 * delta0 * deficit_draws[i]
        s = _solve_s(N, w, target)
        scale = 1.0 + sigma_c * amp_draws[i]
        rays.append({
            "weight": q,
            "D": D,
            "a": 0.0,
            "b": nu,
            "density": {"kind": "truncated", "n": SWEEP_GRID},
            "u": {"kind": "perturbed", "scale": scale, "s": s},
            "e": {"kind": "const", "value": 0.3 * delta0},
        })
    return family(N, rays, unspanned)


def main():
    os.makedirs(OUT, exist_ok=True)

    # rigid fixtures: exact fixed points of the pipeline
    dump("rigid.json", family(2.0, [model_ray()]))
    dump("rigid_n3.json", family(3.0, [model_ray()]))
    dump("rigid3_n2.json", family(2.0, [
        model_ray(weight=0.5), model_ray(weight=0.25), model_ray(weight=0.25),
    ]))
    dump("flip_n2.json", family(2.0, [model_ray(scale=-1.0)]))

    # one excluded short ray: Chebyshev certificate with nonzero excluded mass
    short = {
        "weight": 0.05,
        "D": 2.0,
        "a": 0.5,
        "b": math.pi - 2.5,
        "density": {"kind": "truncated", "n": 2048},
        "u": {"kind": "cosine", "scale": 1.0},
        "e": {"kind": "zero"},
    }
    dump("shortray_n2.json", family(2.0, [model_ray(weight=0.95), short]))

    # a density on [0,2] whose spectral gap sits just above N: its deficit is
    # far too small for so short a ray, so the length certificate rejects the
    # family. CD would force lambda1 >= N + C_N (pi-D)^N, hence non-CD input.
    g2 = ol.Grid.uniform(2.0, 2048)
    wt = ol.model_density(2.0, g2)
    base_h = wt.h / wt.total_mass
    bump = (np.exp(-((g2.nodes / 0.25) ** 2))
            + np.exp(-(((2.0 - g2.nodes) / 0.25) ** 2)) + 0.02)
    bump /= g2.integral(bump)

    def lam1_of_mix(alpha):
        h = (1.0 - alpha) * base_h + alpha * bump
        wmix = ol.WeightedInterval(grid=g2, h=h, K=1.0, N=2.0)
        return ol.neumann_eigs(wmix, k=1).eigenvalues[0]

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lam1_of_mix(mid) > 2.001:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    h_mix = (1.0 - alpha) * base_h + alpha * bump
    w_mix = ol.WeightedInterval(grid=g2, h=h_mix, K=1.0, N=2.0)
    res = ol.neumann_eigs(w_mix, k=1)
    assert abs(res.eigenvalues[0] - 2.001) < 1e-4, res.eigenvalues
    dump_samples("slowgap_density_n2.csv", g2.nodes, w_mix.h, "t,h")
    dump_samples("slowgap_u_n2.csv", g2.nodes, res.eigenfunctions[:, 0], "t,u")
    dump("noncd_length.json", family(2.0, [{
        "weight": 1.0,
        "D": 2.0,
        "a": 0.5,
        "b": math.pi - 2.5,
        "density": {"kind": "csv", "path": "slowgap_density_n2.csv"},
        "u": {"kind": "csv", "path": "slowgap_u_n2.csv"},
        "e": {"kind": "zero"},
    }]))

    # rigid ray plus free mass: mass and unspanned envelopes both flag
    dump("unspanned_bad_n2.json", family(2.0, [model_ray(weight=0.9)], 0.1))

    # suspension fixtures for the ball-volume sandwich
    dump("volume_trunc_n2.json", family(2.0, [{
        "weight": 1.0,
        "D": math.pi - 0.05,
        "a": 0.0,
        "b": 0.05,
        "density": {"kind": "truncated", "n": RIGID_GRID},
        "u": {"kind": "cosine", "scale": 1.0},
        "e": {"kind": "zero"},
    }]))
    mixed = []
    for qk, gap in ((0.5, 0.05), (0.25, 0.1), (0.25, 0.2)):
        mixed.append({
            "weight": qk,
            "D": math.pi - gap,
            "a": 0.0,
            "b": gap,
            "density": {"kind": "truncated", "n": RIGID_GRID},
            "u": {"kind": "cosine", "scale": 1.0},
            "e": {"kind": "zero"},
        })
    dump("volume_mixed_n3.json", family(3.0, mixed))

    # density CSVs for check-density
    wm = ol.model_density(2.0, ol.Grid.uniform(math.pi, 256))
    dump_samples("model_n2.csv", wm.grid.nodes, wm.h, "t,h")
    # bimodal on [0, 2.8]: short of the sigma pole, so the worst CD violation
    # is finite and the lattice scan has to find it
    g = ol.Grid.uniform(2.8, 256)
    dumbbell = 0.1 + 4.0 * np.cos(g.nodes * math.pi / 2.8) ** 4
    dumbbell /= g.integral(dumbbell)
    dump_samples("noncd_density.csv", g.nodes, dumbbell, "t,h")

    # calibrated deficit sweeps
    for N, tag, seed in ((2.0, "n2", 22), (3.0, "n3", 23)):
        rng = np.random.default_rng(seed)
        amp = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), 8)
        dq = rng.uniform(0.7, 1.3, 8)
        for k, d0 in enumerate(DELTA0):
            path = dump(f"sweep_{tag}_k{k}.json", sweep_family(N, d0, amp, dq))
            run = loc.localize(loc.load_family(path))
            assert len(run.selection.Q_long) == 8, (path, run.selection.Q_long)
            assert not any(run.flags.values()), (path, run.flags)
            delta = run.ledger.delta
            assert 0.4 * d0 < delta < 0.95 * d0, (path, delta)
            print(f"{os.path.basename(path)}: delta={delta:.6f} "
                  f"final={run.assembly.final_dist:.6f} ratio={run.assembly.ratio:.3f}")

    # sanity over the structural fixtures
    for name in ("rigid.json", "rigid_n3.json", "rigid3_n2.json", "flip_n2.json"):
        run = loc.localize(loc.load_family(os.path.join(OUT, name)))
        final = run.assembly.final_dist
        assert final == 0.0 and not any(run.flags.values()), (name, final, run.flags)
        print(f"{name}: final_dist exactly 0")
    run = loc.localize(loc.load_family(os.path.join(OUT, "shortray_n2.json")))
    sel = run.selection
    assert sel.Q_long == (0,) and sel.excluded_c2 > 0 and not any(run.flags.values())
    print(f"shortray_n2.json: excluded_c2={sel.excluded_c2:.4f} ok")
    try:
        loc.localize(loc.load_family(os.path.join(OUT, "noncd_length.json")))
    except ol.NonCDInputError as exc:
        print(f"noncd_length.json: rejected as designed ({exc})")
    else:
        raise AssertionError("noncd_length.json should fail the length certificate")
    run = loc.localize(loc.load_family(os.path.join(OUT, "unspanned_bad_n2.json")))
    assert run.flags["long_mass"] and run.flags["unspanned"], run.flags
    print("unspanned_bad_n2.json: mass/unspanned flags raised as designed")


if __name__ == "__main__":
    main()
