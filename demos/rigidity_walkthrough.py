#!/usr/bin/env python3
"""Walk the 1-D rigidity chain: the model space sits at the spectral
minimum, shrinking the diameter opens the gap at rate (pi - D)^N, and
near-minimal eigenfunctions stay L2-close to the cosine at rate sqrt(delta).
"""
import argparse
import math

import numpy as np

from obatalab.measures import Grid, model_density
from obatalab.obata1d import loglog_fit, truncated_model
from obatalab.spectral import cosine_decompose, deficit, neumann_eigs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=float, default=2.0)
    ap.add_argument("--grid", type=int, default=2048)
    args = ap.parse_args()
    N, n = args.dim, args.grid

    print(f"== model space ([0,pi], sin^{N - 1:g} dt), grid n={n} ==")
    w = model_density(N, Grid.uniform(math.pi, n))
    res = neumann_eigs(w, k=2)
    lam1, lam2 = (float(x) for x in res.eigenvalues[:2])
    print(f"lambda1 = {lam1:.8f}   (exact value is N = {N:g})")
    print(f"lambda2 = {lam2:.8f}   (strictly above, gap {lam2 - lam1:.4f})")

    print("\n== diameter sweep: gap opens like C_N (pi - D)^N ==")
    eps = [0.3 * 0.8 ** j for j in range(5)]
    gaps = []
    for e in eps:
        wD = truncated_model(N, math.pi - e, n)
        gaps.append(float(neumann_eigs(wD).eigenvalues[0]) - N)
        print(f"  pi - D = {e:.5f}   lambda1 - N = {gaps[-1]:.6e}")
    fit = loglog_fit(np.array(eps), np.array(gaps))
    print(f"fitted exponent {fit.slope:.4f}  (theory: {N:g})")

    print("\n== function stability: perturb the cosine, watch the distance ==")
    t = w.grid.nodes
    base = math.sqrt(N + 1.0) * np.cos(t)
    for s in (0.2, 0.1, 0.05):
        u = w.standardize(base + s * np.sin(2.0 * t))
        delta = deficit(w, u)
        dec = cosine_decompose(w, u)
        print(f"  s = {s:<5g} deficit = {delta:.6f}   "
              f"W12 dist = {dec.dist_W12:.6f}   "
              f"dist/sqrt(deficit) = {dec.dist_W12 / math.sqrt(delta):.4f}")
    print("the ratio is flat: distance ~ C sqrt(delta), the 1-D stability rate")


if __name__ == "__main__":
    main()
