"""Batch front-end: subcommands over every module, CSV/JSON/SVG artifacts.

Exit-code contract: 0 success, 1 crash or invalid input, 2 mathematical
violation (failed CD check, broken inequality, flagged scaling). Every run
writes results.csv and summary.json into --out; summary.json carries the
config hash and the tolerances in force and is byte-stable across repeated
runs (volatile data like runtime goes to the run_info.json sidecar).

Every run replaces its artifacts: measures.replace_file removes the old file
and writes a new one, so a shorter table leaves no stale rows, an artifact
path that is a symlink becomes a regular file (its target is not written),
and ext4 skips the flush it makes when a truncated file is rewritten.

The obata and sweep runs draw plot.svg, a log-log plot of two columns of
their table, from the rows in memory and annotated with the handler's own
FitResult: the rows that fit used, those with both values > 0. An obata run
with no fit (fewer than two positive gaps) offers every row, and
plotting.render_plot decides whether it can be drawn (every plotted value
finite and > 0); when it cannot, the run prints one line, writes no plot and
keeps its exit code. A run that draws no plot removes plot.svg.

main() may be called many times in one process, as a batch script does: it
builds its parser on the first call and reuses it for every later one, and
it returns an exit code instead of ending the process, also for -h/--help.
"""
import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonCDInputError, ObataLabError
from .isoperimetry import BRACKET_TOL, RESIDUAL_TOL, ProfileQuery, profile
from .localization import (ENERGY_IDENTITY_SLACK, FLAG_FACTOR, IDENTITY_SLACK, VOLUME_SLACK,
                           load_family, localize)
from .measures import (CD_TOL, Grid, cd_check, load_density_csv, model_density, replace_file,
                       require_model_in_range)
from .obata1d import (DEFICIT_GUARD, FAMILIES, FIT_FLAG_R2, GROWTH_LIMIT, SLOPE_SLACK,
                      ExperimentSpec, deficit_distance_sweep, diameter_deficit_sweep,
                      upper_gap_check)
from .plotting import render_plot
from .spectral import MAX_PAIRS, neumann_eigs


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    out: str = "out"
    seed: int = 0
    grid: int = 4096

    def canonical(self):
        doc = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "grid": self.grid,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class _Artifact:
    header: tuple
    rows: list
    results: dict
    tolerances: dict
    plot: dict = None
    exit_code: int = 0


def _cell(x):
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _write_artifacts(config: RunConfig, art: _Artifact, runtime):
    os.makedirs(config.out, exist_ok=True)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(art.header)
    for row in art.rows:
        writer.writerow([_cell(x) for x in row])
    replace_file(os.path.join(config.out, "results.csv"), table.getvalue())

    from obatalab import __version__

    summary = {
        "version": __version__,
        "command": config.command,
        "config": {
            "params": config.params,
            "seed": config.seed,
            "grid": config.grid,
        },
        "config_hash": hashlib.sha256(config.canonical().encode()).hexdigest(),
        "seed": config.seed,
        "tolerances": art.tolerances,
        "results": art.results,
    }
    for name, doc in (("summary.json", summary), ("run_info.json", {"runtime_seconds": runtime})):
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        replace_file(os.path.join(config.out, name), text)

    svg_path = os.path.join(config.out, "plot.svg")
    plot = art.plot
    if plot is not None:
        rows = art.rows
        if plot["fit"] is not None:  # the rows loglog_fit kept: x > 0 and y > 0
            ix, iy = art.header.index(plot["x"]), art.header.index(plot["y"])
            rows = [row for row in rows if row[ix] > 0 and row[iy] > 0]
        try:
            render_plot(dict(zip(art.header, zip(*rows))), svg_path, **plot)
        except ConfigError as exc:
            print(f"plot.svg skipped: {exc}")
            plot = None
    if plot is None:
        replace_file(svg_path)


def _run_profile(config: RunConfig) -> _Artifact:
    p = config.params
    q = ProfileQuery(N=p["dim"], D=p["diam"], v=p["v"])
    res = profile(q)
    print(f"profile I_{{{q.N:g},{q.D:g}}}({q.v:g}) = {res.value:.12g}")
    return _Artifact(
        header=("v", "value", "argmin_b", "R", "evals"),
        rows=[(q.v, res.value, res.argmin_b, res.R_at_argmin, res.iterations)],
        results={
            "value": res.value,
            "argmin_b": res.argmin_b,
            "R": res.R_at_argmin,
            "evals": res.iterations,
        },
        tolerances={"bracket_tol": BRACKET_TOL, "residual_tol": RESIDUAL_TOL},
    )


def _build_interval(config: RunConfig):
    p = config.params
    if p.get("density"):
        if p.get("diam") is not None:
            raise ConfigError("--diam applies to --model only: a --density file sets its diameter")
        return load_density_csv(p["density"], p["dim"])
    D = math.pi if p.get("diam") is None else p["diam"]
    return require_model_in_range(model_density(p["dim"], Grid.uniform(D, config.grid)))


def _run_spectrum(config: RunConfig) -> _Artifact:
    k = config.params.get("k")
    k = 1 if k is None else int(k)
    w = _build_interval(config)
    res = neumann_eigs(w, k=k)
    cols = (res.eigenvalues, res.richardson, res.residuals, res.err_bar)
    rows = [(j + 1, *(float(c[j]) for c in cols)) for j in range(len(res.eigenvalues))]
    lam1 = float(res.eigenvalues[0])
    print(f"lambda1 = {lam1:.12g} (lambda0 residual {res.lam0:.3g})")
    return _Artifact(
        header=("index", "eigenvalue", "richardson", "residual", "err_bar"),
        rows=rows,
        results={"lambda1": lam1, "lambda0": res.lam0},
        tolerances={"model_lambda1_rel": 1e-5, "max_pairs": MAX_PAIRS},
    )


def _parse_points(raw):
    if not raw:
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad sweep point list {raw!r}") from exc


def _run_obata(config: RunConfig) -> _Artifact:
    p = config.params
    N = p["dim"]
    eps = _parse_points(p.get("points"))
    D_sweep = [math.pi - e for e in eps] if eps else None
    ds = diameter_deficit_sweep(N, D_sweep, grid_n=config.grid)
    ug = upper_gap_check(N, grid_n=config.grid)
    rows = [
        (float(e), float(g), float(lo), bool(h), float(g / lo))
        for e, g, lo, h in zip(ds.eps, ds.gap, ds.lower, ds.holds)
    ]
    status = "ok" if ds.all_hold else "VIOLATED"
    fit = ds.fit
    slope = "none (fewer than two positive gaps)" if fit is None else f"{fit.slope:.4f}"
    print(f"diameter sweep N={N:g}: slope {slope} (target {N:g}), lower bound {status}")
    return _Artifact(
        header=("eps", "gap", "lower", "holds", "ratio"),
        rows=rows,
        results={
            "slope": None if fit is None else fit.slope,
            "intercept": None if fit is None else fit.intercept,
            "r_squared": None if fit is None else fit.r_squared,
            "all_hold": ds.all_hold,
            "ratio_range": list(ds.ratio_range),
            "upper_gap_max_ratio": ug.max_ratio,
            "upper_gap_spread": ug.spread,
            "upper_candidate_max_ratio": ug.candidate_max_ratio,
        },
        tolerances={"direction_slack": 0.0, "fit_flag_r2": FIT_FLAG_R2},
        plot={"x": "eps", "y": "gap", "fit": fit},
        exit_code=0 if ds.all_hold else 2,
    )


def _run_sweep(config: RunConfig) -> _Artifact:
    p = config.params
    spec = ExperimentSpec(
        N=p["dim"],
        family=p["family"],
        grid_n=config.grid,
        sweep=_parse_points(p.get("points")),
        seed=config.seed,
    )
    res = deficit_distance_sweep(spec)
    rows = list(zip(res.param, res.delta, res.dist_l2, res.dist_w12, res.lambda1))
    flag = f" (fit flagged, r\u00b2 {res.fit.r_squared:.3f})" if res.fit.flagged else ""
    print(
        f"{spec.family} N={spec.N:g}: exponent {res.fit.slope:.4f} "
        f"(target {res.target:g}), constant growth {res.constant_growth:.3f}{flag}"
    )
    return _Artifact(
        header=("param", "delta", "dist_l2", "dist_w12", "lambda1"),
        rows=rows,
        results={
            "family": spec.family,
            "target": res.target,
            "slope": res.fit.slope,
            "intercept": res.fit.intercept,
            "r_squared": res.fit.r_squared,
            "fit_flagged": res.fit.flagged,
            "constant_range": list(res.constant_range),
            "constant_growth": res.constant_growth,
            "excluded": res.excluded,
            "slope_l2": res.fit_l2.slope,
        },
        tolerances={"deficit_guard": DEFICIT_GUARD, "constant_growth_limit": GROWTH_LIMIT,
                    "slope_slack": SLOPE_SLACK, "fit_flag_r2": FIT_FLAG_R2},
        plot={"x": "delta", "y": "dist_w12", "fit": res.fit},
        exit_code=2 if res.rate_violated else 0,
    )


def _run_localize(config: RunConfig) -> _Artifact:
    p = config.params
    loc = localize(load_family(p["config"]), p.get("beta"), p.get("gamma"))
    led, sel, bad, prc = loc.ledger, loc.selection, loc.bad_set, loc.cosines
    var, mass, pole, asm = loc.variance, loc.mass, loc.pole, loc.assembly
    longs = set(sel.Q_long)
    rows = [
        (i, ray.weight, ray.w.grid.D, ray.a, ray.b, float(prc.c[i]),
         float(led.delta_q[i]), i in longs, float(prc.dist[i]))
        for i, ray in enumerate(loc.family.rays)
    ]
    flags = loc.flags
    flagged = any(flags.values())
    print(
        f"localize: delta {led.delta:.6g}, final_dist {asm.final_dist:.6g}, "
        f"flags {'none' if not flagged else ','.join(k for k, v in flags.items() if v)}"
    )
    return _Artifact(
        header=("ray", "weight", "D", "a", "b", "c", "delta_q", "long", "dist"),
        rows=rows,
        results={
            "delta": led.delta,
            "beta": var.beta,
            "gamma": var.gamma,
            "Q_long": list(sel.Q_long),
            "chebyshev": {
                "excluded_c2": sel.excluded_c2,
                "bound": sel.chebyshev_bound,
                "long_c2": sel.long_c2,
            },
            "bad_set": {"value": bad.value, "bound": bad.bound},
            "per_ray_max_dist": prc.max_dist,
            "variance": var.variance,
            "variance_envelope": var.envelope,
            "cbar": var.cbar,
            "one_minus_mass": mass.one_minus_mass,
            "mass_lhs": mass.lhs,
            "mass_envelope": mass.envelope,
            "unspanned_mass": mass.unspanned_mass,
            "pole_max_start": pole.max_start,
            "pole_max_end": pole.max_end,
            "pole_threshold": pole.threshold,
            "volume_checked": loc.volume_checked,
            "final_dist": asm.final_dist,
            "final_ratio": asm.ratio,
            "eta": asm.eta,
            "sign": asm.sign,
            "flags": flags,
        },
        tolerances={
            "identity_slack": IDENTITY_SLACK,
            "energy_identity_slack": ENERGY_IDENTITY_SLACK,
            "flag_factor": FLAG_FACTOR,
            "volume_slack": VOLUME_SLACK,
        },
        exit_code=2 if flagged else 0,
    )


def _run_check_density(config: RunConfig) -> _Artifact:
    p = config.params
    w = load_density_csv(p["file"], p["dim"])
    kappa = p.get("kappa")
    verdict = cd_check(w, sample_pairs=int(p.get("pairs") or 0), kappa=kappa)
    K = w.N - 1.0 if kappa is None else kappa
    if verdict.passed:
        print(f"PASS: CD({K:g},{w.N:g}) holds on {verdict.checked} triples")
        x0, x1, tt = math.nan, math.nan, math.nan
    else:
        x0, x1, tt = verdict.witness
        print(
            f"FAIL: CD({K:g},{w.N:g}) violated by {verdict.violation:.6g} "
            f"at x0={x0:.6g}, x1={x1:.6g}, t={tt:.6g}"
        )
    return _Artifact(
        header=("passed", "x0", "x1", "t", "violation", "checked"),
        rows=[(verdict.passed, x0, x1, tt, verdict.violation, verdict.checked)],
        results={
            "passed": verdict.passed,
            "witness": None if verdict.passed else [x0, x1, tt],
            "violation": verdict.violation,
            "checked": verdict.checked,
        },
        tolerances={"cd_tol": CD_TOL},
        exit_code=0 if verdict.passed else 2,
    )


_HANDLERS = {
    "profile": _run_profile,
    "spectrum": _run_spectrum,
    "obata": _run_obata,
    "sweep": _run_sweep,
    "localize": _run_localize,
    "check-density": _run_check_density,
}


def run(config: RunConfig) -> int:
    """Execute one configured command and write its artifacts."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.grid < 15:
        raise ConfigError("grid must have at least 15 cells")
    t0 = time.perf_counter()
    art = handler(config)
    _write_artifacts(config, art, time.perf_counter() - t0)
    return art.exit_code


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit 1 (invalid input), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="obatalab", description=__doc__.splitlines()[0],
        epilog="environment: OBATALAB_THREADS (default 1) is the number of threads "
               "that run sweep points and the blocked sweeps of large solves, "
               "capped at the CPUs the process may use; no result depends on it.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="out", help="artifact directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid", type=int, default=4096,
                        help="grid cells per interval")

    sp = sub.add_parser("profile", help="isoperimetric profile value")
    sp.add_argument("--dim", type=float, required=True)
    sp.add_argument("--diam", type=float, required=True)
    sp.add_argument("--v", type=float, required=True, help="volume fraction")
    common(sp)

    sp = sub.add_parser("spectrum", help="Neumann eigenpairs of a density")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", action="store_true",
                       help="model density sin^(N-1)")
    group.add_argument("--density", metavar="FILE", help="t,h CSV density")
    sp.add_argument("--dim", type=float, required=True)
    sp.add_argument("--diam", type=float, default=None,
                    help="diameter of the model density (default pi; --model only)")
    sp.add_argument("--k", type=int, default=1, help="number of eigenpairs")
    common(sp)

    sp = sub.add_parser("obata", help="diameter-deficit sweep and upper gap")
    sp.add_argument("--dim", type=float, required=True)
    sp.add_argument("--points", default="",
                    help="comma-separated eps = pi - D values")
    common(sp)

    sp = sub.add_parser("sweep", help="deficit-versus-distance sweep")
    sp.add_argument("--dim", type=float, required=True)
    sp.add_argument("--family", choices=list(FAMILIES), required=True)
    sp.add_argument("--points", default="",
                    help="comma-separated sweep parameters")
    common(sp)

    sp = sub.add_parser("localize", help="run the ray-family pipeline")
    sp.add_argument("--config", required=True, metavar="FAMILY_JSON")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    common(sp)

    sp = sub.add_parser("check-density", help="CD(K,N) verdict for a density file")
    sp.add_argument("file", metavar="DENSITY_CSV")
    sp.add_argument("--dim", type=float, required=True)
    sp.add_argument("--kappa", type=float, default=None,
                    help="curvature K of the CD(K,N) check (default N-1)")
    sp.add_argument("--pairs", type=int, default=0,
                    help="extra quasi-random sample pairs")
    common(sp)

    return parser


def config_from_args(args) -> RunConfig:
    skip = {"command", "out", "seed", "grid"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    return RunConfig(
        command=args.command,
        params=params,
        out=args.out,
        seed=args.seed,
        grid=args.grid,
    )


@functools.cache
def _parser():
    # parsing leaves no state on the parser, so one serves every main() call
    return build_parser()


def main(argv=None):
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # only -h/--help exits here (_Parser.error raises): usage is printed
            return exc.code
        return run(config_from_args(args))
    except NonCDInputError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except (ObataLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
