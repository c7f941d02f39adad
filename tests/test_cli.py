"""Command-line front end: exit codes, artifacts, determinism, plots."""
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from obatalab.errors import ConfigError
from obatalab.measures import read_csv
from obatalab.obata1d import loglog_fit
from obatalab.plotting import render_plot

PROFILE_3_30_037 = 0.609784899428624
SHORTRAY_FINAL = 0.06297626663229096
UNSPANNED_FINAL = 0.32036447816134583


def _summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def _results_header(out):
    with open(out / "results.csv") as fh:
        return fh.readline().strip()


def test_profile_command(run_cli):
    proc, out = run_cli("profile", "--dim", "3", "--diam", "3.0",
                        "--v", "0.37", "--grid", "256")
    assert proc.returncode == 0
    assert proc.stdout.startswith("profile I_{3,3}(0.37) =")
    s = _summary(out)
    assert s["command"] == "profile"
    assert math.isclose(s["results"]["value"], PROFILE_3_30_037, rel_tol=1e-9)
    assert s["tolerances"] == {"bracket_tol": 1e-9, "residual_tol": 1e-12}
    assert _results_header(out) == "v,value,argmin_b,R,evals"
    assert (out / "run_info.json").exists()


def test_spectrum_model_command(run_cli):
    proc, out = run_cli("spectrum", "--model", "--dim", "2", "--grid", "1024")
    assert proc.returncode == 0
    assert "lambda1 = " in proc.stdout
    s = _summary(out)
    assert abs(s["results"]["lambda1"] - 2.0) <= 1e-4
    assert _results_header(out) == "index,eigenvalue,richardson,residual,err_bar"
    assert s["tolerances"] == {"model_lambda1_rel": 1e-5, "max_pairs": 256}


def test_spectrum_tiny_diameter_is_solved(run_cli):
    # 1e-75 used to exit 1 with "tridiagonal bisection failed": the problem
    # is solved rescaled, and lambda_1 D^2 is the same to rounding as at 1e-10
    scaled = {}
    for diam in ("1e-10", "1e-75", "1e-150"):
        proc, out = run_cli("spectrum", "--model", "--dim", "2", "--diam", diam, out=diam)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        scaled[diam] = _summary(out)["results"]["lambda1"] * float(diam) ** 2
    for diam in ("1e-75", "1e-150"):
        assert abs(scaled[diam] / scaled["1e-10"] - 1.0) <= 1e-12, scaled


def test_spectrum_underflowing_model_names_the_float_range(run_cli):
    # sin^{4.5}/omega underflows to 0 at every node below D ~ 1e-69 on 4096
    # cells; that used to exit 1 blaming the density ("identically zero").
    # N = 3 still solves there. A subnormal diameter, whose scale 2^p is past
    # 2^1023, is refused with the same one line naming the float range
    for dim, diam in (("5.5", "1e-75"), ("2", "1e-310")):
        proc, out = run_cli("spectrum", "--model", "--dim", dim, "--diam", diam, out=diam)
        assert proc.returncode == 1, diam
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "float range" in err[0] and "identically zero" not in err[0]
        assert not (out / "summary.json").exists()
    proc, out = run_cli("spectrum", "--model", "--dim", "3", "--diam", "1e-75", out="n3")
    assert proc.returncode == 0, proc.stderr


def test_underflowing_truncated_model_names_the_float_range(run_cli):
    # sin^119 underflows to 0 on the first cell at 4096 cells: the obata and
    # truncated-model sweeps used to exit 1 with "density vanishes on a whole
    # end cell". The perturbed-cosine sweep solves nothing on the model and
    # still answers
    for args in (("obata", "--dim", "120"),
                 ("sweep", "--dim", "120", "--family", "truncated-model")):
        proc, out = run_cli(*args, out=args[0])
        assert proc.returncode == 1, args
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "float range" in err[0] and "end cell" not in err[0], err
        assert not (out / "summary.json").exists()
    proc, out = run_cli("sweep", "--dim", "120", "--family", "perturbed-cosine", out="cosine")
    assert proc.returncode == 0, proc.stderr


def test_spectrum_density_file(run_cli, fixtures_dir):
    proc, out = run_cli("spectrum", "--density",
                        str(fixtures_dir / "model_n2.csv"), "--dim", "2")
    assert proc.returncode == 0
    s = _summary(out)
    assert abs(s["results"]["lambda1"] - 2.0) <= 5e-4


def test_obata_command(run_cli):
    proc, out = run_cli("obata", "--dim", "2", "--grid", "256")
    assert proc.returncode == 0
    assert proc.stdout.startswith("diameter sweep N=2:")
    s = _summary(out)
    assert s["results"]["all_hold"] is True
    assert abs(s["results"]["slope"] - 2.0) <= 0.3
    assert s["results"]["ratio_range"][0] >= 1.0
    assert (out / "plot.svg").exists()


def test_sweep_command(run_cli):
    proc, out = run_cli("sweep", "--dim", "2", "--family", "perturbed-cosine",
                        "--grid", "512")
    assert proc.returncode == 0
    assert "perturbed-cosine N=2: exponent" in proc.stdout
    s = _summary(out)
    assert abs(s["results"]["slope"] - 0.5) <= 0.1
    assert s["results"]["fit_flagged"] is False
    assert "fit flagged" not in proc.stdout
    assert s["results"]["excluded"] == 0
    with open(out / "results.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "param,delta,dist_l2,dist_w12,lambda1"
    assert len(lines) == 6
    assert (out / "plot.svg").exists()


def test_sweep_flagged_fit_is_marked(tmp_path, capsys):
    # per-point seeds scatter delta, so this fit has r^2 0.549 and its
    # slope is no rate; the line used to print it without a warning
    from obatalab import cli

    out = tmp_path / "out"
    code = cli.main(["sweep", "--dim", "2", "--family", "seeded-generated",
                     "--seed", "1755883897", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("seeded-generated N=2: exponent 0.2954 (target 0.5)")
    assert line.endswith("(fit flagged, r\u00b2 0.549)")
    s = _summary(out)
    assert s["results"]["fit_flagged"] is True
    assert s["results"]["r_squared"] < s["tolerances"]["fit_flag_r2"]


def test_localize_rigid(run_cli, fixtures_dir):
    proc, out = run_cli("localize", "--config",
                        str(fixtures_dir / "rigid.json"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("localize: delta")
    assert "flags none" in proc.stdout
    s = _summary(out)
    r = s["results"]
    assert r["final_dist"] == 0.0
    assert r["sign"] == 1.0
    assert r["Q_long"] == [0]
    assert r["volume_checked"] == 16
    assert not any(r["flags"].values())
    assert _results_header(out) == "ray,weight,D,a,b,c,delta_q,long,dist"
    assert s["tolerances"] == {
        "identity_slack": 1e-10,
        "energy_identity_slack": 1e-6,
        "flag_factor": 10.0,
        "volume_slack": 1e-9,
    }


def test_localize_shortray(run_cli, fixtures_dir):
    proc, out = run_cli("localize", "--config",
                        str(fixtures_dir / "shortray_n2.json"))
    assert proc.returncode == 0
    r = _summary(out)["results"]
    assert math.isclose(r["final_dist"], SHORTRAY_FINAL, rel_tol=1e-9)
    assert r["Q_long"] == [0]
    # offset second ray: the suspension sandwich is not claimed here
    assert r["volume_checked"] == 0


def test_localize_flags_exit_2(run_cli, fixtures_dir):
    proc, out = run_cli("localize", "--config",
                        str(fixtures_dir / "unspanned_bad_n2.json"))
    assert proc.returncode == 2
    assert "flags" in proc.stdout
    r = _summary(out)["results"]
    assert r["flags"]["long_mass"] is True
    assert r["flags"]["unspanned"] is True
    assert r["flags"]["variance"] is False
    assert math.isclose(r["final_dist"], UNSPANNED_FINAL, rel_tol=1e-9)


def test_localize_noncd_length_exit_2(run_cli, fixtures_dir):
    proc, out = run_cli("localize", "--config",
                        str(fixtures_dir / "noncd_length.json"))
    assert proc.returncode == 2
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("violation: long ray with diameter gap")
    assert "exceeds CD length bound" in last
    # the violation aborts the run before any artifact is written
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("kind", ["model", "truncated"])
def test_localize_refuses_ray_density_outside_float_range(run_cli, tmp_path, kind):
    # sin^119 underflows in both end cells at 4096 cells: the ray used to be
    # solved on that density and end in exit 2, "orthogonal energy 0.0
    # exceeds deficit -2.35e-05"; it is refused as spectrum --model refuses it
    family = tmp_path / "fam.json"
    family.write_text(json.dumps({"schema": "rayfam-v1", "N": 120, "rays": [
        {"weight": 1.0, "D": math.pi, "density": {"kind": kind, "n": 4096},
         "u": {"kind": "cosine"}}]}))
    proc, out = run_cli("localize", "--config", str(family))
    assert proc.returncode == 1, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {family}: ray 0: the model density")
    assert line.endswith("it leaves the float range")
    assert not (out / "summary.json").exists()


def test_check_density_pass(run_cli, fixtures_dir):
    proc, out = run_cli("check-density", str(fixtures_dir / "model_n2.csv"),
                        "--dim", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS: CD(1,2) holds on")
    r = _summary(out)["results"]
    assert r["passed"] is True
    assert r["witness"] is None
    assert r["checked"] > 0


def test_check_density_fail(run_cli, fixtures_dir):
    # slowgap_density_n2.csv is calibrated by eigenvalue solves
    # (tools/gen_fixtures.py) and must stay non-CD when they are regenerated
    for name in ("noncd_density.csv", "slowgap_density_n2.csv"):
        proc, out = run_cli("check-density", str(fixtures_dir / name), "--dim", "2")
        assert proc.returncode == 2, name
        assert proc.stdout.startswith("FAIL: CD(1,2) violated by")
        r = _summary(out)["results"]
        assert r["passed"] is False
        assert len(r["witness"]) == 3
        assert r["violation"] > 0


def test_bad_usage_exits_1(tmp_path, capsys, fixtures_dir):
    from obatalab import cli

    cases = [
        ("nonsense",),
        ("profile", "--dim", "3"),
        ("profile", "--dim", "3", "--diam", "3.0", "--v", "0.5", "--grid", "8"),
        ("check-density", str(fixtures_dir / "nosuch.csv"), "--dim", "2"),
        ("sweep", "--dim", "2", "--family", "perturbed-cosine",
         "--points", "0.1,oops"),
        ("spectrum", "--model", "--dim", "3", "--diam", "0"),
        ("spectrum", "--model", "--dim", "3", "--k", "0"),
        ("check-density", str(fixtures_dir / "model_n2.csv"), "--dim", "2",
         "--kappa", "nan"),
        ("profile", "--dim", "inf", "--diam", "2", "--v", "0.5"),
        ("spectrum", "--model", "--dim", "2", "--k", "33", "--grid", "64"),
        # spectrum takes no curvature, nor a diameter for a density file
        ("spectrum", "--model", "--dim", "2", "--kappa", "1"),
        ("spectrum", "--density", "fixtures/model_n2.csv", "--dim", "2", "--diam", "1"),
    ]
    for args in cases:
        code = cli.main(list(args) + ["--out", str(tmp_path / "out")])
        assert code == 1, args
        assert capsys.readouterr().err.strip().startswith("error:"), args


def test_help_returns_0(capsys):
    # argparse ends -h/--help with SystemExit(0); main() prints the usage and
    # returns 0, so an in-process batch goes on
    from obatalab import cli

    for args, usage in ((["-h"], "usage: obatalab "),
                        (["spectrum", "--help"], "usage: obatalab spectrum ")):
        assert cli.main(args) == 0, args
        captured = capsys.readouterr()
        assert captured.out.startswith(usage), args
        assert captured.err == "", args
    assert cli.main(["nonsense"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# in-process calls in order: k given, k left to its default, invalid usage,
# and two more subcommands on the same parser
SHARED_PARSER_CALLS = (
    ("spectrum", "--model", "--dim", "2", "--k", "3", "--grid", "256"),
    ("spectrum", "--model", "--dim", "2", "--grid", "256"),
    ("profile", "--dim", "3"),
    ("profile", "--dim", "3", "--diam", "3.0", "--v", "0.37", "--grid", "256"),
    ("localize", "--config", "fixtures/rigid.json"),
)


def test_shared_parser_matches_fresh_parsers(tmp_path, monkeypatch, capsys, fixtures_dir):
    from obatalab import cli

    monkeypatch.chdir(fixtures_dir.parent)

    def batch(side):
        runs = []
        for j, args in enumerate(SHARED_PARSER_CALLS):
            out = tmp_path / side / str(j)
            code = cli.main([*args, "--out", str(out)])
            summary = out / "summary.json"
            runs.append((code, summary.read_bytes() if summary.exists() else None))
        capsys.readouterr()
        return runs

    shared = cli._parser()
    runs = batch("shared")
    assert cli._parser() is shared
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert batch("fresh") == runs
    assert [code for code, _ in runs] == [0, 0, 1, 0, 0]
    assert runs[2][1] is None
    params = [json.loads(summary)["config"]["params"] for _, summary in runs[:2]]
    assert [p["k"] for p in params] == [3, 1]


def test_module_entry_point_subprocess(run_cli, tmp_path, fixtures_dir):
    # the one run through `python -m obatalab.cli`; the other tests call main()
    # in process, and this run's artifacts must equal theirs
    root = fixtures_dir.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "sub"
    args = ("localize", "--config", "fixtures/shortray_n2.json")
    proc = subprocess.run([sys.executable, "-m", "obatalab.cli", *args, "--out", str(out)],
                          capture_output=True, text=True, cwd=str(root), env=env)
    assert proc.returncode == 0, proc.stderr
    in_proc, out_in = run_cli(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        in_proc.returncode, in_proc.stdout, in_proc.stderr)
    for name in ("summary.json", "results.csv"):
        assert (out / name).read_bytes() == (out_in / name).read_bytes()


def test_spectrum_k_above_cap_exits_1(tmp_path, capsys):
    # refused before any solve: bisecting thousands of pairs ran for minutes
    from obatalab import cli

    code = cli.main(["spectrum", "--model", "--dim", "2", "--k", "257",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "k <= 256" in err[0]


def test_spectrum_pair_nodes_above_cap_exits_1(tmp_path, capsys):
    # 256 pairs on 2^20 cells would hold 2 GiB per n x k array; refused
    # before the solve allocates anything
    from obatalab import cli

    start = time.perf_counter()
    code = cli.main(["spectrum", "--model", "--dim", "2", "--k", "256", "--grid", "1048576",
                     "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "(grid_n + 1) k <= 33554432" in err[0]


# 2^45 cells: numpy's allocation of such a grid fails at once
_HUGE_GRID = 2 ** 45


@pytest.mark.parametrize("args", [
    ("spectrum", "--model", "--dim", "2"),
    ("obata", "--dim", "2"),
    ("sweep", "--dim", "2", "--family", "truncated-model"),
])
def test_oversized_grid_exits_1(run_cli, args):
    # the grid build used to end in numpy's _ArrayMemoryError traceback;
    # Grid.uniform refuses it before allocating, as the solver would
    proc, out = run_cli(*args, "--grid", str(_HUGE_GRID))
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"grid needs 16 to 33554432 nodes, got {_HUGE_GRID + 1}" in err[0]
    assert not (out / "results.csv").exists()


def test_ray_grid_out_of_range_exits_1(run_cli, fixtures_dir, tmp_path):
    # a ray's cell count reaches Grid.uniform unchecked: 2^45 used to end in
    # _ArrayMemoryError and -5 in np.linspace's ValueError, both tracebacks
    family = json.loads((fixtures_dir / "rigid.json").read_text())
    for n in (_HUGE_GRID, -5):
        family["rays"][0]["density"]["n"] = n
        path = tmp_path / "ray.json"
        path.write_text(json.dumps(family))
        proc, _ = run_cli("localize", "--config", path)
        assert proc.returncode == 1, n
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"grid needs 16 to 33554432 nodes, got {n + 1}" in err[0]


def test_non_finite_or_non_positive_diameter_exits_1(tmp_path, capsys):
    # an infinite diameter used to reach np.linspace, which warned before the
    # grid check refused it
    from obatalab import cli

    for diam in ("inf", "-inf", "nan", "0", "-1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["spectrum", "--model", "--dim", "2", f"--diam={diam}",
                             "--out", str(tmp_path / "out")])
        assert code == 1, diam
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (diam, err)
        assert "need 0 < D <= pi" in err[0]


def test_negative_seed_exits_1(run_cli):
    # default_rng refuses a negative seed with a ValueError; the sweep spec
    # refuses it first, as invalid input
    proc, _ = run_cli("sweep", "--dim", "2", "--family", "seeded-generated", "--seed", "-1")
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "seed must be non-negative" in err[0]


def test_check_density_pairs_out_of_range_exits_1(run_cli, fixtures_dir):
    # a negative count used to be ignored, and a huge one allocated index
    # arrays of gigabytes; both are refused before cd_check allocates
    for pairs in ("-5", "1000000000"):
        start = time.perf_counter()
        proc, _ = run_cli("check-density", fixtures_dir / "model_n2.csv", "--dim", "2",
                          "--pairs", pairs)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 1, pairs
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "sample_pairs <= 2097152" in err[0]
        assert "PASS" not in proc.stdout
    # the cap is not a tolerance of the verdict
    proc, out = run_cli("check-density", fixtures_dir / "model_n2.csv", "--dim", "2",
                        "--pairs", "100")
    assert proc.returncode == 0
    assert set(_summary(out)["tolerances"]) == {"cd_tol"}


def test_non_finite_sweep_point_exits_1(tmp_path, capsys):
    # inf used to reach the density build: numpy warned, then the sweep
    # failed with an unrelated zero-variance error
    from obatalab import cli

    for points in ("inf,0.1,0.2,0.3,0.4", "nan,0.1,0.2,0.3,0.4"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["sweep", "--dim", "2", "--family", "perturbed-cosine",
                             "--points", points, "--out", str(tmp_path / "out")])
        assert code == 1, points
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "finite and positive" in err[0]


def test_sweep_rows_at_the_deficit_floor_leave_the_constant(run_cli):
    # at s = 1e-9 and 1e-10 the perturbed cosine's delta reads -5.27e-13, the
    # roundoff floor of the deficit; delta^target of those rows used to warn
    # and make the constant growth inf, a false rate violation (exit 2). The
    # constant, like the fit, is taken over the rows with delta > 0
    proc, out = run_cli("sweep", "--dim", "2", "--family", "perturbed-cosine",
                        "--points", "0.2,0.1,0.05,1e-9,1e-10")
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    res = _summary(out)["results"]
    assert (read_csv(out / "results.csv", ("param", "delta"))["delta"] <= 0).sum() == 2
    assert res["constant_growth"] == pytest.approx(1.0, abs=1e-3)
    lo, hi = res["constant_range"]
    assert 0 < lo <= hi < 2 * lo


def test_sweep_with_one_positive_deficit_exits_1(run_cli):
    # D within 1e-9 of pi: every delta but the first is at the roundoff floor,
    # so no rate can be fitted; the delta^target of a negative delta used to
    # warn before the error
    proc, out = run_cli("sweep", "--dim", "3", "--family", "truncated-model", "--points",
                        "3.1415926535,3.14159265358,3.141592653589,3.1415926535897,"
                        "3.14159265358979")
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "two positive points" in err[0]


def test_overflowing_perturbation_names_the_float_range(run_cli):
    # s ~ 1e160 squares past the float range in standardize: it used to warn
    # (overflow, and invalid values at 1e308) and call the variance zero
    for points in ("1e160,1e161,1e162,1e163,1e164", "1e304,1e305,1e306,1e307,1e308"):
        proc, out = run_cli("sweep", "--dim", "2", "--family", "perturbed-cosine",
                            "--points", points)
        assert proc.returncode == 1, points
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "float range" in err[0] and "zero variance" not in err[0]
        assert not (out / "summary.json").exists()


def _write_samples(path, header, t, v):
    path.write_text(header + "\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, v)))
    return path


def test_non_finite_input_exits_1(run_cli, tmp_path):
    # nan in an input file is invalid input, never a mathematical verdict
    t = np.linspace(0.0, math.pi, 257)
    h = np.sin(t)
    h[100] = math.nan
    dens = _write_samples(tmp_path / "nan_h.csv", "t,h", t, h)
    u = math.sqrt(3.0) * np.cos(t)
    u[100] = math.nan
    _write_samples(tmp_path / "nan_u.csv", "t,u", t, u)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "schema": "rayfam-v1", "N": 2.0, "unspanned_mass": 0.0,
        "rays": [{"weight": 1.0, "D": math.pi,
                  "density": {"kind": "model", "n": 256},
                  "u": {"kind": "csv", "path": "nan_u.csv"}}],
    }))
    for args in (("check-density", dens, "--dim", "2"),
                 ("spectrum", "--density", dens, "--dim", "2"),
                 ("localize", "--config", fam)):
        proc, _ = run_cli(*args)
        assert proc.returncode == 1, args
        assert proc.stderr.strip().startswith("error:"), args
        assert "non-finite" in proc.stderr, args


@pytest.mark.parametrize("args, message", [
    (("spectrum", "--model", "--dim", "2", "--diam", "1e-300"), "not finite"),
    (("spectrum", "--model", "--dim", "2", "--diam", "1e-160"), "float range"),
    (("profile", "--dim", "2", "--diam", "1e-300", "--v", "0.5"), "cannot be computed"),
    (("profile", "--dim", "1e300", "--diam", "3", "--v", "0.5"), "cannot be computed"),
])
def test_out_of_float_range_exits_1(run_cli, args, message):
    # the spectrum used to end in a ValueError or LinAlgError traceback, the
    # profile in exit 0 with "value": Infinity or NaN after numpy warnings
    proc, out = run_cli(*args)
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert message in err[0]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("keys, value", [
    (("rays", 0, "weight"), math.nan),
    (("rays", 0, "a"), math.nan),
    (("unspanned_mass",), math.nan),
    (("rays", 0, "density", "n"), "abc"),
    (("rays", 0, "density", "n"), 4096.7),
    (("rays", 0, "u", "scale"), "abc"),
])
def test_malformed_ray_family_exits_1(run_cli, fixtures_dir, tmp_path, keys, value):
    # exit 2 with "nan > nan", exit 0 with NaN in the summary, or a traceback
    family = json.loads((fixtures_dir / "rigid.json").read_text())
    target = family
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(family))
    proc, _ = run_cli("localize", "--config", path)
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_zero_mass_end_node_exits_1(run_cli, tmp_path):
    # h vanishing on a whole end cell leaves a node without lumped mass
    t = np.linspace(0.0, 2.0, 65)
    h = 1.0 + t
    h[-3:] = 0.0
    dens = _write_samples(tmp_path / "end_zero.csv", "t,h", t, h)
    proc, _ = run_cli("spectrum", "--density", dens, "--dim", "2")
    assert proc.returncode == 1
    assert proc.stderr.strip().startswith("error:")
    assert "end cell" in proc.stderr and "Warning" not in proc.stderr


def test_odd_grid_exits_1(run_cli):
    for args in (("obata", "--dim", "2"),
                 ("sweep", "--dim", "2", "--family", "truncated-model")):
        proc, _ = run_cli(*args, "--grid", "4097")
        assert proc.returncode == 1, args
        assert "grid_n must be even" in proc.stderr, args


def test_summary_structure(run_cli, fixtures_dir):
    proc, out = run_cli("localize", "--config",
                        str(fixtures_dir / "rigid.json"))
    assert proc.returncode == 0
    s = _summary(out)
    assert sorted(s) == ["command", "config", "config_hash", "results",
                         "seed", "tolerances", "version"]
    assert sorted(s["config"]) == ["grid", "params", "seed"]
    assert len(s["config_hash"]) == 64
    assert int(s["config_hash"], 16) >= 0
    assert s["seed"] == 0


def test_rerun_byte_identical(run_cli, fixtures_dir):
    _, out1 = run_cli("localize", "--config",
                      str(fixtures_dir / "rigid.json"), out="a")
    _, out2 = run_cli("localize", "--config",
                      str(fixtures_dir / "rigid.json"), out="b")
    for name in ("summary.json", "results.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_rerun_identical_with_plot(run_cli):
    args = ("sweep", "--dim", "2", "--family", "perturbed-cosine",
            "--grid", "512")
    run_cli(*args, out="a")
    _, out1 = run_cli(*args, out="a")  # a second run into the same --out
    _, out2 = run_cli(*args, out="b")
    for name in ("summary.json", "results.csv", "plot.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _artifact_bytes(out):
    return {name: (out / name).read_bytes()
            for name in ("results.csv", "summary.json", "plot.svg") if (out / name).exists()}


def test_shorter_rerun_leaves_no_stale_rows(run_cli):
    args = ("sweep", "--dim", "2", "--family", "perturbed-cosine", "--grid", "512")
    run_cli(*args, "--points", "0.2,0.1,0.05,0.025,0.0125,0.00625", out="a")
    _, out = run_cli(*args, "--points", "0.2,0.1,0.05,0.025,0.0125", out="a")
    _, fresh = run_cli(*args, "--points", "0.2,0.1,0.05,0.025,0.0125", out="b")
    assert len((out / "results.csv").read_text().splitlines()) == 6
    assert _artifact_bytes(out) == _artifact_bytes(fresh)


def test_run_without_plot_removes_stale_plot(run_cli):
    _, out = run_cli("sweep", "--dim", "2", "--family", "perturbed-cosine", "--grid", "512")
    assert (out / "plot.svg").exists()
    proc, out = run_cli("spectrum", "--model", "--dim", "2", "--grid", "512")
    assert proc.returncode == 0
    assert not (out / "plot.svg").exists()


def test_non_positive_gap_keeps_verdict_and_plots_the_fitted_rows(tmp_path, fixtures_dir):
    # at N = 5.5 the diameter sweep's gap goes <= 0 (a false VIOLATED verdict,
    # ROADMAP item 1); the log-log plot of it used to end the run in exit 1,
    # and the dilated model's NaN power in a RuntimeWarning. The plot is drawn
    # over the four positive gaps that the fit used
    root = fixtures_dir.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    out.mkdir()
    (out / "plot.svg").write_text("stale")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "obatalab.cli",
                           "obata", "--dim", "5.5", "--out", str(out)],
                          capture_output=True, text=True, cwd=str(root), env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    (line,) = proc.stdout.splitlines()
    assert line.endswith("lower bound VIOLATED")
    assert (out / "summary.json").exists() and (out / "results.csv").exists()
    assert (out / "plot.svg").read_text().count("<circle ") == 4


@pytest.mark.parametrize("args, code, kept", [
    (("sweep", "--dim", "2", "--family", "perturbed-cosine",
      "--points", "0.2,0.1,0.05,1e-9,1e-10"), 0, 3),
    (("obata", "--dim", "5.5", "--points", "0.05,0.03,0.02,0.01,0.008"), 2, 4),
], ids=["sweep-delta-at-roundoff", "obata-last-gap-negative"])
def test_plot_draws_the_rows_the_fit_used(run_cli, args, code, kept):
    # a row whose delta or gap reads <= 0 at the solve's roundoff floor is left
    # out of the fit; the plot used to be skipped for it, and is now drawn
    # over the rows the fit kept, bit for bit as those rows read back
    proc, out = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert "skipped" not in proc.stdout
    x, y = ("delta", "dist_w12") if args[0] == "sweep" else ("eps", "gap")
    cols = read_csv(out / "results.csv")
    pos = (cols[x] > 0) & (cols[y] > 0)
    assert np.count_nonzero(pos) == kept < len(pos)
    fitted = {name: col[pos] for name, col in cols.items()}
    again = out / "again.svg"
    render_plot(fitted, str(again), x, y, loglog_fit(fitted[x], fitted[y]))
    assert again.read_bytes() == (out / "plot.svg").read_bytes()


def test_artifact_symlink_is_replaced_not_followed(run_cli, tmp_path):
    # an artifact path that is a symlink is replaced by a regular file; the
    # file it pointed to is left as it was
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "elsewhere.csv"
    target.write_text("keep\n")
    (out / "results.csv").symlink_to(target)
    proc, out = run_cli("spectrum", "--model", "--dim", "2", "--grid", "512")
    assert proc.returncode == 0
    assert not (out / "results.csv").is_symlink()
    assert _results_header(out) == "index,eigenvalue,richardson,residual,err_bar"
    assert target.read_text() == "keep\n"


# --------------------------------------------------------------------------
# SVG renderer


def _plot(table, path, fit=None):
    """render_plot of y against x in table, annotated with fit (by default their fit)."""
    fit = fit or loglog_fit(table["x"], table["y"])
    return render_plot(table, str(path), "x", "y", fit)


def test_render_plot_deterministic(tmp_path):
    table = {"x": [0.1, 0.2, 0.4, 0.8], "y": [0.2, 0.45, 0.9, 1.7]}
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    _plot(table, a)
    _plot(table, b)
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.startswith("<svg ")
    fit = loglog_fit(table["x"], table["y"])
    assert f"slope {fit.slope:.12g} (r2 {fit.r_squared:.6g})" in svg


def test_render_plot_two_points(tmp_path):
    out = tmp_path / "o.svg"
    _plot({"x": [1.0, 3.0], "y": [2.0, 4.0]}, out)
    assert "<polyline" in out.read_text()


def test_render_plot_errors(tmp_path):
    # a value <= 0 has no place on a log axis: nothing is written
    out = tmp_path / "o.svg"
    fit = loglog_fit([1.0, 3.0], [2.0, 4.0])
    for xs in ([-1.0, 3.0], [0.0, 3.0]):
        with pytest.raises(ConfigError, match="column 'x' has a value <= 0 for its log axis"):
            _plot({"x": xs, "y": [2.0, 4.0]}, out, fit)
    with pytest.raises(ConfigError, match="column 'y' has a value <= 0"):
        _plot({"x": [1.0, 3.0], "y": [2.0, -4.0]}, out, fit)
    assert not out.exists()


def test_render_plot_refuses_non_finite_table(tmp_path):
    # a NaN or inf cell used to be drawn at a coordinate of "nan" or "inf"
    for cell in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="column 'y' has a non-finite value"):
            _plot({"x": [1.0, 3.0], "y": [2.0, cell]}, tmp_path / "o.svg",
                  loglog_fit([1.0, 3.0], [2.0, 4.0]))


def test_plot_from_rows_matches_plot_from_written_table(run_cli):
    # the CLI plots its rows in memory with the handler's fit; the same table
    # read back from results.csv and fit again gives the same bytes
    for args, x, y in ((("sweep", "--dim", "2", "--family", "perturbed-cosine",
                         "--grid", "512"), "delta", "dist_w12"),
                       (("obata", "--dim", "2", "--grid", "256"), "eps", "gap")):
        proc, out = run_cli(*args, out=args[0])
        assert proc.returncode == 0
        cols = read_csv(out / "results.csv")
        again = out / "again.svg"
        render_plot(cols, str(again), x, y, loglog_fit(cols[x], cols[y]))
        assert again.read_bytes() == (out / "plot.svg").read_bytes()


def test_obata_without_fit_writes_artifacts_and_exits_2(run_cli):
    # at N = 5.5 and eps <= 0.01 only one gap is positive (the rest sit at the
    # solve's roundoff floor, ROADMAP item 2): there is no fit, but the
    # per-point verdict and its artifacts are written all the same
    proc, out = run_cli("obata", "--dim", "5.5", "--points", "0.01,0.008,0.006,0.005,0.004")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    first, last = proc.stdout.splitlines()
    assert first.endswith("lower bound VIOLATED")
    assert last == "plot.svg skipped: column 'gap' has a value <= 0 for its log axis"
    results = _summary(out)["results"]
    assert results["slope"] is None and results["intercept"] is None
    assert results["r_squared"] is None and results["all_hold"] is False
    assert len((out / "results.csv").read_text().splitlines()) == 6
    assert not (out / "plot.svg").exists()


def test_reported_tolerances_are_the_applied_constants(run_cli, fixtures_dir):
    # summary.json states each tolerance by the constant that its module
    # applies, never by a copy; the two literals are model_lambda1_rel, the
    # caller's check of a model lambda_1, and direction_slack, the exact
    # comparison lower <= gap
    import ast
    import inspect

    from obatalab import cli, isoperimetry, localization, obata1d, spectral

    applied = {
        "bracket_tol": (isoperimetry, "BRACKET_TOL"),
        "residual_tol": (isoperimetry, "RESIDUAL_TOL"),
        "max_pairs": (spectral, "MAX_PAIRS"),
        "fit_flag_r2": (obata1d, "FIT_FLAG_R2"),
        "deficit_guard": (obata1d, "DEFICIT_GUARD"),
        "constant_growth_limit": (obata1d, "GROWTH_LIMIT"),
        "slope_slack": (obata1d, "SLOPE_SLACK"),
        "identity_slack": (localization, "IDENTITY_SLACK"),
        "energy_identity_slack": (localization, "ENERGY_IDENTITY_SLACK"),
        "flag_factor": (localization, "FLAG_FACTOR"),
        "volume_slack": (localization, "VOLUME_SLACK"),
        "cd_tol": (cli, "CD_TOL"),
    }
    literals = {"model_lambda1_rel": 1e-5, "direction_slack": 0.0}
    runs = [("profile", "--dim", "3", "--diam", "3.0", "--v", "0.37"),
            ("spectrum", "--model", "--dim", "2", "--grid", "256"),
            ("obata", "--dim", "2", "--grid", "256"),
            ("sweep", "--dim", "2", "--family", "perturbed-cosine", "--grid", "512"),
            ("localize", "--config", fixtures_dir / "rigid.json"),
            ("check-density", fixtures_dir / "model_n2.csv", "--dim", "2")]
    seen = set()
    for i, argv in enumerate(runs):
        proc, out = run_cli(*argv, out=f"out{i}")
        assert proc.returncode == 0, (argv, proc.stderr)
        for key, value in _summary(out)["tolerances"].items():
            if key in literals:
                assert value == literals[key]
            else:
                module, name = applied[key]
                assert value == getattr(module, name), key
            seen.add(key)
    assert seen == set(applied) | set(literals)
    # cli's tolerance dicts name the constants, and each is read where it is
    # applied; RESIDUAL_TOL is the bound solve_R guarantees, which the
    # isoperimetry tests check
    stated = {}
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.keyword) and node.arg == "tolerances":
            stated.update(zip((k.value for k in node.value.keys), node.value.values))
    assert sorted(k for k, v in stated.items() if isinstance(v, ast.Constant)) == sorted(literals)
    for key, (module, name) in applied.items():
        assert getattr(stated[key], "id", None) == name, key
        if name == "RESIDUAL_TOL":
            continue
        reads = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load)]
        assert reads, name
