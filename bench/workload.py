"""One benchmark workload, run in its own process.

    python3 bench/workload.py --workload NAME --seed N --seconds T --trace 0|1 \
        --work DIR --result PATH [--size full|tiny]

Builds the workload's job list from the seed, runs one untimed warm-up pass
and then timed passes for T seconds, checks every job on every pass, and
writes a JSON result to PATH. Started by bench/run.py, which sets the thread
environment before this interpreter loads numpy.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

ARTIFACTS = ("summary.json", "results.csv", "plot.svg")
WORKLOADS = ("sweep-large", "profile-scan", "cli-batch")
MODEL_LAMBDA1_REL = 1e-5  # the `model_lambda1_rel` tolerance spectrum writes
SPEED_REF_S = 0.0025      # SpeedProbe.sample() seconds at the reference speed


@dataclass
class Job:
    """One call into obatalab: a CLI argv (cli is True) or a Python callable."""

    name: str
    call: object                 # argv list, or a zero-argument callable
    expect: int = 0              # recorded exit code (CLI jobs)
    oracle: object = None        # result -> error string or None
    cli: bool = True
    query: tuple = None          # (N, D, v) of a profile job
    out: str = None              # artifact directory (CLI jobs)
    first: object = field(default=None, repr=False)  # fingerprint of pass 1


# ---------------------------------------------------------------------------
# oracles


def frozen_oracles(path):
    """(value, tolerance) pairs from tests/oracles/frozen.txt, one unit in the
    last printed digit."""
    text = open(path).read()

    def parse(pattern):
        m = re.search(pattern, text)
        if m is None:
            raise SystemExit(f"{path}: no line matches {pattern!r}")
        digits = m.group("val")
        decimals = len(digits.split(".")[1]) if "." in digits else 0
        return float(digits), 10.0 ** -decimals

    num = r"(?P<val>[0-9]+\.[0-9]+)"
    return {
        "profile_3_3.0_0.37": parse(r"profile\(N=3, D=3\.0, v=0\.37\) dense = " + num),
        "bbg_constant_3_2.9": parse(r"bbg_constant\(N=3, D=2\.9\) = " + num),
    }


def near(name, got, want, tol):
    if not abs(got - want) <= tol:
        return f"{name}: {got!r} differs from {want!r} by more than {tol:g}"
    return None


def model_lambda1(N):
    def check(summary):
        lam = summary["results"]["lambda1"]
        if not abs(lam - N) <= MODEL_LAMBDA1_REL * N:
            return f"model lambda1 {lam!r} not within {MODEL_LAMBDA1_REL:g} of N={N:g}"
        return None
    return check


# ---------------------------------------------------------------------------
# job lists


def _points(values):
    return ",".join("%.17g" % v for v in values)


def build_jobs(workload, seed, size, frozen, work):
    """The workload's job list; inputs come only from `seed`. CLI jobs write
    their artifacts under `work`."""
    import numpy as np
    from obatalab import isoperimetry as iso

    rng = np.random.default_rng(seed)
    tiny = size == "tiny"
    jobs = []

    def cli(name, argv, expect=0, oracle=None, query=None):
        jobs.append(Job(name, argv, expect, oracle, query=query,
                        out=os.path.join(work, name)))

    def api(name, fn, oracle=None, query=None):
        jobs.append(Job(name, fn, 0, oracle, cli=False, query=query))

    frozen_profile, profile_tol = frozen["profile_3_3.0_0.37"]
    profile_oracle = lambda s: near(  # noqa: E731
        "profile(3, 3.0, 0.37)", s["results"]["value"], frozen_profile, profile_tol)

    if workload == "sweep-large":
        g_sweep = str(2 ** 10 if tiny else 2 ** 16)
        g_spec = str(2 ** 12 if tiny else 2 ** 20)
        eps = sorted(2.0 ** -k * rng.uniform(0.93, 1.07) for k in range(3, 8))
        diam = sorted(math.pi - 0.3 * 0.8 ** j * rng.uniform(0.95, 1.05) for j in range(5))
        scale = sorted(s * rng.uniform(0.95, 1.05) for s in (0.2, 0.1, 0.05, 0.025, 0.0125))
        cli("obata-n3", ["obata", "--dim", "3", "--points", _points(eps), "--grid", g_sweep])
        cli("sweep-truncated-n3", ["sweep", "--dim", "3", "--family", "truncated-model",
                                   "--points", _points(diam), "--grid", g_sweep])
        cli("sweep-perturbed-n3", ["sweep", "--dim", "3", "--family", "perturbed-cosine",
                                   "--points", _points(scale), "--grid", g_sweep])
        cli("spectrum-model-n3-k2", ["spectrum", "--model", "--dim", "3", "--k", "2",
                                     "--grid", g_spec], oracle=model_lambda1(3.0))

    elif workload == "profile-scan":
        n_scan = 17 if tiny else 129
        for N in (2.0, 3.0):
            D = float(rng.uniform(2.0, 3.0))
            v = float(rng.uniform(0.2, 0.8))
            q = iso.ProfileQuery(N, D, v)
            api(f"profile-n{N:g}", lambda q=q: iso.profile(q, n_scan=n_scan),
                query=(N, D, v))
        q = iso.ProfileQuery(3.0, 3.0, 0.37)
        api("profile-frozen", lambda: iso.profile(q, n_scan=n_scan),
            None if tiny else lambda r: near("profile(3, 3.0, 0.37)", r.value,
                                              frozen_profile, profile_tol),
            query=(3.0, 3.0, 0.37))
        v_pi = float(rng.uniform(0.1, 0.9))
        q_pi = iso.ProfileQuery(2.0, math.pi, v_pi)
        api("profile-closed-form", lambda: iso.profile(q_pi),
            lambda r: near("I_2(v)", r.value, math.sqrt(v_pi * (1.0 - v_pi)), 1e-10),
            query=(2.0, math.pi, v_pi))
        bbg, bbg_tol = frozen["bbg_constant_3_2.9"]
        api("bbg-constant", lambda: iso.bbg_constant(3.0, 2.9),
            lambda r: near("bbg_constant(3, 2.9)", r, bbg, bbg_tol))
        if not tiny:
            v_bbg = [float(rng.uniform(0.2, 0.8))]
            api("bbg-ratio", lambda: iso.bbg_ratio_check(3.0, 2.9, v_bbg),
                lambda r: None if r >= -1e-7 else f"bbg ratio margin {r!r} < -1e-7")
        v_ode = sorted(rng.uniform(0.1, 0.9, 9))
        api("ode-residual", lambda: iso.profile_ode_residual(3.0, v_ode),
            lambda r: None if r.max_residual <= 1e-4
            else f"ODE residual {r.max_residual!r} > 1e-4")
        Ds = [math.pi - e for e in (1e-2, 5e-3, 2e-3, 1e-3)]
        api("asymptotic", lambda: iso.asymptotic_constant(3.0, Ds),
            lambda r: near("asymptotic limit", r.limit, r.target, 1e-6 * r.target))

    elif workload == "cli-batch":
        grid = ["--grid", "512"] if tiny else []
        cli_seed = str(int(rng.integers(0, 2 ** 31)))
        diam = sorted(math.pi - 0.3 * 0.8 ** j * rng.uniform(0.95, 1.05) for j in range(5))
        scale = sorted(s * rng.uniform(0.95, 1.05) for s in (0.2, 0.1, 0.05, 0.025, 0.0125))
        for N in (2, 3):
            cli(f"spectrum-model-n{N}", ["spectrum", "--model", "--dim", str(N)] + grid,
                oracle=None if tiny else model_lambda1(float(N)))
        cli("spectrum-density", ["spectrum", "--density", "fixtures/model_n2.csv", "--dim", "2"])
        cli("profile", ["profile", "--dim", "3", "--diam", "3.0", "--v", "0.37"] + grid,
            oracle=profile_oracle, query=(3.0, 3.0, 0.37))
        for N in (2, 3):
            cli(f"obata-n{N}", ["obata", "--dim", str(N)] + grid)
        sweep = ["sweep", "--dim", "2", "--seed", cli_seed] + grid
        cli("sweep-truncated", sweep + ["--family", "truncated-model", "--points", _points(diam)])
        cli("sweep-perturbed", sweep + ["--family", "perturbed-cosine", "--points", _points(scale)])
        cli("sweep-seeded", sweep + ["--family", "seeded-generated"])
        for fixture, expect in (("rigid.json", 0), ("shortray_n2.json", 0),
                                ("unspanned_bad_n2.json", 2), ("noncd_length.json", 2)):
            cli("localize-" + fixture.split(".")[0],
                ["localize", "--config", "fixtures/" + fixture], expect)
        for fixture, expect in (("model_n2.csv", 0), ("noncd_density.csv", 2),
                                ("slowgap_density_n2.csv", 2)):
            cli("check-density-" + fixture.split(".")[0],
                ["check-density", "fixtures/" + fixture, "--dim", "2"], expect)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# running and checking


def run_job(job):
    """Run one job; returns (exit code or None, value or exception)."""
    from obatalab import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if job.cli:
                return cli.main(list(job.call) + ["--out", job.out]), None
            return 0, job.call()
    except Exception as exc:  # a raising job is a failed job, not a dead run
        return None, exc


def fingerprint(job, value):
    if not job.cli:
        return repr(value)
    prints = {}
    for name in ARTIFACTS:
        path = os.path.join(job.out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                prints[name] = hashlib.sha256(fh.read()).hexdigest()
    return prints


def check_job(job, code, value):
    """The correctness gate for one run of a job; returns a failure or None."""
    if code is None:
        return f"{job.name}: raised {value!r}"
    if code != job.expect:
        return f"{job.name}: exit {code}, recorded verdict {job.expect}"
    prints = fingerprint(job, value)
    if job.first is None:
        job.first = prints
    elif prints != job.first:
        return f"{job.name}: output differs from the first pass"
    if job.oracle is not None:
        if job.cli:
            with open(os.path.join(job.out, "summary.json")) as fh:
                value = json.load(fh)
        return job.oracle(value)
    return None


class SpeedProbe:
    """Times a fixed mix of interpreter and numpy work.

    The host's speed drifts by tens of percent over seconds (shared cores,
    clock changes). A pass's timings divided by the median probe time taken
    between its jobs, times SPEED_REF_S, read as seconds at a fixed reference
    speed; the probe runs between jobs, never inside them.
    """

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).random(60000)

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        self._data.copy().sort()
        return time.perf_counter() - t0

    def speed(self, samples):
        """Host speed factor (>1 is slower than the reference) of `samples`."""
        return statistics.median(samples) / SPEED_REF_S


class Runner:
    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.values = {}  # job name -> value of the first pass
        self.probe = SpeedProbe()

    def run_pass(self):
        """One pass over the job list; returns the seconds spent inside jobs
        and the host speed factor measured between them."""
        busy = 0.0
        probes = []
        for job in self.jobs:
            probes += [self.probe.sample(), self.probe.sample()]
            t0 = time.perf_counter()
            code, value = run_job(job)
            busy += time.perf_counter() - t0
            self.attempted += 1
            self.values.setdefault(job.name, value)
            failure = check_job(job, code, value)
            if failure is not None:
                self.failures.append(failure)
        probes += [self.probe.sample(), self.probe.sample()]
        return busy, self.probe.speed(probes)


# ---------------------------------------------------------------------------
# accuracy figures, computed outside the timed passes


def _summary(job):
    path = os.path.join(job.out, "summary.json")
    if not os.path.exists(path):  # a failed job; the gate has counted it
        return None
    with open(path) as fh:
        return json.load(fh)["results"]


def lambda1_relerr(jobs):
    """Worst |lambda1 - N| / N over the `spectrum --model` jobs."""
    worst = None
    for job in jobs:
        if job.cli and job.call[0] == "spectrum" and "--model" in job.call:
            res = _summary(job)
            if res is None:
                continue
            N = float(job.call[job.call.index("--dim") + 1])
            lam = res["lambda1"]
            err = abs(lam - N) / N
            worst = err if worst is None else max(worst, err)
    return worst


def _split_residual(N, b, hi, v, R):
    """|int_b^R sin^{N-1} - v int_b^hi sin^{N-1}| / rhs, in 40-digit mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        f = lambda x: mp.power(abs(mp.sin(x)), N - 1)  # noqa: E731
        rhs = v * mp.quad(f, [b, hi])
        return float(abs(mp.quad(f, [b, R]) - rhs) / rhs)


def profile_resid_max(jobs, values):
    """Worst relative split residual of R_at_argmin over the profile jobs."""
    worst = None
    for job in jobs:
        if job.query is None:
            continue
        N, D, v = job.query
        if job.cli:
            res = _summary(job)
            if res is None:
                continue
            b, R = res["argmin_b"], res["R"]
        elif isinstance(values[job.name], Exception):
            continue
        else:
            b, R = values[job.name].argmin_b, values[job.name].R_at_argmin
        # solve_R brackets [b, b + D] with b + D rounded to double
        err = _split_residual(N, b, b + D, v, R)
        worst = err if worst is None else max(worst, err)
    return worst


# ---------------------------------------------------------------------------


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OBATALAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory for artifacts")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    args = ap.parse_args(argv)

    import obatalab

    src = os.path.realpath(os.path.join("src", "obatalab"))
    if os.path.dirname(os.path.realpath(obatalab.__file__)) != src:
        raise SystemExit(f"obatalab imported from {obatalab.__file__}, not {src}")

    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    frozen = frozen_oracles(os.path.join("tests", "oracles", "frozen.txt"))
    jobs = build_jobs(args.workload, args.seed, args.size, frozen, args.work)
    runner = Runner(jobs)
    runner.run_pass()  # warm-up: fills caches, records first-pass outputs

    wall, raw, speed, traced, layers, counts = [], [], [], [], [], []
    tracer = None
    if args.trace:
        from spans import Tracer  # bench/spans.py, next to this file

        tracer = Tracer()
    # The probe runs on one thread and does not track passes that run on a
    # worker pool: over 5 runs of sweep-large (2 threads) the quartile spread
    # was 0.04 unscaled and 0.11 scaled. Such passes are reported unscaled.
    scaled = os.environ.get("OBATALAB_THREADS", "1") == "1"
    start = time.perf_counter()
    deadline = start + args.seconds
    min_passes = 2 if args.trace else 3
    # stop before a round that would end past the deadline
    while len(wall) < min_passes or (
            time.perf_counter() + (time.perf_counter() - start) / len(wall) <= deadline):
        busy, factor = runner.run_pass()
        speed.append(factor)
        factor = factor if scaled else 1.0
        wall.append(busy / factor)
        raw.append(busy)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                busy, factor = runner.run_pass()
            finally:
                tracer.uninstall()
            factor = factor if scaled else 1.0
            traced.append(busy / factor)
            layers.append(tracer.layer_metrics(speed=factor))
            counts.append(tracer.exact_counts())
        if args.size == "tiny" and len(wall) >= 2:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write_spans(os.path.join(args.work, "spans.csv"))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "env": environment(),
        "jobs": [j.name for j in jobs],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "wall_s": wall,
        "wall_raw_s": raw,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "lambda1_relerr": lambda1_relerr(jobs),
        "profile_resid_max": profile_resid_max(jobs, runner.values),
    }
    if tracer is not None:
        result["traced_wall_s"] = traced
        result["layers"] = layers
        result["exact_counts"] = counts
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
