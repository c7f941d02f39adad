"""obatalab benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload sweep-large|profile-scan|cli-batch|all \
        --seed N --seconds T --trace 0|1 [--size full|tiny]

With --trace 0 it measures the end-to-end metrics (set-up time in fresh
interpreters, median pass wall time, peak RSS of the workload process) and
runs the correctness gate. With --trace 1 it reports the per-layer metrics
from a run with spans installed, the `-X importtime` breakdown and the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 without that line when the
checkout is incomplete or the workload process fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS, SpeedProbe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
THREADS = {"sweep-large": 2, "profile-scan": 1, "cli-batch": 1}
SETUP_SAMPLES = 3  # before the workload process, and as many again after it
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
REQUIRED = (
    os.path.join("src", "obatalab", "cli.py"),
    os.path.join("tests", "oracles", "frozen.txt"),
    os.path.join("fixtures", "model_n2.csv"),
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(workload):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OBATALAB_THREADS"] = str(THREADS[workload])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, timeout=60):
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def setup_samples(env, n):
    """Wall seconds of fresh interpreters through `import obatalab.cli`, raw
    and at the reference speed of the probe run around each one."""
    probe = SpeedProbe()
    cmd = [sys.executable, "-c", "import obatalab.cli"]
    raw, scaled = [], []
    for _ in range(n):
        probes = [probe.sample() for _ in range(3)]
        t0 = time.perf_counter()
        _run(cmd, env)
        raw.append(time.perf_counter() - t0)
        probes += [probe.sample() for _ in range(3)]
        scaled.append(raw[-1] / probe.speed(probes))
    return raw, scaled


def import_breakdown(env, n):
    """Median `-X importtime` totals, in seconds, over n fresh interpreters."""
    totals, integrate = [], []
    for _ in range(n):
        err = _run([sys.executable, "-X", "importtime", "-c", "import obatalab.cli"], env).stderr
        total = scipy_integrate = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not name[1:].startswith(" "):  # top-level import
                total += int(cumulative)
            if name.strip() == "scipy.integrate" and not scipy_integrate:
                scipy_integrate = int(cumulative)
        totals.append(total / 1e6)
        integrate.append(scipy_integrate / 1e6)
    return statistics.median(totals), statistics.median(integrate)


def summarize(values):
    """Median, quartiles, the highest percentile with >= 10 samples beyond it,
    and the sample count."""
    s = sorted(values)
    n = len(s)
    q1, q3 = statistics.quantiles(s, n=4)[::2] if n >= 2 else (s[0], s[0])
    high = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            high = {"p": p, "value": statistics.quantiles(s, n=1000)[round(p * 10) - 1]}
            break
    return {"median": statistics.median(s), "q1": q1, "q3": q3, "high": high, "n": n}


def run_workload(workload, seed, seconds, trace, size):
    env = child_env(workload)
    work = os.path.join(".bench_work", workload)
    result_path = os.path.join(".bench_work", f"{workload}.result.json")
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)

    n_setup = 1 if size == "tiny" else SETUP_SAMPLES
    setup_raw = setup = None
    if not trace:
        _run([sys.executable, "-c", "import obatalab.cli"], env)  # untimed: writes bytecode
        setup_raw, setup = setup_samples(env, n_setup)
    imports = import_breakdown(env, 1 if size == "tiny" else IMPORT_SAMPLES) if trace else None

    cmd = [sys.executable, os.path.join(BENCH, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--work", work, "--result", result_path]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: workload process exited {proc.returncode}")
    with open(os.path.join(ROOT, result_path)) as fh:
        res = json.load(fh)
    if not trace:  # a second batch half a minute later averages slow host drift
        more_raw, more = setup_samples(env, n_setup)
        setup_raw += more_raw
        setup += more

    spec = load_spec()
    report = {
        "workload": workload, "seed": seed, "trace": trace, "size": size,
        "env": res["env"], "jobs": res["jobs"],
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    metrics = {}
    if not trace:
        values = {
            "setup_s": summarize(setup),
            "wall_s": summarize(res["wall_s"]),
            "peak_rss_mb": summarize([res["peak_rss_mb"]]),
        }
        raw = {"setup_s": summarize(setup_raw), "wall_s": summarize(res["wall_raw_s"]),
               "speed": summarize(res["speed"])}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]]["median"], "unit": m["unit"]}
        report["end_to_end"] = {k: dict(v, unit=metrics[k]["unit"]) for k, v in values.items()}
        report["wall_samples"] = res["wall_s"]
        report["unscaled"] = {k: dict(v, unit="1" if k == "speed" else "s")
                              for k, v in raw.items()}
        report["accuracy"] = {
            "lambda1_relerr": res["lambda1_relerr"],
            "profile_resid_max": res["profile_resid_max"],
        }
        correct = res["failed"] == 0
    else:
        layers = {}
        for name in res["layers"][0]:
            layers[name] = statistics.median(p[name] for p in res["layers"])
        layers["import.total_s"], layers["import.scipy_integrate_s"] = imports
        untraced = statistics.median(res["wall_s"])
        traced = statistics.median(res["traced_wall_s"])
        layers["trace.wall_untraced_s"] = untraced
        layers["trace.wall_traced_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        counts = res["exact_counts"]
        repeat = all(c == counts[0] for c in counts)
        report["exact_counts"] = counts[0]
        report["counts_repeat"] = repeat
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        correct = res["failed"] == 0 and repeat
    return correct, report, metrics


def print_stat(name, v):
    high = f"p{v['high']['p']:g}={v['high']['value']:.6g}" if v["high"] else "p-high=n/a"
    print(f"   {name:<22} median={v['median']:.6g} {v['unit']}  q1={v['q1']:.6g} "
          f"q3={v['q3']:.6g}  {high}  n={v['n']}")


def print_report(report, metrics):
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"jobs={len(report['jobs'])} attempted={report['attempted']} "
          f"failed={report['failed']} fail_frac={report['fail_frac']:.3g}")
    env = report["env"]
    print(f"   python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} threads {env['threads']}")
    for name, v in report.get("end_to_end", {}).items():
        print_stat(name, v)
    for name, v in report.get("unscaled", {}).items():
        print_stat(name + " (unscaled)" if name != "speed" else "host speed", v)
    for name, v in report.get("accuracy", {}).items():
        shown = "n/a (no such job)" if v is None else f"{v:.6g}"
        print(f"   {name:<22} {shown}")
    if "counts_repeat" in report:
        for name, v in metrics.items():
            print(f"   {name:<45} {v['value']:.6g} {v['unit']}")
        print(f"   work counts repeat exactly across traced passes: {report['counts_repeat']}")
    for failure in report["failures"]:
        print(f"   FAIL {failure}")
    print("report " + json.dumps(report, sort_keys=True))


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before the speed probe loads numpy here
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED + ("BENCHMARK.json",)
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not an obatalab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 1

    try:
        runs = [run_workload(w, args.seed, args.seconds, args.trace, args.size)
                for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    except subprocess.SubprocessError as exc:
        print(f"benchmark subprocess failed: {exc}", file=sys.stderr)
        return 1
    for _, report, metrics in runs:
        print_report(report, metrics)
    if args.workload == "all":
        line = {r["workload"]: {"correct": c, "attempted": r["attempted"],
                                "failed": r["failed"], "metrics": m}
                for c, r, m in runs}
    else:
        correct, report, metrics = runs[0]
        line = {"correct": correct, "attempted": report["attempted"],
                "failed": report["failed"], "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
