"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 bench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1] \
        [--seconds T] [--out PATH] [--traced]

Runs bench/run.py once per seed and workload with tracing off, then prints,
per workload and end-to-end metric, the median of the per-run values and
their spread: (q3 - q1) / median with statistics.quantiles(values, n=4),
and the quartiles and high percentile of wall_s over every pass of every run.
A spread above a third of the metric's bound in BENCHMARK.json is marked.
With --out it also writes the medians, spreads and environment as JSON;
--traced adds one traced run per workload (per-layer metrics) to that record.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

from run import summarize

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    def run(workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
        return json.loads(lines[-1]), report

    record = {"run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            last, report = run(workload, seed, 0)
            ok = ok and last["correct"]
            runs.append((seed, last, report))
            print(f"{workload} seed={seed} correct={last['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        entry = {"env": runs[0][2]["env"], "seeds": [s for s, _, _ in runs], "metrics": {}}
        for m in spec["end_to_end"]:
            values = [last["metrics"][m["name"]]["value"] for _, last, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            mark = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:<13} {m['name']:<12} median={med:.6g} {m['unit']} "
                  f"spread={spread:.4f} bound={m['bound']}{mark}")
            entry["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "unit": m["unit"],
                                           "values": values}
        pooled = summarize([x for _, _, r in runs for x in r["wall_samples"]])
        high = pooled["high"]
        print(f"  {workload:<13} wall_s over all {pooled['n']} passes: "
              f"median={pooled['median']:.6g} q1={pooled['q1']:.6g} q3={pooled['q3']:.6g} "
              + (f"p{high['p']:g}={high['value']:.6g}" if high else "p-high=n/a"))
        entry["wall_s_passes"] = pooled
        accuracy = {}
        for key in ("lambda1_relerr", "profile_resid_max"):
            vals = [r["accuracy"][key] for _, _, r in runs if r["accuracy"][key] is not None]
            if vals:
                accuracy[key] = {"median": statistics.median(vals), "max": max(vals)}
        entry["accuracy"] = accuracy
        entry["fail_frac"] = sum(r["failed"] for _, _, r in runs) / sum(
            r["attempted"] for _, _, r in runs)
        if args.traced:
            last, report = run(workload, args.first_seed, 1)
            ok = ok and last["correct"]
            entry["traced"] = {"seed": args.first_seed,
                               "exact_counts": report["exact_counts"],
                               "per_layer": {k: v["value"] for k, v in last["metrics"].items()}}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
