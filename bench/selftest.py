"""Self-tests of the benchmark, at tiny sizes. Run from the repository root:

    python3 bench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that work counts repeat exactly between two traced
runs on one seed; that the correctness gate trips on a corrupted artifact,
a wrong exit code and a changed result; and that the benchmark refuses to
run in a directory holding only itself.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
    return json.loads(lines[-1]), report


def test_metrics_printed():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, report = last_json(run_bench(workload, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
            assert line["correct"] is True, (workload, trace, report["failures"])
            assert line["failed"] == 0 and line["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, v in line["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            if trace == 0:
                assert all(v["value"] > 0 for v in line["metrics"].values()), line
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def test_counts_repeat():
    for workload in WORKLOADS:
        _, first = last_json(run_bench(workload, 1, seed=5))
        _, second = last_json(run_bench(workload, 1, seed=5))
        assert first["counts_repeat"] and second["counts_repeat"]
        assert first["exact_counts"] == second["exact_counts"], workload
        print(f"ok  {workload}: work counts repeat across runs {first['exact_counts']}")


def test_gate_trips():
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    import workload as wl

    cwd = os.getcwd()
    os.chdir(ROOT)
    os.makedirs(".bench_work", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="gate-", dir=".bench_work")
    try:
        frozen = wl.frozen_oracles(os.path.join("tests", "oracles", "frozen.txt"))
        jobs = wl.build_jobs("cli-batch", 7, "tiny", frozen, tmp)
        runner = wl.Runner(jobs)
        runner.run_pass()
        assert runner.failures == [], runner.failures
        job = next(j for j in jobs if j.name == "spectrum-model-n2")
        assert wl.check_job(job, 0, None) is None
        with open(os.path.join(job.out, "summary.json"), "a") as fh:
            fh.write(" ")
        failure = wl.check_job(job, 0, None)
        assert failure is not None and "differs from the first pass" in failure, failure
        assert "recorded verdict" in wl.check_job(job, 2, None)
        assert "raised" in wl.check_job(job, None, RuntimeError("boom"))

        api = wl.build_jobs("profile-scan", 7, "tiny", frozen, tmp)
        bbg = next(j for j in api if j.name == "bbg-constant")
        assert wl.check_job(bbg, 0, 1.000248758148393) is None
        assert "differs from the first pass" in wl.check_job(bbg, 0, 1.0002487581484)
        bbg.first = None
        assert "bbg_constant" in wl.check_job(bbg, 0, 1.0002487581484)
        print("ok  gate trips on a corrupted artifact, a wrong exit code, a raise "
              "and a changed result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.chdir(cwd)


def test_refuses_bare_directory():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], 0, cwd=tmp, run=os.path.join(tmp, "bench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout
        print("ok  refuses to run without the obatalab sources")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    test_refuses_bare_directory()
    test_gate_trips()
    test_metrics_printed()
    test_counts_repeat()
    print("all benchmark self-tests passed")
