"""The shipped scripts run: fixture generator and demo."""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_gen_fixtures_reproduces_committed_fixtures(tmp_path):
    # the generator writes under its own root, so a copy regenerates into tmp
    tools = tmp_path / "tools"
    tools.mkdir()
    shutil.copy(os.path.join(ROOT, "tools", "gen_fixtures.py"), tools)
    subprocess.run([sys.executable, str(tools / "gen_fixtures.py")],
                   capture_output=True, text=True, env=_env(), check=True)
    committed = os.path.join(ROOT, "fixtures")
    generated = tmp_path / "fixtures"
    assert sorted(os.listdir(generated)) == sorted(os.listdir(committed))
    for name in os.listdir(generated):
        with open(generated / name, "rb") as fh, open(os.path.join(committed, name), "rb") as ref:
            assert fh.read() == ref.read(), name


def test_rigidity_walkthrough_demo_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "rigidity_walkthrough.py"),
         "--grid", "256"],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "W12 dist" in proc.stdout
