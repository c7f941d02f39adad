import contextlib
import io
import pathlib
import subprocess
import sys
import traceback
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def fixtures_dir():
    return ROOT / "fixtures"


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@pytest.fixture()
def run_cli(tmp_path, monkeypatch):
    """Run the obatalab CLI in process from the repo root, artifacts under tmp_path.

    The result carries what `python -m obatalab.cli` would give: the exit
    code, stdout, and stderr with every warning printed where it was raised
    and, for an uncaught exception, its traceback and exit code 1.
    """
    from obatalab import cli

    monkeypatch.chdir(ROOT)

    def run(*args, out=None):
        out = tmp_path / (out or "out")
        argv = [*[str(a) for a in args], "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        proc = subprocess.CompletedProcess(["obatalab", *argv], code,
                                           stdout.getvalue(), stderr.getvalue())
        return proc, out

    return run
