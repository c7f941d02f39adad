"""One implementation per idea: the derivative stencils and the m-integral
live in measures, and every other module calls them from there; the CD
density generator has one solution path, the exact piecewise rotation, and
the isoperimetric profile one search, the lane-batched bracket refinement.
The localization chain is written once, in localization.localize, and its
deficit ledger is frozen. The Neumann solve bisects in one place, the base
and fallback solve of the nested refinement, and reaches a grid from its
base in two refined levels, not by recursion. The discrete Rayleigh quotient
is written once, spectral._flux_quotient, and both the eigenvalues and
rayleigh() take it. A refined level holds no arrays of its own: its flux and
mass are formed per block from the nodes and densities, by the one assembly,
spectral._assemble. CSV input, density files, ray samples and plotted
tables alike, is parsed by one function, measures.read_csv, and every
artifact is written by one, measures.replace_file. The Richardson
step is written once, measures.extrapolate, and so are the rules 1 < N < inf
and 0 < D <= pi, measures.require_dimension and measures.require_diameter,
which every validator of N or D calls. The CLI starts
without the SciPy submodules that none of its commands use, and builds its
argument parser once per process, on the first main() call."""
import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "obatalab"

# Importing any of these costs 0.1-0.4 s per CLI start, and no command needs them
LAZY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse")


def _hits(paths, pattern):
    """name:line of every line of the files that matches pattern."""
    return [
        f"{path.name}:{i}"
        for path in paths
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_stencils_and_quadrature_only_in_measures():
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "measures.py"]
    assert len(others) >= 7
    assert _hits(others, re.compile(r"np\.(gradient|trapezoid)\(")) == []


def test_generator_has_no_step_integrator():
    text = (SRC / "measures.py").read_text()
    assert "_rk4" not in text
    assert "def _rotation_flow(" in text


def test_cli_import_skips_unused_scipy_submodules():
    # a fresh interpreter, because the test session itself imports SciPy freely;
    # green_apply then loads scipy.interpolate on first use and still works
    script = f"""
import json, sys
import numpy as np
import obatalab.cli
loaded = [m for m in {LAZY_SCIPY!r} if m in sys.modules]
from obatalab.measures import Grid, model_density
from obatalab.spectral import green_apply
w = model_density(2.0, Grid.uniform(np.pi, 512))
res = green_apply(w, np.cos(2.0 * w.grid.nodes))
print(json.dumps({{"loaded": loaded, "residual": res.residual}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["residual"] < 1e-4


def test_cli_builds_one_parser_per_process():
    # a fresh interpreter, because the test session has built the parser already;
    # one build is 7 parsers, the top level and one per subcommand
    script = """
import argparse, json
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import obatalab.cli as cli
at_import = list(made)
codes = [cli.main(["nonsense"]), cli.main(["profile", "--dim", "3"])]
print(json.dumps({"at_import": at_import, "made": made, "codes": codes}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    out = json.loads(proc.stdout)
    assert out["at_import"] == []
    assert out["made"] == ["_Parser"] * 7
    assert out["codes"] == [1, 1]


def test_profile_has_one_search_path():
    text = (SRC / "isoperimetry.py").read_text()
    assert "INV_PHI" not in text
    assert "def _profile_lanes(" in text


def test_deficit_ledger_is_a_frozen_triple():
    from obatalab.localization import DeficitLedger

    assert DeficitLedger.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(DeficitLedger)] == ["delta", "c", "delta_q"]


def test_localization_chain_lives_in_localize():
    callers = (SRC / "cli.py", ROOT / "tools" / "gen_fixtures.py",
               ROOT / "tests" / "test_acceptance.py")
    stage_call = re.compile(r"\b(select_long_rays|variance_bound|assemble_main)\(")
    assert _hits(callers, stage_call) == []
    # the stages hand the signed c over in reports, never through the ledger
    files = [path for top in ("src", "tests", "tools")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) >= 15
    assert _hits(files, re.compile(r"\.c\s*=(?!=)")) == []


def test_bisection_only_in_the_base_solve():
    # every other grid is reached from that solve by nested refinement
    paths = sorted(SRC.glob("*.py"))
    assert len(_hits(paths, re.compile(r"eigh_tridiagonal\("))) == 1
    callers = [f"{path.stem}.{fn.name}"
               for path in paths
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "eigh_tridiagonal"]
    assert callers == ["spectral._solve_tridiagonal"]


def _functions(path):
    """name -> (source, names called) of each top-level function of path."""
    text = path.read_text()
    lines = text.splitlines()
    return {fn.name: ("\n".join(lines[fn.lineno - 1:fn.end_lineno]),
                      {getattr(node.func, "id", "") for node in ast.walk(fn)
                       if isinstance(node, ast.Call)})
            for fn in ast.parse(text).body if isinstance(fn, ast.FunctionDef)}


def test_nested_solve_is_two_levels_not_a_recursion():
    # _eigenpairs reaches a grid from its base through the half grid, in a
    # loop; it never calls itself (neumann_eigs calls it for the half grid
    # of a grid solved directly)
    calls = _functions(SRC / "spectral.py")["_eigenpairs"][1]
    assert "_eigenpairs" not in calls
    assert {"_prolong", "_refine", "_direct"} <= calls


def test_one_rayleigh_quotient():
    # the flux energy sum f (u_{i+1} - u_i)^2 is written once, in
    # spectral._flux_quotient; the solver's eigenvalues (_finish) and the
    # free-standing rayleigh() both take their quotient from it
    flux_energy = re.compile(r"\bf \* (du|np\.diff\()|np\.multiply\(f, du\b")
    writers = [f"{path.stem}.{name}"
               for path in sorted(SRC.glob("*.py"))
               for name, (source, _) in _functions(path).items()
               if flux_energy.search(source)]
    assert writers == ["spectral._flux_quotient"]
    spectral = _functions(SRC / "spectral.py")
    assert "_flux_quotient" in spectral["_finish"][1]
    assert "_flux_quotient" in spectral["rayleigh"][1]
    assert "first_diff" not in spectral["rayleigh"][1]


def test_refined_levels_hold_no_arrays():
    # a refined level is its nodes and densities (t, h): the solve builds no
    # whole-level flux and mass (f, M) from the base up; each reader forms
    # them per block (_block_level), and only a grid solved by bisection
    # (_scaled) or rayleigh() assembles a whole grid
    spectral = _functions(SRC / "spectral.py")
    readers = ("_eigenpairs", "_refine", "_shifted_rows", "_finish", "_flux_quotient",
               "_backward_errors")
    for name in readers:
        assert not {"_assemble", "_scaled"} & spectral[name][1], name
    for name in ("_shifted_rows", "_flux_quotient", "_backward_errors"):
        assert "_block_level" in spectral[name][1], name
    assert sorted(name for name, (_, calls) in spectral.items()
                  if "_assemble" in calls) == ["_block_level", "_scaled", "rayleigh"]
    assert sorted(name for name, (_, calls) in spectral.items()
                  if "_scaled" in calls) == ["_solve_tridiagonal"]
    # the formula, cell widths dt and half-cell masses, is written once
    formula_names = {"dt", "half_cell"}
    writers = [f"{path.stem}.{fn.name}"
               for path in sorted(SRC.glob("*.py"))
               for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)
               if any(isinstance(node, ast.Name) and node.id in formula_names
                      for node in ast.walk(fn))]
    assert writers == ["spectral._assemble"]


def test_csv_parsed_only_by_read_csv():
    # density files, ray samples and plotted tables share one parser; the
    # CLI's csv.writer is the only other use of the csv module
    parsers = {("csv", "reader"), ("csv", "DictReader"), ("np", "loadtxt"),
               ("np", "genfromtxt")}
    paths = sorted(SRC.glob("*.py"))
    callers = [f"{path.stem}.{fn.name}"
               for path in paths
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and (getattr(node.func.value, "id", ""), node.func.attr) in parsers]
    assert callers == ["measures.read_csv"]
    importers = [path.stem for path in paths
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and "csv" in (a.name for a in node.names)]
    assert importers == ["cli"]


def _opens(path):
    """(module.function, mode) of each open() call in path's functions."""
    for name, fn in _defs(path):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "open":
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
                yield name, modes[0].value if modes else "r"


def test_files_written_only_by_replace_file():
    # artifacts are replaced, never truncated in place: the package's one
    # open() for writing is measures.replace_file's, and cli and plotting
    # open no file of their own (os.open, Path.write_text and the like alike)
    paths = sorted(SRC.glob("*.py"))
    writers = [name for path in paths for name, mode in _opens(path)
               if set(mode) & set("wax+")]
    assert writers == ["measures.replace_file"]
    opener = re.compile(r"\bopen\(|\.write_(text|bytes)\(|\bshutil\.|\bos\.(rename|replace)\(")
    front = [SRC / "cli.py", SRC / "plotting.py"]
    assert _hits(front, opener) == []
    assert all("replace_file(" in path.read_text() for path in front)


def _defs(path):
    """(module.name, node) of each top-level function and method of path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{path.stem}.{node.name}.{fn.name}", fn


def _operands(node):
    """node and the operands of its chain of binary operations."""
    if isinstance(node, ast.BinOp):
        return [node, *_operands(node.left), *_operands(node.right)]
    return [node]


def _is_richardson_step(node):
    # x + (x - y) c: a value corrected by a multiple of its change
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(op, ast.BinOp) and isinstance(op.op, ast.Sub)
                    and ast.dump(op.left) == ast.dump(node.left)
                    for op in _operands(node.right)))


def _is_dimension_rule(node):
    # 1 < N ...
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
            and node.left.value == 1 and isinstance(node.ops[0], ast.Lt))


def _is_diameter_rule(node):
    # 0 < D <= pi ...
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
            and node.left.value == 0 and [type(op) for op in node.ops] == [ast.Lt, ast.LtE]
            and "pi" in ast.unparse(node.comparators[-1]))


def test_one_extrapolation_step_and_one_rule_per_parameter():
    # Richardson's step is written once, measures.extrapolate; the dimension
    # rule 1 < N < inf once, measures.require_dimension, and the diameter rule
    # 0 < D <= pi once, measures.require_diameter; every validator of N or D
    # calls them
    defs = {name: list(ast.walk(fn))
            for path in sorted(SRC.glob("*.py")) for name, fn in _defs(path)}
    assert len(defs) >= 150

    def sites(matches):
        return sorted(name for name, nodes in defs.items() if any(map(matches, nodes)))

    def callers(callee):
        return sites(lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "id", "") == callee)

    assert sites(_is_richardson_step) == ["measures.extrapolate"]
    assert callers("extrapolate") == [
        "isoperimetry.asymptotic_constant", "spectral.SpectralResult.err_bar",
        "spectral.SpectralResult.richardson", "spectral.deficit"]
    assert sites(_is_dimension_rule) == ["measures.require_dimension"]
    assert callers("require_dimension") == [
        "isoperimetry.ProfileQuery.__post_init__", "isoperimetry._check_constant",
        "isoperimetry._check_split", "isoperimetry.profile_ode_residual",
        "localization.RayFamily.__post_init__", "measures.WeightedInterval.__post_init__",
        "measures._validate_query", "obata1d.ExperimentSpec.__post_init__"]
    assert sites(_is_diameter_rule) == ["measures.require_diameter"]
    assert callers("require_diameter") == [
        "isoperimetry.ProfileQuery.__post_init__", "isoperimetry._check_constant",
        "measures.Grid.__post_init__", "measures.Grid.uniform"]


def _special_calls_per_name(fn, special):
    """For each name assigned in fn, the scipy.special functions its value
    calls, directly or through names assigned before it."""
    reach = {}

    def calls(expr):
        found = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in special:
                found.add(node.func.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found |= reach.get(node.id, set())
        return found

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple) else
                         zip(target.elts, node.value.elts) if isinstance(node.value, ast.Tuple)
                         else [(elt, node.value) for elt in target.elts])
                for name, value in pairs:
                    if isinstance(name, ast.Name):
                        reach[name.id] = reach.get(name.id, set()) | calls(value)
    return calls


def _where_with_special_in_both_arms(source, name):
    """np.where calls in function `name` of `source` whose kept and discarded
    arms both evaluate a scipy.special function."""
    tree = ast.parse(source)
    special = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
               for alias in node.names}
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    calls = _special_calls_per_name(fn, special)
    return [ast.unparse(node) for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "where" and len(node.args) == 3
            and calls(node.args[1]) and calls(node.args[2])]


def test_kernels_evaluate_no_discarded_special_function():
    # sinpow_cum and _sinpow_inv evaluate each incomplete beta only on the
    # elements that keep it, never on both arms of an np.where
    for module, name in (("measures.py", "sinpow_cum"), ("isoperimetry.py", "_sinpow_inv")):
        assert _where_with_special_in_both_arms((SRC / module).read_text(), name) == []
    # the check sees the two-branch form through the names it assigns
    two_branch = """
from scipy.special import betainc
def sinpow_cum(N, x):
    s2, c = np.sin(x) ** 2, np.cos(x)
    edge = betainc(N / 2.0, 0.5, s2)
    mid = 1.0 - betainc(0.5, N / 2.0, c * c)
    return np.where(s2 > 0.5, mid, np.where(x <= 1.5, edge, 2.0 - edge))
"""
    found = _where_with_special_in_both_arms(two_branch, "sinpow_cum")
    assert found and found[0].startswith("np.where(s2 > 0.5, mid, ")
