"""One implementation per idea: the derivative stencils and the m-integral
live in measures, and every other module calls them from there; the CD
density generator has one solution path, the exact piecewise rotation, and
the isoperimetric profile one search, the lane-batched bracket refinement.
The localization chain is written once, in localization.localize, and its
deficit ledger is frozen; the rule that a deficit <= 0 counts as 0 is written
once, DeficitLedger.delta_plus, localize alone resolves the default
exponents, and the per-ray c_q is taken from the ledger. Plots are drawn from
the rows in memory: plotting reads no table back and fits nothing. The
Neumann solve bisects in one place, the base and fallback solve of the
nested refinement, and reaches a grid from its base in two refined levels,
not by recursion. Every grid is solved at its exact power-of-two scale,
whose exponents one helper takes, and which the one assembly applies as it
forms fluxes and masses, so no grid is copied to reach it. The discrete
Rayleigh quotient is written once, spectral._flux_quotient, and both the
eigenvalues and rayleigh() take it. A refined level holds no arrays of its
own: its flux and mass are formed per block from the nodes and densities, by
the one assembly, spectral._assemble. CSV input, density files and ray
samples alike, is parsed by one function, measures.read_csv, and every
artifact is written by one, measures.replace_file. The Richardson
step is written once, measures.extrapolate, and so are the rules 1 < N < inf
and 0 < D <= pi, measures.require_dimension and measures.require_diameter,
which every validator of N or D calls. The CLI starts
without the SciPy submodules that none of its commands use, loads LAPACK
(scipy.linalg) in one function, on its first solve, and builds its argument
parser once per process, on the first main() call. Every public function,
class and method is reached by a run: the rest of the package, the demo, the
tools, the bench or an acceptance criterion names it, and every function the
bench traces by name resolves. Every defaulted parameter of a public function
and field of a public dataclass is set by some call of such a run, and the
curvature K is a parameter of cd_check alone: an interval carries none."""
import ast
import dataclasses
import json
import math
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


def _fresh_python(script, **env):
    """The JSON object a fresh interpreter prints for script, run from the
    repo root with the package on its path and env added to its environment."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), full.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, env=full)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_lapack_loads_on_the_first_solve(tmp_path):
    # profile, check-density and localize solve nothing, so they run without
    # scipy.linalg; the first spectrum loads it
    script = f"""
import json, sys
import obatalab.cli as cli
out = {str(tmp_path)!r}
runs = [("import", 0)]
for argv in (["profile", "--dim", "3", "--diam", "3.0", "--v", "0.37"],
             ["check-density", "fixtures/model_n2.csv", "--dim", "2"],
             ["localize", "--config", "fixtures/rigid.json"],
             ["spectrum", "--model", "--dim", "2", "--grid", "512"]):
    runs.append((argv[0], cli.main(argv + ["--out", out + "/" + argv[0]])))
    runs[-1] += ("scipy.linalg" in sys.modules,)
print(json.dumps(runs))
"""
    runs = _fresh_python(script)
    assert runs == [["import", 0], ["profile", 0, False], ["check-density", 0, False],
                    ["localize", 0, False], ["spectrum", 0, True]]

    def linalg_imports(root):
        return [ast.unparse(node) for node in ast.walk(root)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "scipy.linalg" in ast.unparse(node)]

    everywhere = [line for path in sorted(SRC.glob("*.py"))
                  for line in linalg_imports(ast.parse(path.read_text()))]
    assert everywhere == linalg_imports(dict(_defs(SRC / "spectral.py"))["spectral._lapack"]) == [
        "from scipy.linalg import eigh_tridiagonal",
        "from scipy.linalg.lapack import dgttrf, dgttrs"]


def test_first_solves_on_two_threads_keep_every_bit(tmp_path):
    # the first obata points run on two pool threads, which load LAPACK at
    # once; the artifacts are those of a one-thread run
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        script = f"""
import json, os
os.sched_getaffinity = lambda pid: set(range(4))
import obatalab.cli as cli
from obatalab import pool
code = cli.main(["obata", "--dim", "3", "--out", {str(out)!r}])
print(json.dumps([code, pool.workers()]))
"""
        assert _fresh_python(script, OBATALAB_THREADS=threads) == [0, int(threads)]
        files[threads] = [(out / name).read_bytes() for name in ("summary.json", "results.csv")]
    assert files["1"] == files["2"]


def test_lapack_loader_under_racing_threads():
    # eight threads, more than the cores, make their first solve at once with
    # a short switch interval: each gets the answer and the one set of routines
    script = """
import json, sys, threading
import numpy as np
from obatalab import spectral
sys.setswitchinterval(1e-6)
start = threading.Barrier(8, timeout=30)
got = [None] * 8
def first_solve(i):
    start.wait()
    vals = spectral.eigh_tridiagonal(np.full(3, 2.0), np.ones(2), eigvals_only=True)
    got[i] = [vals.tolist(), sorted(map(id, spectral._lapack().values()))]
threads = [threading.Thread(target=first_solve, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": sum(t.is_alive() for t in threads),
                  "results": sorted({json.dumps(g) for g in got})}))
"""
    out = _fresh_python(script)
    assert out["alive"] == 0
    [result] = out["results"]
    vals = json.loads(result)[0]
    exact = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert all(math.isclose(v, x, rel_tol=1e-14) for v, x in zip(vals, exact, strict=True))


def test_bench_trace_bindings_resolve():
    # bench/spans.py wraps (home, attr) by name, and reads len(args[0]) of
    # spectral.eigh_tridiagonal: each binding is a callable from a fresh
    # import on, and a wrapper installed before LAPACK loads counts the base
    # solve (256 cells) of a 4096-cell neumann_eigs. spans.py is executed
    # from its source, so nothing is written under bench/
    spans = ROOT / "bench" / "spans.py"
    before = sorted(str(p) for p in (ROOT / "bench").rglob("*"))
    script = f"""
import importlib, json, sys
import numpy as np
import obatalab.cli
trace = {{}}
exec(compile(open({str(spans)!r}).read(), {str(spans)!r}, "exec"), trace)
bad = [(home, attr) for _, home, attr in trace["TRACED"]
       if not callable(getattr(importlib.import_module(home), attr, None))]
from obatalab.measures import Grid, model_density
from obatalab.spectral import neumann_eigs
loaded = "scipy.linalg" in sys.modules
tracer = trace["Tracer"]()
tracer.install()
try:
    neumann_eigs(model_density(2.0, Grid.uniform(np.pi, 4096)), k=1)
finally:
    tracer.uninstall()
print(json.dumps({{"traced": len(trace["TRACED"]), "bad": bad, "loaded": loaded,
                  "solves": tracer.counts.get("spectral.tridiag.solves"),
                  "nodes": tracer.counts.get("spectral.tridiag.nodes")}}))
"""
    out = _fresh_python(script)
    assert out.pop("traced") >= 20
    assert out == {"bad": [], "loaded": False, "solves": 1, "nodes": 257}
    assert sorted(str(p) for p in (ROOT / "bench").rglob("*")) == before


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


def _mentions_delta(node):
    return "delta" in ast.unparse(node)


def _is_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _is_nonpositive_rule(node):
    # max(delta, 0.0), or delta compared in order against 0
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "max":
        return any(map(_is_zero, node.args)) and any(map(_mentions_delta, node.args))
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            and any(map(_is_zero, node.comparators)) and _mentions_delta(node.left))


def test_nonpositive_deficit_rule_lives_in_the_ledger():
    # every stage reads DeficitLedger.delta_plus; the raw deficit is read
    # only there and where assemble_main reports it
    defs = dict(_defs(SRC / "localization.py"))
    assert len(defs) >= 20
    rule = [name for name, fn in defs.items() if any(map(_is_nonpositive_rule, ast.walk(fn)))]
    assert rule == ["localization.DeficitLedger.delta_plus"]
    raw = [name for name, fn in defs.items()
           if any(isinstance(node, ast.Attribute) and node.attr == "delta"
                  for node in ast.walk(fn))]
    assert raw == ["localization.DeficitLedger.delta_plus", "localization.assemble_main"]
    # the check sees the rule in both of its old forms
    for form in ("max(ledger.delta, 0.0)", "delta <= 0", "d = max(0.0, delta)"):
        assert any(map(_is_nonpositive_rule, ast.walk(ast.parse(form)))), form


def test_exponent_defaults_resolved_only_in_localize():
    # no stage of the chain has a parameter that defaults to None; localize
    # resolves beta and gamma and hands them on
    defaults_none = sorted(
        name for name, fn in _defs(SRC / "localization.py")
        if any(isinstance(d, ast.Constant) and d.value is None
               for d in [*fn.args.defaults, *fn.args.kw_defaults]))
    assert defaults_none == ["localization.localize"]


def test_per_ray_cosine_takes_c_from_the_ledger():
    fn = dict(_defs(SRC / "localization.py"))["localization.per_ray_cosine"]
    means = [ast.unparse(node) for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "mean"]
    assert means == []
    assert "ledger.c" in ast.unparse(fn)


def test_plotting_reads_no_table_and_fits_nothing():
    imported = {(node.module, alias.name)
                for node in ast.walk(ast.parse((SRC / "plotting.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported
    assert not {name for _, name in imported} & {"read_csv", "loglog_fit"}
    assert not {module for module, _ in imported} & {"obata1d", "measures.read_csv"}
    assert ("measures", "replace_file") in imported


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


def test_one_scale_decision_before_the_solve():
    # every grid is solved at its exact power-of-two scale, with no copy of
    # its nodes or densities: math.frexp appears only in the exponent helper
    # (spectral._scale), which neumann_eigs (through _spectrum) and rayleigh
    # alike call, the scale is applied as the flux and mass are formed
    # (_assemble, and _support_checks judging the midpoints _assemble forms)
    # and scaled back only in _spectrum and rayleigh; np.ldexp is called only
    # by the one power-of-two multiply, never on t or h, so no module takes
    # a whole-grid copy of them. neumann_eigs has no try and one _spectrum
    # call, and spectral defines no exception class of its own for a retry
    # to catch
    from obatalab import spectral

    tree = ast.parse((SRC / "spectral.py").read_text())
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def uses(root, name):
        return [node for node in ast.walk(root) if isinstance(node, ast.Attribute)
                and ast.unparse(node) == name]

    # the end samples of _support_checks are scaled one by one, with math.ldexp
    for name, owner in (("math.frexp", "_scale"), ("math.ldexp", "_support_checks")):
        assert uses(fns[owner], name) and len(uses(tree, name)) == len(uses(fns[owner], name))

    def callers(name):
        return sorted(fn for fn, node in fns.items()
                      if any(isinstance(call, ast.Call) and getattr(call.func, "id", "") == name
                             for call in ast.walk(node)))

    assert callers("_scale") == ["_spectrum", "rayleigh"]
    assert callers("_times_pow2") == ["_assemble", "_scaled_back", "_support_checks", "rayleigh"]
    assert callers("_scaled_back") == ["_spectrum", "rayleigh"]
    ldexp = [(path.stem, node) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.ldexp"]
    assert ldexp and all(ast.unparse(node.args[0]) == "x" for _, node in ldexp)
    assert [module for module, _ in ldexp] == ["spectral"]
    assert len(ldexp) == len([node for node in ast.walk(fns["_times_pow2"])
                              if isinstance(node, ast.Call)
                              and ast.unparse(node.func) == "np.ldexp"])
    for path in sorted(SRC.glob("*.py")):
        assert not re.search(r"np\.ldexp\((t|h|nodes|w\.h|w\.grid\.nodes)\b",
                             path.read_text()), path
    fn = fns["neumann_eigs"]
    assert [node for node in ast.walk(fn) if isinstance(node, ast.Try)] == []
    assert len([node for node in ast.walk(fn) if isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "_spectrum"]) == 1
    assert not hasattr(spectral, "_EXACT_EXPONENT")
    classes = [getattr(spectral, node.name) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    assert len(classes) >= 5
    assert [cls.__name__ for cls in classes if issubclass(cls, BaseException)] == []


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
    # density files and ray samples share one parser; the
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
        "obata1d.ExperimentSpec.__post_init__"]
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


def test_inverse_iteration_has_one_stopping_rule():
    # a pair converges when two successive estimates agree, from _MIN_STEPS
    # on; ConditioningError is raised only for a singular factor or iterate
    # and after _MAX_STEPS, with no early-abandonment rule in between
    fn = dict(_defs(SRC / "spectral.py"))["spectral._inverse_iterate"]
    raises = [node for node in ast.walk(fn) if isinstance(node, ast.Raise)]
    assert len(raises) == 3
    assert all(node.exc.func.id == "ConditioningError" for node in raises)
    guards = [ast.unparse(node.test) for node in ast.walk(fn)
              if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)]
    assert guards == ["info != 0", "not 0.0 < norm < math.inf"]
    loop, last = fn.body[-2:]
    assert isinstance(loop, ast.For) and ast.unparse(loop.iter) == "range(1, _MAX_STEPS + 1)"
    assert isinstance(last, ast.Raise)
    exits = [ast.unparse(node.test) for node in ast.walk(loop)
             if isinstance(node, ast.If) and isinstance(node.body[0], ast.Return)]
    assert exits == ["step >= _MIN_STEPS and abs(gap - last) <= tol"]


def _parameters(fn):
    args = fn.args
    return {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}


def test_no_test_only_options():
    # no solver level takes a jump flag, and the generator, the CD checker
    # and the upper-gap check take no option that only tests set
    spectral = [node for node in ast.walk(ast.parse((SRC / "spectral.py").read_text()))
                if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert len(spectral) >= 40
    assert [node for node in spectral if "jump" in _parameters(node)] == []
    defs = {**dict(_defs(SRC / "measures.py")), **dict(_defs(SRC / "obata1d.py"))}
    for name in ("measures.generate_cd_density", "measures.cd_check",
                 "obata1d.upper_gap_check"):
        assert not _parameters(defs[name]) & {"excess", "tol", "D_sweep"}, name
    from obatalab.obata1d import ExperimentSpec

    assert "target" not in [f.name for f in dataclasses.fields(ExperimentSpec)]


def _public_defs(tree):
    """(name, node) of each public top-level function and class of tree, and
    of each public method of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield fn.name, fn


def _references(tree, skip=None):
    """Names tree reads, imports or looks up by (dotted) string, outside the
    lines of skip."""
    names = set()
    for node in ast.walk(tree):
        if skip is not None and skip.lineno <= getattr(node, "lineno", 0) <= skip.end_lineno:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            names.update(node.value.split("."))
    return names


def test_every_public_name_is_reached_by_a_run():
    # a public function, class or method that only its own unit tests call is
    # a check no run reaches: each is referenced from elsewhere in the package
    # (not __init__.py, not its own definition), by the demos, the tools or
    # the bench, or by an acceptance criterion
    outside = [path for top in ("demos", "tools", "bench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    outside.append(ROOT / "tests" / "test_acceptance.py")
    assert len(outside) >= 8
    reached = set().union(*(_references(ast.parse(path.read_text())) for path in outside))
    modules = {path: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert len(modules) >= 9
    refs = {path: _references(tree) for path, tree in modules.items()}
    unreached = []
    for path, tree in modules.items():
        elsewhere = reached.union(*(names for p, names in refs.items() if p != path))
        unreached += [f"{path.stem}.{name}" for name, node in _public_defs(tree)
                      if name not in elsewhere | _references(tree, node)]
    assert unreached == []


def _is_dataclass(node):
    return any(getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
               for dec in node.decorator_list)


def _options(tree):
    """{name: (positional names, defaulted names)} of each public function and
    method of tree, the self of a method left out, and of each public
    dataclass's __init__ (its fields, less those with init=False)."""
    out = {}
    for name, node in _public_defs(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in [*args.posonlyargs, *args.args]]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            method = (node not in tree.body and not any(
                getattr(dec, "id", "") == "staticmethod" for dec in node.decorator_list))
            out[name] = (positional[method:], defaulted)
        elif _is_dataclass(node):
            fields, defaulted = [], []
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                    continue
                value = stmt.value
                keywords = {kw.arg: kw.value for kw in getattr(value, "keywords", ())}
                if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
                    init = keywords.get("init")
                    if isinstance(init, ast.Constant) and init.value is False:
                        continue
                    has_default = "default" in keywords or "default_factory" in keywords
                else:
                    has_default = value is not None
                fields.append(stmt.target.id)
                if has_default:
                    defaulted.append(stmt.target.id)
            out[name] = (fields, defaulted)
    return out


def _calls_by_callee(trees):
    """{name: every call of a function or method of that name in trees}."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, opt, index):
    """Whether call sets the option opt, by keyword or at its position index
    (None if it has none); a *args reaches every later position, and a
    **kwargs every name."""
    if any(kw.arg in (opt, None) for kw in call.keywords):
        return True
    return index is not None and any(isinstance(arg, ast.Starred) or i == index
                                     for i, arg in enumerate(call.args[:index + 1]))


def test_every_option_is_set_by_a_run():
    # a defaulted parameter (or dataclass field) that only unit tests set is an
    # option no run takes: some call in the package, the demos, the tools, the
    # bench or an acceptance criterion sets each one
    paths = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
             *(path for top in ("demos", "tools", "bench")
               for path in sorted((ROOT / top).rglob("*.py")))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    calls = _calls_by_callee(trees.values())
    unset, checked = [], 0
    for path, tree in trees.items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        for name, (positional, defaulted) in _options(tree).items():
            for opt in defaulted:
                checked += 1
                index = positional.index(opt) if opt in positional else None
                if not any(_sets(call, opt, index) for call in calls.get(name, ())):
                    unset.append(f"{name}.{opt}")
    assert checked >= 20
    assert unset == []


def test_curvature_is_a_parameter_of_cd_check_alone():
    # every interval is CD(N - 1, N) but where cd_check is told another K:
    # the interval has no curvature field, the loader takes none, and no
    # other function of the package takes one (_sigma_raw, the distortion
    # coefficient that cd_check evaluates, is its kernel)
    from obatalab.measures import WeightedInterval, load_density_csv
    import inspect

    assert [f.name for f in dataclasses.fields(WeightedInterval)] == [
        "grid", "h", "N", "total_mass"]
    assert list(inspect.signature(load_density_csv).parameters) == ["path", "N"]
    takers = sorted(name for path in sorted(SRC.glob("*.py")) for name, fn in _defs(path)
                    if _parameters(fn) & {"K", "kappa", "curvature"})
    assert takers == ["measures._sigma_raw", "measures.cd_check"]
