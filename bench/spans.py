"""Spans and counters recorded from outside obatalab.

A Tracer wraps public functions at every obatalab module attribute that
still holds the original object, so each caller's own lookup (for example
`obatalab.isoperimetry.sinpow_cum` or `obatalab.cli.neumann_eigs`) goes
through the wrapper. Spans nest per thread; a span's self time is its
duration minus the durations of the spans opened inside it on the same
thread. Aggregates and the raw spans of the latest pass live in memory
until the caller writes them out.
"""
import math
import os
import sys
import threading
import time

TRACED = (
    # (layer name, home module, attribute)
    ("spectral.neumann_eigs", "obatalab.spectral", "neumann_eigs"),
    ("spectral.tridiag", "obatalab.spectral", "eigh_tridiagonal"),
    ("obata1d.diameter_deficit_sweep", "obatalab.obata1d", "diameter_deficit_sweep"),
    ("obata1d.upper_gap_check", "obatalab.obata1d", "upper_gap_check"),
    ("obata1d.deficit_distance_sweep", "obatalab.obata1d", "deficit_distance_sweep"),
    ("measures.model_density", "obatalab.measures", "model_density"),
    ("measures.sinpow_cum", "obatalab.measures", "sinpow_cum"),
    ("measures.generate_cd_density", "obatalab.measures", "generate_cd_density"),
    ("measures.cd_check", "obatalab.measures", "cd_check"),
    ("measures.load_density_csv", "obatalab.measures", "load_density_csv"),
    ("isoperimetry.profile", "obatalab.isoperimetry", "profile"),
    ("isoperimetry.solve_R", "obatalab.isoperimetry", "solve_R"),
    ("isoperimetry.g_eval", "obatalab.isoperimetry", "g_eval"),
    ("isoperimetry.bbg_ratio_check", "obatalab.isoperimetry", "bbg_ratio_check"),
    ("isoperimetry.profile_ode_residual", "obatalab.isoperimetry", "profile_ode_residual"),
    ("isoperimetry.asymptotic_constant", "obatalab.isoperimetry", "asymptotic_constant"),
    ("plotting.render_plot", "obatalab.plotting", "render_plot"),
    ("cli.run", "obatalab.cli", "run"),
) + tuple(
    ("localization." + name, "obatalab.localization", name)
    for name in (
        "load_family", "normalize", "global_deficit", "select_long_rays",
        "bad_set_energy", "per_ray_cosine", "variance_bound", "long_mass_bound",
        "pole_concentration", "volume_control", "assemble_main",
    )
)

CLI_COMMANDS = ("profile", "spectrum", "obata", "sweep", "localize", "check-density")

# counts that must repeat exactly between two traced passes on one seed
EXACT_COUNTS = (
    "spectral.tridiag.solves",
    "spectral.tridiag.nodes",
    "measures.sinpow_cum.calls",
    "isoperimetry.profile.g_evals",
    "measures.cd_check.triples",
    "obata1d.sweep_points",
)

_OBATA_SWEEPS = {
    "obata1d.diameter_deficit_sweep",
    "obata1d.upper_gap_check",
    "obata1d.deficit_distance_sweep",
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Installs wrappers on obatalab's module attributes and aggregates spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a new pass: zero the aggregates and drop the raw spans."""
        self.busy = {}      # layer -> summed span seconds
        self.self_s = {}    # layer -> summed self seconds
        self.counts = {}    # counter name -> int
        self.spans = []     # (name, start, end, parent index or -1, thread id)

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name):
        return any(frame[0] == name for frame in self._stack())

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1][2] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, index]  # name, child seconds, span index
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.spans[index] = (name, start, end, parent, threading.get_ident())
            with self._lock:
                self.busy[name] = self.busy.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1

    # -- per-layer wrappers ------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self

        if layer == "isoperimetry.g_eval":
            def wrapper(*args, **kwargs):
                tracer.add("isoperimetry.g_eval.calls")
                if tracer.in_span("isoperimetry.profile"):
                    tracer.add("isoperimetry.profile.g_evals")
                return fn(*args, **kwargs)
        elif layer == "measures.sinpow_cum":
            def wrapper(*args, **kwargs):
                if getattr(tracer._local, "scans", 0):
                    tracer.add("isoperimetry.profile.scan_sinpow_calls")
                return tracer._timed(layer, fn, args, kwargs)
        elif layer == "isoperimetry.profile":
            def wrapper(*args, **kwargs):
                # D < pi takes the scan + golden-section path; D = pi is one g_eval
                if _arg(args, kwargs, 0, "q").D >= math.pi:
                    return tracer._timed(layer, fn, args, kwargs)
                tracer.add("isoperimetry.profile.scans")
                tracer._local.scans = getattr(tracer._local, "scans", 0) + 1
                try:
                    return tracer._timed(layer, fn, args, kwargs)
                finally:
                    tracer._local.scans -= 1
        elif layer == "spectral.tridiag":
            def wrapper(*args, **kwargs):
                tracer.add("spectral.tridiag.solves")
                tracer.add("spectral.tridiag.nodes", len(args[0]))
                return tracer._timed(layer, fn, args, kwargs)
        elif layer == "spectral.neumann_eigs":
            def wrapper(*args, **kwargs):
                w = _arg(args, kwargs, 0, "w")
                tracer.add("spectral.neumann_eigs.nodes", len(w.grid.nodes))
                return tracer._timed(layer, fn, args, kwargs)
        elif layer in _OBATA_SWEEPS:
            def wrapper(*args, **kwargs):
                solves0 = tracer.counts.get("spectral.tridiag.solves", 0)
                nodes0 = tracer.counts.get("spectral.tridiag.nodes", 0)
                res = tracer._timed(layer, fn, args, kwargs)
                if layer == "obata1d.deficit_distance_sweep":
                    points = len(res.param) + res.excluded
                else:
                    points = len(res.eps)
                tracer.add("obata1d.sweep_points", points)
                if layer == "obata1d.diameter_deficit_sweep":
                    # the pool threads finish inside this call, so the
                    # counter deltas are this sweep's solves
                    grid_n = _arg(args, kwargs, 2, "grid_n", 4096)
                    tracer.add("obata1d.diameter.points", points)
                    tracer.add("obata1d.diameter.point_cells", points * grid_n)
                    tracer.add("obata1d.diameter.solves",
                               tracer.counts.get("spectral.tridiag.solves", 0) - solves0)
                    tracer.add("obata1d.diameter.nodes",
                               tracer.counts.get("spectral.tridiag.nodes", 0) - nodes0)
                return res
        elif layer == "measures.cd_check":
            def wrapper(*args, **kwargs):
                res = tracer._timed(layer, fn, args, kwargs)
                tracer.add("measures.cd_check.triples", res.checked)
                return res
        elif layer == "localization.load_family":
            def wrapper(*args, **kwargs):
                res = tracer._timed(layer, fn, args, kwargs)
                tracer.add("localization.rays", len(res.rays))
                return res
        elif layer == "plotting.render_plot":
            def wrapper(*args, **kwargs):
                res = tracer._timed(layer, fn, args, kwargs)
                tracer.add("plotting.svg_bytes",
                           os.path.getsize(_arg(args, kwargs, 1, "out_path")))
                return res
        elif layer == "cli.run":
            def wrapper(*args, **kwargs):
                config = _arg(args, kwargs, 0, "config")
                try:
                    return tracer._timed("cli.run." + config.command, fn, args, kwargs)
                finally:
                    tracer.add("cli.artifact_bytes", _dir_bytes(config.out))
        else:
            def wrapper(*args, **kwargs):
                return tracer._timed(layer, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Point every obatalab binding of each traced function at a wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "obatalab" or name.startswith("obatalab."))]
        for layer, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, speed=1.0):
        """Per-layer values of the latest pass, named as in BENCHMARK.json;
        times are divided by the host speed factor `speed`."""
        c = self.counts
        out = {}
        for layer, _, attr in TRACED:
            if layer == "cli.run":
                for cmd in CLI_COMMANDS:
                    out[f"cli.run.{cmd}.s"] = self.busy.get("cli.run." + cmd, 0.0) / speed
                    out[f"cli.run.{cmd}.self_s"] = self.self_s.get("cli.run." + cmd, 0.0) / speed
            elif layer != "isoperimetry.g_eval":
                out[layer + ".s"] = self.busy.get(layer, 0.0) / speed
        for name in (
            "spectral.neumann_eigs.calls", "spectral.neumann_eigs.nodes",
            "spectral.tridiag.solves", "spectral.tridiag.nodes",
            "obata1d.sweep_points",
            "measures.model_density.calls", "measures.sinpow_cum.calls",
            "measures.generate_cd_density.calls",
            "measures.cd_check.calls", "measures.cd_check.triples",
            "isoperimetry.profile.calls", "isoperimetry.profile.g_evals",
            "isoperimetry.solve_R.calls", "isoperimetry.g_eval.calls",
            "localization.rays",
            "plotting.render_plot.calls", "plotting.svg_bytes",
            "cli.artifact_bytes",
        ):
            out[name] = c.get(name, 0)
        points = c.get("obata1d.diameter.points", 0)
        cells = c.get("obata1d.diameter.point_cells", 0)
        out["obata1d.solved_nodes_per_point"] = (
            c.get("obata1d.diameter.nodes", 0) / cells if cells else 0.0)
        out["obata1d.tridiag_solves_per_point"] = (
            c.get("obata1d.diameter.solves", 0) / points if points else 0.0)
        scans = c.get("isoperimetry.profile.scans", 0)
        out["isoperimetry.sinpow_calls_per_profile"] = (
            c.get("isoperimetry.profile.scan_sinpow_calls", 0) / scans if scans else 0.0)
        return out

    def exact_counts(self):
        return {name: self.counts.get(name, 0) for name in EXACT_COUNTS}

    def write_spans(self, path):
        """Write the raw spans of the latest pass as CSV."""
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,thread\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, tid = s
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{tid}\n")


def _dir_bytes(path):
    try:
        names = os.listdir(path)
    except OSError:
        return 0
    return sum(os.path.getsize(os.path.join(path, n)) for n in names
               if os.path.isfile(os.path.join(path, n)))
