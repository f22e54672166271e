"""Per-layer spans, taken from outside the program.

Each layer is a set of module-level functions. Tracing rebinds every name
that refers to one of them, in every loaded casidec module, to a wrapper
that records a span (layer, start, end, parent, pass id, failed). The
program looks those names up at call time, so its own internal calls are
caught too. A name the program no longer has is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (module the functions live in, function names, metrics besides .errors)
LAYERS = {
    "wigner_solver.step": ("wigner_solver", ("step",), ("calls", "self_s", "ns_per_node")),
    "wigner_solver.drift_interp": ("wigner_solver", ("map_coordinates",), ("s", "calls")),
    "wigner_solver.diffuse": ("wigner_solver", ("_diffuse",), ("s", "calls")),
    "wigner_solver.drift_maps": ("wigner_solver", ("_drift_maps",), ("s",)),
    "wigner_solver.init": ("wigner_solver", ("init_cat", "init_gaussian"), ("s",)),
    "wigner_solver.observe": ("wigner_solver", (
        "fringe_visibility", "grid_moments", "grid_purity", "grid_norm",
        "marginals", "wmin_over_wmax"), ("s",)),
    "wigner_solver.fit": ("wigner_solver", ("measure_td",), ("s",)),
    "gaussian_dynamics.evolve": ("gaussian_dynamics", ("evolve",), ("s", "calls")),
    "gaussian_dynamics.sieve": ("gaussian_dynamics", ("sieve_search",), ("s",)),
    "spectra_damping.quadrature": ("spectra_damping", ("diffusion_finite_time",),
                                   ("s", "calls")),
    "spectra_damping.roots": ("spectra_damping", ("characteristic_roots",), ("s", "calls")),
    "spectra_damping.rates": ("spectra_damping", (
        "gamma_vacuum_1d", "gamma_vacuum_sphere", "gamma_thermal_sphere",
        "damping_rate", "diffusion_asymptotic", "coefficient_set"), ("s",)),
    "decoherence_times": ("decoherence_times", (
        "td_cat_vacuum", "td_from_separation", "td_relative_1d",
        "td_relative_sphere", "td_from_diffusion", "td_high_T",
        "td_thermal_sphere_free"), ("s", "calls")),
    "pair_emission": ("pair_emission", (
        "pair_probability", "which_way_overlap", "reduced_offdiagonal_weight",
        "emission_state"), ("s", "calls")),
    "params": ("params", (
        "derived_quantities", "ground_state_width", "separation_from_alpha",
        "alpha_from_separation", "packet_velocity", "thermal_de_broglie",
        "resolve_cat", "validate"), ("s",)),
    "scenarios": ("scenarios", ("run_scenario",),
                  ("runs", "runner_s", "write_s", "bytes_written")),
    "cli": ("cli", ("main",), ("s", "calls", "nonzero_exits")),
}
_UNITS = {"s": "s", "self_s": "s", "runner_s": "s", "write_s": "s", "ns_per_node": "ns",
          "bytes_written": "B"}   # every other metric is a count


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {f"{layer}.{m}": _UNITS.get(m, "count")
           for layer, (_home, _names, metrics) in LAYERS.items() for m in metrics}
    out["wigner_solver.node_updates"] = "count"
    out.update({f"{layer}.errors": "count" for layer in LAYERS})
    out["trace_overhead"] = "frac"
    out["failed_frac"] = "frac"
    return out


class Tracer:
    """Span recorder for the passes run inside recording()."""

    def __init__(self):
        self.spans = []          # (layer, start_ns, end_ns, parent, pass_id, failed, outer)
        self.counters = defaultdict(Counter)   # pass_id -> counter name -> value
        self.pass_id = None
        self.absent = []
        self._stack = []
        self._depth = Counter()
        self._undo = []

    @contextlib.contextmanager
    def recording(self, pass_id: int):
        """Wrap the layer functions for one pass, then put the originals back."""
        self.pass_id = pass_id
        self._install()
        try:
            yield
        finally:
            self._remove()

    def _install(self):
        self.absent = []
        homes = {}
        for home, _names, _metrics in LAYERS.values():
            try:
                homes[home] = importlib.import_module(f"casidec.{home}")
            except ModuleNotFoundError:
                homes[home] = None
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "casidec" or name.startswith("casidec."))]
        for layer, (home, names, _metrics) in LAYERS.items():
            for name in names:
                fn = getattr(homes[home], name, None)
                if fn is None:
                    self.absent.append(f"{home}.{name}")
                    continue
                wrapped = self._wrap(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, fn))

    def _remove(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, layer, fn):
        on_exit = _ON_EXIT.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            outer = self._depth[layer] == 0
            self._depth[layer] += 1
            failed = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter_ns()
                self._depth[layer] -= 1
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self.pass_id, failed, outer)
            if on_exit is not None:
                on_exit(self.counters[self.pass_id], args, result)
            return result

        return traced

    def layer_values(self, pass_id: int) -> dict[str, float]:
        """Per-layer numbers for one recorded pass.

        A layer's time and calls count only its outermost spans, so a layer
        function calling another of the same layer is not counted twice.
        """
        total, calls, errors = Counter(), Counter(), Counter()
        step_children = 0
        for layer, start, end, parent, pid, failed, outer in self.spans:
            if pid != pass_id:
                continue
            if parent >= 0 and self.spans[parent][0] == "wigner_solver.step":
                step_children += end - start
            if outer:
                total[layer] += end - start
                calls[layer] += 1
                errors[layer] += failed
        out = Counter(self.counters[pass_id])
        for layer in LAYERS:
            out[f"{layer}.s"] = total[layer] * 1e-9
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = errors[layer]
        nodes = out["wigner_solver.node_updates"]
        step_self = (total["wigner_solver.step"] - step_children) * 1e-9
        out["wigner_solver.step.self_s"] = step_self
        out["wigner_solver.step.ns_per_node"] = step_self * 1e9 / nodes if nodes else 0.0
        out["scenarios.runs"] = calls["scenarios"]
        out["scenarios.write_s"] = total["scenarios"] * 1e-9 - out["scenarios.runner_s"]
        return out

    def summarize(self, pass_ids) -> dict[str, float]:
        """Median over the given passes of each per-pass layer value."""
        rows = [self.layer_values(pid) for pid in pass_ids]
        names = [n for n in per_layer_metrics() if n not in ("trace_overhead", "failed_frac")]
        return {name: statistics.median(row[name] for row in rows) for name in names}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("pass,layer,start_ns,end_ns,parent,failed\n")
            for layer, start, end, parent, pid, failed, _outer in self.spans:
                fh.write(f"{pid},{layer},{start},{end},{parent},{int(failed)}\n")


def _count_nodes(counter, args, _result):
    grid = args[0]
    counter["wigner_solver.node_updates"] += grid.nx * grid.np


def _scenario_outputs(counter, _args, report):
    """Artifact bytes (the manifest carries timing, so it is left out) and
    the runner's own time, as the manifest records it."""
    out_dir = report.out_dir
    for artifact in ("summary.json", "series.csv"):
        path = out_dir / artifact
        if path.exists():
            counter["scenarios.bytes_written"] += os.path.getsize(path)
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        counter["scenarios.runner_s"] += json.loads(manifest.read_text())["wall_clock_seconds"]


def _count_exit(counter, _args, code):
    counter["cli.nonzero_exits"] += code != 0


_ON_EXIT = {
    "wigner_solver.step": _count_nodes,
    "scenarios": _scenario_outputs,
    "cli": _count_exit,
}
