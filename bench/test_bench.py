"""Tests of the benchmark itself: its references, counts and output names.

    python3 -m pytest -q bench/test_bench.py

Run from the repository root. The count and output-name tests run real
passes, so the file takes one to two minutes.
"""

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calib  # noqa: E402
import references as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from casidec import gaussian_dynamics as gd, spectra_damping as sd  # noqa: E402
from casidec import wigner_solver as ws  # noqa: E402
from casidec.params import MirrorParams  # noqa: E402


@pytest.mark.parametrize("alpha, phase, n_p", [(5.0, 1.3, 512), (2.0, 4.0, 256)])
def test_cat_reference_matches_init_cat(alpha, phase, n_p):
    grid = ws.init_cat(ws.CatWignerSpec(alpha_mag=alpha, phase=phase), nx=256, n_p=n_p)
    exact = ref.diffused_cat_field(grid.x_axis[:, None], grid.p_axis[None, :],
                                   alpha, phase, 1.0, 0.0)
    assert np.max(np.abs(grid.values - exact)) <= 1e-12 * np.max(exact)


def test_gaussian_reference_matches_init_gaussian():
    init = workloads.oracle_initial(np.random.default_rng(3))
    g = workloads.ORACLE["grid"]
    grid = ws.init_gaussian(*(init[m] for m in workloads._MOMENTS), nx=g["nx"], n_p=g["np"],
                            x_half_width=g["x_half_width"], p_half_width=g["p_half_width"])
    moments = ref.moment_flow(workloads.oracle_generator(),
                              [init[m] for m in workloads._MOMENTS], [0.0])[0]
    exact = ref.gaussian_field(grid.x_axis[:, None], grid.p_axis[None, :], moments)
    assert np.max(np.abs(grid.values - exact)) <= 1e-12 * np.max(exact)


def test_expm_flow_matches_evolve():
    co = workloads.ORACLE["coefficients"]
    init = workloads.oracle_initial(np.random.default_rng(5))
    state = gd.evolve(gd.GaussianState(**init), MirrorParams(mass=co["mass"], omega0=co["omega"]),
                      sd.CoefficientSet(omega_star=co["omega"], gamma=co["gamma"],
                                        d1=co["d1"], d2=co["d2"]),
                      0.5, dt=1e-3)
    exact = ref.moment_flow(workloads.oracle_generator(),
                            [init[m] for m in workloads._MOMENTS], [0.5])[0]
    got = np.array([getattr(state, m) for m in workloads._MOMENTS])
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-8


def _traced_pass(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
    workload.references()
    tracer = spans.Tracer()
    prev = None
    ops = workload.ops()
    with tracer.recording(0):
        for op in ops:
            prev = op.run(prev)
            op.check(prev)
    return tracer.layer_values(0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_seeds(name, tmp_path):
    a, b = (_traced_pass(name, seed, tmp_path) for seed in (1, 2))
    counts = [n for n in a if n.endswith(".calls") or n == "wigner_solver.node_updates"]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    if name.startswith("grid"):
        assert a["wigner_solver.step.calls"] > 0


def _last_json_line(argv):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], cwd=ROOT,
                         capture_output=True, text=True, timeout=600, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_printed_metric_names_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _last_json_line(["--workload", "analytic-sweep", "--seed", "7",
                                  "--seconds", "0", "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-cat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_layer_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(ws, "map_coordinates")
    tracer = spans.Tracer()
    with tracer.recording(0):
        ws.init_cat(ws.CatWignerSpec(alpha_mag=1.0), nx=64, n_p=64)
    assert tracer.absent == ["wigner_solver.map_coordinates"]
    values = tracer.layer_values(0)
    assert values["wigner_solver.drift_interp.calls"] == 0
    assert values["wigner_solver.init.calls"] == 1


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_calibration_samples_only_while_active():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler("mixed") as sampler:
        _busy(0.2)
        assert sampler.take() == []
        sampler.active = True
        _busy(0.5)
        sampler.active = False
        inside = sampler.take()
        _busy(0.2)
        assert sampler.take() == []
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 3 <= len(inside) <= 9   # one kernel per 60 ms, fewer if the host stalls
    assert calib.calibrated(0.5, inside, 0.002) == pytest.approx(
        (0.5 - sum(inside)) / 0.002)
