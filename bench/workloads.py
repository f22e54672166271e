"""The benchmark's workloads: seeded inputs, a fixed task list, and checks.

A workload is built from a seed and a scratch directory; building it is
the set-up the benchmark times. ops() returns the operations of one pass.
Each operation is one scenario run, CLI call or library call. Its run()
gets the previous operation's result (None after a failure), which chains
the steps of one evolution; its check() raises CheckFailed on a wrong
answer and returns the relative error against an exact reference, or None
where no exact reference exists.

The seed changes values, never the amount of work: grid sizes, step
counts, draw counts and branch choices are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable
    check: Callable


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _rel(measured: float, exact: float) -> float:
    return abs(measured / exact - 1.0)


def _close(measured: float, exact: float, what: str, tol: float = 1e-10) -> float:
    err = _rel(measured, exact)
    _require(err <= tol, f"{what}: {measured!r} vs exact {exact!r} (rel {err:.3g})")
    return err


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _field_error(grid, alpha_mag, phase, d1, t_expected):
    _require(abs(grid.time - t_expected) <= 1e-12 * max(t_expected, 1.0),
             f"grid time {grid.time!r}, expected {t_expected!r}")
    exact = ref.diffused_cat_field(grid.x_axis[:, None], grid.p_axis[None, :],
                                   alpha_mag, phase, d1, grid.time)
    return float(np.max(np.abs(grid.values - exact)) / np.max(np.abs(exact)))


# ---------------------------------------------------------------------------

class GridCat:
    """Fringe decay under pure momentum diffusion, on two grids.

    Its drift map is the identity, so the cubic backtrace does no useful
    work here: an identity-drift skip or spectral diffusion shows on this
    workload first.
    """

    FIELD_TOL = 1e-2     # pointwise field error over peak, at td and 10 td
    CALIBRATION = "interp"   # the calib.py kernel that tracks this workload's speed
    DT = 5e-4

    def __init__(self, seed: int, workdir: Path):
        from casidec import wigner_solver as ws
        rng = np.random.default_rng(seed)
        self.phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self.out = workdir / "out"
        self.scenario_cfg = {
            "cat": {"alpha_mag": 2.0, "phase": self.phase, "orientation": "position"},
            "coefficients": {"d1": 1.0, "gamma": 0.0},
            "grid": {"nx": 256, "np": 256},
            "time": {"dt": self.DT, "n_samples": 50},
            "t_end_over_td": 5.0,
        }
        # criterion-10 cat: alpha 5 on 256 x 512, to td and then to 10 td
        self.alpha = 5.0
        self.d1 = 1.0
        self.spec = ws.CatWignerSpec(alpha_mag=self.alpha, phase=self.phase)
        self.coeffs = ws.SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=self.d1)
        self.td = 1.0 / (self.d1 * (4.0 * self.alpha) ** 2)

    def references(self):
        pass   # the exact field is evaluated on each grid the program returns

    def ops(self) -> list[Op]:
        from casidec import scenarios, wigner_solver as ws

        def check_scenario(report):
            s = _read_json(report.out_dir / "summary.json")
            d, nx, n_p = s["derived"], s["inputs"]["nx"], s["inputs"]["np"]
            alpha = self.scenario_cfg["cat"]["alpha_mag"]
            d1 = self.scenario_cfg["coefficients"]["d1"]
            td = 1.0 / (d1 * (4.0 * alpha) ** 2)
            _require(_rel(d["td_measured"], td) <= 0.10,
                     f"fringe td {d['td_measured']!r} not within 10% of {td!r}")
            # init_cat's default box; the run ends at t_end_over_td period-averaged
            # lifetimes 2 td, where the exact field keeps a fringe floor
            # exp(-k^2 sigma_p^2 / 2), so the end state is not positive at alpha 2
            x_half = 1.5 * (2.0 * alpha + 5.0 * ref.SIGMA_X)
            x = np.linspace(-x_half, x_half, nx)
            p = np.linspace(-12.0 * ref.SIGMA_P, 12.0 * ref.SIGMA_P, n_p)
            t_end = self.scenario_cfg["t_end_over_td"] * 2.0 * td
            exact = ref.diffused_cat_field(x[:, None], p, alpha, self.phase, d1, t_end)
            ratio = exact.min() / exact.max()
            _require(abs(d["final_min_w_over_max"] - ratio) <= 1e-3,
                     f"min W / max W = {d['final_min_w_over_max']!r}, exact {ratio!r}")
            peaks = d["marginal_peaks"]
            _require(len(peaks) == 2
                     and all(abs(abs(v) - 2.0 * alpha) <= 2.0 * (x[1] - x[0]) for v in peaks),
                     f"marginal peaks {peaks}, expected +-{2.0 * alpha}")
            return None   # the fitted td is not an exact quantity

        def check_init(grid):
            return _field_error(grid, self.alpha, self.phase, self.d1, 0.0)

        def check_td(grid):
            err = _field_error(grid, self.alpha, self.phase, self.d1, self.td)
            _require(err <= self.FIELD_TOL, f"field error {err:.3g} at td")
            return err

        def check_10td(grid):
            err = _field_error(grid, self.alpha, self.phase, self.d1, 10.0 * self.td)
            _require(err <= self.FIELD_TOL, f"field error {err:.3g} at 10 td")
            w = grid.values
            _require(w.min() / w.max() >= -1e-3, "negative W beyond 1e-3 of peak at 10 td")
            px = w.sum(axis=1)
            half = grid.nx // 2
            x = grid.x_axis
            for got, want in ((x[np.argmax(px[:half])], -10.0),
                              (x[half + np.argmax(px[half:])], 10.0)):
                _require(abs(got - want) <= 2.0 * grid.dx,
                         f"marginal peak at {got:.3f}, expected {want}")
            return err

        return [
            Op("scenario wigner-cat-highT",
               lambda _: scenarios.run_scenario("wigner-cat-highT", self.scenario_cfg,
                                                out_base=str(self.out)),
               check_scenario),
            Op("init_cat 256x512",
               lambda _: ws.init_cat(self.spec, nx=256, n_p=512), check_init),
            Op("evolve_grid to td",
               lambda grid: ws.evolve_grid(grid, self.coeffs, self.td, self.DT), check_td),
            Op("evolve_grid to 10 td",
               lambda grid: ws.evolve_grid(grid, self.coeffs, 10.0 * self.td, self.DT),
               check_10td),
        ]


# ---------------------------------------------------------------------------

ORACLE = {
    "coefficients": {"mass": 0.5, "omega": 1.0, "gamma": 0.05, "d1": 0.025, "d2": 0.0},
    "initial": {"mean_x": 2.0, "mean_p": 0.25, "cov_xx": 1.69, "cov_xp": 0.05,
                "cov_pp": 0.16},
    "grid": {"nx": 256, "np": 256, "x_half_width": 14.0, "p_half_width": 7.0},
    "time": {"dt_periods": 0.005, "t_end": 20.0, "n_samples": 40},
}
_MOMENTS = ("mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp")


def oracle_initial(rng) -> dict:
    """Oracle start with its mean moved along the free-rotation ellipse.

    The default mean lies on x^2 + (p / m omega)^2 = const; any point of
    that ellipse is one the default run already visits, so the box still
    holds the state.
    """
    co, init = ORACLE["coefficients"], ORACLE["initial"]
    mw = co["mass"] * co["omega"]
    radius = math.hypot(init["mean_x"], init["mean_p"] / mw)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {**init, "mean_x": radius * math.cos(angle),
            "mean_p": mw * radius * math.sin(angle)}


def oracle_generator():
    co = ORACLE["coefficients"]
    return ref.moment_generator(co["mass"], co["omega"], co["gamma"], co["d1"], co["d2"])


def oracle_times():
    tm = ORACLE["time"]
    return [tm["t_end"] * i / tm["n_samples"] for i in range(tm["n_samples"] + 1)]


class GridOracle:
    """A mixed Gaussian through one damping time with rotation, damping
    and diffusion all on, against the exact moment flow.

    The full affine backtrace is real work here, so FFT shears show on
    this workload, and an identity-drift skip must not move it.
    """

    MOMENT_TOL = 1e-3
    CALIBRATION = "interp"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cfg = {**ORACLE, "initial": oracle_initial(rng)}
        self.out = workdir / "out"

    def references(self):
        init = self.cfg["initial"]
        self.times = oracle_times()
        self.exact = ref.moment_flow(oracle_generator(), [init[m] for m in _MOMENTS],
                                     self.times)

    def ops(self) -> list[Op]:
        from casidec import scenarios

        def check(report):
            with open(report.out_dir / "series.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            _require(len(rows) == len(self.times), f"{len(rows)} series rows")
            t = np.array([float(r["t_nondim"]) for r in rows])
            _require(np.allclose(t, self.times, rtol=0, atol=1e-12), "sample times differ")
            grid = np.array([[float(r[m]) for m in _MOMENTS] for r in rows])
            errors = ref.peak_relative_errors(grid, self.exact)
            worst = float(np.max(errors))
            _require(worst <= self.MOMENT_TOL,
                     f"moment errors {dict(zip(_MOMENTS, errors.round(6)))} exceed 1e-3")
            own = _read_json(report.out_dir / "summary.json")["derived"]
            _require(own["max_rel_moment_error_overall"] <= self.MOMENT_TOL,
                     "scenario's own moment-oracle error exceeds 1e-3")
            return worst

        return [Op("scenario wigner-gaussian-oracle",
                   lambda _: scenarios.run_scenario("wigner-gaussian-oracle", self.cfg,
                                                    out_base=str(self.out)),
                   check)]


# ---------------------------------------------------------------------------

def _loguniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _gamma_plane(mass, omega0):
    return ref.HBAR * omega0**2 / (12.0 * math.pi * mass * ref.C**2)


def _check_rayleigh(cfg, s):
    m = cfg["mirror"]
    size = m["omega0"] * m["radius"] / ref.C
    plane = _gamma_plane(m["mass"], m["omega0"])
    sphere = plane * size**6 / 108.0
    d = s["derived"]
    return max(_close(d["gamma_plane_per_s"], plane, "plane gamma"),
               _close(d["gamma_sphere_per_s"], sphere, "sphere gamma"),
               _close(d["rayleigh_suppression"], size**6 / 108.0, "suppression"),
               _close(d["td_routes_s"]["amplitude"],
                      1.0 / (4.0 * cfg["cat"]["alpha_mag"] ** 2 * sphere), "td"))


def _check_thermal(cfg, s):
    m = cfg["mirror"]
    kt = ref.K_B * m["temperature"]
    gamma = (4.0 * math.pi**3 / 45.0) * kt**4 * m["radius"] ** 2 / (
        ref.HBAR**3 * ref.C**4 * m["mass"])
    td = (45.0 / (8.0 * math.pi**3)) * ref.HBAR**5 * ref.C**4 / (
        kt**5 * m["radius"] ** 2 * cfg["delta_x"] ** 2)
    d = s["derived"]
    routes = d["td_routes_s"]
    return max(_close(d["gamma_per_s"], gamma, "thermal gamma"),
               _close(d["thermal_length_m"], ref.HBAR / math.sqrt(2.0 * m["mass"] * kt),
                      "thermal length"),
               _close(d["d1_kg2_m2_per_s3"], 2.0 * m["mass"] * kt * gamma, "d1"),
               *(_close(routes[r], td, f"td route {r}")
                 for r in ("thermal_length", "combined", "diffusion")))


def _check_sieve(cfg, s):
    m = cfg["mirror"]
    d = s["derived"]
    _require(d["r_star"] <= 1e-3, f"sieve r* = {d['r_star']!r}")
    _require(d["stable"] is True, "sieve optimum not stable over evaluation times")
    _require(all(r <= 1e-3 for r in d["argmin_r_per_time"]), "squeezed state wins later")
    gamma = _gamma_plane(m["mass"], m["omega0"])
    return max(_close(d["gamma_per_s"], gamma, "gamma"),
               _close(d["d1_kg2_m2_per_s3"], ref.HBAR * m["mass"] * m["omega0"] * gamma,
                      "vacuum d1"))


def _check_mirror(cfg, s):
    m = cfg["mirror"]
    mass, w0, alpha = m["mass"], m["omega0"], cfg["cat"]["alpha_mag"]
    gamma = _gamma_plane(mass, w0)
    td = 1.0 / (4.0 * alpha**2 * gamma)
    d = s["derived"]
    roots = d["characteristic_roots"]
    ratio = ref.HBAR * w0 / (mass * ref.C**2)
    _require(roots["re_deviation_rel"] <= 10.0 * ratio**2,
             f"oscillatory root off -gamma by {roots['re_deviation_rel']!r}")
    return max(_close(d["gamma_per_s"], gamma, "gamma"),
               _close(d["ground_width_m"], math.sqrt(ref.HBAR / (2.0 * mass * w0)), "width"),
               _close(roots["runaway_per_s"], 6.0 * math.pi * mass * ref.C**2 / ref.HBAR,
                      "runaway root", tol=1e-6),
               *(_close(v, td, f"td route {r}") for r, v in d["td_routes_s"].items()))


def _check_identity(cfg, s):
    dev = s["derived"]["max_relative_deviation"]
    _require(s["pass"] is True and all(v <= 1e-12 for v in dev.values()),
             f"identity deviations {dev}")
    return max(dev.values())


_CHECKS = {
    "sphere-rayleigh-vacuum": _check_rayleigh,
    "sphere-thermal-free": _check_thermal,
    "cosmic-background-sphere": _check_thermal,
    "sieve-pointer-states": _check_sieve,
    "1d-mirror-vacuum": _check_mirror,
    "identity-suite": _check_identity,
}
_LIGHT = ("sphere-rayleigh-vacuum", "sphere-thermal-free", "cosmic-background-sphere",
          "sieve-pointer-states")


def _scenario_config(scenario, rng) -> dict:
    """One seeded config; ranges keep every run inside its formula's regime
    and on the same branch (no warnings, same calls for every seed)."""
    if scenario == "sphere-rayleigh-vacuum":
        # size parameter stays above 2.6 v/c: the relative-weight route is skipped
        return {"mirror": {"mass": _loguniform(rng, 1e-22, 1e-20),
                           "omega0": _loguniform(rng, 1e9, 1e10),
                           "radius": _loguniform(rng, 1e-6, 1e-5)},
                "cat": {"alpha_mag": rng.uniform(5.0, 50.0), "phase": 0.0}}
    if scenario == "sphere-thermal-free":
        return {"mirror": {"mass": _loguniform(rng, 1e-10, 1e-8),
                           "temperature": rng.uniform(250.0, 400.0),
                           "radius": _loguniform(rng, 2e-4, 5e-4)},
                "delta_x": _loguniform(rng, 3e-10, 1e-9)}
    if scenario == "cosmic-background-sphere":
        return {"mirror": {"mass": _loguniform(rng, 0.1, 10.0),
                           "temperature": rng.uniform(2.6, 2.8),
                           "radius": _loguniform(rng, 1e-2, 2e-2)},
                "delta_x": _loguniform(rng, 3e-7, 3e-6)}
    if scenario == "sieve-pointer-states":
        return {"mirror": {"mass": _loguniform(rng, 1e-22, 1e-20),
                           "omega0": _loguniform(rng, 1e9, 1e11)}}
    if scenario == "1d-mirror-vacuum":
        # mass proportional to omega0 fixes hbar omega0 / M c^2, and with it
        # the working precision of the mpmath root solve
        omega0 = _loguniform(rng, 1e9, 1e11)
        return {"mirror": {"mass": 1e-31 * omega0, "omega0": omega0},
                "cat": {"alpha_mag": rng.uniform(5.0, 50.0), "phase": 0.0}}
    if scenario == "identity-suite":
        return {"seed": int(rng.integers(0, 2**31))}
    raise ValueError(scenario)


NATURAL_CRIT4 = ((100.0, 100.0), (150.0, 100.0), (150.0, 200.0), (150.0, 400.0))
ROOT_MASSES = ((1e-21, 1e10), (1e-24, 1e8), (1e-18, 1e12), (1e-22, 5e9))


class AnalyticSweep:
    """Every closed-form module and the artifact write path, no grid.

    About 400 light scenario runs through the CLI (mostly merge, render
    and write), 40 mpmath root solves, three identity suites, the
    criterion-4 quadratures, the criterion-3 roots, the RK4 moment
    integrator over the oracle span and a few pair-emission calls. A
    grid-solver change predicts no change here.
    """

    LIGHT_RUNS = 400
    MIRROR_RUNS = 40
    IDENTITY_RUNS = 3
    CALIBRATION = "mixed"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        configs = workdir / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        plan = ([_LIGHT[i % len(_LIGHT)] for i in range(self.LIGHT_RUNS)]
                + ["1d-mirror-vacuum"] * self.MIRROR_RUNS
                + ["identity-suite"] * self.IDENTITY_RUNS)
        self.cli_runs = []
        for i, scenario in enumerate(plan):
            cfg = _scenario_config(scenario, rng)
            path = configs / f"{i:04d}.json"
            path.write_text(json.dumps({"scenario": scenario, **cfg}))
            self.cli_runs.append((scenario, cfg, str(path), str(workdir / "out" / f"{i:04d}")))
        self.oracle_initial = oracle_initial(rng)
        self.pair = (rng.uniform(5.0, 50.0), _loguniform(rng, 1e-13, 1e-11),
                     rng.uniform(0.01, 0.5))

    def references(self):
        self.times = oracle_times()
        self.exact = ref.moment_flow(oracle_generator(),
                                     [self.oracle_initial[m] for m in _MOMENTS], self.times)
        self.exact_peak = np.max(np.abs(self.exact), axis=0)

    def ops(self) -> list[Op]:
        from casidec import cli, gaussian_dynamics as gd, pair_emission as pe
        from casidec import spectra_damping as sd
        from casidec.params import MirrorParams, PhysicalConstants
        ops = []

        for scenario, cfg, path, out in self.cli_runs:
            def check_cli(code, cfg=cfg, out=out, scenario=scenario):
                _require(code == 0, f"casidec run exited {code}")
                return _CHECKS[scenario](cfg, _read_json(Path(out) / scenario / "summary.json"))

            ops.append(Op(f"cli run {scenario}",
                          lambda _, path=path, out=out: cli.main(["run", path, "--out", out]),
                          check_cli))

        natural = PhysicalConstants.natural()
        for t, mult in NATURAL_CRIT4:
            def check_d1(d1, mult=mult):
                # the asymptote sigma(omega0)/4, natural units, omega0 = 1
                target = math.exp(-1.0 / mult) / (3.0 * math.pi) / 4.0
                _require(_rel(d1, target) <= 0.01, f"D1 {d1!r} not within 1% of {target!r}")
                return None   # finite-time D1 differs from the asymptote by physics

            ops.append(Op(f"diffusion_finite_time t={t} cutoff={mult}",
                          lambda _, t=t, mult=mult: sd.diffusion_finite_time(
                              t, 1.0, sd.SpectrumModel.for_oscillator(1.0, multiplier=mult),
                              natural),
                          check_d1))

        for mass, w0 in ROOT_MASSES:
            def check_roots(roots, mass=mass, w0=w0):
                ratio = ref.HBAR * w0 / (mass * ref.C**2)
                _require(roots.re_deviation_rel <= 10.0 * ratio**2, "oscillatory root")
                return _close(roots.runaway, 6.0 * math.pi * mass * ref.C**2 / ref.HBAR,
                              "runaway root", tol=1e-6)

            ops.append(Op(f"characteristic_roots M={mass:g}",
                          lambda _, mass=mass, w0=w0: sd.characteristic_roots(
                              MirrorParams(mass=mass, omega0=w0)),
                          check_roots))

        co = ORACLE["coefficients"]
        params = MirrorParams(mass=co["mass"], omega0=co["omega"])
        coeffs = sd.CoefficientSet(omega_star=co["omega"], gamma=co["gamma"],
                                   d1=co["d1"], d2=co["d2"])
        start = gd.GaussianState(**self.oracle_initial)
        # same reference step as the grid-oracle scenario's twin
        ode_dt = 1e-3 * min(2.0 * math.pi / co["omega"], 1.0 / co["gamma"])
        for i in range(1, len(self.times)):
            span = self.times[i] - self.times[i - 1]

            def check_state(state, i=i):
                got = np.array([getattr(state, m) for m in _MOMENTS])
                err = float(np.max(np.abs(got - self.exact[i]) / self.exact_peak))
                _require(err <= 1e-6, f"RK4 moments off the exact flow by {err:.3g}")
                return err

            ops.append(Op(f"evolve leg {i}",
                          lambda prev, i=i, span=span: gd.evolve(
                              start if i == 1 else prev, params, coeffs, span, dt=ode_dt),
                          check_state))

        alpha, gamma, frac = self.pair
        rate = 4.0 * alpha**2 * gamma
        t = frac / rate
        ops += [
            Op("pair_probability", lambda _: pe.pair_probability(t, alpha, gamma),
               lambda v: _close(v, 2.0 * alpha**2 * gamma * t, "pair weight")),
            Op("which_way_overlap", lambda _: pe.which_way_overlap(t, alpha, gamma),
               lambda v: _close(v, math.exp(-rate * t), "overlap")),
            Op("which_way_overlap linear",
               lambda _: pe.which_way_overlap(t, alpha, gamma, exponentiated=False),
               lambda v: _close(v, 1.0 - rate * t, "linear overlap")),
            Op("reduced_offdiagonal_weight",
               lambda _: pe.reduced_offdiagonal_weight(t, alpha, gamma),
               lambda v: _close(v, 0.5 * math.exp(-rate * t), "off-diagonal weight")),
            Op("emission_state", lambda _: pe.emission_state(t, alpha, gamma),
               lambda st: max(_close(st.pair_weight, 2.0 * alpha**2 * gamma * t, "weight"),
                              _close(st.overlap, 1.0 - rate * t, "overlap"))),
        ]
        return ops


WORKLOADS = {"grid-cat": GridCat, "grid-oracle": GridOracle, "analytic-sweep": AnalyticSweep}
