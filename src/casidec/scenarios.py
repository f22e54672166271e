"""Scenario registry: canned parameter regimes with persisted results.

Every scenario resolves to a runner that returns a JSON-ready summary and,
when it evolves something, a fixed-column time series. run_scenario merges
user overrides into the scenario defaults (unknown keys rejected), executes
the runner, and writes summary.json, series.csv, and manifest.json into
<out>/<scenario>/. The numeric artifacts are deterministic: identical
config produces byte-identical summary and CSV; only the manifest carries
wall-clock timing.

Each number is serialized as the shortest text that reads back to the
exact binary double the run produced.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .errors import (ConfigError, DomainError, GridTooSmall, IoError, RegimeWarning,
                     UnknownScenario)
from .params import (
    CODATA,
    CatSpec,
    MirrorParams,
    PhysicalConstants,
    derived_quantities,
    ground_state_width,
    packet_velocity,
    separation_from_alpha,
    thermal_de_broglie,
)
from .spectra_damping import (
    CoefficientSet,
    characteristic_roots,
    coefficient_set,
    damping_rate,
    diffusion_asymptotic,
    gamma_vacuum_1d,
    gamma_vacuum_sphere,
    gamma_thermal_sphere,
)
from .decoherence_times import (
    td_cat_vacuum,
    td_from_diffusion,
    td_from_separation,
    td_high_T,
    td_relative_1d,
    td_relative_sphere,
    td_thermal_sphere_free,
)
from .gaussian_dynamics import (
    GaussianState,
    _secular_flow,
    evolve,
    purity,
    secular_linear_entropy,
    sieve_search,
    squeezed_pure_state,
)
from .wigner_solver import (
    CatWignerSpec,
    SolverCoefficients,
    check_cat_contained,
    evolve_grid,
    fringe_visibility,
    grid_moments,
    grid_norm,
    grid_purity,
    init_cat,
    init_gaussian,
    marginals,
    measure_td,
    wmin_over_wmax,
)

__all__ = [
    "RunReport",
    "describe",
    "list_scenarios",
    "run_scenario",
    "scenario_defaults",
]

_SCHEMA_VERSION = 19
_OUT_DIR_ENV = "CASIDEC_OUT_DIR"
_CSV_COLUMNS = ("visibility", "purity", "mean_x", "mean_p",
                "cov_xx", "cov_xp", "cov_pp")


# ---------------------------------------------------------------------------
# deterministic serialization

def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"non-finite value {x!r} has no place in an output file; "
                          "the inputs drive a result beyond double precision")
    return repr(float(x))  # float(): numpy 2 reprs np.float64 as "np.float64(...)"


def _json_render(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, shortest round-trip floats."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"non-finite value has no place in an output file ({exc}); "
                          "the inputs drive a result beyond double precision") from exc


def _write_all(out_dir: Path, texts: dict):
    """Write every artifact to its .tmp, then rename each into place: a
    failed write replaces no artifact, and unlinks the temps written."""
    tmps = []
    try:
        for name, text in texts.items():
            tmps.append(out_dir / (name + ".tmp"))
            tmps[-1].write_text(text)
        for name, tmp in zip(texts, tmps):
            os.replace(tmp, out_dir / name)
    except OSError as exc:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {out_dir / name}: {exc}") from exc


def _render_csv(time_label: str, rows: list[dict]) -> str:
    header = ",".join((time_label,) + _CSV_COLUMNS)
    lines = [header]
    for row in rows:
        cells = [format_float(row["time"])]
        for col in _CSV_COLUMNS:
            val = row.get(col)
            cells.append("" if val is None else format_float(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config handling

def _is_finite_number(v) -> bool:
    # the bound also turns away NaN and integers beyond double range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# count-valued keys: a series holds at least its two ends and a grid at least
# the solver's 16 points a side; the caps keep a config from asking for
# unbounded memory or time (a 2048 x 2048 grid is 32 MB per field array).
# A seed only has to be non-negative, as numpy's generators require.
_COUNT_BOUNDS = {
    "seed": (0, math.inf),
    "draws": (1, 1_000_000),
    "series_points": (2, 10_000),
    "time.n_samples": (1, 10_000),
    "grid.nx": (16, 2048),
    "grid.np": (16, 2048),
}


def _merge_config(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, ov in overrides.items():
        where = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key '{where}'")
        dv = defaults[key]
        if isinstance(dv, dict):
            if not isinstance(ov, dict):
                raise ConfigError(f"'{where}' must be a mapping")
            merged[key] = _merge_config(dv, ov, where + ".")
        elif isinstance(dv, int):
            if isinstance(ov, bool) or not isinstance(ov, int):
                raise ConfigError(f"'{where}' must be an integer")
            lo, hi = _COUNT_BOUNDS.get(where, (ov, ov))
            if not lo <= ov <= hi:
                raise ConfigError(f"'{where}' must be an integer in [{lo}, {hi}], got {ov}")
            merged[key] = ov
        elif isinstance(dv, float):
            if not _is_finite_number(ov):
                raise ConfigError(f"'{where}' must be a finite number")
            merged[key] = float(ov)
        elif isinstance(dv, str):
            if not isinstance(ov, str):
                raise ConfigError(f"'{where}' must be a string")
            merged[key] = ov
        else:  # a list of floats, the one remaining default type
            if not (isinstance(ov, list) and len(ov) == len(dv)
                    and all(_is_finite_number(v) for v in ov)):
                raise ConfigError(f"'{where}' must be a list of {len(dv)} finite numbers")
            merged[key] = [float(v) for v in ov]
    return merged


# ---------------------------------------------------------------------------
# shared pieces

# steps a grid run may take at most (the defaults take 350 and 640)
_MAX_GRID_STEPS = 100_000


def _require_positive(cfg: dict, *keys: str):
    """Refuse, by name, each dotted config key whose value is not > 0."""
    for key in keys:
        section, _, leaf = key.rpartition(".")
        value = cfg[section][leaf] if section else cfg[leaf]
        if not value > 0:
            raise ConfigError(f"'{key}' must be > 0, got {value!r}")


def _sample_steps(t_end: float, n_samples: int, dt: float, keys: str) -> tuple[int, float]:
    """Whole steps per sample, each no longer than dt (to a relative 1e-9, as in
    evolve_grid), and their size; refused by the keys that set them past
    _MAX_GRID_STEPS."""
    per_sample = t_end / (n_samples * dt) * (1.0 - 1e-9)
    if not per_sample <= _MAX_GRID_STEPS // n_samples:
        raise ConfigError(f"{keys} ask for {per_sample * n_samples:.3g} grid steps; "
                          f"a run takes at most {_MAX_GRID_STEPS}")
    per = max(1, math.ceil(per_sample))
    return per, t_end / (n_samples * per)


def _cat_series(td: float, n: int, delta_x: float, width: float,
                cov_pp: float, keys: str) -> tuple[str, list[dict]]:
    """Analytic fringe decay of a frozen two-packet state, as a series.

    visibility exp(-t/td) over five lifetimes; purity of the balanced
    which-way reduction (1 + v^2)/2; second moments held at their
    (overlap-free) cat values, cov_xx being (delta_x / 2)^2 plus the packet
    width squared. A lifetime of 0, or one whose five lifetimes leave the
    double range, is refused by the keys that set it.
    """
    if not 0.0 < td <= sys.float_info.max / 5.0:
        raise ConfigError(f"{keys} give a fringe lifetime of {td!r} s; its series spans "
                          "five lifetimes, which must lie inside the double range")
    cov_xx = delta_x**2 / 4.0 + width**2
    rows = []
    for t in np.linspace(0.0, 5.0 * td, n):
        v = math.exp(-t / td)
        rows.append({"time": float(t), "visibility": v,
                     "purity": 0.5 * (1.0 + v * v),
                     "mean_x": 0.0, "mean_p": 0.0,
                     "cov_xx": cov_xx, "cov_xp": 0.0, "cov_pp": cov_pp})
    return "t_seconds", rows


# ---------------------------------------------------------------------------
# lifetime routes: the td_routes_s of the SI scenarios, each checked by the identity suite

def _plane_routes(params: MirrorParams, alpha: float, gamma: float,
                  v_over_c: float) -> dict:
    """A plane mirror's cat lifetime by amplitude, separation and emitted weight."""
    return {
        "amplitude": td_cat_vacuum(alpha, gamma),
        "separation": td_from_separation(separation_from_alpha(alpha, params),
                                         ground_state_width(params), gamma),
        "relative_weight": td_relative_1d(v_over_c, params.omega0),
    }


def _sphere_routes(params: MirrorParams, alpha: float, gamma: float,
                   v_over_c: float) -> dict:
    """A small sphere's cat lifetime by amplitude, and by emitted weight where
    td_relative_sphere holds: size parameter below v/c."""
    routes = {"amplitude": td_cat_vacuum(alpha, gamma)}
    if params.omega0 * params.radius / CODATA.c < v_over_c:
        routes["relative_weight"] = td_relative_sphere(v_over_c, params.omega0, params.radius)
    return routes


def _thermal_routes(params: MirrorParams, delta_x: float, gamma: float) -> dict:
    """A free sphere's coherence lifetime in thermal radiation by thermal
    length, the combined closed form and momentum diffusion."""
    return {
        "thermal_length": td_high_T(thermal_de_broglie(params), delta_x, gamma),
        "combined": td_thermal_sphere_free(params, delta_x),
        "diffusion": td_from_diffusion(diffusion_asymptotic(params, gamma), delta_x,
                                       oscillatory=False),
    }


# ---------------------------------------------------------------------------
# scenario runners

def _run_1d_mirror_vacuum(cfg: dict):
    params = MirrorParams(**cfg["mirror"])
    cat = CatSpec(alpha_mag=cfg["cat"]["alpha_mag"], phase=cfg["cat"]["phase"])
    dq = derived_quantities(params, cat)
    gamma = damping_rate(params)
    roots = characteristic_roots(params)
    v_over_c = dq.packet_velocity / CODATA.c
    routes = _plane_routes(params, dq.alpha_mag, gamma, v_over_c)
    osc = roots.oscillatory[0]

    summary = {
        "units": "SI",
        "inputs": {"mass_kg": params.mass, "omega0_rad_per_s": params.omega0,
                   "alpha_mag": dq.alpha_mag},
        "derived": {
            "gamma_per_s": gamma,
            "ground_width_m": dq.ground_width,
            "delta_x_m": dq.delta_x,
            "packet_velocity_m_per_s": dq.packet_velocity,
            "v_over_c": v_over_c,
            "hbar_omega0_over_Mc2": CODATA.hbar * params.omega0 / (
                params.mass * CODATA.c**2),
            "td_routes_s": routes,
            "characteristic_roots": {
                "oscillatory_re_per_s": osc.real,
                "oscillatory_im_per_s": osc.imag,
                "runaway_per_s": roots.runaway,
                "re_deviation_rel": roots.re_deviation_rel,
            },
        },
    }
    return summary, _cat_series(routes["amplitude"], cfg["series_points"], dq.delta_x,
                                dq.ground_width, (CODATA.hbar / (2.0 * dq.ground_width)) ** 2,
                                "'mirror.mass', 'mirror.omega0' and 'cat.alpha_mag'")


def _run_sphere_rayleigh_vacuum(cfg: dict):
    params = MirrorParams(**cfg["mirror"])
    cat = CatSpec(alpha_mag=cfg["cat"]["alpha_mag"], phase=cfg["cat"]["phase"])
    dq = derived_quantities(params, cat)
    gamma_sph = damping_rate(params)
    gamma_flat = gamma_vacuum_1d(params)
    size = params.omega0 * params.radius / CODATA.c
    v_over_c = dq.packet_velocity / CODATA.c
    routes = _sphere_routes(params, dq.alpha_mag, gamma_sph, v_over_c)

    derived = {
        "gamma_sphere_per_s": gamma_sph,
        "gamma_plane_per_s": gamma_flat,
        "rayleigh_suppression": gamma_sph / gamma_flat,
        "size_parameter": size,
        "v_over_c": v_over_c,
        "td_routes_s": routes,
    }
    if "relative_weight" not in routes:
        derived["relative_weight_note"] = (
            "skipped: size parameter exceeds the validity window of the "
            "closed-form relative-weight route")

    summary = {
        "units": "SI",
        "inputs": {"mass_kg": params.mass, "omega0_rad_per_s": params.omega0,
                   "radius_m": params.radius, "alpha_mag": dq.alpha_mag},
        "derived": derived,
    }
    return summary, _cat_series(routes["amplitude"], cfg["series_points"], dq.delta_x,
                                dq.ground_width, (CODATA.hbar / (2.0 * dq.ground_width)) ** 2,
                                "'mirror.mass', 'mirror.omega0', 'mirror.radius' and "
                                "'cat.alpha_mag'")


def _run_thermal_sphere(cfg: dict):
    params = MirrorParams(**cfg["mirror"])
    delta_x = cfg["delta_x"]
    gamma = damping_rate(params)
    lam = thermal_de_broglie(params)
    d1 = diffusion_asymptotic(params, gamma)
    routes = _thermal_routes(params, delta_x, gamma)

    summary = {
        "units": "SI",
        "inputs": {"mass_kg": params.mass, "temperature_K": params.temperature,
                   "radius_m": params.radius, "delta_x_m": delta_x},
        "derived": {
            "gamma_per_s": gamma,
            "thermal_length_m": lam,
            "d1_kg2_m2_per_s3": d1,
            "td_routes_s": routes,
            "td_times_dx2_s_m2": routes["combined"] * delta_x**2,
        },
    }
    return summary, _cat_series(routes["combined"], cfg["series_points"], delta_x, lam,
                                params.mass * CODATA.k_boltzmann * params.temperature,
                                "'mirror.temperature', 'mirror.radius' and 'delta_x'")


def _run_sieve_pointer_states(cfg: dict):
    params = MirrorParams(**cfg["mirror"])
    coeffs = coefficient_set(params)
    gamma, d1 = coeffs.gamma, coeffs.d1
    res = sieve_search(params, coeffs)

    landscape = [{"r": row[0], "rate_per_s": row[1],
                  "entropy_at_eval_times": list(row[2:])}
                 for row in res.landscape]
    summary = {
        "units": "SI",
        "inputs": {"mass_kg": params.mass, "omega0_rad_per_s": params.omega0},
        "derived": {
            "gamma_per_s": gamma,
            "d1_kg2_m2_per_s3": d1,
            "r_star": res.r_star,
            "rate_at_optimum_per_s": res.rate_at_optimum,
            "eval_times_s": list(res.eval_times),
            "argmin_r_per_time": list(res.argmin_r_per_time),
            "stable": res.stable,
        },
        "landscape": landscape,
    }

    # time series: the selected pointer state, period-averaged closed form
    # (step-resolved integration to 0.5/gamma is unreachable at vacuum scale)
    state = squeezed_pure_state(res.r_star, 0.0, params, coeffs.omega_star)
    mw = params.mass * coeffs.omega_star
    rows = []
    for t in np.linspace(0.0, 0.5 / gamma, cfg["series_points"]):
        ent = secular_linear_entropy(state, params, coeffs, float(t))
        occ, _ = _secular_flow(state, params, coeffs, float(t))
        rows.append({"time": float(t), "visibility": None,
                     "purity": 1.0 - ent,
                     "mean_x": 0.0, "mean_p": 0.0,
                     "cov_xx": CODATA.hbar * occ / mw, "cov_xp": 0.0,
                     "cov_pp": CODATA.hbar * occ * mw})
    return summary, ("t_seconds", rows)


def _run_wigner_cat_hight(cfg: dict):
    cat = dict(cfg["cat"])
    if cat.pop("orientation") != "position":
        raise ConfigError(f"'cat.orientation' = {cfg['cat']['orientation']!r}: the grid's cat is "
                          "separated in position, with its fringes along p")
    _require_positive(cfg, "cat.alpha_mag", "coefficients.d1", "t_end_over_td", "time.dt")
    spec = CatWignerSpec(**cat)
    sc = SolverCoefficients(mass=None, omega=0.0, **cfg["coefficients"])
    k = spec.fringe_wavenumber
    natural = PhysicalConstants.natural()
    td_plain = td_from_diffusion(sc.d1, spec.separation, oscillatory=False, constants=natural)
    td_avg = td_from_diffusion(sc.d1, spec.separation, oscillatory=True, constants=natural)
    t_end = cfg["t_end_over_td"] * td_avg

    n_samples = cfg["time"]["n_samples"]
    dt = cfg["time"]["dt"]
    per, h = _sample_steps(t_end, n_samples, dt, "'time.dt' and 't_end_over_td'")
    grid = init_cat(spec, nx=cfg["grid"]["nx"], n_p=cfg["grid"]["np"])
    # the envelope moves monotonically, so its first and last step bear the most edge mass
    try:    # rather than step until the ring monitor stops the run
        check_cat_contained(grid, sc, (h, h * (per * n_samples)))
    except GridTooSmall as exc:
        raise ConfigError(f"'cat.alpha_mag' and 't_end_over_td': {exc}") from exc
    times, vis, rows = [], [], []

    def observe(g):
        v = fringe_visibility(g)
        times.append(g.time)
        vis.append(v)
        rows.append(_wigner_row(g, v))

    grid = evolve_grid(grid, sc, t_end, h, sample_every=per, observer=observe)

    fit = measure_td(times, vis)
    px, _ = marginals(grid)
    peaks = _marginal_peaks(grid.x_axis, px)
    summary = {
        "units": "nondimensional (thermal solver scales)",
        "inputs": {"alpha_mag": spec.alpha_mag, "separation": spec.separation,
                   "fringe_wavenumber": k, "d1": sc.d1, "gamma": sc.gamma,
                   "nx": grid.nx, "np": grid.np, "dt": dt},
        "derived": {
            "td_measured": fit.td,
            "td_frozen_formula": td_plain,
            "td_period_averaged_formula": td_avg,
            "measured_over_frozen": fit.td / td_plain,
            "fit_r_squared": fit.r_squared,
            "fit_points": fit.n_points,
            "final_visibility": vis[-1],
            "final_min_w_over_max": wmin_over_wmax(grid),
            "final_norm_drift": grid_norm(grid) - 1.0,
            "marginal_peaks": peaks,
            "expected_peaks": [-0.5 * spec.separation, 0.5 * spec.separation],
        },
    }
    return summary, ("t_nondim", rows)


def _run_wigner_gaussian_oracle(cfg: dict):
    co = cfg["coefficients"]
    if co["d2"] != 0:
        raise ConfigError(f"'coefficients.d2' = {co['d2']!r}: the grid integrates only the "
                          "d2 = 0 equation; with d2 and no position diffusion it is ill-posed")
    # dt is in periods
    _require_positive(cfg, "coefficients.omega", "time.dt_periods", "time.t_end",
                      "grid.x_half_width", "grid.p_half_width")
    init = cfg["initial"]
    sc = SolverCoefficients(**{key: co[key] for key in ("mass", "omega", "gamma", "d1")})
    dt = cfg["time"]["dt_periods"] * 2.0 * math.pi / sc.omega
    t_end = cfg["time"]["t_end"]
    n_samples = cfg["time"]["n_samples"]
    per, h = _sample_steps(t_end, n_samples, dt, "'time.dt_periods' and 'time.t_end'")
    grid = init_gaussian(**init, nx=cfg["grid"]["nx"], n_p=cfg["grid"]["np"],
                         x_half_width=cfg["grid"]["x_half_width"],
                         p_half_width=cfg["grid"]["p_half_width"])
    # the exact moment flow of the same problem, natural units
    natural = PhysicalConstants.natural()
    params = MirrorParams(mass=co["mass"], omega0=co["omega"])
    coeffs = CoefficientSet(omega_star=co["omega"], gamma=co["gamma"],
                            d1=co["d1"], d2=co["d2"])
    state = GaussianState(**init)

    rows, states = [], [state]
    grid = evolve_grid(grid, sc, t_end, h, sample_every=per,
                       observer=lambda g: rows.append(_wigner_row(g, None)))
    times = [t_end * i / n_samples for i in range(n_samples + 1)]
    for t0, t1 in zip(times, times[1:]):
        state = evolve(state, params, coeffs, t1 - t0)
        states.append(state)

    errors = {}
    for nm in ("mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp"):
        exact = [getattr(st, nm) for st in states]
        # a moment that stays identically zero reports its absolute error
        scale = max(abs(v) for v in exact) or 1.0
        errors[nm] = max(abs(row[nm] - v) for row, v in zip(rows, exact)) / scale
    summary = {
        "units": "nondimensional (oscillator solver scales)",
        "inputs": {**co, **{f"init_{k}": v for k, v in init.items()},
                   "nx": grid.nx, "np": grid.np, "dt": dt, "t_end": t_end},
        "derived": {
            "max_rel_moment_errors": errors,
            "max_rel_moment_error_overall": max(errors.values()),
            "final_purity_grid": grid_purity(grid),
            "final_purity_ode": purity(state, natural),
            "final_norm_drift": grid_norm(grid) - 1.0,
        },
    }
    return summary, ("t_nondim", rows)


def _run_identity_suite(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["draws"]
    r = cfg["ranges"]
    for key, (lo, hi) in r.items():
        if not 0.0 < lo <= hi:
            raise ConfigError(f"'ranges.{key}' must be [lo, hi] with 0 < lo <= hi")

    def loguniform(lo, hi, size):
        # 10 ** log10(hi) rounds past the double range when hi is near its top
        with np.errstate(over="ignore"):
            return np.clip(10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size), lo, hi)

    mass = loguniform(*r["mass_kg"], n)
    omega0 = loguniform(*r["omega0_rad_per_s"], n)
    alpha = loguniform(*r["alpha"], n)
    temp = loguniform(*r["temperature_K"], n)
    radius = loguniform(*r["radius_m"], n)
    delta_x = loguniform(*r["delta_x_m"], n)
    size_frac = loguniform(1e-3, 1.0, n)

    # each chain: a route table, its reference route and the routes checked against it
    chains = {"amplitude_vs_separation": ("plane", "amplitude", "separation"),
              "amplitude_vs_relative_weight": ("plane", "amplitude", "relative_weight"),
              "sphere_vs_relative_weight": ("sphere", "amplitude", "relative_weight"),
              "thermal_chain": ("thermal", "thermal_length", "combined", "diffusion")}
    dev = dict.fromkeys(chains, 0.0)
    # the draws are numpy scalars, whose overflow or division by an underflowed
    # zero would only warn: raise it, for run_scenario to refuse typed
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                invalid="raise"):
        warnings.simplefilter("ignore", RegimeWarning)
        for i in range(n):
            osc = MirrorParams(mass=mass[i], omega0=omega0[i])
            v_over_c = packet_velocity(osc, alpha[i]) / CODATA.c
            r_sph = size_frac[i] * v_over_c * CODATA.c / omega0[i]
            sphere = MirrorParams(mass=mass[i], omega0=omega0[i], radius=r_sph)
            free = MirrorParams(mass=mass[i], temperature=temp[i], radius=radius[i])
            tables = {
                "plane": _plane_routes(osc, alpha[i], gamma_vacuum_1d(osc), v_over_c),
                "sphere": _sphere_routes(sphere, alpha[i], gamma_vacuum_sphere(sphere),
                                         v_over_c),
                "thermal": _thermal_routes(free, delta_x[i], gamma_thermal_sphere(free)),
            }
            for chain, (table, ref, *others) in chains.items():
                routes = tables[table]
                dev[chain] = max([dev[chain]] + [abs(routes[ref] / routes[other] - 1.0)
                                                 for other in others if other in routes])

    tol = cfg["tolerance"]
    summary = {
        "units": "dimensionless deviations",
        "inputs": {"draws": n, "seed": cfg["seed"], "tolerance": tol},
        "derived": {"max_relative_deviation": dev},
        "pass": all(v <= tol for v in dev.values()),
    }
    return summary, None


def _wigner_row(grid, vis) -> dict:
    gm = grid_moments(grid)
    return {"time": grid.time, "visibility": vis, "purity": grid_purity(grid),
            "mean_x": gm[0], "mean_p": gm[1], "cov_xx": gm[2],
            "cov_xp": gm[3], "cov_pp": gm[4]}


def _marginal_peaks(axis, density) -> list[float]:
    """Positions of interior local maxima above a tenth of the global peak."""
    top = float(np.max(density))
    peaks = [float(axis[i]) for i in range(1, len(density) - 1)
             if density[i] > density[i - 1] and density[i] >= density[i + 1]
             and density[i] > 0.1 * top]
    return peaks


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class _Scenario:
    name: str
    summary: str
    detail: str
    defaults: dict
    runner: object


_REGISTRY: dict[str, _Scenario] = {}


def _register(name, summary, detail, defaults, runner):
    _REGISTRY[name] = _Scenario(name, summary, detail, defaults, runner)


_register(
    "1d-mirror-vacuum",
    "Plane mirror oscillating in vacuum: friction rate, cat lifetime by "
    "three routes, characteristic roots.",
    "A perfectly reflecting plane mirror on a spring radiates photon pairs\n"
    "when it moves, which damps it and destroys superpositions of motional\n"
    "states. Reports the T=0 friction rate, the lifetime of a two-packet\n"
    "superposition computed from the amplitude, from the separation, and\n"
    "from the emitted-weight argument (all three agree identically), and\n"
    "the roots of the radiation-reaction characteristic polynomial. The\n"
    "CSV holds the analytic fringe-overlap decay.",
    {
        "mirror": {"mass": 1e-21, "omega0": 1e10},
        "cat": {"alpha_mag": 10.0, "phase": 0.0},
        "series_points": 25,
    },
    _run_1d_mirror_vacuum,
)

_register(
    "sphere-rayleigh-vacuum",
    "Small dielectric sphere in vacuum: sixth-power size suppression of "
    "the friction and the cat lifetime.",
    "A sphere small against the oscillation wavelength couples to the\n"
    "vacuum like a Rayleigh scatterer: its friction rate is the plane\n"
    "value suppressed by (omega0 R / c)^6 / 108. Superpositions become\n"
    "practically indestructible by this channel. The closed-form\n"
    "relative-weight lifetime route is reported only inside its validity\n"
    "window (size parameter below v/c).",
    {
        "mirror": {"mass": 1e-21, "omega0": 1e10, "radius": 1e-5},
        "cat": {"alpha_mag": 10.0, "phase": 0.0},
        "series_points": 25,
    },
    _run_sphere_rayleigh_vacuum,
)

_register(
    "sphere-thermal-free",
    "Free sphere in thermal radiation: drag rate, thermal wavelength, and "
    "spatial-coherence lifetime by three routes.",
    "A free sphere of radius R in a photon bath at temperature T feels a\n"
    "drag -(M Gamma) v with Gamma proportional to T^4 R^2 / M, and the\n"
    "coherence between positions Delta-x apart dies in\n"
    "(lambda_T / Delta-x)^2 / Gamma, with lambda_T the thermal de Broglie\n"
    "length hbar / sqrt(2 M kB T). Inputs: temperature_K, radius_m,\n"
    "mass_kg, delta_x_m. The three routes (thermal-length, combined\n"
    "closed form, diffusion) agree identically; the mass cancels in the\n"
    "combined form.",
    {
        "mirror": {"mass": 1e-9, "temperature": 300.0, "radius": 1e-4},
        "delta_x": 1e-9,
        "series_points": 25,
    },
    _run_thermal_sphere,
)

_register(
    "cosmic-background-sphere",
    "Centimeter sphere in the 2.7 K cosmic photon background: coherence "
    "over a micron dies in nanoseconds.",
    "The flagship cold-and-empty estimate: a sphere with R = 1 cm sitting\n"
    "in the cosmic microwave background at T = 2.7 K. Even this feeble\n"
    "bath kills micron-scale superpositions in about 2.7 nanoseconds;\n"
    "the summary reports td and the mass-independent product\n"
    "td * delta_x^2 (about 2.7e-21 s m^2).",
    {
        "mirror": {"mass": 1.0, "temperature": 2.7, "radius": 1e-2},
        "delta_x": 1e-6,
        "series_points": 25,
    },
    _run_thermal_sphere,
)

_register(
    "sieve-pointer-states",
    "Predictability sieve over squeezed Gaussians: the coherent states "
    "win.",
    "Ranks pure squeezed states of the oscillator by their rotation-\n"
    "averaged entropy production rate, which does not depend on the\n"
    "squeezing angle and rises with the squeezing, then re-ranks the\n"
    "landscape at 0.1 / gamma and 0.5 / gamma by each state's entropy\n"
    "under the period-averaged closed form. The optimum sits at zero\n"
    "squeezing: coherent states are the pointer states of\n"
    "vacuum-friction decoherence. The CSV follows the selected\n"
    "state to 0.5 / gamma under the period-averaged closed form: its\n"
    "purity and rotation-averaged covariances. Only the coherent state\n"
    "stays pure (it is a fixed point of the covariance flow).",
    {
        "mirror": {"mass": 1e-21, "omega0": 1e10},
        "series_points": 21,
    },
    _run_sieve_pointer_states,
)

_register(
    "wigner-cat-highT",
    "Grid solver, desk-scale units: fringe decay under pure momentum "
    "diffusion, measured against the closed formula.",
    "Evolves a two-packet state under momentum diffusion alone (thermal\n"
    "solver units: d1 = 1, no drift) and fits the decay of the\n"
    "interference-fringe amplitude. The fitted constant lands on\n"
    "1 / (d1 k^2) with k the fringe wavenumber; the run extends to five\n"
    "times the period-averaged formula, by which the fringes are nearly\n"
    "gone: the most negative value of the final Wigner function is about\n"
    "-0.012 of its peak, as in the exact diffused field, and the position\n"
    "marginal keeps its two packets in place.",
    {
        "cat": {"alpha_mag": 2.0, "phase": 0.0, "orientation": "position"},
        "coefficients": {"d1": 1.0, "gamma": 0.0},
        "grid": {"nx": 256, "np": 256},
        "time": {"dt": 5e-4, "n_samples": 50},
        "t_end_over_td": 5.0,
    },
    _run_wigner_cat_hight,
)

_register(
    "wigner-gaussian-oracle",
    "Grid solver vs the exact Gaussian moment flow: five moments tracked "
    "through one damping time.",
    "Evolves a mixed Gaussian through one damping time with rotation,\n"
    "damping, and diffusion all on (oscillator solver units), and compares\n"
    "the grid's five moments against their exact flow at every\n"
    "sample. Errors are reported relative to each moment's peak magnitude\n"
    "over the run (absolute for a moment that stays identically zero); the\n"
    "default grid keeps all five below 1e-3, and halving the momentum\n"
    "spacing at least halves them.",
    {
        "coefficients": {"mass": 0.5, "omega": 1.0, "gamma": 0.05,
                         "d1": 0.025, "d2": 0.0},
        "initial": {"mean_x": 2.0, "mean_p": 0.25, "cov_xx": 1.69,
                    "cov_xp": 0.05, "cov_pp": 0.16},
        "grid": {"nx": 256, "np": 256, "x_half_width": 14.0, "p_half_width": 7.0},
        "time": {"dt_periods": 0.005, "t_end": 20.0, "n_samples": 40},
    },
    _run_wigner_gaussian_oracle,
)

_register(
    "identity-suite",
    "Cross-route consistency: every lifetime identity checked over random "
    "parameter draws.",
    "Draws random valid parameters (seeded, reproducible) and checks that\n"
    "the independent lifetime routes agree to the stated tolerance:\n"
    "amplitude vs separation, amplitude vs relative emitted weight, the\n"
    "sphere chain, and the thermal chain (thermal length, combined closed\n"
    "form and diffusion). Exit code is nonzero when any deviation exceeds\n"
    "the tolerance.",
    {
        "draws": 1000,
        "seed": 20260819,
        "tolerance": 1e-12,
        "ranges": {
            "mass_kg": [1e-24, 1e3],
            "omega0_rad_per_s": [1e6, 1e15],
            "alpha": [3.0, 100.0],
            "temperature_K": [0.1, 1000.0],
            "radius_m": [1e-8, 1e-2],
            "delta_x_m": [1e-12, 1e-3],
        },
    },
    _run_identity_suite,
)


# ---------------------------------------------------------------------------
# public surface

@dataclass(frozen=True)
class RunReport:
    scenario: str
    summary: dict
    out_dir: Path
    artifacts: tuple[str, ...]


def list_scenarios() -> list[tuple[str, str]]:
    return [(s.name, s.summary) for s in _REGISTRY.values()]


def scenario_defaults(name: str) -> dict:
    if name not in _REGISTRY:
        raise UnknownScenario(f"no scenario named {name!r}")
    return copy.deepcopy(_REGISTRY[name].defaults)


def describe(name: str) -> str:
    if name not in _REGISTRY:
        raise UnknownScenario(f"no scenario named {name!r}")
    s = _REGISTRY[name]
    return (f"{s.name}\n{'=' * len(s.name)}\n{s.summary}\n\n{s.detail}\n\n"
            f"defaults:\n{_json_render(s.defaults)}\n")


def run_scenario(name: str, overrides: dict | None = None,
                 out_base: str | None = None) -> RunReport:
    """Run a registered scenario and persist summary, series, manifest."""
    if name not in _REGISTRY:
        raise UnknownScenario(f"no scenario named {name!r}")
    if overrides is None:
        overrides = {}
    elif not isinstance(overrides, dict):
        raise ConfigError(f"overrides must be a mapping, got {type(overrides).__name__}")
    sc = _REGISTRY[name]
    cfg = _merge_config(sc.defaults, overrides)

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        summary, series = sc.runner(cfg)
    except ArithmeticError as exc:  # overflow, or a division by an underflowed zero
        raise DomainError(f"{name}: a result leaves double-precision range ({exc}); "
                          "bring the inputs into range") from exc
    wall = time.perf_counter() - t0
    summary["scenario"] = name
    # render everything first, so a value that cannot be written leaves no file
    texts = {"summary.json": _json_render(summary) + "\n"}
    if series is not None:
        texts["series.csv"] = _render_csv(*series)

    artifacts = list(texts)
    manifest = {
        "schema_version": _SCHEMA_VERSION,
        "package_version": _version,
        "scenario": name,
        "config": cfg,
        "artifacts": artifacts,
        "started_utc": started,
        "wall_clock_seconds": wall,
    }
    texts["manifest.json"] = _json_render(manifest) + "\n"

    base = out_base or os.environ.get(_OUT_DIR_ENV) or "runs"
    out_dir = Path(base) / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    _write_all(out_dir, texts)
    return RunReport(scenario=name, summary=summary, out_dir=out_dir,
                     artifacts=tuple(artifacts))
