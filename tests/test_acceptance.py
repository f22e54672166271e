"""Acceptance suite: one test per headline guarantee, at its stated
tolerance. `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion; each test also prints the measured numbers."""

import math

import numpy as np
import pytest

from casidec import (
    CatWignerSpec,
    SolverCoefficients,
    coefficient_set,
    evolve_grid,
    fringe_visibility,
    init_cat,
    marginals,
    measure_td,
    sieve_search,
    td_cat_vacuum,
    td_thermal_sphere_free,
    wmin_over_wmax,
)
from casidec.params import CODATA, MirrorParams, PhysicalConstants
from casidec.pair_emission import which_way_overlap
from casidec.scenarios import run_scenario
from casidec.spectra_damping import (
    SpectrumModel,
    characteristic_roots,
    diffusion_asymptotic,
    diffusion_finite_time,
    force_spectrum_vacuum_1d,
    gamma_vacuum_1d,
)

NATURAL = PhysicalConstants.natural()
MIRROR = MirrorParams(mass=1e-21, omega0=1e10)
TWO_PI = 2.0 * math.pi


def test_criterion_01_cosmic_background_anchor():
    """Sphere in the 2.7 K background: td * dx^2 = 2.7e-21 s m^2 within 5%."""
    params = MirrorParams(mass=1.0, temperature=2.7, radius=1e-2)
    res = td_thermal_sphere_free(params, delta_x=1e-6)
    product = res * (1e-6) ** 2
    print(f"criterion 1: td*dx^2 = {product:.6e} s m^2, td(1um) = {res:.4e} s")
    assert product == pytest.approx(2.7e-21, rel=0.05)
    assert res == pytest.approx(2.7e-9, rel=0.05)


def test_criterion_02_lifetime_identity_suite(tmp_path):
    """Every independent lifetime route agrees to 1e-12 over 1000 draws."""
    rep = run_scenario("identity-suite", {}, out_base=str(tmp_path))
    dev = rep.summary["derived"]["max_relative_deviation"]
    for chain, value in dev.items():
        print(f"criterion 2: {chain} max deviation {value:.3e}")
    assert rep.summary["inputs"]["draws"] >= 1000
    assert all(value <= 1e-12 for value in dev.values())
    assert rep.summary["pass"] is True


def test_criterion_03_characteristic_roots():
    """Oscillatory root's real part = -Gamma to 10 (hbar w0 / M c^2)^2
    relative; the runaway root sits at 6 pi M c^2 / hbar."""
    for mass, omega0 in [(1e-21, 1e10), (1e-24, 1e8), (1e-18, 1e12), (1e-22, 5e9)]:
        params = MirrorParams(mass=mass, omega0=omega0)
        roots = characteristic_roots(params)
        ratio = CODATA.hbar * omega0 / (mass * CODATA.c**2)
        bound = 10.0 * ratio**2
        runaway_expected = 6.0 * math.pi * mass * CODATA.c**2 / CODATA.hbar
        print(f"criterion 3: M={mass:g}, w0={omega0:g}: re_dev "
              f"{roots.re_deviation_rel:.3e} <= {bound:.3e}, "
              f"runaway {roots.runaway:.6e} /s")
        assert roots.re_deviation_rel <= bound
        assert roots.runaway > 0
        assert roots.runaway == pytest.approx(runaway_expected, rel=1e-6)
        assert roots.runaway_deviation_rel <= 1e-9


def test_criterion_04_diffusion_asymptote():
    """Finite-time D1 reaches spectrum/4 within 1% by w0 t = 100 and is
    cutoff-independent to 1% over [100, 400] w0."""
    model = SpectrumModel.for_oscillator(1.0)
    target = force_spectrum_vacuum_1d(1.0, model, NATURAL) / 4.0
    d1 = diffusion_finite_time(100.0, 1.0, model, NATURAL)
    print(f"criterion 4: D1(w0 t = 100) / asymptote = {d1 / target:.6f}")
    assert d1 == pytest.approx(target, rel=0.01)

    values = []
    for mult in (100.0, 200.0, 400.0):
        m = SpectrumModel.for_oscillator(1.0, multiplier=mult)
        values.append(diffusion_finite_time(150.0, 1.0, m, NATURAL))
    spread = max(values) / min(values) - 1.0
    print(f"criterion 4: cutoff spread over [100, 400] w0 = {spread:.3e}")
    assert spread <= 0.01


def test_criterion_05_einstein_limit():
    """coth interpolation: 2 M kB T Gamma within 1% at kT = 100 hbar w0;
    exactly hbar M w0 Gamma at T = 0."""
    gamma = gamma_vacuum_1d(MIRROR)
    t_hot = 100.0 * CODATA.hbar * MIRROR.omega0 / CODATA.k_boltzmann
    hot = MirrorParams(mass=MIRROR.mass, omega0=MIRROR.omega0, temperature=t_hot)
    d1_hot = diffusion_asymptotic(hot, gamma)
    classical = 2.0 * MIRROR.mass * CODATA.k_boltzmann * t_hot * gamma
    print(f"criterion 5: D1(kT = 100 hbar w0) / 2MkTGamma = {d1_hot / classical:.6f}")
    assert d1_hot == pytest.approx(classical, rel=0.01)

    d1_cold = diffusion_asymptotic(MIRROR, gamma)
    cold_exact = CODATA.hbar * MIRROR.mass * MIRROR.omega0 * gamma
    print(f"criterion 5: D1(T=0) = {d1_cold:.6e} kg^2 m^2/s^3")
    assert d1_cold == pytest.approx(cold_exact, rel=1e-12)


def test_criterion_06_grid_vs_moment_oracle(tmp_path):
    """Grid solver tracks the exact Gaussian moment flow to 1e-3 over one
    damping time; the error at least halves when dp halves."""
    rep = run_scenario("wigner-gaussian-oracle", {}, out_base=str(tmp_path / "a"))
    errors = rep.summary["derived"]["max_rel_moment_errors"]
    overall = rep.summary["derived"]["max_rel_moment_error_overall"]
    for name, err in errors.items():
        print(f"criterion 6: {name} max rel error {err:.3e}")
    assert all(err <= 1e-3 for err in errors.values())

    # squeezed start so the momentum-grid term dominates the error budget
    halving = {
        "coefficients": {"gamma": 0.1, "d1": 0.05},
        "initial": {"cov_xx": 6.5, "cov_xp": 0.0, "cov_pp": 0.04},
        "grid": {"x_half_width": 27.0, "p_half_width": 14.0},
        "time": {"dt_periods": 0.00125, "t_end": 5.0, "n_samples": 10},
    }
    coarse = run_scenario("wigner-gaussian-oracle",
                          {**halving, "grid": {**halving["grid"], "np": 256}},
                          out_base=str(tmp_path / "b"))
    fine = run_scenario("wigner-gaussian-oracle",
                        {**halving, "grid": {**halving["grid"], "np": 512}},
                        out_base=str(tmp_path / "c"))
    e_coarse = coarse.summary["derived"]["max_rel_moment_error_overall"]
    e_fine = fine.summary["derived"]["max_rel_moment_error_overall"]
    print(f"criterion 6: halving dp: {e_coarse:.3e} -> {e_fine:.3e} "
          f"(ratio {e_coarse / e_fine:.2f})")
    assert overall <= 1e-3
    assert e_coarse / e_fine >= 2.0


def test_criterion_07_fringe_decay_constants(tmp_path):
    """Measured visibility decay: within 10% of 1/(d1 k^2) without drift,
    within 15% of 2/(d1 k^2) period-sampled with rotation."""
    rep = run_scenario("wigner-cat-highT", {}, out_base=str(tmp_path))
    measured = rep.summary["derived"]["td_measured"]
    frozen = rep.summary["derived"]["td_frozen_formula"]
    print(f"criterion 7a: measured/formula = {measured / frozen:.4f} "
          f"(R^2 = {rep.summary['derived']['fit_r_squared']:.6f})")
    assert measured == pytest.approx(frozen, rel=0.10)

    # oscillatory configuration: sample once per rotation period
    d1 = 0.0025
    spec = CatWignerSpec(alpha_mag=2.0)           # separation 8 ground widths
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=d1)
    grid = init_cat(spec, nx=256, n_p=256)
    times, vis = [0.0], [fringe_visibility(grid)]
    for i in range(1, 11):
        grid = evolve_grid(grid, sc, i * TWO_PI, 0.005 * TWO_PI)
        times.append(i * TWO_PI)
        vis.append(fringe_visibility(grid))
    fit = measure_td(times, vis)
    averaged = 2.0 / (d1 * spec.fringe_wavenumber**2)
    print(f"criterion 7b: measured/period-averaged = {fit.td / averaged:.4f} "
          f"(R^2 = {fit.r_squared:.6f})")
    assert fit.td == pytest.approx(averaged, rel=0.15)


def test_criterion_08_sieve_selects_coherent_states():
    """Entropy-production minimum at zero squeezing, stable over the three
    evaluation times."""
    res = sieve_search(MIRROR, coefficient_set(MIRROR))
    print(f"criterion 8: r* = {res.r_star:.3e}, stable = {res.stable}, "
          f"argmin r per time = {list(res.argmin_r_per_time)}")
    assert res.r_star <= 1e-3
    assert res.stable is True
    assert all(r <= 1e-3 for r in res.argmin_r_per_time)


def test_criterion_09_pair_emission_consistency():
    """Which-way overlap decay constant identical to the photon-counting
    lifetime; linear and exponentiated modes agree to (t/td)^2 / 2."""
    alpha, gamma = 10.0, 3.112458978295733e-12
    td = td_cat_vacuum(alpha, gamma)
    t_probe = 0.37 * td
    overlap = which_way_overlap(t_probe, alpha, gamma)
    implied_td = -t_probe / math.log(overlap)
    print(f"criterion 9: overlap decay constant / td = {implied_td / td:.15f}")
    assert implied_td == pytest.approx(td, rel=1e-12)

    worst = 0.0
    for frac in (0.01, 0.05, 0.1):
        t = frac * td
        exp_mode = which_way_overlap(t, alpha, gamma)
        lin_mode = which_way_overlap(t, alpha, gamma, exponentiated=False)
        gap = abs(exp_mode - lin_mode)
        assert gap <= frac**2 / 2.0
        worst = max(worst, gap - frac**2 / 2.0)
    print(f"criterion 9: worst linear-vs-exponential margin {worst:.3e} (<= 0)")


def test_criterion_10_post_decoherence_positivity():
    """After five decay times the cat's Wigner function is positive to 1e-3
    of its peak and the position marginal keeps both packets."""
    spec = CatWignerSpec(alpha_mag=5.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    grid = init_cat(spec, nx=256, n_p=512)
    td = 1.0 / (sc.d1 * spec.fringe_wavenumber**2)
    grid = evolve_grid(grid, sc, 10.0 * td, 5e-4)

    ratio = wmin_over_wmax(grid)
    px, _ = marginals(grid)
    half = grid.nx // 2
    left = grid.x_axis[np.argmax(px[:half])]
    right = grid.x_axis[half + np.argmax(px[half:])]
    print(f"criterion 10: min W / max W = {ratio:.3e} at t = 10 td; "
          f"marginal peaks at {left:.3f}, {right:.3f} (target -10, +10)")
    assert ratio >= -1e-3
    assert left == pytest.approx(-10.0, abs=2.0 * grid.dx)
    assert right == pytest.approx(10.0, abs=2.0 * grid.dx)
