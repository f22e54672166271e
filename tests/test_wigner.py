"""Grid solver tests: initial states against a density-matrix oracle, exact
moment identities, rotation-period returns, and the failure guards."""

import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from casidec import (
    CatWignerSpec,
    DomainError,
    FitFailure,
    GridTooSmall,
    NonPhysicalInput,
    SolverCoefficients,
    StabilityViolation,
    StepSizeError,
    evolve_grid,
    fringe_visibility,
    grid_moments,
    grid_norm,
    grid_purity,
    init_cat,
    init_gaussian,
    marginals,
    measure_td,
    nondimensionalize,
    step,
    step_plan,
    wmin_over_wmax,
)
from casidec import wigner_solver
from casidec.gaussian_dynamics import GaussianState, _generator, evolve
from casidec.params import CODATA, MirrorParams, ground_state_width
from casidec.spectra_damping import CoefficientSet, coefficient_set

TWO_PI = 2.0 * math.pi
MIRROR = MirrorParams(mass=1e-21, omega0=1e10)


def _packet(x):
    # ground-state wavefunction for solver units (mass 1/2, omega 1, hbar 1)
    return (2.0 * math.pi) ** -0.25 * np.exp(-x * x / 4.0)


def _wigner_oracle(spec, x_nodes, p_nodes):
    """Transform the two-packet wavefunction's density matrix to phase space.

    Independent of the solver's closed form: the superposition is normalized
    numerically and W(x, p) comes from the integral of
    rho(x + y/2, x - y/2) exp(-i p y) / 2 pi over y. The branch displaced
    toward positive x carries exp(i phase).
    """
    h = 0.5 * spec.separation

    def raw(x):
        return np.exp(1j * spec.phase) * _packet(x - h) + _packet(x + h)

    xq = np.linspace(-40.0, 40.0, 16001)
    norm = np.sum(np.abs(raw(xq)) ** 2) * (xq[1] - xq[0])

    y = np.linspace(-40.0, 40.0, 8001)
    dy = y[1] - y[0]
    rho = raw(x_nodes[:, None] + 0.5 * y[None, :]) * np.conj(
        raw(x_nodes[:, None] - 0.5 * y[None, :])) / norm
    return (rho @ np.exp(-1j * np.outer(y, p_nodes))).real * dy / TWO_PI


# ---------------------------------------------------------------- units


def test_nondimensionalize_oscillator_scales():
    coeffs = coefficient_set(MIRROR)
    sc, scales = nondimensionalize(MIRROR, coeffs)
    assert scales.x_scale == pytest.approx(ground_state_width(MIRROR), rel=1e-12)
    assert scales.t_scale == pytest.approx(1.0 / coeffs.omega_star, rel=1e-12)
    assert sc.mass == pytest.approx(0.5, rel=1e-12)
    assert sc.omega == pytest.approx(1.0, rel=1e-12)
    assert sc.gamma == pytest.approx(coeffs.gamma / coeffs.omega_star, rel=1e-12)


def test_nondimensionalize_vacuum_diffusion_is_half_the_damping():
    # zero-temperature momentum diffusion maps to exactly gamma / 2
    sc, _ = nondimensionalize(MIRROR, coefficient_set(MIRROR))
    assert sc.d1 == pytest.approx(0.5 * sc.gamma, rel=1e-12)


def test_nondimensionalize_free_thermal_scales():
    params = MirrorParams(mass=1e-2, omega0=0.0, temperature=2.7, radius=1.0)
    coeffs = coefficient_set(params)
    sc, scales = nondimensionalize(params, coeffs)
    lam = CODATA.hbar / math.sqrt(2.0 * params.mass * CODATA.k_boltzmann * 2.7)
    assert scales.x_scale == pytest.approx(lam, rel=1e-12)
    assert scales.t_scale == pytest.approx(1.0 / coeffs.gamma, rel=1e-12)
    # Einstein relation pins the dimensionless diffusion to 1
    assert sc.d1 == pytest.approx(1.0, rel=1e-12)
    assert sc.omega == 0.0


def test_nondimensionalize_free_needs_a_bath():
    params = MirrorParams(mass=1e-2, omega0=0.0)
    with pytest.raises(DomainError):
        nondimensionalize(params, CoefficientSet(omega_star=0.0, gamma=0.0, d1=0.0))


@pytest.mark.parametrize("d2", [1e-60, -1e-60])
def test_nondimensionalize_refuses_a_cross_diffusion(d2):
    # the grid integrates the d2 = 0 equation; gaussian_dynamics keeps d2
    with pytest.raises(DomainError, match="d2"):
        nondimensionalize(MIRROR, replace(coefficient_set(MIRROR), d2=d2))


@pytest.mark.parametrize("kwargs", [
    dict(mass=None, omega=1.0, gamma=0.0, d1=0.0),   # streaming needs a mass
    dict(mass=0.0, omega=1.0, gamma=0.0, d1=0.0),
    dict(mass=0.5, omega=-1.0, gamma=0.0, d1=0.0),
    dict(mass=0.5, omega=1.0, gamma=-0.1, d1=0.0),
    dict(mass=0.5, omega=1.0, gamma=0.0, d1=-0.1),
])
def test_solver_coefficients_validation(kwargs):
    with pytest.raises(NonPhysicalInput):
        SolverCoefficients(**kwargs)


_NAN, _INF = math.nan, math.inf
_ROTATION = dict(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
_STATE = dict(mean_x=0.0, mean_p=0.0, cov_xx=1.0, cov_xp=0.0, cov_pp=0.25)
_OSC = (MirrorParams(mass=0.5, omega0=1.0), CoefficientSet(omega_star=1.0, gamma=0.05, d1=0.02))


def _small_grid():
    return init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=32, n_p=32)


# each was accepted (a NaN passes a "< 0" check) or failed untyped: a NaN
# mass or gamma stepped a grid to all NaN, d1 or mass inf overflowed in
# _expm1, gamma inf divided by zero, a NaN mean evolved to NaN means, a NaN
# cat phase was refused as "enlarge the box", and a NaN or inf time raised
# ValueError or OverflowError
@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: SolverCoefficients(**{**_ROTATION, "mass": _NAN}), NonPhysicalInput,
                 id="solver mass nan"),
    pytest.param(lambda: SolverCoefficients(**{**_ROTATION, "mass": _INF}), NonPhysicalInput,
                 id="solver mass inf"),
    pytest.param(lambda: SolverCoefficients(**{**_ROTATION, "omega": _NAN}), NonPhysicalInput,
                 id="solver omega nan"),
    pytest.param(lambda: SolverCoefficients(**{**_ROTATION, "gamma": _NAN}), NonPhysicalInput,
                 id="solver gamma nan"),
    pytest.param(lambda: SolverCoefficients(**{**_ROTATION, "d1": _INF}), NonPhysicalInput,
                 id="solver d1 inf"),
    pytest.param(lambda: CoefficientSet(omega_star=1.0, gamma=_INF, d1=0.0), NonPhysicalInput,
                 id="coefficient gamma inf"),
    pytest.param(lambda: CoefficientSet(omega_star=_NAN, gamma=0.1, d1=0.0), NonPhysicalInput,
                 id="coefficient omega nan"),
    pytest.param(lambda: CoefficientSet(omega_star=1.0, gamma=0.1, d1=_NAN), NonPhysicalInput,
                 id="coefficient d1 nan"),
    pytest.param(lambda: CoefficientSet(omega_star=1.0, gamma=0.1, d1=0.0, d2=_NAN),
                 NonPhysicalInput, id="coefficient d2 nan"),
    pytest.param(lambda: GaussianState(**{**_STATE, "mean_x": _NAN}), NonPhysicalInput,
                 id="state mean nan"),
    pytest.param(lambda: GaussianState(**{**_STATE, "cov_xx": _INF}), NonPhysicalInput,
                 id="state cov_xx inf"),
    pytest.param(lambda: GaussianState(**{**_STATE, "cov_xp": _NAN}), NonPhysicalInput,
                 id="state cov_xp nan"),
    pytest.param(lambda: CatWignerSpec(alpha_mag=2.0, phase=_NAN), NonPhysicalInput,
                 id="cat phase nan"),
    pytest.param(lambda: CatWignerSpec(alpha_mag=_NAN), NonPhysicalInput, id="cat alpha nan"),
    pytest.param(lambda: CatWignerSpec(alpha_mag=_INF), NonPhysicalInput, id="cat alpha inf"),
    pytest.param(lambda: evolve_grid(_small_grid(), SolverCoefficients(**_ROTATION), _NAN, 0.01),
                 DomainError, id="grid t_final nan"),
    pytest.param(lambda: evolve_grid(_small_grid(), SolverCoefficients(**_ROTATION), _INF, 0.01),
                 DomainError, id="grid t_final inf"),
    pytest.param(lambda: evolve(GaussianState(**_STATE), *_OSC, _NAN), DomainError,
                 id="moments t nan"),
    pytest.param(lambda: evolve(GaussianState(**_STATE), *_OSC, _INF), DomainError,
                 id="moments t inf"),
    pytest.param(lambda: evolve(GaussianState(**_STATE), *_OSC, 1.0, dt=_NAN), StepSizeError,
                 id="moments dt nan"),
])
def test_non_finite_inputs_are_refused_typed(build, error):
    with pytest.raises(error):
        build()


# a positive dt so small that the span over it overflows to inf made both
# step counts raise an untyped OverflowError from math.ceil
@pytest.mark.parametrize("run", [
    pytest.param(lambda: evolve_grid(_small_grid(), SolverCoefficients(**_ROTATION), 1.0, 1e-320),
                 id="grid"),
    pytest.param(lambda: evolve(GaussianState(**_STATE), *_OSC, 1.0, dt=1e-320), id="moments"),
])
def test_a_dt_too_small_to_count_its_steps_is_refused_typed(run):
    with pytest.raises(StepSizeError, match=r"span 1\.0 .*dt = 1e-320"):
        run()


# ------------------------------------------------------- initial states


@pytest.mark.parametrize("spec", [CatWignerSpec(alpha_mag=2.0, phase=0.7)])
def test_cat_matches_density_matrix_oracle(spec):
    grid = init_cat(spec, nx=256, n_p=256)
    sub = np.arange(0, 256, 8)
    expected = _wigner_oracle(spec, grid.x_axis[sub], grid.p_axis[sub])
    diff = np.max(np.abs(grid.values[np.ix_(sub, sub)] - expected))
    assert diff <= 1e-10 * np.max(np.abs(grid.values))


def test_cat_separation_and_fringe_wavenumber():
    assert CatWignerSpec(2.0).separation == pytest.approx(8.0)
    assert CatWignerSpec(2.0).fringe_wavenumber == pytest.approx(8.0)


@pytest.mark.parametrize("nx, n_p", [(128, 128), (129, 127), (256, 512)])
@pytest.mark.parametrize("alpha, phase", [(2.0, 0.0), (2.0, 0.7), (1.0, math.pi), (0.0, 0.0),
                                          (0.0, 1.3)])
def test_init_cat_samples_its_field_from_1d_factors_bit_for_bit(nx, n_p, alpha, phase):
    # init_cat passes the x axis as a column and the p axis as a row; every
    # node must come out as _cat_field evaluated on the full mesh
    spec = CatWignerSpec(alpha_mag=alpha, phase=phase)
    grid = init_cat(spec, nx=nx, n_p=n_p)
    w = wigner_solver._cat_field(*np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij"), spec)
    assert np.array_equal(grid.values, w / (float(np.sum(w)) * grid.dx * grid.dp))


def test_cat_fringes_land_at_the_expected_wavenumber():
    grid = init_cat(CatWignerSpec(2.0), nx=256, n_p=256)
    mid = 0.5 * (grid.values[127, :] + grid.values[128, :])
    amp = np.abs(np.fft.rfft(mid - mid.mean()))
    freqs = TWO_PI * np.fft.rfftfreq(grid.np, d=grid.dp)
    assert abs(freqs[np.argmax(amp)] - 8.0) <= freqs[1] - freqs[0]


def test_cat_starts_pure():
    assert grid_purity(init_cat(CatWignerSpec(2.0, 0.7), 256, 256)) == pytest.approx(1.0, abs=1e-9)
    assert grid_purity(init_cat(CatWignerSpec(2.0, 0.7), 128, 128)) == pytest.approx(1.0, abs=1e-9)


def test_cat_negativity_is_deep():
    ratio = wmin_over_wmax(init_cat(CatWignerSpec(2.0), 256, 256))
    assert -1.0 <= ratio < -0.7


def test_cat_marginals():
    spec = CatWignerSpec(2.0)
    grid = init_cat(spec, 256, 256)
    px, pp = marginals(grid)
    assert np.sum(px) * grid.dx == pytest.approx(1.0, abs=1e-9)
    assert np.sum(pp) * grid.dp == pytest.approx(1.0, abs=1e-9)
    # position marginal is bimodal at +/- half the separation, no fringes
    half = grid.nx // 2
    assert grid.x_axis[np.argmax(px[:half])] == pytest.approx(-4.0, abs=grid.dx)
    assert grid.x_axis[half + np.argmax(px[half:])] == pytest.approx(4.0, abs=grid.dx)
    assert np.all(px >= -1e-12)
    # momentum marginal carries the fringes, peaked at the origin
    assert abs(grid.p_axis[np.argmax(pp)]) <= grid.dp


def test_degenerate_single_packet():
    grid = init_cat(CatWignerSpec(0.0), 256, 256)
    mx, mp_, xx, xp, pp = grid_moments(grid)
    assert (mx, mp_, xp) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert xx == pytest.approx(1.0, rel=1e-9)
    assert pp == pytest.approx(0.25, rel=1e-9)
    assert np.min(grid.values) >= 0.0
    assert grid.fringe_wavenumber is None
    with pytest.raises(DomainError):
        fringe_visibility(grid)


@pytest.mark.parametrize("bad", [
    dict(alpha_mag=-1.0),
    dict(alpha_mag=0.0, phase=math.pi),      # zero-norm superposition
])
def test_cat_spec_validation(bad):
    with pytest.raises(NonPhysicalInput):
        CatWignerSpec(**bad)


def test_grid_moments_refuses_a_field_with_no_mass():
    # an all-zero field raised ZeroDivisionError; real and held along p
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=32, n_p=32)
    for g in (replace(grid, values=np.zeros((32, 32))), replace(grid, values=-grid.values),
              replace(grid, values=np.zeros((32, 17), complex), held=1)):
        with pytest.raises(DomainError, match="positive, finite mass"):
            grid_moments(g)


def test_gaussian_grid_matches_requested_moments():
    grid = init_gaussian(0.6, -0.4, 1.3, 0.2, 0.5, nx=256, n_p=256)
    moments = grid_moments(grid)
    assert moments == pytest.approx((0.6, -0.4, 1.3, 0.2, 0.5), abs=1e-9)
    assert grid_norm(grid) == pytest.approx(1.0, abs=1e-12)


def test_grid_moments_equal_the_direct_riemann_sums():
    grid = init_gaussian(1.3, -0.4, 0.9, 0.2, 0.3, nx=96, n_p=80)
    rng = np.random.default_rng(3)
    for w in (grid.values, grid.values + 1e-3 * rng.random(grid.values.shape)):
        grid.values = w
        x, p, dxdp = grid.x_axis[:, None], grid.p_axis[None, :], grid.dx * grid.dp
        n = np.sum(w) * dxdp
        mx, mp_ = np.sum(w * x) * dxdp / n, np.sum(w * p) * dxdp / n
        direct = (mx, mp_, np.sum(w * (x - mx) ** 2) * dxdp / n,
                  np.sum(w * (x - mx) * (p - mp_)) * dxdp / n,
                  np.sum(w * (p - mp_) ** 2) * dxdp / n)
        assert grid_moments(grid) == pytest.approx(direct, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("build", [
    lambda: init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, x_half_width=1.7e308),
    lambda: init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, p_half_width=-5.0),
    lambda: init_cat(CatWignerSpec(1.0), x_half_width=1.7e308),
])
def test_a_box_whose_span_leaves_double_range_is_refused(build):
    # 2 * 1.7e308 overflowed in linspace
    with pytest.raises(DomainError, match="half_width"):
        build()


def test_a_gaussian_beyond_its_quadratic_forms_range_is_refused():
    # the quadratic form overflowed (a RuntimeWarning), and where it met
    # inf - inf the NaN field passed both containment checks
    for cov_xp in (0.0, 0.1):
        with pytest.raises(GridTooSmall):
            init_gaussian(1e243, 0.8, 13.3, cov_xp, 0.26, nx=52, n_p=34,
                          x_half_width=1.4e243, p_half_width=3.9e242)


@pytest.mark.parametrize("build", [
    lambda: init_gaussian(0.0, 0.0, 1.0, 2.0, 0.25),          # not pos. definite
    lambda: init_gaussian(0.0, 0.0, -1.0, 0.0, 0.25),
])
def test_gaussian_covariance_validation(build):
    with pytest.raises(NonPhysicalInput):
        build()


@pytest.mark.parametrize("build", [
    lambda: init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=8),
    lambda: init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, x_half_width=3.0),
    lambda: init_cat(CatWignerSpec(2.0), nx=8),
    lambda: init_cat(CatWignerSpec(2.0), x_half_width=5.0),   # lobes at the wall
    lambda: init_cat(CatWignerSpec(2.0), n_p=16),             # 8 fringes on 16 nodes
])
def test_grids_too_small_are_rejected(build):
    with pytest.raises(GridTooSmall):
        build()


@pytest.mark.parametrize("gamma, refused", [(0.0, True), (0.5, False)])
def test_the_cat_containment_check_follows_the_damped_envelope(gamma, refused):
    # alpha 0.3 on its default box to the scenario's t_end: undamped, the
    # envelope widens to 3.8 and puts 3e-3 on the p edges; at gamma 0.5 its
    # variance levels off at d1 / (2 gamma), width 1
    spec = CatWignerSpec(alpha_mag=0.3)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=gamma, d1=1.0)
    times = np.linspace(0.0, 6.944, 1001)[1:]
    if refused:
        with pytest.raises(GridTooSmall, match="p edges"):
            wigner_solver.check_cat_contained(init_cat(spec), sc, times)
    else:
        wigner_solver.check_cat_contained(init_cat(spec), sc, times)


@settings(max_examples=200, deadline=None)
@given(gamma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), d1=st.floats(1e-3, 10.0),
       alpha=st.floats(0.05, 3.0), t_over_td=st.floats(0.1, 10.0),
       p_half_width=st.floats(1.0, 12.0), n_p=st.integers(16, 2048),
       n_samples=st.integers(1, 50), per=st.integers(1, 200))
def test_the_cat_containment_verdict_is_settled_by_the_first_and_last_step(
        gamma, d1, alpha, t_over_td, p_half_width, n_p, n_samples, per):
    # the envelope's variance moves monotonically and the edge density rises
    # with it up to its cap, so the two end times decide as every step does
    spec = CatWignerSpec(alpha_mag=alpha)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=gamma, d1=d1)
    td = 2.0 / (d1 * spec.separation**2)    # the scenario's period-averaged formula
    h = t_over_td * td / (n_samples * per)
    grid = wigner_solver.PhaseSpaceGrid(16, n_p, 8.0, p_half_width, values=np.zeros((16, n_p)))

    def refused(times):
        try:
            wigner_solver.check_cat_contained(grid, sc, times)
        except GridTooSmall:
            return True
        return False

    steps = per * n_samples
    assert refused((h, h * steps)) == refused(h * np.arange(1, steps + 1))


# ------------------------------------------------------------- stepping


def test_rotation_period_returns_a_gaussian():
    grid = init_gaussian(2.0, 0.25, 1.0, 0.0, 0.25, nx=256, n_p=256,
                         x_half_width=12.0, p_half_width=6.0)
    start = grid.values.copy()
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    grid = evolve_grid(grid, sc, TWO_PI, 0.005 * TWO_PI)
    err = np.sqrt(np.sum((grid.values - start) ** 2) / np.sum(start**2))
    assert err < 1e-3
    assert grid.time == pytest.approx(TWO_PI, rel=1e-12)


def test_rotation_period_returns_a_cat():
    grid = init_cat(CatWignerSpec(1.0), 256, 256)
    start = grid.values.copy()
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    grid = evolve_grid(grid, sc, TWO_PI, 0.005 * TWO_PI)
    assert np.sqrt(np.sum((grid.values - start) ** 2) / np.sum(start**2)) < 1e-3


def test_pure_momentum_diffusion_is_moment_exact():
    # exact spectral diffusion of a contained state: second moment grows as 2 d1 t
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=128, n_p=256)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    grid = evolve_grid(grid, sc, 0.02, 5e-4)
    mx, mp_, xx, xp, pp = grid_moments(grid)
    assert pp == pytest.approx(0.25 + 2.0 * 1.0 * 0.02, rel=1e-12)
    assert xx == pytest.approx(1.0, rel=1e-12)
    assert (mx, mp_, xp) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def _diffused_cat(spec, xg, pg, d1, t):
    """The cat field after momentum diffusion for a time t, in closed form.

    Convolving in p with variance b = 2 d1 t maps each lobe's envelope
    e^{-p^2/2a} (a = sigma_p^2) to sqrt(a/(a+b)) e^{-p^2/2(a+b)}. The fringe
    term is the real part of e^{-p^2/2a + i(kp - phase)} = e^{-k^2 a/2}
    e^{-(p - ika)^2/2a} e^{-i phase}, which maps to sqrt(a/(a+b))
    e^{-p^2/2(a+b)} cos(kap/(a+b) - phase) e^{-k^2 ab/2(a+b)}.
    """
    # ground state in solver units: sigma_x = 1, sigma_p = 1/2
    a, b, k, half = 0.25, 2.0 * d1 * t, spec.fringe_wavenumber, 0.5 * spec.separation
    env = math.sqrt(a / (a + b)) * np.exp(-pg**2 / (2.0 * (a + b)))
    lobes = (np.exp(-(xg - half) ** 2 / 2.0) + np.exp(-(xg + half) ** 2 / 2.0)) * env
    fringe = (2.0 * np.exp(-xg**2 / 2.0) * env * np.cos(k * a * pg / (a + b) - spec.phase)
              * math.exp(-k**2 * a * b / (2.0 * (a + b))))
    norm = 1.0 / (2.0 * math.pi * 1.0 * 0.5)
    overlap = math.exp(-spec.separation**2 / 8.0)
    return norm * (lobes + fringe) / (2.0 * (1.0 + math.cos(spec.phase) * overlap))


@pytest.mark.parametrize("decay_times", [1.0, 10.0])
def test_pure_diffusion_matches_the_exact_cat_pointwise(decay_times):
    # the criterion-10 cat; the spectral diffusion is exact, so only
    # rounding separates the grid from the closed form
    spec = CatWignerSpec(alpha_mag=5.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    grid = init_cat(spec, nx=256, n_p=512)
    t = decay_times / (sc.d1 * spec.fringe_wavenumber**2)
    grid = evolve_grid(grid, sc, t, 5e-4)
    xg, pg = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    exact = _diffused_cat(spec, xg, pg, sc.d1, t)
    assert np.max(np.abs(grid.values - exact)) <= 1e-12 * np.max(exact)


def test_damped_evolution_matches_moment_integrator():
    state = GaussianState(mean_x=1.0, mean_p=0.3, cov_xx=0.7, cov_xp=0.1, cov_pp=0.4)
    params = MirrorParams(mass=0.5, omega0=1.0)
    coeffs = CoefficientSet(omega_star=1.0, gamma=0.05, d1=0.02)
    reference = evolve(state, params, coeffs, 2.0)

    grid = init_gaussian(1.0, 0.3, 0.7, 0.1, 0.4, nx=128, n_p=128)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.05, d1=0.02)
    grid = evolve_grid(grid, sc, 2.0, 0.005 * TWO_PI)
    expected = (reference.mean_x, reference.mean_p, reference.cov_xx,
                reference.cov_xp, reference.cov_pp)
    assert grid_moments(grid) == pytest.approx(expected, abs=1e-3)


def _exact_cat(spec, xg, pg, sc, t):
    """The cat's Wigner field after the exact Ornstein-Uhlenbeck flow for a
    time t.

    The cat is three Gaussian terms sharing the covariance diag(sigma_x^2,
    sigma_p^2): the lobes, with means (+-separation/2, 0), and the real part
    of the interference term, a Gaussian with the complex mean
    (0, i sigma_p^2 k) and weight 2 exp(-i phase - sigma_p^2 k^2 / 2). The
    flow maps each term's mean to Phi mu and its covariance to
    Phi Sigma Phi^T + Q (_ou_flow), and keeps its weight.
    """
    sp2, k, half = 0.25, spec.fringe_wavenumber, 0.5 * spec.separation
    phi, q = _ou_flow(sc.mass, sc.omega, sc.gamma, sc.d1, t)
    cov = phi @ np.diag([1.0, sp2]) @ phi.T + [[q[0], q[1]], [q[1], q[2]]]
    inv = np.linalg.inv(cov)

    def term(mean):
        mx, mp_ = phi @ np.asarray(mean)
        u, v = xg - mx, pg - mp_
        quad = inv[0, 0] * u * u + 2.0 * inv[0, 1] * u * v + inv[1, 1] * v * v
        return np.exp(-0.5 * quad) / (TWO_PI * math.sqrt(np.linalg.det(cov)))

    weight = 2.0 * np.exp(-1j * spec.phase - 0.5 * sp2 * k**2)
    total = term([half, 0.0]) + term([-half, 0.0]) + (weight * term([0.0, 1j * sp2 * k])).real
    return total / (2.0 * (1.0 + math.cos(spec.phase) * math.exp(-spec.separation**2 / 8.0)))


# max error over peak, measured: 6.2e-16 for the sampled field against
# init_cat, 2.7e-14 undamped, where only rounding separates the FFT shears
# from the exact flow, and 1.6e-6 damped, which the quintic momentum stretch
# sets; each bound sits above its measurement
@pytest.mark.parametrize("gamma, t, tol", [
    (0.05, 0.0, 1e-14),
    (0.0, TWO_PI, 1e-12),
    (0.05, TWO_PI, 1e-5),
])
def test_a_damped_rotating_cat_matches_its_exact_field_pointwise(gamma, t, tol):
    spec = CatWignerSpec(alpha_mag=2.0, phase=0.3)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=gamma, d1=0.0025)
    grid = init_cat(spec, nx=256, n_p=256)
    if t > 0:
        grid = evolve_grid(grid, sc, t, 0.005 * TWO_PI)
    xg, pg = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    exact = _exact_cat(spec, xg, pg, sc, t)
    assert np.max(np.abs(grid.values - exact)) <= tol * np.max(exact)


def test_fringe_decay_rate_under_pure_diffusion():
    # midpoint slice obeys the 1-d heat equation: amplitude drops as
    # exp(-d1 k^2 t) with no envelope correction
    d1, t = 0.01, 0.02
    grid = init_cat(CatWignerSpec(2.0), nx=256, n_p=512)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=d1)
    grid = evolve_grid(grid, sc, t, 5e-4)
    assert fringe_visibility(grid) == pytest.approx(math.exp(-d1 * 64.0 * t), rel=1e-3)


def test_fringe_erasure_is_monotone():
    grid = init_cat(CatWignerSpec(2.0), nx=256, n_p=512)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    series = []
    grid = evolve_grid(grid, sc, 0.08, 5e-4, sample_every=20,
                       observer=lambda g: series.append(fringe_visibility(g)))
    assert series[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(series, series[1:]))
    assert series[-1] < 0.01
    # five decay times on: negativity is essentially gone
    assert wmin_over_wmax(grid) > -0.08
    assert grid_norm(grid) == pytest.approx(1.0, abs=1e-9)


def test_visibility_needs_fringe_metadata():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25)
    with pytest.raises(DomainError):
        fringe_visibility(grid)


# --------------------------------------------------------------- guards


def test_step_size_guards():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    with pytest.raises(StepSizeError):
        step(grid, step_plan(grid, sc, 0.1 * TWO_PI))
    with pytest.raises(StepSizeError):
        step(grid, step_plan(grid, sc, -0.01))
    damped = SolverCoefficients(mass=0.5, omega=0.0, gamma=10.0, d1=0.0)
    with pytest.raises(StepSizeError):
        step(grid, step_plan(grid, damped, 0.01))  # gamma dt = 0.1 > 0.05


def test_stability_violation_on_garbage():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    grid.values = np.roll(grid.values, 20, axis=0)  # mass shoved onto the wall
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    with pytest.raises(StabilityViolation):
        step(grid, step_plan(grid, sc, 0.005))


def test_evolve_grid_bookkeeping():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    assert evolve_grid(grid, sc, 0.0, 0.01) is grid
    with pytest.raises(DomainError):
        evolve_grid(grid, sc, -1.0, 0.01)
    seen = []
    out = evolve_grid(grid, sc, 0.1, 0.01, sample_every=5,
                      observer=lambda g: seen.append(g.time))
    assert out.time == pytest.approx(0.1, rel=1e-12)
    assert seen == pytest.approx([0.0, 0.05, 0.1])


@pytest.mark.parametrize("every", [2.5, -3, "2"])
def test_evolve_grid_refuses_a_sample_every_that_is_not_a_count(every):
    # 2.5 and "2" failed untyped in range and in ">", and -3 sampled nothing
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=32, n_p=32)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    seen = []
    with pytest.raises(DomainError, match="sample_every"):
        evolve_grid(grid, sc, 0.1, 0.01, sample_every=every, observer=seen.append)
    assert seen == []


def test_evolve_grid_never_steps_past_dt():
    # a span of 1.4 dt at the rotation limit used to become one 1.4 dt step
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    dt = 0.005 * TWO_PI
    seen = []
    out = evolve_grid(grid, sc, 1.4 * dt, dt, sample_every=1,
                      observer=lambda g: seen.append(g.time))
    assert len(seen) == 3
    assert out.time == pytest.approx(1.4 * dt, rel=1e-12)


@pytest.mark.parametrize("t_start, t_final, steps", [
    (0.0, 0.0025, 5),
    (0.0025, 0.025, 45),    # 0.0225 / 5e-4 = 45.00000000000001 in floating point
])
def test_evolve_grid_whole_spans_keep_their_step_count(t_start, t_final, steps):
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=32, n_p=64)
    grid.time = t_start
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    seen = []
    evolve_grid(grid, sc, t_final, 5e-4, sample_every=1,
                observer=lambda g: seen.append(g.time))
    assert len(seen) == steps + 1


def test_evolve_grid_rejects_a_nonpositive_dt():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=32, n_p=32)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    for dt in (0.0, -0.01):
        with pytest.raises(StepSizeError):
            evolve_grid(grid, sc, 0.1, dt)


def test_evolve_grid_failures_name_the_step_time_and_value():
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    grid.values = np.roll(grid.values, 20, axis=0)
    grid.time = 0.5
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.0)
    with pytest.raises(StabilityViolation,
                       match=r"^step 1 of 10 \(h = 0\.01\) from t = 0\.5: "
                             r"boundary ring carries [0-9.e-]+ mass"):
        evolve_grid(grid, sc, 0.6, 0.01)
    damped = SolverCoefficients(mass=0.5, omega=0.0, gamma=10.0, d1=0.0)
    with pytest.raises(StepSizeError,
                       match=r"^step 1 of 1 \(h = 0\.01\) from t = 0: "
                             r"gamma \* dt = 0\.1 exceeds 0\.05"):
        evolve_grid(init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64),
                    damped, 0.01, 0.01)


# ----------------------------------------------------------------- drift


def _shear_x(s):
    return np.array([[1.0, s], [0.0, 1.0]])


def _shear_p(c):
    return np.array([[1.0, 0.0], [c, 1.0]])


@pytest.mark.parametrize("mass, omega, gamma, n_factors", [
    (None, 0.0, 0.0, 0),      # identity
    (None, 0.0, 0.3, 0),      # damping contraction only
    (0.5, 0.0, 0.0, 1),       # free streaming: one x-shear
    (0.5, 1.0, 0.05, 3),      # damped oscillator
])
def test_drift_factors_compose_to_the_backtrace(mass, omega, gamma, n_factors):
    dt = 0.005 * TWO_PI
    step = wigner_solver._drift_maps(mass, omega, gamma, dt)
    back = np.eye(2) + step
    stretch = math.exp(2.0 * gamma * dt)
    factors = wigner_solver._shear_factors(step, stretch)
    assert len(factors) == n_factors
    product = np.eye(2)
    for axis, s in factors:
        product = product @ (_shear_x(s) if axis == "x" else _shear_p(s))
    product = product @ np.diag([1.0, stretch])
    assert np.max(np.abs(product - back)) <= 1e-13


def test_identity_drift_runs_no_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("identity drift must not transform the field")

    for name in ("rfft", "irfft", "map_coordinates"):
        monkeypatch.setattr(wigner_solver, name, forbidden)
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.0)
    plan = step_plan(grid, sc, 0.01)
    out = step(grid, plan)
    assert np.array_equal(out.values, grid.values)
    assert plan.passes == () and plan.carry is None
    # so a run holds no axis and transforms nothing either
    assert np.array_equal(evolve_grid(grid, sc, 0.05, 0.01).values, grid.values)


def _ou_generator(mass, omega, gamma, d1):
    inv_mass, spring = (0.0, 0.0) if mass is None else (1.0 / mass, mass * omega**2)
    return _generator(inv_mass, spring, gamma, d1, 0.0)


def _ou_flow(mass, omega, gamma, d1, dt):
    """Forward drift map and blur covariance (xx, xp, pp) of one exact step."""
    flow = expm(_ou_generator(mass, omega, gamma, d1) * dt)
    return flow[:2, :2], flow[2:5, 5]


# tolerances sit above what each plan reached (7e-16, 1.2e-10, 1.4e-15,
# 1.1e-10 and 9e-16 of the peak; the quintic stretch sets the two damped
# ones); the Strang split erred by up to 8.3e-6, and leaving out the blur
# by 8.6e-2
@pytest.mark.parametrize("mass, omega, gamma, kinds, tol", [
    (None, 0.0, 0.0, ["p"], 1e-13),                       # pure diffusion
    (None, 0.0, 0.05, ["stretch"], 1e-9),                 # damping only
    (0.5, 1.0, 0.0, ["x", "p", "x"], 1e-13),              # undamped rotation
    (0.5, 1.0, 0.05, ["x", "p", "x", "stretch"], 1e-9),   # damped rotation
    (0.5, 0.0, 0.0, ["x", "p", "x"], 1e-13),              # free streaming, split around p
])
def test_step_is_the_exact_ornstein_uhlenbeck_flow(mass, omega, gamma, kinds, tol):
    d1, dt = 0.5, 0.005 * TWO_PI
    box = dict(nx=256, n_p=256, x_half_width=14.0, p_half_width=7.0)
    mean, cov = np.array([2.0, 0.25]), np.array([[1.69, 0.05], [0.05, 0.16]])
    grid = init_gaussian(*mean, cov[0, 0], cov[0, 1], cov[1, 1], **box)
    plan = step_plan(grid, SolverCoefficients(mass=mass, omega=omega, gamma=gamma, d1=d1), dt)
    out = step(grid, plan)
    phi, q = _ou_flow(mass, omega, gamma, d1, dt)
    m, c = phi @ mean, phi @ cov @ phi.T + [[q[0], q[1]], [q[1], q[2]]]
    exact = init_gaussian(*m, c[0, 0], c[0, 1], c[1, 1], **box).values
    assert np.max(np.abs(out.values - exact)) <= tol * np.max(exact)
    assert [kind for kind, _ in plan.passes] == kinds


def _guarded_dt(omega, gamma, fraction):
    limits = [1.0]
    if omega > 0:
        limits.append(0.005 * TWO_PI / omega)
    if gamma > 0:
        limits.append(0.05 / gamma)
    return min(limits) * fraction


@settings(max_examples=300, deadline=None)
@given(mass=st.one_of(st.none(), st.floats(0.05, 5.0)),
       omega=st.floats(0.0, 3.0), gamma=st.floats(0.0, 1.0),
       d1=st.floats(0.025, 1.0), exponent=st.floats(-8.0, 0.0))
def test_blur_variances_are_non_negative_and_sum_to_the_exact_covariance(
        mass, omega, gamma, d1, exponent):
    omega = 0.0 if mass is None else omega
    dt = _guarded_dt(omega, gamma, 10.0 ** exponent)
    passes = wigner_solver._exact_passes(mass, omega, gamma, d1, dt)
    total, forward = np.zeros((2, 2)), np.eye(2)
    for axis, s, var in reversed(passes):
        assert var >= 0.0
        u = forward[:, 0] if axis == "x" else forward[:, 1]
        total += var * np.outer(u, u)
        forward = forward @ (_shear_x(-s) if axis == "x" else _shear_p(-s) if axis == "p"
                             else np.diag([1.0, 1.0 / s]))
    # the reference blur at 30 digits: scipy's expm is good to 5e-12 here
    with mpmath.workdps(30):
        flow = mpmath.expm(mpmath.matrix((_ou_generator(mass, omega, gamma, d1) * dt).tolist()))
        q = [float(flow[i, 5]) for i in (2, 3, 4)]
    scale = [q[0], math.sqrt(q[0] * q[2]), q[2]]
    err = np.abs([total[0, 0] - q[0], total[0, 1] - q[1], total[1, 1] - q[2]])
    assert np.all(err <= 1e-12 * np.array(scale))


def test_blur_with_no_axis_to_carry_it_is_refused():
    # a lone x shear cannot blur along p
    with pytest.raises(StepSizeError, match="no non-negative split"):
        wigner_solver._blur_variances([("x", 0.1)], np.array([1e-6, 1e-5, 1e-4]))


def test_a_blur_below_double_range_is_none():
    # its covariance underflowed to zero and the split divided 0 by 0
    passes = wigner_solver._exact_passes(1.69, 0.5, 0.08, 2.2e-309, 4.5e-310)
    assert [var for _, _, var in passes] == [0.0] * len(passes)


def test_shears_keep_full_precision_at_tiny_steps():
    # 1 - cos(w dt) cancelled in the old factoring: at dt = 1e-8 both x
    # shears rounded to zero and the step dropped the streaming
    mass, omega = 0.5, 1.0
    for dt in (1e-3, 1e-6, 1e-8):
        step_ = wigner_solver._drift_maps(mass, omega, 0.0, dt)
        factors = wigner_solver._shear_factors(step_, 1.0)
        s = -math.tan(0.5 * omega * dt) / (mass * omega)
        c = mass * omega * math.sin(omega * dt)
        assert [axis for axis, _ in factors] == ["x", "p", "x"]
        assert factors[0][1] == pytest.approx(s, rel=1e-14)
        assert factors[1][1] == pytest.approx(c, rel=1e-14)
        assert factors[2][1] == pytest.approx(s, rel=1e-14)


def _exact_drift_step(mean, cov, sc, dt, **grid_kwargs):
    """One drift step of a Gaussian, mapped exactly: the backtrace M sends
    the mean to M^-1 mean and the covariance to M^-1 cov M^-T."""
    inv = np.linalg.inv(np.eye(2) + wigner_solver._drift_maps(sc.mass, sc.omega, sc.gamma, dt))
    m = inv @ np.asarray(mean)
    c = inv @ np.asarray(cov) @ inv.T
    return init_gaussian(m[0], m[1], c[0, 0], c[0, 1], c[1, 1], **grid_kwargs)


# tolerances sit above what each case reaches (1.9e-10 and 1.6e-6 of the
# peak with the quintic stretch, 2.4e-8 with shears only), far below the
# 2-D cubic backtrace's 2.9e-6, 4.0e-4 and 3.9e-4
@pytest.mark.parametrize("nx, n_p, gamma, tol", [
    (256, 256, 0.05, 1e-9),
    (65, 63, 0.05, 1e-5),     # odd sizes; the quintic stretch sets the error
    (65, 63, 0.0, 1e-7),      # odd sizes, shears only
])
def test_drift_step_matches_the_exact_map(nx, n_p, gamma, tol):
    mean, cov = (2.0, 0.25), ((1.69, 0.05), (0.05, 0.16))
    box = dict(nx=nx, n_p=n_p, x_half_width=14.0, p_half_width=7.0)
    grid = init_gaussian(*mean, cov[0][0], cov[0][1], cov[1][1], **box)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=gamma, d1=0.0)
    dt = 0.005 * TWO_PI
    out = step(grid, step_plan(grid, sc, dt))
    exact = _exact_drift_step(mean, cov, sc, dt, **box).values
    assert np.max(np.abs(out.values - exact)) <= tol * np.max(exact)


# ------------------------------------------------------------ step plan


def _counting(monkeypatch, *names):
    """Wrap the named wigner_solver functions; returns their call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(wigner_solver, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(wigner_solver, name, counted)
    return counts


def test_one_run_builds_one_plan(monkeypatch):
    counts = _counting(monkeypatch, "_exact_passes")
    grid = init_gaussian(1.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64)
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.05, d1=0.01)
    evolve_grid(grid, sc, 0.1, 0.01, sample_every=2, observer=lambda g: None)
    assert counts == {"_exact_passes": 1}


@pytest.mark.parametrize("name, overrides", [
    ("wigner-gaussian-oracle", {"grid": {"nx": 64, "np": 64},
                                "time": {"t_end": 2.0, "n_samples": 4}}),
    ("wigner-cat-highT", {"coefficients": {"gamma": 0.1}, "grid": {"nx": 64, "np": 128},
                          "time": {"n_samples": 10}}),
])
def test_identical_runs_make_identical_calls(tmp_path, monkeypatch, name, overrides):
    # the benchmark's repeat check in small: with the step plan in a
    # process-wide cache, a repeated run skipped the drift map and the stretch
    from casidec.scenarios import run_scenario

    seen = []
    for i in range(2):
        with monkeypatch.context() as patch:
            counts = _counting(patch, "_drift_maps", "map_coordinates")
            run_scenario(name, overrides, out_base=str(tmp_path / str(i)))
        seen.append(counts)
    assert seen[0] == seen[1] == {"_drift_maps": 1, "map_coordinates": 1}


@pytest.mark.parametrize("box", [
    dict(nx=65, n_p=64, x_half_width=14.0, p_half_width=7.0),
    dict(nx=64, n_p=63, x_half_width=14.0, p_half_width=7.0),
    dict(nx=64, n_p=64, x_half_width=15.0, p_half_width=7.0),
    dict(nx=64, n_p=64, x_half_width=14.0, p_half_width=7.5),
])
def test_step_refuses_a_plan_built_for_another_box(box):
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.01)
    grid = init_gaussian(1.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64,
                         x_half_width=14.0, p_half_width=7.0)
    plan = step_plan(init_gaussian(1.0, 0.0, 1.0, 0.0, 0.25, **box), sc, 0.01)
    with pytest.raises(DomainError, match="box"):
        step(grid, plan)
    step(grid, step_plan(grid, sc, 0.01))


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_step_refuses_a_step_count_that_is_not_a_whole_number_of_at_least_1(n):
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.01)
    grid = init_gaussian(1.0, 0.0, 1.0, 0.0, 0.25, nx=64, n_p=64,
                         x_half_width=14.0, p_half_width=7.0)
    for plan_sc in (sc, replace(sc, mass=None, omega=0.0)):
        with pytest.raises(DomainError,
                           match=rf"^step count n = {n!r} must be an integer of at least 1$"):
            step(grid, step_plan(grid, plan_sc, 0.01), n)


# ------------------------------------------------- carried spectral state


def _real_space_step(grid, sc, dt):
    """One step as every pass once ran it: a full rfft, factor and irfft
    round trip per FFT pass."""
    w = grid.values
    for kind, op in step_plan(grid, sc, dt).passes:
        if kind == "stretch":
            w = w @ op
        else:
            axis = 0 if kind == "x" else 1
            w = np.fft.irfft(np.fft.rfft(w, axis=axis) * op, n=w.shape[axis], axis=axis)
    return w


_PLAN_KINDS = {   # coefficients of each plan kind, and the axis a run holds
    "pure diffusion": (SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.02), 1),
    "undamped rotation": (SolverCoefficients(mass=0.5, omega=1.0, gamma=0.0, d1=0.02), 0),
    "free streaming": (SolverCoefficients(mass=0.5, omega=0.0, gamma=0.0, d1=0.02), 0),
    "damped": (SolverCoefficients(mass=0.5, omega=1.0, gamma=0.05, d1=0.02), 0),
    "damped free streaming": (SolverCoefficients(mass=0.5, omega=0.0, gamma=0.05, d1=0.02),
                              0),
    "damping only": (SolverCoefficients(mass=None, omega=0.0, gamma=0.05, d1=0.02), 0),
}
_CARRY_BOX = dict(nx=63, n_p=56, x_half_width=12.0, p_half_width=6.0)
_CARRY_DT = 0.002


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_step_on_a_real_grid_matches_the_round_trip_step(kind):
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    plan = step_plan(grid, sc, _CARRY_DT)
    assert plan.carry == held
    out = step(grid, plan)
    assert out.values.dtype == np.float64 and out.values.shape == grid.values.shape
    assert out.factor is None
    ref = _real_space_step(grid, sc, _CARRY_DT)
    assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_a_nan_field_trips_the_step_monitors(kind):
    # both monitors compared with ">", which NaN never satisfies: a NaN
    # field stepped on, and spread over the whole grid in one FFT pass; a
    # plan that carries p reads the ring alone
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    grid.values[20, 20] = np.nan
    with pytest.raises(StabilityViolation,
                       match="norm drifted by nan" if held == 0 else "boundary ring carries nan"):
        step(grid, step_plan(grid, sc, _CARRY_DT))
    with pytest.raises(StabilityViolation, match="^step 1 of 3 "):
        evolve_grid(grid, sc, 3 * _CARRY_DT, _CARRY_DT)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_a_non_finite_or_huge_node_stops_every_plan_at_step_1(kind, value):
    # a pure-diffusion step reads no norm drift, which is exactly 0 while the
    # field is finite: its ring reading stops these fields as the norm does;
    # neither warns on the way, which the suite would fail untyped
    sc, _ = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    grid.values[20, 20] = value
    with pytest.raises(StabilityViolation) as info:
        step(grid, step_plan(grid, sc, _CARRY_DT))
    assert info.value.step == 1 and info.value.time == 0.0
    with pytest.raises(StabilityViolation, match="^step 1 of 3 "):
        evolve_grid(grid, sc, 3 * _CARRY_DT, _CARRY_DT)


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_a_carried_run_matches_real_space_stepping(kind):
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    ref = grid
    for _ in range(350):
        ref = replace(ref, values=_real_space_step(ref, sc, _CARRY_DT))
    finals = []
    for every in (0, 7):
        seen = []
        out = evolve_grid(grid, sc, 350 * _CARRY_DT, _CARRY_DT, sample_every=every,
                          observer=lambda g: seen.append((g.held, g.factor, g.values,
                                                          g.values.copy())))
        assert out.values.dtype == np.float64 and out.held is None and out.factor is None
        # the grid it was given, then the state handed over real, a
        # pure-diffusion one held along p with its pending factor
        sampled = 1 if held == 1 else None
        assert [h for h, _, _, _ in seen] == ([None] + [sampled] * 50 if every else [])
        assert all((factor is None) == (h != 1) for h, factor, _, _ in seen[1:])
        # no step writes into an array a sample holds
        assert all(np.array_equal(kept, copy) for _, _, kept, copy in seen)
        finals.append(out.values)
    assert np.max(np.abs(finals[0] - ref.values)) <= 1e-13 * np.max(ref.values)
    # sampling never changes the trajectory
    assert np.array_equal(finals[0], finals[1])


def _real_copy(g):
    """The real grid a grid holds, its pending factor multiplied out."""
    if g.held is None:
        return g
    values = g.values if g.factor is None else g.values * g.factor
    return replace(g, values=np.fft.irfft(values, n=(g.nx, g.np)[g.held], axis=g.held),
                   held=None, factor=None)


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_a_step_on_a_held_sample_hands_back_a_settled_grid(kind):
    # every kind's samples stepped under every plan kind: a pure-diffusion
    # sample's pending factor is multiplied out whenever its field leaves the
    # p spectrum, so a grid comes back with one only if it stays held along p
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    samples = []
    evolve_grid(grid, sc, 20 * _CARRY_DT, _CARRY_DT, sample_every=5, observer=samples.append)
    for other, (plan_sc, carry) in _PLAN_KINDS.items():
        plan = step_plan(grid, plan_sc, _CARRY_DT)
        for g in samples[1:]:
            out = step(g, plan)
            assert out.held == g.held and (out.factor is not None) == (held == carry == 1)
            want = _real_space_step(_real_copy(g), plan_sc, _CARRY_DT)
            got = _real_copy(out).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), other
            # a run resumed from the sample starts from its pending factor too
            resumed = evolve_grid(g, plan_sc, g.time + _CARRY_DT, _CARRY_DT)
            assert np.max(np.abs(resumed.values - want)) <= 1e-13 * np.max(want), other


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_evolve_grid_at_zero_span_hands_back_a_held_sample_settled(kind):
    # a pure-diffusion sample, held along p with its pending factor, comes
    # back as the real field it holds, which every reader takes; a sample of
    # a run that carries x is real already
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    samples = []
    evolve_grid(grid, sc, 10 * _CARRY_DT, _CARRY_DT, sample_every=5, observer=samples.append)
    g = samples[-1]
    assert g.held == (1 if held == 1 else None) and (g.factor is None) == (held != 1)
    out = evolve_grid(g, sc, g.time, _CARRY_DT)
    assert out.held is None and out.factor is None and out.time == g.time
    want = _real_copy(g).values
    assert np.array_equal(out.values, want)
    assert wmin_over_wmax(out) == np.min(want) / np.max(want)


def test_a_pure_diffusion_run_sets_its_factor_to_zero_below_the_normal_range():
    # the Nyquist bin decays as exp(-d1 k^2 t) with d1 k^2 t = 1006 here, past
    # the double range: the bins on their way through the subnormal range,
    # where every multiply is slow, are set to exactly 0 at every step, the
    # run's block steps end where its single steps do, and the field is
    # still the exact one
    spec = CatWignerSpec(alpha_mag=2.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0)
    grid = init_cat(spec, nx=128, n_p=512, p_half_width=8.0)
    t, dt = 0.1, 5e-4
    plan = step_plan(grid, sc, dt)
    state = replace(grid, values=np.fft.rfft(grid.values, axis=1), held=1,
                    factor=np.ones(grid.np // 2 + 1))
    factors = []
    for _ in range(200):
        state = step(state, plan)
        factors.append(state.factor)
    tiny = sys.float_info.min
    kp2 = (2.0 * np.pi * np.fft.rfftfreq(grid.np, grid.dp)) ** 2
    exact_factor = np.exp(-sc.d1 * kp2 * t)
    assert np.any((exact_factor > 0.0) & (exact_factor < tiny))
    assert np.any(factors[-1] == 0.0)
    assert not any(np.any((f > 0.0) & (f < tiny)) for f in factors)
    out = evolve_grid(grid, sc, t, dt)
    assert np.array_equal(out.values, np.fft.irfft(state.values * state.factor, n=grid.np,
                                                   axis=1))
    xg, pg = np.meshgrid(out.x_axis, out.p_axis, indexing="ij")
    exact = _diffused_cat(spec, xg, pg, sc.d1, t)
    assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.max(exact)


def _run_samples(kind, nx, n_p):
    """The samples of a 20-step run of this plan kind, every 5 steps, from a
    cat (for its fringes) and from an offset, tilted Gaussian (for means and
    cov_xp), each with the state the run holds then: the start grid held
    along the plan's carried axis, stepped 5 steps a call as evolve_grid
    steps it."""
    sc, held = _PLAN_KINDS[kind]
    box = dict(nx=nx, n_p=n_p, x_half_width=12.0, p_half_width=6.0)
    pairs = []
    for grid in (init_cat(CatWignerSpec(0.5, phase=0.7), **box),
                 init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **box)):
        samples = []
        out = evolve_grid(grid, sc, 20 * _CARRY_DT, _CARRY_DT, sample_every=5,
                          observer=samples.append)
        assert np.array_equal(out.values, evolve_grid(grid, sc, 20 * _CARRY_DT,
                                                      _CARRY_DT).values)
        plan = step_plan(grid, sc, 20 * _CARRY_DT / 20)
        state = replace(grid, values=np.fft.rfft(grid.values, axis=held), held=held)
        for g in samples[1:]:
            state = step(state, plan, 5)
            pairs.append((g, state))
    assert len(pairs) == 8
    return pairs


def _reads_as_its_real_copy(g):
    real = _real_copy(g)
    assert grid_moments(g) == pytest.approx(grid_moments(real), rel=1e-12, abs=1e-13)
    assert grid_purity(g) == pytest.approx(grid_purity(real), rel=1e-12)
    assert grid_norm(g) == pytest.approx(grid_norm(real), rel=1e-12)
    for got, want in zip(marginals(g), marginals(real)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if g.fringe_ref is not None:
        assert fringe_visibility(g) == pytest.approx(fringe_visibility(real), rel=1e-12)
    with pytest.raises(DomainError, match="every node"):
        wmin_over_wmax(g)


@pytest.mark.parametrize("nx, n_p", [(64, 64), (63, 57), (64, 57), (63, 64)])
@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_a_held_sample_reads_as_its_real_copy(kind, nx, n_p):
    # odd sizes have no Nyquist bin, and an odd nx takes the one midpoint row;
    # a pure-diffusion sample is read through the sums over x of its run; a
    # run that carries x hands over, read-only, the real copy of the state it
    # holds, which no reader takes
    for g, state in _run_samples(kind, nx, n_p):
        assert g.time == state.time and not g.values.flags.writeable
        if state.held == 1:
            assert g.held == 1 and np.array_equal(g.factor, state.factor)
            assert np.array_equal(g.values, state.values)
            _reads_as_its_real_copy(g)
        else:
            assert g.held is None and g.factor is None
            assert np.array_equal(g.values, _real_copy(state).values)
            _refused_by_every_reader(state)
    if kind == "pure diffusion":
        # and so is one whose top factor bins left the normal range and were
        # set to 0: the Nyquist decay exponent d1 k^2 t reaches 855 to 1,074 here
        grid = init_cat(CatWignerSpec(0.5, phase=0.7), nx=nx, n_p=8 * n_p + n_p % 2,
                        x_half_width=12.0, p_half_width=6.0)
        samples = []
        evolve_grid(grid, SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.1), 0.6,
                    0.01, sample_every=20, observer=samples.append)
        assert np.any(samples[-1].factor == 0.0) and samples[-1].np % 2 == n_p % 2
        for g in samples[1:]:
            _reads_as_its_real_copy(g)


def _refused_by_every_reader(g):
    """Every reader refuses the grid g, held along x, typed."""
    assert g.held == 0
    for reader in (grid_norm, grid_moments, grid_purity, marginals, fringe_visibility):
        with pytest.raises(DomainError, match="held along x"):
            reader(g)
    with pytest.raises(DomainError, match="every node"):
        wmin_over_wmax(g)


@pytest.mark.parametrize("nx, n_p", [(64, 64), (63, 57)])
def test_every_reader_refuses_a_grid_held_along_x(nx, n_p):
    # one built by hand, with fringe metadata, and one that step hands back
    # from a grid held along x
    grid = init_cat(CatWignerSpec(0.5, phase=0.7), nx=nx, n_p=n_p, x_half_width=12.0,
                    p_half_width=6.0)
    held = replace(grid, values=np.fft.rfft(grid.values, axis=0), held=0)
    _refused_by_every_reader(held)
    _refused_by_every_reader(step(held, step_plan(grid, _PLAN_KINDS["damped"][0], _CARRY_DT)))


def _readings(g):
    """Every reading of a grid, the marginals as bytes."""
    return (grid_moments(g), grid_purity(g), grid_norm(g), fringe_visibility(g),
            tuple(m.tobytes() for m in marginals(g)))


def _cat_run(kind, observer):
    """A 350-step run of a cat, sampled every 7 steps."""
    sc, _ = _PLAN_KINDS[kind]
    grid = init_cat(CatWignerSpec(0.5, phase=0.7), **_CARRY_BOX)
    evolve_grid(grid, sc, 350 * _CARRY_DT, _CARRY_DT, sample_every=7, observer=observer)


def test_a_pure_diffusion_run_takes_its_sums_over_x_once(monkeypatch):
    built, powers = [], []

    class Counted(wigner_solver._XSums):
        def __init__(self, grid):
            built.append(grid)
            super().__init__(grid)

    def einsum(*args, _fn=np.einsum):
        powers.append(args)
        return _fn(*args)

    monkeypatch.setattr(wigner_solver, "_XSums", Counted)
    monkeypatch.setattr(np, "einsum", einsum)
    samples = []
    _cat_run("pure diffusion", lambda g: (samples.append(g), _readings(g)))
    # one record for the run's 50 samples, on the start spectrum they share,
    # and one full pass over it for the power of its bins
    assert len(samples) == 51 and len(built) == len(powers) == 1
    assert all(np.shares_memory(g.values, built[0].values) for g in samples[1:])
    # a grid a caller builds takes its own at its first read and keeps it
    # for the moments, the purity, the fringe and the p marginal
    _readings(replace(samples[-1]))
    assert len(built) == 2 and len(powers) == 2
    # a run that carries x hands its samples over real, read with none
    _cat_run("damped", _readings)
    assert len(built) == 2 and len(powers) == 2


@pytest.mark.parametrize("k", [1, 2, 25, 50])
def test_a_sample_read_first_reads_as_after_the_samples_before_it(k):
    # the run's sums are the same whichever sample takes them
    in_turn, kept = [], []
    _cat_run("pure diffusion", lambda g: in_turn.append(_readings(g)))
    _cat_run("pure diffusion", kept.append)
    assert len(kept) == len(in_turn) == 51
    assert _readings(kept[k]) == in_turn[k]


def test_a_sample_made_over_by_replace_reads_its_own_spectrum():
    samples = []
    _cat_run("pure diffusion", samples.append)
    g = samples[-1]
    _readings(g)   # the run takes its sums
    other = np.fft.rfft(init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX).values, axis=1)
    swapped = replace(g, values=other)
    real = replace(g, values=np.fft.irfft(other * g.factor, n=g.np, axis=1), held=None,
                   factor=None)
    assert grid_moments(swapped) == pytest.approx(grid_moments(real), rel=1e-12, abs=1e-13)
    assert grid_purity(swapped) == pytest.approx(grid_purity(real), rel=1e-12)
    assert fringe_visibility(swapped) == pytest.approx(fringe_visibility(real), rel=1e-12)
    for got, want in zip(marginals(swapped), marginals(real)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert grid_moments(swapped) != pytest.approx(grid_moments(g), rel=1e-3)


def test_a_held_sample_reads_its_zero_and_nyquist_bins_as_irfft_does():
    # irfft ignores the imaginary parts of the zero and (even n) Nyquist bins,
    # and so must every reading of a grid held along p, read through a
    # pending factor: none, one that is not 1 even on the zero bin, and one
    # with its top bins set to 0
    rng = np.random.default_rng(3)
    for nx, n_p in ((32, 32), (33, 31)):
        spectrum = np.fft.rfft(1.0 + rng.random((nx, n_p)), axis=1)
        ends = [0, -1] if n_p % 2 == 0 else [0]
        spectrum[:, ends] += 1j * rng.standard_normal((nx, len(ends)))
        flushed = rng.uniform(0.5, 2.0, n_p // 2 + 1)
        flushed[n_p // 4:] = 0.0
        for factor in (*_pending_factors(rng, 1, n_p), None, flushed):
            g = wigner_solver.PhaseSpaceGrid(nx, n_p, 8.0, 4.0, values=spectrum, held=1,
                                             factor=factor, fringe_wavenumber=2.0,
                                             fringe_ref=1.0)
            real = _real_copy(g)
            assert grid_moments(g) == pytest.approx(grid_moments(real), rel=1e-12, abs=1e-13)
            assert grid_purity(g) == pytest.approx(grid_purity(real), rel=1e-12)
            assert grid_norm(g) == pytest.approx(grid_norm(real), rel=1e-12)
            for got, want in zip(marginals(g), marginals(real)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert fringe_visibility(g) == pytest.approx(fringe_visibility(real), rel=1e-12)


def _full_field_transforms(monkeypatch, kind, passes):
    """The array shapes one carried step of this plan kind hands to rfft and
    irfft: those of the full field, and all of them."""
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    plan = step_plan(grid, sc, _CARRY_DT)
    assert [kind for kind, _ in plan.passes] == passes
    state = replace(grid, values=np.fft.rfft(grid.values, axis=held), held=held)
    shapes = []
    for name in ("rfft", "irfft"):
        def counted(a, *args, _fn=getattr(wigner_solver, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(wigner_solver, name, counted)
    out = step(state, plan)
    assert np.iscomplexobj(out.values)
    # the ring monitor's irfft of the two edge columns is not a full-field one
    edge_columns = (_CARRY_BOX["nx"] // 2 + 1, 2)
    return [shape for shape in shapes if shape != edge_columns], shapes


def test_a_carried_damped_step_makes_four_transforms(monkeypatch):
    # irfft x, rfft p, irfft p, rfft x: the stretch acts on the held x
    # spectrum, where the real-space stretch took an irfft and an rfft more
    full, shapes = _full_field_transforms(monkeypatch, "damped", ["x", "p", "x", "stretch"])
    assert len(full) == 4 and len(shapes) == 5


def test_a_carried_damping_only_step_makes_no_transform(monkeypatch):
    # its one pass, the stretch, acts on the held x spectrum
    full, shapes = _full_field_transforms(monkeypatch, "damping only", ["stretch"])
    assert len(full) == 0 and len(shapes) == 1


@pytest.mark.parametrize("nx, n_p", [(32, 32), (33, 30), (30, 33)])
def test_the_stacked_stretch_is_the_matmul_on_the_x_spectrum(nx, n_p):
    grid = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=nx, n_p=n_p,
                         x_half_width=12.0, p_half_width=6.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.05, d1=0.02)
    (kind, c), = step_plan(grid, sc, _CARRY_DT).passes
    assert kind == "stretch"
    rng = np.random.default_rng(nx * n_p)
    for _ in range(5):
        # random imaginary parts on the zero and Nyquist bins too
        w = (rng.standard_normal((nx // 2 + 1, n_p))
             + 1j * rng.standard_normal((nx // 2 + 1, n_p)))
        got, want = wigner_solver._stretch(w, c), w @ c
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # and it commutes with the inverse transform along x
        field = np.fft.irfft(w, n=nx, axis=0) @ c
        back = np.fft.irfft(got, n=nx, axis=0)
        assert np.max(np.abs(back - field)) <= 1e-13 * np.max(np.abs(field))


def test_a_damping_only_step_on_a_coarse_box_conserves_the_norm():
    # sigma_p = 0.4 spans 3.6 p nodes; the cubic stretch lost 5.03e-7 of
    # the mass here, over the 1e-8 monitor, and the quintic one keeps it
    grid = init_gaussian(2.0, 0.25, 1.69, 0.05, 0.16, nx=128, n_p=128,
                         x_half_width=14.0, p_half_width=7.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.3, d1=0.0)
    out = step(grid, step_plan(grid, sc, 0.0314))
    assert abs(grid_norm(out) - grid_norm(grid)) <= 1e-8


def _edge_operator(shape, held):
    """StepPlan.edges of a plan that carries axis `held` on a box of this
    shape: free streaming carries x, pure diffusion p."""
    sc = (SolverCoefficients(mass=0.5, omega=0.0, gamma=0.0, d1=0.0) if held == 0
          else SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0))
    box = wigner_solver.PhaseSpaceGrid(*shape, 8.0, 4.0, values=np.zeros(shape))
    plan = step_plan(box, sc, 0.01)
    assert plan.carry == held
    return plan.edges


def _pending_factors(rng, held, n_p):
    """The factors a field held along p is read through: 1, and one that is
    not 1, not even on the zero bin. A field held along x has none."""
    m = n_p // 2 + 1
    return (None,) if held == 0 else (np.ones(m), rng.uniform(0.5, 2.0, m))


@pytest.mark.parametrize("nx, n_p", [(32, 32), (33, 30), (30, 33)])
def test_spectral_monitor_readings_equal_the_real_space_ones(nx, n_p):
    rng = np.random.default_rng(7)
    shape = (nx, n_p)
    for held in (0, 1):
        for _ in range(5):
            spectrum = np.fft.rfft(rng.standard_normal(shape), axis=held)
            # irfft ignores the imaginary parts of the zero and Nyquist
            # bins, and so must the readings
            if held == 0:
                spectrum[[0, -1], :] += 1j * rng.standard_normal((2, n_p))
            else:
                spectrum[:, [0, -1]] += 1j * rng.standard_normal((nx, 2))
            edges = _edge_operator(shape, held)
            for factor in _pending_factors(rng, held, n_p):
                settled = spectrum if factor is None else spectrum * factor
                field = np.fft.irfft(settled, n=shape[held], axis=held)
                total = np.sum(field)
                ring = sum(np.sum(np.abs(e))
                           for e in (field[0, :], field[-1, :], field[:, 0], field[:, -1]))
                if held == 0:
                    assert wigner_solver._node_sum(spectrum) == pytest.approx(
                        total, rel=1e-12, abs=1e-12 * np.sum(np.abs(field)))
                assert wigner_solver._ring_sum(
                    spectrum, held, shape, edges, factor) == pytest.approx(ring, rel=1e-12)


@pytest.mark.parametrize("nx, n_p", [(32, 32), (33, 30), (30, 33), (17, 17)])
def test_spectral_monitor_readings_do_not_depend_on_memory_layout(nx, n_p):
    # numpy 1.x returns rfft(..., axis=0) as an array that is not
    # C-contiguous, and the ring reading takes a float view of the spectrum
    rng = np.random.default_rng(11)
    shape = (nx, n_p)
    for held in (0, 1):
        spectrum = np.fft.rfft(rng.standard_normal(shape), axis=held)
        if held == 0:   # random imaginary parts on the zero and Nyquist bins
            spectrum[[0, -1], :] += 1j * rng.standard_normal((2, n_p))
        else:
            spectrum[:, [0, -1]] += 1j * rng.standard_normal((nx, 2))
        edges = _edge_operator(shape, held)
        for factor in _pending_factors(rng, held, n_p):
            settled = spectrum if factor is None else spectrum * factor
            field = np.fft.irfft(settled, n=shape[held], axis=held)
            ring = sum(np.sum(np.abs(e))
                       for e in (field[0, :], field[-1, :], field[:, 0], field[:, -1]))
            for layout in (np.asfortranarray(spectrum),
                           np.ascontiguousarray(spectrum.T).swapaxes(0, 1)):
                assert not layout.flags.c_contiguous and np.array_equal(layout, spectrum)
                if held == 0:
                    assert wigner_solver._node_sum(layout) == pytest.approx(
                        np.sum(field), rel=1e-12, abs=1e-12 * np.sum(np.abs(field)))
                assert wigner_solver._ring_sum(
                    layout, held, shape, edges, factor) == pytest.approx(ring, rel=1e-12)


@pytest.mark.parametrize("n", [16, 17, 256, 511])
def test_the_plans_edge_operator_is_the_real_form_of_the_edge_rows(n):
    # the edge rows of irfft (next test) as the real operators that the
    # ring monitor applies to the held spectrum's float view: stacked real
    # and imaginary parts along x, interleaved (real, -imaginary) along p
    rows = wigner_solver._edge_rows(n)
    assert np.array_equal(_edge_operator((n, 16), 0), np.concatenate([rows.real, rows.imag]))
    along_p = _edge_operator((16, n), 1)
    assert along_p.shape == (2 * (n // 2 + 1), 2)
    assert np.array_equal(along_p[0::2], rows.real.T)
    assert np.array_equal(along_p[1::2], -rows.imag.T)


@pytest.mark.parametrize("n", [16, 17, 256, 511])
def test_edge_rows_are_the_edge_rows_of_irfft(n):
    # random imaginary parts on the zero and Nyquist bins too, which irfft
    # ignores
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n // 2 + 1, 3)) + 1j * rng.standard_normal((n // 2 + 1, 3))
    want = np.fft.irfft(f, n=n, axis=0)[[0, -1]]
    got = (wigner_solver._edge_rows(n) @ f).real
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind, sc, start", [
    ("undamped rotation", SolverCoefficients(mass=2.0, omega=1.0, gamma=0.0, d1=0.0),
     (5.0, 0.0)),
    ("free streaming", SolverCoefficients(mass=0.5, omega=0.0, gamma=0.0, d1=0.0),
     (0.0, 2.0)),
    ("pure diffusion", SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=2.0),
     (0.0, 0.0)),
    ("damped rotation", SolverCoefficients(mass=2.0, omega=1.0, gamma=0.05, d1=0.0),
     (5.0, 0.0)),
    # leaves the box at step 83, inside the run's second stack of _BLOCK steps
    ("pure diffusion past a block", SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.5),
     (0.0, 0.0)),
])
def test_a_run_leaving_the_box_fails_alike_in_both_domains(kind, sc, start):
    grid = init_gaussian(*start, 1.0, 0.0, 0.25, nx=64, n_p=64,
                         x_half_width=12.0, p_half_width=6.0)
    dt, t_final = 0.01, 3.0
    n = 300
    real, expected, plan = grid, None, step_plan(grid, sc, dt)
    for i in range(1, n + 1):
        try:
            real = step(real, plan)
        except StabilityViolation as exc:
            expected = f"step {i} of {n} (h = {dt:.6g}) from t = {real.time:.6g}: {exc}"
            break
    assert expected is not None, f"{kind} never left the box"
    for every in (0, 10):
        samples = []
        with pytest.raises(StabilityViolation) as info:
            evolve_grid(grid, sc, t_final, dt, sample_every=every, observer=samples.append)
        assert str(info.value) == expected
        # no sample at or after the failing step i, whose start time is real.time
        assert all(g.time < real.time for g in samples)


@pytest.mark.parametrize("every", [1, 7, 63, 64, 65, 70, 130])
def test_pure_diffusion_samples_are_single_steps_bit_for_bit(every):
    # 150 steps, not a whole number of _BLOCK = 64, so the run's last step
    # call is short; the samples fall inside its calls, at their ends, or
    # across them; the top factor bins leave the normal range mid-run
    grid = init_cat(CatWignerSpec(alpha_mag=1.0), nx=48, n_p=501, p_half_width=6.0)
    sc = SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.1)
    n, t_final = 150, 0.5
    samples = []
    evolve_grid(grid, sc, t_final, t_final / n, sample_every=every, observer=samples.append)
    plan = step_plan(grid, sc, t_final / n)
    state = replace(grid, values=np.fft.rfft(grid.values, axis=1), held=1,
                    factor=np.ones(grid.np // 2 + 1))
    singles = []
    for i in range(1, n + 1):
        state = step(state, plan)
        if i % every == 0:
            singles.append(state)
    assert np.any(state.factor == 0.0)
    assert samples[0] is grid and len(samples) == 1 + n // every
    for got, want in zip(samples[1:], singles):
        assert got.held == 1 and got.time == want.time
        assert np.array_equal(got.factor, want.factor)
        assert np.array_equal(got.values * got.factor, want.values * want.factor)


@pytest.mark.parametrize("kind", list(_PLAN_KINDS))
def test_an_observer_cannot_write_into_a_sample(kind):
    # every sample of a pure-diffusion run shares its start spectrum
    sc, held = _PLAN_KINDS[kind]
    grid = init_gaussian(1.0, 0.25, 1.0, 0.05, 0.25, **_CARRY_BOX)
    kept, refused = [], []

    def vandal(g):
        if g is grid:   # the grid evolve_grid was given
            return
        for a in (g.values, g.factor):
            if a is not None:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
                refused.append(a)
        kept.append((_real_copy(g).values, g.time))

    evolve_grid(grid, sc, 20 * _CARRY_DT, _CARRY_DT, sample_every=5, observer=vandal)
    assert len(refused) == (8 if held == 1 else 4)
    clean = []
    evolve_grid(grid, sc, 20 * _CARRY_DT, _CARRY_DT, sample_every=5,
                observer=lambda g: clean.append((_real_copy(g).values, g.time)))
    assert len(kept) == len(clean) - 1 == 4
    for (got, t), (want, u) in zip(kept, clean[1:]):
        assert t == u and np.array_equal(got, want)
    # and a grid the solver makes shares its box's read-only axes
    assert replace(grid).x_axis is grid.x_axis and not grid.p_axis.flags.writeable


# ------------------------------------------------------ steps in one call

_CALL_KINDS = {   # a held-p plan, a carried damped rotation, and a plan with no passes
    "pure diffusion": SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=1.0),
    "damped rotation": SolverCoefficients(mass=0.5, omega=1.0, gamma=0.05, d1=0.02),
    "no passes": SolverCoefficients(mass=None, omega=0.0, gamma=0.0, d1=0.0),
}


def _one_by_one(state, plan, k):
    """k calls of one step: the last state, or the first failure as (its
    index, its start time, its message)."""
    for i in range(1, k + 1):
        try:
            state = step(state, plan)
        except StabilityViolation as exc:
            return i, state.time, str(exc)
    return state


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(_CALL_KINDS)), n_p=st.sampled_from([255, 256]),
       mean_p=st.sampled_from([0.0, 3.5]), before=st.integers(0, 60), k=st.integers(1, 100))
# the Nyquist factor bin passes through the subnormal range at steps 57-60,
# inside a call of fewer steps than _BLOCK and of more
@example(kind="pure diffusion", n_p=256, mean_p=0.0, before=50, k=20)
@example(kind="pure diffusion", n_p=255, mean_p=0.0, before=0, k=100)
# the state leaves the box mid-call
@example(kind="pure diffusion", n_p=256, mean_p=3.5, before=0, k=100)
@example(kind="damped rotation", n_p=255, mean_p=3.5, before=0, k=100)
def test_n_steps_in_one_call_are_n_calls_of_one_step_bit_for_bit(kind, n_p, mean_p, before, k):
    grid = init_gaussian(0.0, mean_p, 1.0, 0.0, 0.25, nx=48, n_p=n_p,
                         x_half_width=8.0, p_half_width=8.0)
    plan = step_plan(grid, _CALL_KINDS[kind], 5e-3)
    held = plan.carry
    if held is not None:   # the state as evolve_grid holds it
        grid = replace(grid, values=np.fft.rfft(grid.values, axis=held), held=held,
                       factor=np.ones(n_p // 2 + 1) if held == 1 else None)
    start = _one_by_one(grid, plan, before)
    assume(not isinstance(start, tuple))
    want = _one_by_one(start, plan, k)
    if isinstance(want, tuple):
        with pytest.raises(StabilityViolation) as info:
            step(start, plan, k)
        assert (info.value.step, info.value.time, str(info.value)) == want
        return
    got = step(start, plan, k)
    assert np.array_equal(got.values, want.values) and got.time == want.time
    assert (got.factor is None and want.factor is None) or np.array_equal(got.factor,
                                                                          want.factor)


# -------------------------------------------------------------- fitting


def test_measure_td_recovers_a_clean_exponential():
    times = np.linspace(0.0, 15.0, 40)
    fit = measure_td(times, np.exp(-times / 3.7))
    assert fit.td == pytest.approx(3.7, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 40


def test_measure_td_fits_times_below_the_square_root_of_the_double_range():
    # polyfit's column scaling squared the times to zero and divided by it
    times = np.linspace(0.0, 15.0, 40) * 1e-248
    fit = measure_td(times, np.exp(-times / 3.7e-248))
    assert fit.td == pytest.approx(3.7e-248, rel=1e-9)


def test_measure_td_truncates_at_the_floor():
    times = np.linspace(0.0, 60.0, 60)
    vis = np.exp(-times / 3.7)
    fit = measure_td(times, vis)
    assert fit.n_points == int(np.argmax(vis <= 1e-3))
    assert fit.td == pytest.approx(3.7, rel=1e-9)


@pytest.mark.parametrize("times, vis", [
    (np.linspace(0.0, 1.0, 3), np.exp(-np.linspace(0.0, 1.0, 3))),   # too short
    (np.linspace(0.0, 15.0, 40), np.exp(+np.linspace(0.0, 15.0, 40) / 5.0)),  # growing
    (np.linspace(0.0, 15.0, 40), np.exp(-np.linspace(0.0, 15.0, 40) / 100.0)),  # no span
])
def test_measure_td_rejects_unusable_series(times, vis):
    with pytest.raises(FitFailure):
        measure_td(times, vis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("series", [0, 1], ids=["times", "visibilities"])
def test_measure_td_refuses_a_non_finite_point(series, bad):
    # a NaN visibility fitted to td = nan, and an inf one warned untyped
    points = [np.arange(5.0), np.array([1.0, 0.8, 0.5, 0.25, 0.1])]
    points[series][1] = bad
    with pytest.raises(FitFailure, match="finite"):
        measure_td(*points)


def test_measure_td_rejects_a_bad_fit():
    times = np.linspace(0.0, 15.0, 40)
    wiggle = 1.0 + 0.8 * np.sin(9.0 * times)
    with pytest.raises(FitFailure):
        measure_td(times, np.exp(-times / 3.7) * np.clip(wiggle, 0.05, None))
