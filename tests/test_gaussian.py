import math

import numpy as np
import pytest
from scipy.linalg import expm

from casidec import (
    CoefficientSet,
    GaussianState,
    MirrorParams,
    PhysicalConstants,
    entropy_production_rate,
    evolve,
    linear_entropy,
    moment_derivatives,
    purity,
    secular_linear_entropy,
    squeezed_pure_state,
)
from casidec import wigner_solver
from casidec.errors import DomainError, NonPhysicalInput, StepSizeError
from casidec.scenarios import scenario_defaults

NAT = PhysicalConstants.natural()
OSC = MirrorParams(mass=1.0, omega0=1.0)


def _coeffs(gamma=0.0, d1=0.0, d2=0.0, omega=1.0):
    return CoefficientSet(omega_star=omega, gamma=gamma, d1=d1, d2=d2)


def vacuum_d1(gamma, mass=1.0, omega=1.0):
    # fixed-point diffusion hbar M omega gamma in natural units
    return mass * omega * gamma


def test_state_validation():
    with pytest.raises(NonPhysicalInput):
        GaussianState(0.0, 0.0, cov_xx=-1.0, cov_xp=0.0, cov_pp=1.0)
    with pytest.raises(NonPhysicalInput):
        GaussianState(0.0, 0.0, cov_xx=1.0, cov_xp=2.0, cov_pp=1.0)  # det < 0


def test_coherent_state_widths():
    st = GaussianState.coherent(OSC, constants=NAT)
    assert st.cov_xx == pytest.approx(0.5)
    assert st.cov_pp == pytest.approx(0.5)
    assert st.det_cov == pytest.approx(0.25)


def test_moment_derivatives_formula():
    st = GaussianState(1.0, -2.0, cov_xx=2.0, cov_xp=0.3, cov_pp=1.0)
    c = _coeffs(gamma=0.1, d1=0.7, d2=0.05, omega=2.0)
    d = moment_derivatives(st, OSC, c)
    assert d[0] == pytest.approx(-2.0)
    assert d[1] == pytest.approx(-4.0 * 1.0 - 0.2 * (-2.0))
    assert d[2] == pytest.approx(2 * 0.3)
    assert d[3] == pytest.approx(1.0 - 4.0 * 2.0 - 0.2 * 0.3 - 0.05)
    assert d[4] == pytest.approx(-2 * 4.0 * 0.3 - 0.4 * 1.0 + 1.4)


def test_means_match_damped_oscillator_closed_form():
    # underdamped oscillator: x(t) = e^(-G t)(x0 cos wt + (v0 + G x0)/w sin wt)
    gamma, x0, p0, t = 0.05, 1.3, -0.4, 7.3
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = GaussianState(x0, p0, cov_xx=0.5, cov_xp=0.0, cov_pp=0.5)
    out = evolve(st, OSC, c, t, dt=0.005)
    w = math.sqrt(1.0 - gamma**2)
    decay = math.exp(-gamma * t)
    x_ref = decay * (x0 * math.cos(w * t) + (p0 + gamma * x0) / w * math.sin(w * t))
    v_ref = decay * ((p0 + gamma * x0) * math.cos(w * t) - x0 * w * math.sin(w * t)) \
        - gamma * x_ref
    assert out.mean_x == pytest.approx(x_ref, abs=1e-9)
    assert out.mean_p == pytest.approx(v_ref, abs=1e-9)


def test_equipartition_steady_state():
    # cov_pp -> D1 / (2 Gamma) = M kB T under the classical Einstein coefficient
    gamma, kT = 0.1, 3.0
    d1 = 2.0 * 1.0 * kT * gamma
    c = _coeffs(gamma=gamma, d1=d1)
    st = GaussianState(0.5, 0.0, cov_xx=4.0, cov_xp=0.7, cov_pp=0.3)
    out = evolve(st, OSC, c, 60.0)
    assert out.cov_pp == pytest.approx(kT, rel=1e-3)
    assert out.cov_xx == pytest.approx(kT, rel=1e-3)  # M omega*^2 = 1 here
    assert out.cov_xp == pytest.approx(0.0, abs=1e-3 * kT)


def test_coherent_state_is_exact_fixed_point():
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = GaussianState.coherent(OSC, constants=NAT)
    out = evolve(st, OSC, c, 25.0)
    assert purity(out, NAT) == pytest.approx(1.0, abs=1e-9)
    assert out.cov_xx == pytest.approx(0.5, rel=1e-9)
    assert out.cov_pp == pytest.approx(0.5, rel=1e-9)


def test_purity_values():
    st = GaussianState(0.0, 0.0, cov_xx=2.0, cov_xp=0.0, cov_pp=0.5)  # det = hbar^2
    assert purity(st, NAT) == pytest.approx(0.5, rel=1e-15)
    assert linear_entropy(st, NAT) == pytest.approx(0.5, rel=1e-15)
    pure = GaussianState.coherent(OSC, constants=NAT)
    assert purity(pure, NAT) == pytest.approx(1.0, rel=1e-15)


def test_purity_decreases_under_excess_diffusion():
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=3.0 * vacuum_d1(gamma))
    st = GaussianState.coherent(OSC, constants=NAT)
    p_mid = purity(evolve(st, OSC, c, 1.0), NAT)
    p_late = purity(evolve(st, OSC, c, 5.0), NAT)
    assert p_mid < 1.0
    assert p_late < p_mid


def test_heisenberg_bound_at_the_fixed_point_and_steady_state():
    gamma = 0.05
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    coh = GaussianState.coherent(OSC, constants=NAT)
    for t in (0.5, 2.0, 10.0, 40.0):
        assert evolve(coh, OSC, c, t).det_cov >= 0.25 * (1.0 - 1e-9)


def test_squeezed_state_transiently_beats_the_bound():
    # the transport equation is not completely positive at zero temperature:
    # a squeezed input dips below det = hbar^2/4 for part of a rotation
    # before the diffusion floor restores it. The dip is physical (the flow
    # is exact, so the check interval does not move it), bounded, and
    # heals by steady state.
    gamma = 0.05
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = squeezed_pure_state(0.8, 1.1, OSC, 1.0, NAT)
    early = evolve(st, OSC, c, 0.5, dt=0.002)
    assert early.det_cov < 0.25          # the transient dip
    assert early.det_cov > 0.20          # but nowhere near collapse
    refined = evolve(st, OSC, c, 0.5, dt=0.0005)
    assert refined.det_cov == pytest.approx(early.det_cov, rel=1e-6)
    late = evolve(st, OSC, c, 200.0)
    assert late.det_cov >= 0.25 * (1.0 - 1e-9)


def test_coherent_purity_floor_at_weak_damping():
    # purity of the coherent state never drops below 1 - 5 Gamma t early on
    gamma = 0.01
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = GaussianState.coherent(OSC, constants=NAT)
    for t in (1.0, 5.0, 10.0):  # Gamma t up to 0.1
        assert purity(evolve(st, OSC, c, t), NAT) >= 1.0 - 5.0 * gamma * t


# ------------------------------------------------------- entropy production

def test_entropy_rate_zero_at_coherent_fixed_point():
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = GaussianState.coherent(OSC, constants=NAT)
    rate = entropy_production_rate(st, OSC, c, NAT, rotation_averaged=True)
    assert rate == pytest.approx(0.0, abs=1e-15)


def test_entropy_rate_monotone_in_squeezing():
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    rates = [entropy_production_rate(squeezed_pure_state(r, 0.0, OSC, 1.0, NAT),
                                     OSC, c, NAT, rotation_averaged=True)
             for r in (0.0, 0.2, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[0] == pytest.approx(0.0, abs=1e-15)


def test_entropy_rate_zero_without_environment():
    st = GaussianState.coherent(OSC, constants=NAT)
    with pytest.raises(DomainError):
        # no diffusion at all is rejected upstream by the sieve, but the
        # bare rate is still well-defined; only impure states are rejected
        entropy_production_rate(GaussianState(0, 0, 1.0, 0.0, 1.0), OSC,
                                _coeffs(), NAT)
    assert entropy_production_rate(st, OSC, _coeffs(), NAT) == 0.0


def test_instantaneous_rate_rewards_position_squeezing():
    # the non-averaged rate drops under position squeezing: the transient
    # the rotation-averaged objective exists to remove
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    r0 = entropy_production_rate(GaussianState.coherent(OSC, constants=NAT),
                                 OSC, c, NAT)
    r_sq = entropy_production_rate(squeezed_pure_state(0.3, 0.0, OSC, 1.0, NAT),
                                   OSC, c, NAT)
    assert r_sq < r0


def test_squeezed_pure_state_family():
    for r in (0.0, 0.5, 1.5):
        for theta in (0.0, 1.0, math.pi):
            st = squeezed_pure_state(r, theta, OSC, 1.0, NAT)
            assert st.det_cov == pytest.approx(0.25, rel=1e-12)
    assert squeezed_pure_state(0.0, 0.0, OSC, 1.0, NAT).cov_xx == pytest.approx(0.5)


# ----------------------------------------------------------------- guards

def test_evolve_step_guards():
    c = _coeffs(gamma=0.05, d1=0.05)
    st = GaussianState.coherent(OSC, constants=NAT)
    with pytest.raises(StepSizeError):
        evolve(st, OSC, c, 1.0, dt=1.0)  # above 1% of the period
    with pytest.raises(StepSizeError):
        evolve(st, OSC, c, 1.0, dt=-0.1)
    with pytest.raises(DomainError):
        evolve(st, OSC, c, -1.0)
    assert evolve(st, OSC, c, 0.0) is st


def test_evolve_names_the_time_and_determinant_when_the_cone_is_left():
    # a cross diffusion with no momentum diffusion pulls det cov below zero
    # within a tenth of a period; the flow is exact, so no dt avoids it
    c = _coeffs(d2=5.0)
    st = GaussianState.coherent(OSC, constants=NAT)
    with pytest.raises(StepSizeError, match=r"at t = .*det cov = -"):
        evolve(st, OSC, c, 1.0, dt=0.001)


# ------------------------------------------------------------- exact flow

ORACLE = scenario_defaults("wigner-gaussian-oracle")
MOMENTS = ("mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp")
FINE_DT = 2.0 * math.pi * 1e-3


def _oracle_flow(times):
    """Exact moments of the oracle defaults, from an expm written out here."""
    co, init = ORACLE["coefficients"], ORACLE["initial"]
    m, k, g = co["mass"], co["mass"] * co["omega"] ** 2, co["gamma"]
    gen = np.array([
        [0.0, 1.0 / m, 0.0, 0.0, 0.0, 0.0],
        [-k, -2.0 * g, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 2.0 / m, 0.0, 0.0],
        [0.0, 0.0, -k, -2.0 * g, 1.0 / m, -co["d2"]],
        [0.0, 0.0, 0.0, -2.0 * k, -4.0 * g, 2.0 * co["d1"]],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    y0 = np.array([init[nm] for nm in MOMENTS] + [1.0])
    return np.array([(expm(gen * t) @ y0)[:5] for t in times])


def _evolved_series(times, dt):
    co, init = ORACLE["coefficients"], ORACLE["initial"]
    params = MirrorParams(mass=co["mass"], omega0=co["omega"])
    c = _coeffs(gamma=co["gamma"], d1=co["d1"], d2=co["d2"], omega=co["omega"])
    state = GaussianState(**init)
    rows = [[init[nm] for nm in MOMENTS]]
    for t0, t1 in zip(times, times[1:]):
        state = evolve(state, params, c, t1 - t0, dt=dt)
        rows.append([getattr(state, nm) for nm in MOMENTS])
    return np.array(rows)


@pytest.mark.parametrize("dt", [None, FINE_DT])
def test_evolve_is_the_exact_flow(dt):
    times = np.linspace(0.0, 20.0, 41)
    exact = _oracle_flow(times)
    got = _evolved_series(times, dt)
    assert np.all(np.max(np.abs(got - exact), axis=0) <= 1e-12 * np.max(np.abs(exact), axis=0))


def test_evolve_does_not_depend_on_the_check_interval():
    times = np.linspace(0.0, 20.0, 41)
    coarse = _evolved_series(times, None)
    fine = _evolved_series(times, FINE_DT)
    assert np.all(np.max(np.abs(coarse - fine), axis=0) <= 1e-12 * np.max(np.abs(fine), axis=0))


def test_grid_drift_is_the_mean_flow():
    # the grid solver's backtrace inverts the same generator's mean block
    mass, omega, gamma, dt = 0.5, 1.0, 0.05, 0.03
    back = np.eye(2) + wigner_solver._drift_maps(mass, omega, gamma, dt)
    c = _coeffs(gamma=gamma, d1=0.01, omega=omega)
    st = GaussianState(1.3, -0.4, cov_xx=0.5, cov_xp=0.0, cov_pp=0.5)
    out = evolve(st, MirrorParams(mass=mass, omega0=omega), c, dt)
    assert np.allclose(back @ [out.mean_x, out.mean_p], [st.mean_x, st.mean_p],
                       rtol=0.0, atol=1e-14)


# ------------------------------------------------------- secular closed form

def test_secular_entropy_coherent_is_conserved():
    gamma = 1e-3
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = GaussianState.coherent(OSC, constants=NAT)
    for t in (0.0, 1e3, 1e12):
        assert secular_linear_entropy(st, OSC, c, t, 1.0, NAT) == pytest.approx(0.0, abs=1e-12)


def test_secular_entropy_matches_stepped_moments():
    # at moderate gamma/omega the secular form tracks the exact flow to
    # O(gamma/omega)
    gamma = 1e-3
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = squeezed_pure_state(0.5, 0.7, OSC, 1.0, NAT)
    for t in (10.0, 100.0):
        stepped = linear_entropy(evolve(st, OSC, c, t), NAT)
        secular = secular_linear_entropy(st, OSC, c, t, 1.0, NAT)
        assert abs(secular - stepped) < 3e-3
        assert secular > 0


def test_secular_entropy_gamma_zero_branch():
    c = _coeffs(gamma=0.0, d1=0.05)
    st = GaussianState.coherent(OSC, constants=NAT)
    t = 2.0
    stepped = linear_entropy(evolve(st, OSC, c, t, dt=0.005), NAT)
    secular = secular_linear_entropy(st, OSC, c, t, 1.0, NAT)
    # without damping the dropped correlation ripple is O(d1/omega)
    assert secular == pytest.approx(stepped, abs=0.1 * c.d1)
    with pytest.raises(DomainError):
        secular_linear_entropy(st, OSC, c, 1.0, 0.0, NAT)
