import math
import signal
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from casidec import (
    CoefficientSet,
    GaussianState,
    MirrorParams,
    PhysicalConstants,
    evolve,
    purity,
    secular_linear_entropy,
    sieve_search,
    squeezed_pure_state,
)
from casidec import gaussian_dynamics, wigner_solver
from casidec.errors import DomainError, NonPhysicalInput, StepSizeError
from casidec.scenarios import scenario_defaults

NAT = PhysicalConstants.natural()
OSC = MirrorParams(mass=1.0, omega0=1.0)
COHERENT = squeezed_pure_state(0.0, 0.0, OSC, 1.0, NAT)


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
    st = COHERENT
    assert st.cov_xx == pytest.approx(0.5)
    assert st.cov_pp == pytest.approx(0.5)
    assert st.det_cov == pytest.approx(0.25)


def test_moment_derivatives_formula():
    # the generator evolve exponentiates, applied to (moments, 1)
    y = [1.0, -2.0, 2.0, 0.3, 1.0, 1.0]  # mean_x, mean_p, cov_xx, cov_xp, cov_pp
    c = _coeffs(gamma=0.1, d1=0.7, d2=0.05, omega=2.0)
    d = gaussian_dynamics._state_generator(OSC, c) @ y
    assert d[5] == 0.0
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
    st = COHERENT
    out = evolve(st, OSC, c, 25.0)
    assert purity(out, NAT) == pytest.approx(1.0, abs=1e-9)
    assert out.cov_xx == pytest.approx(0.5, rel=1e-9)
    assert out.cov_pp == pytest.approx(0.5, rel=1e-9)


def test_purity_values():
    st = GaussianState(0.0, 0.0, cov_xx=2.0, cov_xp=0.0, cov_pp=0.5)  # det = hbar^2
    assert purity(st, NAT) == pytest.approx(0.5, rel=1e-15)
    assert purity(COHERENT, NAT) == pytest.approx(1.0, rel=1e-15)


def test_purity_decreases_under_excess_diffusion():
    gamma = 0.02
    c = _coeffs(gamma=gamma, d1=3.0 * vacuum_d1(gamma))
    st = COHERENT
    p_mid = purity(evolve(st, OSC, c, 1.0), NAT)
    p_late = purity(evolve(st, OSC, c, 5.0), NAT)
    assert p_mid < 1.0
    assert p_late < p_mid


def test_heisenberg_bound_at_the_fixed_point_and_steady_state():
    gamma = 0.05
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    coh = COHERENT
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
    st = COHERENT
    for t in (1.0, 5.0, 10.0):  # Gamma t up to 0.1
        assert purity(evolve(st, OSC, c, t), NAT) >= 1.0 - 5.0 * gamma * t


# ------------------------------------------------------- entropy production

def _sieve_rates(gamma):
    # the sieve landscape's rotation-averaged rates, in rising r
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    return [row[1] for row in sieve_search(OSC, c, NAT).landscape]


def test_entropy_rate_zero_at_coherent_fixed_point():
    assert _sieve_rates(0.02)[0] == pytest.approx(0.0, abs=1e-15)


def test_entropy_rate_monotone_in_squeezing():
    rates = _sieve_rates(0.02)
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[0] == pytest.approx(0.0, abs=1e-15)


def test_instantaneous_rate_rewards_position_squeezing():
    # over a short time the exact flow makes a position-squeezed state less
    # mixed than the coherent one: the transient that the sieve's rate
    # averages away over a rotation
    gamma, t = 0.02, 0.01
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    squeezed = squeezed_pure_state(0.3, 0.0, OSC, 1.0, NAT)
    assert purity(evolve(squeezed, OSC, c, t), NAT) > purity(evolve(COHERENT, OSC, c, t), NAT)


def test_squeezed_pure_state_family():
    for r in (0.0, 0.5, 1.5):
        for theta in (0.0, 1.0, math.pi):
            st = squeezed_pure_state(r, theta, OSC, 1.0, NAT)
            assert st.det_cov == pytest.approx(0.25, rel=1e-12)
    # large squeezing along the axes, where cosh 2r - sinh 2r would cancel
    for r in (4.0, 7.5):
        for theta in (0.0, math.pi):
            st = squeezed_pure_state(r, theta, OSC, 1.0, NAT)
            assert st.det_cov == pytest.approx(0.25, rel=1e-12)
    assert squeezed_pure_state(0.0, 0.0, OSC, 1.0, NAT).cov_xx == pytest.approx(0.5)


# ----------------------------------------------------------------- guards

def test_evolve_step_guards():
    c = _coeffs(gamma=0.05, d1=0.05)
    st = COHERENT
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
    st = COHERENT
    with pytest.raises(StepSizeError, match=r"at t = .*det cov = -"):
        evolve(st, OSC, c, 1.0, dt=0.001)


@pytest.mark.parametrize("mass, omega, gamma, d1, h", [
    (1e-320, 1.0, 0.0, 0.0, "0.0625"),        # 1/M is inf
    (1e-300, 1.0, 0.1, 1.0, "0.0625"),        # the flow overflows as it is squared up
    (1.0, 1.0, 0.0, 1e308, "0.0625"),         # 2 D1 is inf
    (1.0, 1e200, 0.0, 0.0, "6.28319e-202"),   # M omega^2 overflows a Python float
])
def test_evolve_refuses_a_flow_beyond_the_double_range(mass, omega, gamma, d1, h):
    # a typed failure naming the time the first check would be at, with no
    # warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match=f"t = {h}"):
            evolve(GaussianState(0.0, 0.0, 1.0, 0.0, 1.0), MirrorParams(mass=mass, omega0=1.0),
                   _coeffs(gamma=gamma, d1=d1, omega=omega), 1.0)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a POSIX interval timer")
def test_evolve_refuses_more_positivity_checks_than_it_can_run():
    # omega* = 1e8 over t = 1 asks for 1.6e9 checks, one per hundredth of a
    # period, in a Python loop: a typed failure up front, not a call that
    # never returns (the timer stops the call if it runs on)
    def stop(signum, frame):
        raise TimeoutError("evolve ran past 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        start = time.perf_counter()
        with pytest.raises(StepSizeError, match=r"t = 1, dt = 6\.28319e-10: 1591549431 "):
            evolve(GaussianState(0.0, 0.0, 0.5, 0.0, 0.5), MirrorParams(mass=1e-8, omega0=1.0),
                   CoefficientSet(omega_star=1e8, gamma=0.0, d1=0.0, d2=0.0), 1.0)
        assert time.perf_counter() - start < 1.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------- exact flow

ORACLE = scenario_defaults("wigner-gaussian-oracle")
MOMENTS = ("mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp")
FINE_DT = 2.0 * math.pi * 1e-3


# the oracle defaults, then undamped, then free and damped
FLOWS = [ORACLE["coefficients"], {**ORACLE["coefficients"], "gamma": 0.0},
         {**ORACLE["coefficients"], "omega": 0.0}]


def _exact_flow(co, times):
    """Exact moments from the oracle's initial state under the coefficients
    co, from an expm written out here."""
    init = ORACLE["initial"]
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


def _evolved_series(co, times, dt):
    init = ORACLE["initial"]
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
    for co in FLOWS:
        exact = _exact_flow(co, times)
        got = _evolved_series(co, times, dt)
        assert np.all(np.max(np.abs(got - exact), axis=0)
                      <= 1e-12 * np.max(np.abs(exact), axis=0)), co


def test_evolve_does_not_depend_on_the_check_interval():
    times = np.linspace(0.0, 20.0, 41)
    coarse = _evolved_series(ORACLE["coefficients"], times, None)
    fine = _evolved_series(ORACLE["coefficients"], times, FINE_DT)
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
    st = COHERENT
    for t in (0.0, 1e3, 1e12):
        assert secular_linear_entropy(st, OSC, c, t, NAT) == pytest.approx(0.0, abs=1e-12)


def test_secular_entropy_matches_stepped_moments():
    # at moderate gamma/omega the secular form tracks the exact flow to
    # O(gamma/omega)
    gamma = 1e-3
    c = _coeffs(gamma=gamma, d1=vacuum_d1(gamma))
    st = squeezed_pure_state(0.5, 0.7, OSC, 1.0, NAT)
    for t in (10.0, 100.0):
        stepped = 1.0 - purity(evolve(st, OSC, c, t), NAT)
        secular = secular_linear_entropy(st, OSC, c, t, NAT)
        assert abs(secular - stepped) < 3e-3
        assert secular > 0


def test_secular_entropy_gamma_zero_branch():
    c = _coeffs(gamma=0.0, d1=0.05)
    st = COHERENT
    t = 2.0
    stepped = 1.0 - purity(evolve(st, OSC, c, t, dt=0.005), NAT)
    secular = secular_linear_entropy(st, OSC, c, t, NAT)
    # without damping the dropped correlation ripple is O(d1/omega)
    assert secular == pytest.approx(stepped, abs=0.1 * c.d1)
    with pytest.raises(DomainError):
        secular_linear_entropy(st, OSC, _coeffs(d1=0.05, omega=0.0), 1.0, NAT)
