"""Predictability-sieve behavior: coherent pointer states and their rivals."""

import math

import pytest

from casidec import (
    CODATA,
    CatWignerSpec,
    CoefficientSet,
    MirrorParams,
    SolverCoefficients,
    coefficient_set,
    evolve_grid,
    grid_purity,
    init_cat,
    init_gaussian,
    sieve_search,
    squeezed_pure_state,
)
from casidec.errors import DomainError

MIRROR = MirrorParams(mass=1e-21, omega0=1e10)


@pytest.fixture(scope="module")
def vacuum_result():
    return sieve_search(MIRROR, coefficient_set(MIRROR))


def test_vacuum_pointer_states_are_coherent(vacuum_result):
    assert abs(vacuum_result.r_star) <= 1e-3
    assert vacuum_result.stable
    assert all(r == 0.0 for r in vacuum_result.argmin_r_per_time)
    assert vacuum_result.rate_at_optimum == pytest.approx(0.0, abs=1e-12)


def test_landscape_rate_is_theta_free_and_monotone(vacuum_result):
    # the landscape sits at theta = 0; at every other angle the rotation-averaged
    # rate (hbar/4) det^(-3/2) (-4 Gamma det + 2 D1 <cov_xx>) is the same
    coeffs = coefficient_set(MIRROR)
    mw = MIRROR.mass * coeffs.omega_star
    for r, rate, *_ in vacuum_result.landscape:
        for theta in (0.5 * math.pi, math.pi, 1.5 * math.pi):
            state = squeezed_pure_state(r, theta, MIRROR, coeffs.omega_star)
            xx, det = 0.5 * (state.cov_xx + state.cov_pp / mw**2), state.det_cov
            other = 0.25 * CODATA.hbar * det**-1.5 * (-4.0 * coeffs.gamma * det
                                                      + 2.0 * coeffs.d1 * xx)
            assert abs(other - rate) <= 1e-12 * max(abs(rate), 1e-300)
    rates = [row[1] for row in sorted(vacuum_result.landscape)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("mass", [1e-21, 1.0])
def test_the_coherent_rate_is_exactly_zero(mass):
    # the vacuum d1 is hbar M omega* Gamma, so the r = 0 rate cancels exactly;
    # through the general rotation-averaged rate the 1 kg mirror read -1.14e-48
    mirror = MirrorParams(mass=mass, omega0=1e10)
    r, rate, *_ = sieve_search(mirror, coefficient_set(mirror)).landscape[0]
    assert r == 0.0 and rate == 0.0


def test_rate_at_optimum_is_the_landscape_rate_at_r_star(vacuum_result):
    # the reported rate is the selected state's, not that of a point near it
    row = next(row for row in vacuum_result.landscape if row[0] == vacuum_result.r_star)
    assert vacuum_result.rate_at_optimum == row[1]
    assert vacuum_result.rate_at_optimum == min(row[1] for row in vacuum_result.landscape)


def test_entropy_ordering_holds_at_every_evaluation_time(vacuum_result):
    rows = sorted(vacuum_result.landscape)
    for j in range(len(vacuum_result.eval_times)):
        vals = [row[2 + j] for row in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eval_times_span_a_damping_time(vacuum_result):
    gamma = coefficient_set(MIRROR).gamma
    assert vacuum_result.eval_times == pytest.approx((0.0, 0.1 / gamma, 0.5 / gamma))


def test_sieve_guards():
    with pytest.raises(DomainError):
        sieve_search(MIRROR, CoefficientSet(omega_star=1e10, gamma=1e-12, d1=0.0))
    with pytest.raises(DomainError, match="omega_star"):
        sieve_search(MIRROR, CoefficientSet(omega_star=0.0, gamma=1e-12, d1=1e-40))


def test_cat_state_is_not_competitive():
    # coarse non-Gaussian competitor in solver units: under the same
    # coefficients the coherent state keeps purity 1 (fixed point) while a
    # two-packet state loses almost half its purity in two time units
    gamma = 0.05
    sc = SolverCoefficients(mass=0.5, omega=1.0, gamma=gamma, d1=0.5 * gamma)
    coherent = init_gaussian(0.0, 0.0, 1.0, 0.0, 0.25, nx=128, n_p=128)
    cat = init_cat(CatWignerSpec(alpha_mag=2.0), nx=128, n_p=128)
    dt = 0.005 * 2 * math.pi
    coherent = evolve_grid(coherent, sc, 2.0, dt)
    cat = evolve_grid(cat, sc, 2.0, dt)
    assert grid_purity(coherent) == pytest.approx(1.0, abs=5e-3)
    assert grid_purity(cat) < 0.6
