"""Predictability-sieve behavior: coherent pointer states and their rivals."""

import math

import pytest

from casidec import (
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
    by_r = {}
    for row in vacuum_result.landscape:
        r, theta, rate = row[0], row[1], row[2]
        by_r.setdefault(r, []).append(rate)
    for r, rates in by_r.items():
        assert max(rates) - min(rates) <= 1e-12 * max(abs(max(rates)), 1e-300)
    r_sorted = sorted(by_r)
    means = [by_r[r][0] for r in r_sorted]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_entropy_ordering_holds_at_every_evaluation_time(vacuum_result):
    n_times = len(vacuum_result.eval_times)
    for j in range(n_times):
        col = {}
        for row in vacuum_result.landscape:
            col.setdefault(row[0], row[3 + j])
        r_sorted = sorted(col)
        vals = [col[r] for r in r_sorted]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eval_times_span_a_damping_time(vacuum_result):
    gamma = coefficient_set(MIRROR).gamma
    assert vacuum_result.eval_times == pytest.approx((0.0, 0.1 / gamma, 0.5 / gamma))


def test_instantaneous_objective_runs_away():
    # the raw short-time rate rewards position squeezing without bound;
    # this is the transient that makes rotation averaging the default
    res = sieve_search(MIRROR, coefficient_set(MIRROR),
                       objective="instantaneous", r_max=2.0)
    assert res.r_star == pytest.approx(2.0, abs=1e-3)


def test_sieve_guards():
    with pytest.raises(DomainError):
        sieve_search(MIRROR, CoefficientSet(omega_star=1e10, gamma=1e-12, d1=0.0))
    with pytest.raises(DomainError):
        sieve_search(MIRROR, coefficient_set(MIRROR), objective="bogus")


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
