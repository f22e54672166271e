import math

import pytest

from casidec import (
    emission_state,
    gamma_vacuum_1d,
    MirrorParams,
    pair_probability,
    td_cat_vacuum,
    which_way_overlap,
    reduced_offdiagonal_weight,
)
from casidec.errors import DomainError, NonPhysicalInput

GAMMA = gamma_vacuum_1d(MirrorParams(mass=1e-21, omega0=1e10))
ALPHA = 10.0


def test_pair_probability_linear_growth():
    assert pair_probability(0.0, ALPHA, GAMMA) == 0.0
    t = 1e9
    assert pair_probability(t, ALPHA, GAMMA) == pytest.approx(
        2 * ALPHA**2 * GAMMA * t, rel=1e-15)
    # over a damping time the expected count reaches 2 alpha^2, unclamped
    assert pair_probability(1 / GAMMA, ALPHA, GAMMA) == pytest.approx(200.0, rel=1e-12)


def test_overlap_decay_constant_is_the_photon_counting_lifetime():
    td = td_cat_vacuum(ALPHA, GAMMA)
    for t_over_td in (0.3, 1.0, 2.4):
        t = t_over_td * td
        overlap = which_way_overlap(t, ALPHA, GAMMA)
        assert -math.log(overlap) * td / t == pytest.approx(1.0, rel=1e-12)
    assert which_way_overlap(td, ALPHA, GAMMA) == pytest.approx(1 / math.e, rel=1e-12)


def test_linear_and_exponentiated_agree_in_window():
    # |exp(-x) - (1 - x)| <= x^2 / 2 inside the perturbative window
    td = td_cat_vacuum(ALPHA, GAMMA)
    for frac in (0.01, 0.05, 0.1):
        t = frac * td
        lin = which_way_overlap(t, ALPHA, GAMMA, exponentiated=False)
        exp = which_way_overlap(t, ALPHA, GAMMA, exponentiated=True)
        assert abs(exp - lin) <= frac**2 / 2


def test_linear_overlap_floor():
    td = td_cat_vacuum(ALPHA, GAMMA)
    assert which_way_overlap(10 * td, ALPHA, GAMMA, exponentiated=False) == -1.0
    assert which_way_overlap(2 * td, ALPHA, GAMMA, exponentiated=False) == pytest.approx(-1.0)


def test_reduced_offdiagonal_is_half_the_overlap():
    t = 0.2 / (4 * ALPHA**2 * GAMMA)
    assert reduced_offdiagonal_weight(t, ALPHA, GAMMA) == pytest.approx(
        0.5 * which_way_overlap(t, ALPHA, GAMMA), rel=1e-15)


def test_emission_state_bookkeeping():
    td = td_cat_vacuum(ALPHA, GAMMA)
    early = emission_state(0.05 * td, ALPHA, GAMMA)
    assert early.perturbative
    assert early.vacuum_weight + early.pair_weight == pytest.approx(1.0, rel=1e-12)
    late = emission_state(5 * td, ALPHA, GAMMA)
    assert not late.perturbative
    assert late.vacuum_weight == 0.0  # clamped once the expansion is gone
    assert late.pair_weight > 1.0


def test_emission_state_degenerate_inputs():
    st = emission_state(1.0, 0.0, GAMMA)
    assert st.pair_weight == 0.0 and st.overlap == 1.0 and st.perturbative


def test_input_guards():
    with pytest.raises(DomainError):
        pair_probability(-1.0, ALPHA, GAMMA)
    with pytest.raises(NonPhysicalInput):
        pair_probability(1.0, -1.0, GAMMA)
    with pytest.raises(NonPhysicalInput):
        which_way_overlap(1.0, 0.0, GAMMA)
    with pytest.raises(DomainError):
        which_way_overlap(-1.0, ALPHA, GAMMA)
