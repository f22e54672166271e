import math

import pytest

from casidec import (
    CODATA,
    MirrorParams,
    diffusion_asymptotic,
    gamma_vacuum_1d,
    gamma_vacuum_sphere,
    ground_state_width,
    packet_velocity,
    separation_from_alpha,
    td_cat_vacuum,
    td_from_diffusion,
    td_from_separation,
    td_high_T,
    td_relative_1d,
    td_relative_sphere,
    td_thermal_sphere_free,
    thermal_de_broglie,
)
from casidec.errors import DomainError, NonPhysicalInput, RegimeViolation, RegimeWarning

MIRROR = MirrorParams(mass=1e-21, omega0=1e10)


def test_td_cat_vacuum_formula():
    gamma = gamma_vacuum_1d(MIRROR)
    res = td_cat_vacuum(10.0, gamma)
    assert res == pytest.approx(1.0 / (400.0 * gamma), rel=1e-15)


def test_td_cat_vacuum_warns_for_small_amplitude():
    with pytest.warns(RegimeWarning):
        td_cat_vacuum(1.0, 1e-12)
    with pytest.raises(NonPhysicalInput):
        td_cat_vacuum(0.0, 1e-12)


def test_amplitude_and_separation_routes_agree():
    gamma = gamma_vacuum_1d(MIRROR)
    alpha = 10.0
    sep = separation_from_alpha(alpha, MIRROR)
    width = ground_state_width(MIRROR)
    a = td_cat_vacuum(alpha, gamma)
    b = td_from_separation(sep, width, gamma)
    assert b == pytest.approx(a, rel=1e-12)


def test_td_relative_1d_frozen_value():
    res = td_relative_1d(1e-3, 1e10)
    assert res == pytest.approx(1.8849555921538759e-03, rel=1e-14)
    # hundreds of periods even at a tenth of light speed
    assert td_relative_1d(0.1, 1e10) / (2 * math.pi / 1e10) == pytest.approx(300.0)


def test_td_relative_1d_identity_chain():
    # 1/(4 alpha^2 Gamma) must equal 3 (c/v)^2 (2 pi / omega0) exactly
    gamma = gamma_vacuum_1d(MIRROR)
    for alpha in (3.0, 10.0, 47.0):
        v = packet_velocity(MIRROR, alpha)
        direct = td_cat_vacuum(alpha, gamma)
        relative = td_relative_1d(v / CODATA.c, MIRROR.omega0)
        assert relative == pytest.approx(direct, rel=1e-12)


def test_td_relative_sphere_identity_chain():
    # radius small enough that omega0 R / c < v / c, the regime of validity
    p = MirrorParams(mass=1e-21, omega0=1e10, radius=1e-11)
    gamma = gamma_vacuum_sphere(p)
    alpha = 10.0
    v = packet_velocity(p, alpha)
    direct = td_cat_vacuum(alpha, gamma)
    relative = td_relative_sphere(v / CODATA.c, p.omega0, p.radius)
    assert relative == pytest.approx(direct, rel=1e-12)


def test_td_relative_sphere_guards():
    with pytest.raises(RegimeViolation):
        td_relative_1d(1.5, 1e10)
    # size parameter above v/c: the packets move slower than the sphere "looks big"
    with pytest.raises(RegimeViolation):
        td_relative_sphere(1e-4, 1e10, 1e-2)
    # valid inputs always clear the (c/v)^8 period floor
    res = td_relative_sphere(1e-2, 1e10, 1e-5)
    floor = (1.0 / 1e-2) ** 8 * (2 * math.pi / 1e10)
    assert res > floor


def test_td_from_diffusion_conventions():
    d1 = 1e-57
    dx = 1e-10
    frozen = td_from_diffusion(d1, dx, oscillatory=False)
    rotating = td_from_diffusion(d1, dx, oscillatory=True)
    assert frozen == pytest.approx(CODATA.hbar**2 / (d1 * dx**2), rel=1e-15)
    assert rotating == pytest.approx(2 * frozen, rel=1e-15)


def test_diffusion_route_matches_photon_counting():
    # with the vacuum diffusion coefficient the generic route lands on
    # the photon-counting lifetime, including the rotation average
    gamma = gamma_vacuum_1d(MIRROR)
    d1 = diffusion_asymptotic(MIRROR, gamma)
    alpha = 10.0
    dx = separation_from_alpha(alpha, MIRROR)
    via_diffusion = td_from_diffusion(d1, dx, oscillatory=True)
    via_counting = td_cat_vacuum(alpha, gamma)
    assert via_diffusion == pytest.approx(via_counting, rel=1e-12)


def test_td_high_T_formula():
    lam = 1e-11
    assert td_high_T(lam, 1e-9, 1e-3) == pytest.approx(1e-4 / 1e-3, rel=1e-15)


def test_td_thermal_sphere_free_frozen_anchor():
    # 2.7 K background, centimeter sphere: td * dx^2 = 2.655e-21 s m^2
    p = MirrorParams(mass=1.0, temperature=2.7, radius=1e-2)
    res = td_thermal_sphere_free(p, 1e-6)
    assert res == pytest.approx(2.6552247664074382e-09, rel=1e-13)
    assert res * (1e-6) ** 2 == pytest.approx(2.655224766407438e-21, rel=1e-13)


def test_td_thermal_sphere_free_mass_independent():
    heavy = MirrorParams(mass=10.0, temperature=2.7, radius=1e-2)
    light = MirrorParams(mass=1e-6, temperature=2.7, radius=1e-2)
    assert td_thermal_sphere_free(heavy, 1e-6) == td_thermal_sphere_free(light, 1e-6)


def test_td_thermal_sphere_free_scalings():
    p = MirrorParams(mass=1.0, temperature=2.7, radius=1e-2)
    base = td_thermal_sphere_free(p, 1e-6)
    hot = MirrorParams(mass=1.0, temperature=5.4, radius=1e-2)
    assert td_thermal_sphere_free(hot, 1e-6) == pytest.approx(base / 32, rel=1e-13)
    assert td_thermal_sphere_free(p, 2e-6) == pytest.approx(base / 4, rel=1e-13)


def test_td_thermal_sphere_free_consistency_with_high_T_route():
    # lambda_T^2 / (dx^2 Gamma_thermal) reproduces the closed form, mass and all
    from casidec import gamma_thermal_sphere
    p = MirrorParams(mass=1e-3, temperature=40.0, radius=1e-3)
    lam = thermal_de_broglie(p)
    gamma = gamma_thermal_sphere(p)
    dx = 1e-8
    assert td_high_T(lam, dx, gamma) == pytest.approx(
        td_thermal_sphere_free(p, dx), rel=1e-12)


def test_td_thermal_sphere_free_warns_near_bath_memory():
    # separation so large the lifetime drops to the bath correlation time
    p = MirrorParams(mass=1.0, temperature=2.7, radius=1e-2)
    with pytest.warns(RegimeWarning):
        td_thermal_sphere_free(p, 1e-2)


def test_td_thermal_sphere_free_guards():
    with pytest.raises(DomainError):
        td_thermal_sphere_free(MirrorParams(mass=1.0, radius=1e-2), 1e-6)
    with pytest.raises(DomainError):
        td_thermal_sphere_free(MirrorParams(mass=1.0, temperature=2.7), 1e-6)
    with pytest.raises(NonPhysicalInput):
        td_thermal_sphere_free(MirrorParams(mass=1.0, temperature=2.7, radius=1e-2), 0.0)
