import math

import pytest

from casidec import (
    CODATA,
    CatSpec,
    MirrorParams,
    PhysicalConstants,
    alpha_from_separation,
    derived_quantities,
    ground_state_width,
    packet_velocity,
    resolve_cat,
    separation_from_alpha,
    thermal_de_broglie,
    validate,
)
from casidec.errors import DomainError, NonPhysicalInput

MIRROR = MirrorParams(mass=1e-21, omega0=1e10)


def test_codata_values():
    assert CODATA.hbar == 1.054571817e-34
    assert CODATA.c == 299792458.0
    assert CODATA.k_boltzmann == 1.380649e-23


def test_natural_units():
    nat = PhysicalConstants.natural()
    assert (nat.hbar, nat.c, nat.k_boltzmann) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_mass_must_be_positive_finite(bad):
    with pytest.raises(NonPhysicalInput):
        MirrorParams(mass=bad, omega0=1e10)


@pytest.mark.parametrize("field", ["omega0", "temperature", "radius"])
def test_negative_secondary_fields_rejected(field):
    with pytest.raises(NonPhysicalInput):
        MirrorParams(mass=1e-21, **{field: -1.0})


def test_cat_spec_validation_and_resolution():
    with pytest.raises(NonPhysicalInput):
        CatSpec()
    with pytest.raises(NonPhysicalInput):
        CatSpec(alpha_mag=-2.0)
    CatSpec(alpha_mag=10.0)
    CatSpec(delta_x=1e-10)
    resolved = resolve_cat(CatSpec(alpha_mag=10.0), MIRROR)
    assert resolved.alpha_mag == 10.0
    assert resolved.delta_x == pytest.approx(separation_from_alpha(10.0, MIRROR))
    # resolving from the separation side inverts exactly
    other = resolve_cat(CatSpec(delta_x=resolved.delta_x), MIRROR)
    assert other.alpha_mag == pytest.approx(10.0, rel=1e-14)


def test_ground_state_width_frozen_value():
    # sqrt(hbar / 2 M omega0) at M = 1e-21 kg, omega0 = 1e10 rad/s
    assert ground_state_width(MIRROR) == pytest.approx(2.2962706907069994e-12, rel=1e-14)


def test_separation_is_four_alpha_ground_widths():
    width = ground_state_width(MIRROR)
    sep = separation_from_alpha(10.0, MIRROR)
    assert sep == pytest.approx(40.0 * width, rel=1e-14)
    assert sep == pytest.approx(9.1850827628279975e-11, rel=1e-14)


def test_alpha_separation_round_trip():
    for alpha in (0.5, 3.0, 10.0, 250.0):
        sep = separation_from_alpha(alpha, MIRROR)
        assert alpha_from_separation(sep, MIRROR) == pytest.approx(alpha, rel=1e-14)


def test_packet_velocity_scaling():
    # v = sqrt(2 hbar omega0 / M) |alpha|, linear in alpha
    v1 = packet_velocity(MIRROR, 1.0)
    assert v1 == pytest.approx(math.sqrt(2 * CODATA.hbar * 1e10 / 1e-21), rel=1e-14)
    assert packet_velocity(MIRROR, 7.0) == pytest.approx(7 * v1, rel=1e-14)


def test_velocity_separation_identity():
    # v = omega0 * delta_x / 2 ties the two amplitude parameterizations
    alpha = 12.0
    v = packet_velocity(MIRROR, alpha)
    sep = separation_from_alpha(alpha, MIRROR)
    assert v == pytest.approx(0.5 * MIRROR.omega0 * sep, rel=1e-14)


def test_thermal_de_broglie_frozen_value():
    p = MirrorParams(mass=1.0, temperature=2.7)
    assert thermal_de_broglie(p) == pytest.approx(1.2213429772791137e-23, rel=1e-14)
    with pytest.raises(DomainError):
        thermal_de_broglie(MIRROR)


def test_trap_helpers_need_omega0():
    free = MirrorParams(mass=1.0)
    for fn in (ground_state_width,):
        with pytest.raises(DomainError):
            fn(free)
    with pytest.raises(DomainError):
        separation_from_alpha(1.0, free)
    with pytest.raises(DomainError):
        packet_velocity(free, 1.0)


def test_derived_quantities_bundle():
    d = derived_quantities(MIRROR, CatSpec(alpha_mag=10.0))
    assert d.alpha_mag == 10.0
    assert d.delta_x == pytest.approx(separation_from_alpha(10.0, MIRROR), rel=1e-15)


def test_validate_nonrelativistic_gate():
    report = validate(MIRROR, CatSpec(alpha_mag=10.0))
    assert report.ok
    ratio = report.check("nonrelativistic")
    assert ratio.value == pytest.approx(1.1733693912976162e-20, rel=1e-14)
    assert ratio.passed

    # a trap frequency at the rest-mass scale must flag the report
    silly = MirrorParams(mass=1e-30, omega0=1e25)
    assert not validate(silly).ok


def test_validate_amplitude_checks():
    report = validate(MIRROR, CatSpec(alpha_mag=1.0))
    amp = report.check("large_amplitude")
    assert not amp.passed and not report.ok

    marginal = validate(MIRROR, CatSpec(alpha_mag=5.0)).check("large_amplitude")
    assert marginal.passed and marginal.note  # passes but flagged as marginal
    comfy = validate(MIRROR, CatSpec(alpha_mag=20.0)).check("large_amplitude")
    assert comfy.passed and not comfy.note
