import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from casidec import (
    CODATA,
    CoefficientSet,
    MirrorParams,
    PhysicalConstants,
    SpectrumModel,
    characteristic_roots,
    coefficient_set,
    damping_rate,
    diffusion_asymptotic,
    diffusion_finite_time,
    force_spectrum_vacuum_1d,
    gamma_thermal_sphere,
    gamma_vacuum_1d,
    gamma_vacuum_sphere,
)
from casidec.errors import (
    DomainError,
    NonPhysicalInput,
    QuadratureFailure,
    RegimeViolation,
    RegimeWarning,
)

MIRROR = MirrorParams(mass=1e-21, omega0=1e10)
NATURAL = PhysicalConstants.natural()


# ---------------------------------------------------------------- damping

def test_gamma_vacuum_1d_frozen_value():
    assert gamma_vacuum_1d(MIRROR) == pytest.approx(3.112458978295733e-12, rel=1e-14)


def test_gamma_vacuum_1d_scalings():
    g = gamma_vacuum_1d(MIRROR)
    doubled = MirrorParams(mass=1e-21, omega0=2e10)
    heavier = MirrorParams(mass=2e-21, omega0=1e10)
    assert gamma_vacuum_1d(doubled) == pytest.approx(4 * g, rel=1e-14)
    assert gamma_vacuum_1d(heavier) == pytest.approx(g / 2, rel=1e-14)
    assert gamma_vacuum_1d(MirrorParams(mass=1e-21)) == 0.0  # resting mirror


def test_gamma_vacuum_sphere_frozen_value():
    p = MirrorParams(mass=1e-21, omega0=1e10, radius=1e-5)
    assert gamma_vacuum_sphere(p) == pytest.approx(3.9696814982085525e-35, rel=1e-14)


def test_sphere_suppression_ratio():
    # sphere / plane = (omega0 R / c)^6 / 108
    p = MirrorParams(mass=1e-21, omega0=1e10, radius=1e-5)
    size = p.omega0 * p.radius / CODATA.c
    ratio = gamma_vacuum_sphere(p) / gamma_vacuum_1d(p)
    assert ratio == pytest.approx(size**6 / 108.0, rel=1e-13)


def test_sphere_needs_long_wavelength_regime():
    with pytest.raises(RegimeViolation):
        gamma_vacuum_sphere(MirrorParams(mass=1e-21, omega0=1e10, radius=1e-1))
    with pytest.raises(DomainError):
        gamma_vacuum_sphere(MirrorParams(mass=1e-21, omega0=1e10))


def test_gamma_thermal_sphere_frozen_value():
    p = MirrorParams(mass=1.0, temperature=2.7, radius=1e-2)
    assert gamma_thermal_sphere(p) == pytest.approx(5.617899798996207e-26, rel=1e-14)


def test_thermal_friction_stefan_boltzmann_scaling():
    p1 = MirrorParams(mass=1.0, temperature=300.0, radius=1e-4)
    p2 = MirrorParams(mass=1.0, temperature=600.0, radius=1e-4)
    assert gamma_thermal_sphere(p2) / gamma_thermal_sphere(p1) == pytest.approx(16.0, rel=1e-14)
    bigger = MirrorParams(mass=1.0, temperature=300.0, radius=2e-4)
    assert gamma_thermal_sphere(bigger) / gamma_thermal_sphere(p1) == pytest.approx(4.0, rel=1e-14)


def test_thermal_friction_warns_when_sphere_small():
    # radius below ten thermal photon wavelengths is flagged, not rejected
    cold = MirrorParams(mass=1.0, temperature=2.7, radius=1e-4)
    with pytest.warns(RegimeWarning):
        gamma_thermal_sphere(cold)


def test_damping_rate_dispatch():
    assert damping_rate(MIRROR) == gamma_vacuum_1d(MIRROR)
    sphere = MirrorParams(mass=1e-21, omega0=1e10, radius=1e-5)
    assert damping_rate(sphere) == gamma_vacuum_sphere(sphere)
    thermal = MirrorParams(mass=1.0, temperature=300.0, radius=1e-4)
    assert damping_rate(thermal) == gamma_thermal_sphere(thermal)
    with pytest.raises(RegimeViolation):
        damping_rate(MirrorParams(mass=1.0, omega0=1e10, temperature=300.0))


# ------------------------------------------------------ characteristic roots

def _cardano_roots(mass, omega0, constants):
    """Closed-form Cardano solution of eps s^3 - s^2 - omega0^2 = 0."""
    with mp.workdps(60):
        eps = mpf(constants.hbar) / (6 * mp.pi * mpf(mass) * mpf(constants.c) ** 2)
        shift = 1 / (3 * eps)
        p = -1 / (3 * eps**2)
        q = -2 / (27 * eps**3) - mpf(omega0) ** 2 / eps
        disc = (q / 2) ** 2 + (p / 3) ** 3
        root = mp.sqrt(disc)
        u = mp.cbrt(-q / 2 + root)
        v = mp.cbrt(-q / 2 - root)
        real = u + v + shift
        re_pair = -(u + v) / 2 + shift
        im_pair = (mp.sqrt(3) / 2) * (u - v)
        return float(real), complex(float(re_pair), float(im_pair))


@pytest.mark.parametrize("mass,omega0", [(1e-21, 1e10), (1e-23, 1e8), (1e-18, 1e12)])
def test_roots_against_cardano_oracle(mass, omega0):
    p = MirrorParams(mass=mass, omega0=omega0)
    roots = characteristic_roots(p)
    runaway_ref, osc_ref = _cardano_roots(mass, omega0, CODATA)
    assert roots.runaway == pytest.approx(runaway_ref, rel=1e-12)
    osc = max(roots.oscillatory, key=lambda s: s.imag)
    assert osc.real == pytest.approx(osc_ref.real, rel=1e-10)
    assert osc.imag == pytest.approx(abs(osc_ref.imag), rel=1e-12)


def test_roots_oscillatory_pair_matches_damping_rate():
    roots = characteristic_roots(MIRROR)
    small = CODATA.hbar * MIRROR.omega0 / (MIRROR.mass * CODATA.c**2)
    assert roots.re_deviation_rel <= 10.0 * small**2
    assert roots.im_deviation_rel <= 10.0 * small**2
    # measured against the trap frequency the agreement is absurdly tight
    assert roots.re_deviation_rel * gamma_vacuum_1d(MIRROR) / MIRROR.omega0 < 1e-15
    assert roots.residual_rel_max < 1e-14


def test_roots_runaway_scale():
    roots = characteristic_roots(MIRROR)
    eps = CODATA.hbar / (6 * math.pi * MIRROR.mass * CODATA.c**2)
    assert roots.runaway == pytest.approx(1.0 / eps, rel=1e-6)
    assert roots.runaway_deviation_rel < 1e-12


@pytest.mark.parametrize("mass,omega0", [(1e-21, 1e10), (1e-20, 1e9), (1e-22, 1e11)])
def test_roots_vieta_relations(mass, omega0):
    p = MirrorParams(mass=mass, omega0=omega0)
    roots = characteristic_roots(p)
    eps = CODATA.hbar / (6 * math.pi * mass * CODATA.c**2)
    s1, s2 = roots.oscillatory
    total = s1 + s2 + roots.runaway
    product = s1 * s2 * roots.runaway
    assert total.real == pytest.approx(1.0 / eps, rel=1e-12)
    assert abs(total.imag) <= 1e-12 / eps
    assert product.real == pytest.approx(omega0**2 / eps, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(log_mass=st.floats(-24.0, 250.0), log_omega0=st.floats(6.0, 12.0))
def test_roots_hold_over_the_whole_mass_range(log_mass, log_omega0):
    mass, omega0 = 10.0**log_mass, 10.0**log_omega0
    eps = CODATA.hbar / (6 * math.pi * mass * CODATA.c**2)
    assume(0.0 < eps * omega0 <= 0.1)
    roots = characteristic_roots(MirrorParams(mass=mass, omega0=omega0))
    s1, s2 = roots.oscillatory
    # Vieta, scaled by eps so that nothing overflows at the heaviest masses
    total = (s1 + s2 + roots.runaway) * eps
    product = (roots.runaway * eps) * (s1 / omega0) * (s2 / omega0)
    assert total.real == pytest.approx(1.0, rel=1e-12)
    assert product.real == pytest.approx(1.0, rel=1e-12)
    ratio = CODATA.hbar * omega0 / (mass * CODATA.c**2)
    assert roots.re_deviation_rel <= 10.0 * ratio**2
    assert roots.runaway == pytest.approx(6 * math.pi * mass * CODATA.c**2 / CODATA.hbar,
                                          rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(log_eps_omega0=st.floats(0.0, 250.0), log_omega0=st.floats(6.0, 12.0))
@example(log_eps_omega0=26.0, log_omega0=10.0)
@example(log_eps_omega0=250.0, log_omega0=6.0)
def test_roots_hold_for_light_mirrors(log_eps_omega0, log_omega0):
    # light mirrors: eps omega0 >= 1 puts the runaway root far from 1/eps, where
    # an iteration started at 1/eps used to stop converging (eps omega0 >~ 3e25)
    omega0 = 10.0**log_omega0
    eps = 10.0**log_eps_omega0 / omega0
    mass = CODATA.hbar / (6 * math.pi * eps * CODATA.c**2)
    roots = characteristic_roots(MirrorParams(mass=mass, omega0=omega0))
    s1, s2 = roots.oscillatory
    assert all(math.isfinite(v) for v in (roots.runaway, s1.real, s1.imag, s2.real, s2.imag))
    assert roots.residual_rel_max <= 1e-14
    # the sum s1 + s2 + r cancels here, so only the scaled product is checked
    product = (roots.runaway * eps) * (s1 / omega0) * (s2 / omega0)
    assert product.real == pytest.approx(1.0, rel=1e-12)
    assert abs(product.imag) <= 1e-12


def test_roots_free_particle_closed_form():
    roots = characteristic_roots(MirrorParams(mass=1e-21))
    eps = CODATA.hbar / (6 * math.pi * 1e-21 * CODATA.c**2)
    assert roots.oscillatory == (0j, 0j)
    assert roots.runaway == pytest.approx(1.0 / eps, rel=1e-15)


# --------------------------------------------------------------- spectrum

def test_spectrum_positive_halfline_only():
    model = SpectrumModel()
    assert force_spectrum_vacuum_1d(-1.0, model) == 0.0
    assert force_spectrum_vacuum_1d(0.0, model) == 0.0
    arr = force_spectrum_vacuum_1d(np.array([-2.0, 0.0, 3.0]), model, NATURAL)
    assert arr[0] == arr[1] == 0.0
    assert arr[2] == pytest.approx(27.0 / (3 * math.pi), rel=1e-15)


def test_spectrum_quarter_equals_diffusion_anchor():
    # sigma(omega0)/4 = hbar M omega0 Gamma holds exactly, no cutoff
    model = SpectrumModel(cutoff_omega=math.inf)
    lhs = force_spectrum_vacuum_1d(MIRROR.omega0, model) / 4.0
    rhs = CODATA.hbar * MIRROR.mass * MIRROR.omega0 * gamma_vacuum_1d(MIRROR)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_spectrum_model_validation():
    with pytest.raises(NonPhysicalInput):
        SpectrumModel(cutoff_omega=0.0)
    assert SpectrumModel.for_oscillator(1e10).cutoff_omega == 1e12


# ----------------------------------------------------- finite-time diffusion

def _d1_reference(t, cutoff, ray_tail=True):
    """D1 by direct mpmath quadrature of the integrand, natural units, omega0 = 1.

    Half-period panels up to four half-periods past resonance; the tail
    beyond is integrated along the ray omega = edge + i y, where the kernel's
    exp(i (omega - 1) t) decays as exp(-y t), or by quadosc on the real axis.
    """
    with mp.workdps(17):
        t, cut = mpf(t), mpf(cutoff)

        def integrand(om):
            v = om - 1
            return om**3 * mp.exp(-om / cut) * (t if v == 0 else mp.sin(v * t) / v)

        half = mp.pi / t
        edge = 1 + 4 * half
        zeros = [1 - j * half for j in range(int(1 / half), 0, -1)]
        head = mp.quad(integrand, [0] + zeros + [1, edge])
        if ray_tail:
            def on_ray(y):
                om = edge + 1j * y
                return 1j * om**3 * mp.exp(-om / cut) * mp.expj((om - 1) * t) / (om - 1)
            tail = mp.im(mp.quad(on_ray, [0, 1 / t, 10 / t, mp.inf]))
        else:
            tail = mp.quadosc(integrand, [edge, mp.inf], omega=t)
        return float((head + tail) / (3 * mp.pi) / (4 * mp.pi))


@pytest.mark.parametrize("cutoff", [0.1, 1.0, 100.0, 400.0])
def test_diffusion_matches_direct_quadrature(cutoff):
    for t in (1e-5, 3.0, 10.0, 100.0, 150.0):
        d1 = diffusion_finite_time(t, 1.0, SpectrumModel(cutoff_omega=cutoff), NATURAL)
        assert d1 == pytest.approx(_d1_reference(t, cutoff), rel=1e-12), t


def test_diffusion_at_a_far_cutoff():
    # the two-order quadrature used to refuse this point (orders 1.65e-5 apart)
    d1 = diffusion_finite_time(50.0, 1.0, SpectrumModel(cutoff_omega=1e4), NATURAL)
    assert d1 == pytest.approx(_d1_reference(50.0, 1e4), rel=1e-12)


def test_reference_ray_tail_matches_quadosc():
    assert _d1_reference(3.0, 1.0) == pytest.approx(
        _d1_reference(3.0, 1.0, ray_tail=False), rel=1e-12)


def test_diffusion_linear_onset():
    # for t far below both 1/omega0 and 1/cutoff the kernel is flat: D1 ~ t
    model = SpectrumModel(cutoff_omega=100.0)
    t = 1e-5
    d1 = diffusion_finite_time(t, 1.0, model, NATURAL)
    total_weight = 2.0 * model.cutoff_omega**4 / math.pi  # integral of omega^3 law
    assert d1 == pytest.approx(t * total_weight / (4 * math.pi), rel=1e-4)


def test_diffusion_approaches_asymptote():
    model = SpectrumModel.for_oscillator(1.0)
    target = force_spectrum_vacuum_1d(1.0, model, NATURAL) / 4.0
    d1 = diffusion_finite_time(100.0, 1.0, model, NATURAL)
    assert abs(d1 / target - 1.0) < 0.01


def test_diffusion_monotone_onset_ordering():
    model = SpectrumModel.for_oscillator(1.0)
    early = diffusion_finite_time(3.0, 1.0, model, NATURAL)
    late = diffusion_finite_time(200.0, 1.0, model, NATURAL)
    target = force_spectrum_vacuum_1d(1.0, model, NATURAL) / 4.0
    assert abs(late / target - 1.0) < abs(early / target - 1.0)


def test_diffusion_cutoff_independence():
    values = []
    for mult in (100.0, 200.0, 400.0):
        model = SpectrumModel.for_oscillator(1.0, multiplier=mult)
        values.append(diffusion_finite_time(150.0, 1.0, model, NATURAL))
    ref = values[0]
    for v in values[1:]:
        assert abs(v / ref - 1.0) < 0.01


def test_diffusion_quadrature_guards():
    with pytest.raises(QuadratureFailure):
        diffusion_finite_time(10.0, 1.0, SpectrumModel(cutoff_omega=math.inf), NATURAL)
    model = SpectrumModel.for_oscillator(1.0)
    with pytest.raises(DomainError):
        diffusion_finite_time(0.0, 1.0, model, NATURAL)
    with pytest.raises(DomainError):
        diffusion_finite_time(1.0, -1.0, model, NATURAL)


# ----------------------------------------------------- asymptotic diffusion

def test_diffusion_asymptotic_zero_temperature():
    g = gamma_vacuum_1d(MIRROR)
    d1 = diffusion_asymptotic(MIRROR, g)
    assert d1 == pytest.approx(CODATA.hbar * MIRROR.mass * MIRROR.omega0 * g, rel=1e-15)
    assert d1 == pytest.approx(3.2823115200792948e-57, rel=1e-14)


def test_diffusion_asymptotic_einstein_limit():
    hot = MirrorParams(mass=1e-21, omega0=1e10,
                       temperature=100 * CODATA.hbar * 1e10 / CODATA.k_boltzmann)
    g = 1e-12
    d1 = diffusion_asymptotic(hot, g)
    einstein = 2 * hot.mass * CODATA.k_boltzmann * hot.temperature * g
    assert abs(d1 / einstein - 1.0) < 0.01
    # coth interpolation always sits above the classical line
    assert d1 > einstein


def test_diffusion_asymptotic_free_particle():
    free = MirrorParams(mass=1e-9, temperature=300.0)
    g = 2.3e-20
    assert diffusion_asymptotic(free, g) == pytest.approx(
        2 * free.mass * CODATA.k_boltzmann * 300.0 * g, rel=1e-15)
    with pytest.raises(DomainError):
        diffusion_asymptotic(MirrorParams(mass=1e-9), 1e-20)


# ------------------------------------------------------------ coefficients

def test_coefficient_set_defaults_to_regime_formulas():
    c = coefficient_set(MIRROR)
    assert c.omega_star == MIRROR.omega0
    assert c.gamma == gamma_vacuum_1d(MIRROR)
    assert c.d1 == diffusion_asymptotic(MIRROR, c.gamma)
    assert c.d2 == 0.0


def test_coefficient_set_rejects_negative_rates():
    with pytest.raises(NonPhysicalInput):
        CoefficientSet(omega_star=1.0, gamma=-0.1, d1=1.0)
