"""Property tests of the lifetime identity chains over the identity-suite
parameter ranges: the independent routes to a superposition lifetime agree
to 1e-12 at every draw, not only at the suite's seeded ones."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from casidec import (
    CODATA,
    MirrorParams,
    gamma_thermal_sphere,
    gamma_vacuum_1d,
    gamma_vacuum_sphere,
    ground_state_width,
    packet_velocity,
    separation_from_alpha,
    td_cat_vacuum,
    td_from_separation,
    td_high_T,
    td_relative_1d,
    td_relative_sphere,
    td_thermal_sphere_free,
    thermal_de_broglie,
)
from casidec.errors import RegimeWarning
from casidec.scenarios import scenario_defaults

RANGES = scenario_defaults("identity-suite")["ranges"]
TOL = 1e-12


def _log_uniform(key):
    lo, hi = RANGES[key]
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _quiet(fn):
    # the suite draws outside some formulas' preferred regimes on purpose
    def run(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            return fn(*args, **kwargs)
    return run


@settings(max_examples=60, deadline=None)
@given(mass=_log_uniform("mass_kg"), omega0=_log_uniform("omega0_rad_per_s"),
       alpha=_log_uniform("alpha"))
def test_amplitude_separation_and_relative_weight_agree(mass, omega0, alpha):
    @_quiet
    def routes():
        osc = MirrorParams(mass=mass, omega0=omega0)
        gamma = gamma_vacuum_1d(osc)
        v_over_c = packet_velocity(osc, alpha) / CODATA.c
        return (td_cat_vacuum(alpha, gamma),
                td_from_separation(separation_from_alpha(alpha, osc),
                                   ground_state_width(osc), gamma),
                td_relative_1d(v_over_c, omega0))

    amplitude, separation, weight = routes()
    assert abs(amplitude / separation - 1.0) <= TOL
    assert abs(amplitude / weight - 1.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(mass=_log_uniform("mass_kg"), omega0=_log_uniform("omega0_rad_per_s"),
       alpha=_log_uniform("alpha"),
       size_frac=st.floats(-3.0, -1e-6).map(lambda e: 10.0 ** e))
def test_sphere_chain_agrees(mass, omega0, alpha, size_frac):
    # as in the suite, the radius is a fraction in [1e-3, 1) of v / omega0;
    # at a fraction of 1 the size parameter omega0 R / c reaches v / c and
    # the sphere leaves the Rayleigh window
    @_quiet
    def routes():
        v_over_c = packet_velocity(MirrorParams(mass=mass, omega0=omega0), alpha) / CODATA.c
        radius = size_frac * v_over_c * CODATA.c / omega0
        sphere = MirrorParams(mass=mass, omega0=omega0, radius=radius)
        return (td_cat_vacuum(alpha, gamma_vacuum_sphere(sphere)),
                td_relative_sphere(v_over_c, omega0, radius))

    amplitude, weight = routes()
    assert abs(amplitude / weight - 1.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(mass=_log_uniform("mass_kg"), temperature=_log_uniform("temperature_K"),
       radius=_log_uniform("radius_m"), delta_x=_log_uniform("delta_x_m"))
def test_thermal_chain_agrees(mass, temperature, radius, delta_x):
    @_quiet
    def routes():
        free = MirrorParams(mass=mass, temperature=temperature, radius=radius)
        return (td_high_T(thermal_de_broglie(free), delta_x, gamma_thermal_sphere(free)),
                td_thermal_sphere_free(free, delta_x))

    high_t, sphere = routes()
    assert abs(high_t / sphere - 1.0) <= TOL
