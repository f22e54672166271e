"""Closed-form decoherence times for coherent-state superpositions.

A superposition of two wave packets separated by delta_x loses its
interference fringes once a single which-way photon has been emitted into
the field. Each route below expresses that same time through different
inputs (amplitude and damping rate, separation ratio, peak velocity,
diffusion coefficient, thermal wavelength); the routes agree identically
and the identity suite in the tests exercises them against each other.

All td functions return the time in seconds as a float. Each docstring
states the oscillation-averaging convention baked into its formula
(a factor 2 when the packet separation rotates in phase space during
decoherence, none when it does not).
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, NonPhysicalInput, RegimeViolation, RegimeWarning
from .params import _ALPHA_MIN, CODATA, MirrorParams, PhysicalConstants

__all__ = [
    "td_cat_vacuum",
    "td_from_separation",
    "td_relative_1d",
    "td_relative_sphere",
    "td_from_diffusion",
    "td_high_T",
    "td_thermal_sphere_free",
]


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not (value > 0) or math.isinf(value) or math.isnan(value):
            raise NonPhysicalInput(f"{name} must be positive and finite, got {value}")


def td_cat_vacuum(alpha_mag: float, gamma: float) -> float:
    """Fringe lifetime 1 / (4 |alpha|^2 Gamma) of an oscillating-mirror cat.

    One photon pair emitted out of the 2|alpha|^2 expected over a damping
    time resolves the superposition; the rotation average (factor 2) is
    included. Requires a comfortably large amplitude; warns below
    |alpha| = 3.
    """
    _require_positive(alpha_mag=alpha_mag, gamma=gamma)
    if alpha_mag < _ALPHA_MIN:
        warnings.warn(
            f"|alpha| = {alpha_mag:.3g} is not large; the single-photon counting "
            "estimate is marginal below ~3", RegimeWarning, stacklevel=2)
    return 1.0 / (4.0 * alpha_mag**2 * gamma)


def td_from_separation(delta_x: float, ground_width: float, gamma: float) -> float:
    """Same lifetime through the separation ratio: 4 (dx0 / dx)^2 / Gamma.

    Decoherence beats damping by the squared ratio of the ground-state
    width to the packet separation. Rotation-averaged (factor 2).
    """
    _require_positive(delta_x=delta_x, ground_width=ground_width, gamma=gamma)
    return 4.0 * (ground_width / delta_x) ** 2 / gamma


def td_relative_1d(v_over_c: float, omega0: float) -> float:
    """Plane-mirror cat lifetime in units of the oscillation period.

    td = 3 (c/v)^2 (2 pi / omega0): even at a tenth of light speed the
    fringes survive hundreds of periods, which is what makes this
    decoherence channel so weak. Rotation-averaged (factor 2).
    """
    _require_positive(v_over_c=v_over_c, omega0=omega0)
    if v_over_c >= 1.0:
        raise RegimeViolation(f"v/c = {v_over_c} is not sub-luminal")
    return 3.0 / v_over_c**2 * (2.0 * math.pi / omega0)


def td_relative_sphere(v_over_c: float, omega0: float, radius: float,
                       constants: PhysicalConstants = CODATA) -> float:
    """Small-sphere cat lifetime: 324 (c/v)^2 (c / omega0 R)^6 (2 pi / omega0).

    Valid in the long-wavelength regime omega0 R / c < v/c < 1, where the
    result necessarily exceeds (c/v)^8 periods: Rayleigh suppression makes
    the sphere's superposition essentially indestructible by this channel.
    Rotation-averaged (factor 2).
    """
    _require_positive(v_over_c=v_over_c, omega0=omega0, radius=radius)
    if v_over_c >= 1.0:
        raise RegimeViolation(f"v/c = {v_over_c} is not sub-luminal")
    size = omega0 * radius / constants.c
    if not size < v_over_c:
        raise RegimeViolation(
            f"size parameter omega0*R/c = {size:.3g} must lie below v/c = {v_over_c:.3g}")
    period = 2.0 * math.pi / omega0
    td = 324.0 / v_over_c**2 * (1.0 / size) ** 6 * period
    floor = (1.0 / v_over_c) ** 8 * period
    if not td > floor:
        raise RegimeViolation("sphere lifetime fell below its (c/v)^8 period floor; "
                              "inputs are outside the derivation's regime")
    return td


def td_from_diffusion(d1: float, delta_x: float, *, oscillatory: bool,
                      constants: PhysicalConstants = CODATA) -> float:
    """Fringe lifetime from momentum diffusion acting on separation delta_x.

    td = hbar^2 / (D1 delta_x^2), doubled when oscillatory=True because the
    separation vector spends only half its time aligned with the diffusing
    momentum direction (average over free rotations). The choice of
    convention is the caller's: pass oscillatory=False for a frozen
    (non-rotating) separation.
    """
    _require_positive(d1=d1, delta_x=delta_x)
    factor = 2.0 if oscillatory else 1.0
    return factor * constants.hbar**2 / (d1 * delta_x**2)


def td_high_T(thermal_length: float, delta_x: float, gamma: float) -> float:
    """High-temperature lifetime (lambda_T / delta_x)^2 / Gamma, no averaging.

    Follows from the diffusion route with the classical Einstein
    coefficient D1 = 2 M kB T Gamma and the thermal de Broglie length
    lambda_T = hbar / sqrt(2 M kB T).
    """
    _require_positive(thermal_length=thermal_length, delta_x=delta_x, gamma=gamma)
    return (thermal_length / delta_x) ** 2 / gamma


def td_thermal_sphere_free(params: MirrorParams, delta_x: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Lifetime of a free sphere's superposition in thermal radiation.

    td = (45 / 8 pi^3) hbar^5 c^4 / ((kB T)^5 R^2 delta_x^2). The mass
    cancels between the friction rate and the thermal wavelength, so the
    result depends only on temperature, radius, and separation; there is no
    rotation average (a free sphere does not oscillate). Warns when
    td is not long against hbar / kB T, where the underlying short-memory
    treatment of the bath breaks down.
    """
    _require_positive(delta_x=delta_x)
    if params.temperature <= 0:
        raise DomainError("thermal sphere lifetime needs temperature > 0")
    if params.radius <= 0:
        raise DomainError("thermal sphere lifetime needs radius > 0")
    kT = constants.k_boltzmann * params.temperature
    td = (45.0 / (8.0 * math.pi**3)) * constants.hbar**5 * constants.c**4 / (
        kT**5 * params.radius**2 * delta_x**2)
    bath_memory = constants.hbar / kT
    if td < 10.0 * bath_memory:
        warnings.warn(
            f"lifetime {td:.3g} s is not long against the bath correlation time "
            f"{bath_memory:.3g} s; the Markovian estimate is marginal",
            RegimeWarning, stacklevel=2)
    return td
