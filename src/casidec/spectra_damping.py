"""Radiation-pressure damping rates, force spectra, and diffusion coefficients.

Covers the three printed damping regimes for a moving scatterer coupled to
the electromagnetic field:

  * perfect plane mirror in vacuum, harmonically bound,
  * small dielectric sphere in vacuum (long-wavelength limit), bound,
  * sphere in a thermal photon bath (free or slowly bound, high T).

plus the symmetrized force spectrum of the vacuum radiation pressure on a
plane mirror, the momentum-diffusion coefficient it generates (finite-time
closed form and asymptotic value), and the characteristic roots of the
mirror's equation of motion including radiation reaction.

No interpolation is attempted between regimes: each rate is the printed
formula for its regime and the dispatcher refuses anything else.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import (
    DomainError,
    NonPhysicalInput,
    QuadratureFailure,
    RegimeViolation,
    RegimeWarning,
)
from .params import CODATA, MirrorParams, PhysicalConstants

__all__ = [
    "CoefficientSet",
    "SpectrumModel",
    "gamma_vacuum_1d",
    "gamma_vacuum_sphere",
    "gamma_thermal_sphere",
    "damping_rate",
    "CharacteristicRoots",
    "characteristic_roots",
    "force_spectrum_vacuum_1d",
    "diffusion_finite_time",
    "diffusion_asymptotic",
    "coefficient_set",
]


# --------------------------------------------------------------------------
# damping rates (amplitude decay convention: x ~ exp(-Gamma t))
# --------------------------------------------------------------------------

def gamma_vacuum_1d(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Vacuum radiation-pressure damping rate of a harmonically bound plane mirror.

    Gamma = hbar omega0^2 / (12 pi M c^2). Returns 0 for a free particle
    (omega0 = 0): a mirror at rest radiates nothing.
    """
    return constants.hbar * params.omega0**2 / (12.0 * math.pi * params.mass * constants.c**2)


_MAX_SIZE_PARAMETER = 0.1  # omega0 R / c up to which the sphere formula holds


def gamma_vacuum_sphere(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Vacuum damping rate of a small perfectly reflecting sphere, long-wavelength limit.

    Gamma = hbar omega0^2 (omega0 R / c)^6 / (1296 pi M c^2), suppressed by
    the sixth power of the size parameter relative to the plane-mirror rate
    (ratio (omega0 R / c)^6 / 108).
    """
    if params.radius <= 0:
        raise DomainError("sphere damping rate needs radius > 0")
    size = params.omega0 * params.radius / constants.c
    if size > _MAX_SIZE_PARAMETER:
        raise RegimeViolation(
            f"size parameter omega0*R/c = {size:.3g} exceeds {_MAX_SIZE_PARAMETER}; "
            "the long-wavelength sphere formula does not apply")
    return (constants.hbar * params.omega0**2 * size**6
            / (1296.0 * math.pi * params.mass * constants.c**2))


def gamma_thermal_sphere(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Friction rate of a sphere moving through thermal radiation.

    Gamma = (4 pi^3 / 45) (kB T)^4 R^2 / (hbar^3 c^4 M): the drag force is
    -(M Gamma) times the velocity. Valid when the thermal wavelength is
    short against the sphere radius; a RegimeWarning is issued otherwise.
    """
    if params.temperature <= 0:
        raise DomainError("thermal friction needs temperature > 0")
    if params.radius <= 0:
        raise DomainError("thermal friction needs radius > 0")
    kT = constants.k_boltzmann * params.temperature
    thermal_wavelength = constants.hbar * constants.c / kT
    if params.radius < 10.0 * thermal_wavelength:
        warnings.warn(
            f"sphere radius {params.radius:.3g} m is not large against the thermal "
            f"photon wavelength {thermal_wavelength:.3g} m; the short-wavelength "
            "drag formula is marginal here", RegimeWarning, stacklevel=2)
    return (4.0 * math.pi**3 / 45.0) * kT**4 * params.radius**2 / (
        constants.hbar**3 * constants.c**4 * params.mass)


def damping_rate(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Dispatch to the printed damping formula for the parameter regime.

    T = 0, no radius  -> plane mirror in vacuum
    T = 0, radius > 0 -> sphere in vacuum
    T > 0, radius > 0 -> sphere in thermal radiation
    T > 0, no radius has no printed formula and raises RegimeViolation;
    intermediate temperatures are never interpolated.
    """
    if params.temperature == 0.0:
        if params.radius > 0:
            return gamma_vacuum_sphere(params, constants)
        return gamma_vacuum_1d(params, constants)
    if params.radius > 0:
        return gamma_thermal_sphere(params, constants)
    raise RegimeViolation("no printed damping formula for a plane mirror at T > 0")


# --------------------------------------------------------------------------
# characteristic roots of the radiation-reaction equation of motion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of eps s^3 - s^2 - omega0^2 = 0 with eps = hbar/(6 pi M c^2).

    The oscillatory pair sits at -Gamma +/- i omega0 up to corrections of
    order (eps omega0)^2; the third root ~ 1/eps is the unphysical runaway
    branch of radiation reaction and must be discarded by any sensible
    integration contour. Deviation diagnostics are computed in arbitrary
    precision before being rounded to floats, because the interesting
    deviations sit far below double-precision eigenvalue accuracy.
    """

    oscillatory: tuple[complex, complex]
    runaway: float
    re_deviation_rel: float       # |Re(s_osc) + Gamma| / Gamma
    im_deviation_rel: float       # ||Im(s_osc)| - omega0| / omega0
    runaway_deviation_rel: float  # |s_run - 1/eps| * eps
    residual_rel_max: float


def characteristic_roots(params: MirrorParams,
                         constants: PhysicalConstants = CODATA) -> CharacteristicRoots:
    """Solve the cubic dispersion relation of the damped mirror exactly.

    For omega0 = 0 the roots {0, 0, 1/eps} are returned in closed form.
    Otherwise the cubic has exactly one real root, the runaway r > 1/eps,
    and Cardano's formula gives it: with a = (eps omega0)^2 and
    u = cbrt(1 + 27a/2 + sqrt(27a (1 + 27a/4))), r = (1 + u + 1/u)/(3 eps),
    a sum of positive terms at every a, so nothing cancels. Deflating by r
    leaves the oscillatory pair as the roots of the quadratic
    s^2 - (1/eps - r) s + omega0^2/(eps r) = 0 (Vieta). The work runs in
    arbitrary precision, at 30 + 4.2 log10(1/(eps omega0)) digits: the pair's
    sum 1/eps - r cancels (eps omega0)^2 of 1/eps, and the real part's
    deviation from -Gamma is a further (eps omega0)^2 below that.
    """
    hbar, c = constants.hbar, constants.c
    eps = hbar / (6.0 * math.pi * params.mass * c**2)
    w0 = params.omega0

    if w0 == 0.0:
        return CharacteristicRoots(
            oscillatory=(0j, 0j), runaway=1.0 / eps,
            re_deviation_rel=0.0, im_deviation_rel=0.0, runaway_deviation_rel=0.0,
            residual_rel_max=0.0)

    small = eps * w0
    if not small > 0:
        raise DomainError(f"eps * omega0 underflows double precision (mass {params.mass:g} kg, "
                          f"omega0 {w0:g} rad/s); the cubic cannot be scaled")
    digits = 30 + max(0, math.ceil(4.2 * -math.log10(small)))

    with mp.workdps(digits):
        eps_hp = mpf(hbar) / (6 * mp.pi * mpf(params.mass) * mpf(c) ** 2)
        w0_hp = mpf(w0)
        gamma_hp = mpf(hbar) * w0_hp**2 / (12 * mp.pi * mpf(params.mass) * mpf(c) ** 2)

        a = (eps_hp * w0_hp) ** 2
        u = mp.cbrt(1 + 27 * a / 2 + mp.sqrt(27 * a * (1 + 27 * a / 4)))
        runaway_hp = (1 + u + 1 / u) / (3 * eps_hp)
        half_sum = (1 / eps_hp - runaway_hp) / 2
        s_plus = mp.mpc(half_sum, mp.sqrt(w0_hp**2 / (eps_hp * runaway_hp) - half_sum**2))

        def residual(s):
            num = abs(eps_hp * s**3 - s**2 - w0_hp**2)
            scale = abs(eps_hp) * abs(s) ** 3 + abs(s) ** 2 + w0_hp**2
            return num / scale

        res_max = float(max(residual(runaway_hp), residual(s_plus)))
        re_dev = float(abs(mp.re(s_plus) + gamma_hp) / gamma_hp)
        im_dev = float(abs(mp.im(s_plus) - w0_hp) / w0_hp)
        run_dev = float(abs(runaway_hp - 1 / eps_hp) * eps_hp)
        osc = complex(s_plus)

    return CharacteristicRoots(
        oscillatory=(osc, osc.conjugate()),
        runaway=float(runaway_hp),
        re_deviation_rel=re_dev,
        im_deviation_rel=im_dev,
        runaway_deviation_rel=run_dev,
        residual_rel_max=res_max,
    )


# --------------------------------------------------------------------------
# force spectrum and momentum diffusion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumModel:
    """Vacuum plane-mirror radiation-pressure force spectrum model.

    cutoff_omega is the exponential regularization frequency; math.inf
    disables the cutoff (only meaningful for pointwise evaluation, the
    finite-time diffusion requires a finite cutoff).
    """

    cutoff_omega: float = math.inf

    def __post_init__(self):
        if not self.cutoff_omega > 0:
            raise NonPhysicalInput("cutoff_omega must be positive (math.inf allowed)")

    @classmethod
    def for_oscillator(cls, omega0: float, multiplier: float = 100.0) -> "SpectrumModel":
        """Cutoff placed well above the resonance; multiplier >= 100 by default."""
        if omega0 <= 0:
            raise DomainError("oscillator spectrum model needs omega0 > 0")
        return cls(cutoff_omega=multiplier * omega0)


def force_spectrum_vacuum_1d(omega, model: SpectrumModel,
                             constants: PhysicalConstants = CODATA):
    """Symmetrized force spectrum hbar^2 omega^3 / (3 pi c^2) exp(-omega/cutoff).

    Zero for omega < 0 (the symmetrized spectrum is reported on the
    positive half-line only). Accepts scalars or numpy arrays.
    """
    w = np.asarray(omega, dtype=float)
    amp = constants.hbar**2 / (3.0 * math.pi * constants.c**2)
    with np.errstate(over="ignore"):
        out = np.where(w >= 0.0, amp * w**3 * np.exp(-w / model.cutoff_omega), 0.0)
    if np.isscalar(omega) or getattr(omega, "ndim", 1) == 0:
        return float(out)
    return out


def diffusion_finite_time(t: float, omega0: float, model: SpectrumModel,
                          constants: PhysicalConstants = CODATA) -> float:
    """Momentum diffusion coefficient accumulated by time t, in closed form.

    D1(t) = (1/2) Integral[ d omega / (2 pi) sigma(omega) sin(v t) / v ]
    over the positive frequency axis, with sigma = A omega^3 exp(-omega/cutoff)
    and A = hbar^2/(3 pi c^2). With v = omega - omega0, b = 1/cutoff - i t and
    (omega0 + v)^3/v = omega0^3/v + 3 omega0^2 + 3 omega0 v + v^2,

        D1 = A exp(-omega0/cutoff) / (4 pi) [omega0^3 J + Im(3 omega0^2 I0 + 3 omega0 I1 + I2)]

    where I_n = Integral_{-omega0}^{inf} v^n exp(-b v) dv is elementary,
    exp(-omega0/cutoff) (3 omega0^2 I0 + 3 omega0 I1 + I2) =
    exp(-i omega0 t) (omega0^2/b + omega0/b^2 + 2/b^3), and the sine integral is
    J = arctan(t cutoff) - Im[E1(z) + gamma_E + ln z] with z = -(1/cutoff + i t) omega0.
    Converges to sigma(omega0)/4 once omega0 t >> 1; grows linearly at small t.

    At low cutoffs the two terms cancel to about (omega0/cutoff)^4 of their
    size, so the sum is taken in arbitrary precision at
    20 + 4 log10(omega0/cutoff) digits (20 for cutoff >= omega0). Requires a
    finite spectrum cutoff: the undamped omega^3 integrand does not decay
    against the 1/omega kernel tail.
    """
    if t <= 0:
        raise DomainError("finite-time diffusion needs t > 0")
    if omega0 <= 0:
        raise DomainError("finite-time diffusion needs omega0 > 0")
    if not math.isfinite(model.cutoff_omega):
        raise QuadratureFailure("finite-time diffusion needs a finite spectrum cutoff")

    digits = 20 + math.ceil(4 * max(0.0, math.log10(omega0 / model.cutoff_omega)))
    with mp.workdps(digits):
        t_hp, w0_hp, cut = mpf(t), mpf(omega0), mpf(model.cutoff_omega)
        b = 1 / cut - 1j * t_hp
        z = -(1 / cut + 1j * t_hp) * w0_hp
        sine_integral = mp.atan(t_hp * cut) - mp.im(mp.e1(z) + mp.euler + mp.log(z))
        moments = mp.expj(-w0_hp * t_hp) * (w0_hp**2 / b + w0_hp / b**2 + 2 / b**3)
        bracket = w0_hp**3 * mp.exp(-w0_hp / cut) * sine_integral + mp.im(moments)
        amp = mpf(constants.hbar) ** 2 / (3 * mp.pi * mpf(constants.c) ** 2)
        return float(amp * bracket / (4 * mp.pi))


def diffusion_asymptotic(params: MirrorParams, gamma: float,
                         constants: PhysicalConstants = CODATA) -> float:
    """Long-time momentum diffusion coefficient with thermal interpolation.

    D1 = M Gamma hbar omega0 coth(hbar omega0 / (2 kB T)); the T = 0 limit
    is hbar M omega0 Gamma (vacuum fluctuations only) and the high-T limit
    is 2 M kB T Gamma, the classical Einstein relation for the drag
    convention used here (force = -2 M Gamma v for the bound mirror).
    """
    if gamma < 0:
        raise NonPhysicalInput("damping rate must be >= 0")
    M, w0, T = params.mass, params.omega0, params.temperature
    hbar, kB = constants.hbar, constants.k_boltzmann
    if w0 == 0.0:
        if T <= 0:
            raise DomainError("free-particle diffusion needs temperature > 0")
        return 2.0 * M * kB * T * gamma
    if T == 0.0:
        return hbar * M * w0 * gamma
    x = hbar * w0 / (2.0 * kB * T)
    return M * gamma * hbar * w0 / math.tanh(x)


@dataclass(frozen=True)
class CoefficientSet:
    """Drift and diffusion coefficients of the phase-space transport equation.

    omega_star is the renormalized trap frequency (bare omega0 plus any
    frequency shift supplied by the caller; the shift is never computed
    here). gamma is the amplitude damping rate, d1 the momentum diffusion
    coefficient (momentum^2 / time), d2 the cross diffusion coefficient.
    """

    omega_star: float
    gamma: float
    d1: float
    d2: float = 0.0

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.omega_star, self.gamma, self.d1)):
            raise NonPhysicalInput("omega_star, gamma, d1 must be finite and >= 0")
        if not math.isfinite(self.d2):
            raise NonPhysicalInput(f"d2 = {self.d2!r} must be finite")


def coefficient_set(params: MirrorParams,
                    constants: PhysicalConstants = CODATA) -> CoefficientSet:
    """Assemble a CoefficientSet from the printed regime formulas.

    gamma comes from the regime dispatcher, d1 from the asymptotic
    thermal-interpolated diffusion coefficient for that gamma; the trap
    frequency is unshifted and d2 is 0. Build a CoefficientSet directly
    for any other values.
    """
    gamma = damping_rate(params, constants)
    return CoefficientSet(omega_star=params.omega0, gamma=gamma,
                          d1=diffusion_asymptotic(params, gamma, constants))
