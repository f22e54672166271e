"""Radiation-pressure damping rates, force spectra, and diffusion coefficients.

Covers the three printed damping regimes for a moving scatterer coupled to
the electromagnetic field:

  * perfect plane mirror in vacuum, harmonically bound,
  * small dielectric sphere in vacuum (long-wavelength limit), bound,
  * sphere in a thermal photon bath (free or slowly bound, high T).

plus the symmetrized force spectrum of the vacuum radiation pressure on a
plane mirror, the momentum-diffusion coefficient it generates (finite-time
quadrature and asymptotic value), the static parallel-plate attraction used
as a sanity anchor, and the characteristic roots of the mirror's equation
of motion including radiation reaction.

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
    RootFindingFailure,
)
from .params import CODATA, MirrorParams, PhysicalConstants

__all__ = [
    "CoefficientSet",
    "SpectrumModel",
    "gamma_vacuum_1d",
    "gamma_vacuum_sphere",
    "gamma_thermal_sphere",
    "damping_rate",
    "casimir_force_plates",
    "CharacteristicRoots",
    "characteristic_roots",
    "force_spectrum_vacuum_1d",
    "sync_kernel",
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


def gamma_vacuum_sphere(params: MirrorParams, constants: PhysicalConstants = CODATA, *,
                        max_size_parameter: float = 0.1) -> float:
    """Vacuum damping rate of a small perfectly reflecting sphere, long-wavelength limit.

    Gamma = hbar omega0^2 (omega0 R / c)^6 / (1296 pi M c^2), suppressed by
    the sixth power of the size parameter relative to the plane-mirror rate
    (ratio (omega0 R / c)^6 / 108).
    """
    if params.radius <= 0:
        raise DomainError("sphere damping rate needs radius > 0")
    size = params.omega0 * params.radius / constants.c
    if size > max_size_parameter:
        raise RegimeViolation(
            f"size parameter omega0*R/c = {size:.3g} exceeds {max_size_parameter}; "
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


def casimir_force_plates(area: float, gap: float,
                         constants: PhysicalConstants = CODATA) -> float:
    """Magnitude of the static attraction between parallel perfect mirrors.

    F = (pi^2 / 240) (hbar c / L^4) A. Used as a numeric sanity anchor for
    the vacuum-pressure scale; the force is attractive.
    """
    if area <= 0 or gap <= 0:
        raise NonPhysicalInput("plate area and gap must be positive")
    return (math.pi**2 / 240.0) * (constants.hbar * constants.c / gap**4) * area


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
    gamma_predicted: float
    re_deviation_rel: float       # |Re(s_osc) + Gamma| / Gamma
    im_deviation_rel: float       # ||Im(s_osc)| - omega0| / omega0
    runaway_deviation_rel: float  # |s_run - 1/eps| * eps
    residual_rel_max: float
    precision_digits: int


def characteristic_roots(params: MirrorParams,
                         constants: PhysicalConstants = CODATA) -> CharacteristicRoots:
    """Solve the cubic dispersion relation of the damped mirror exactly.

    For omega0 = 0 the roots {0, 0, 1/eps} are returned in closed form.
    Otherwise the cubic is solved with an arbitrary-precision polynomial
    solver at a working precision chosen from the smallness parameter
    eps*omega0, so that the real part of the oscillatory pair is resolved
    well below its own (eps omega0)^2 relative deviation from -Gamma.
    """
    hbar, c = constants.hbar, constants.c
    eps = hbar / (6.0 * math.pi * params.mass * c**2)
    w0 = params.omega0
    gamma = gamma_vacuum_1d(params, constants)

    if w0 == 0.0:
        return CharacteristicRoots(
            oscillatory=(0j, 0j), runaway=1.0 / eps, gamma_predicted=0.0,
            re_deviation_rel=0.0, im_deviation_rel=0.0, runaway_deviation_rel=0.0,
            residual_rel_max=0.0, precision_digits=0)

    small = eps * w0
    if not small > 0:
        raise DomainError(f"eps * omega0 underflows double precision (mass {params.mass:g} kg, "
                          f"omega0 {w0:g} rad/s); the cubic cannot be scaled")
    digits = 30 if small >= 0.1 else min(30 + int(3.2 * (-math.log10(small))) + 25, 400)

    with mp.workdps(digits):
        eps_hp = mpf(hbar) / (6 * mp.pi * mpf(params.mass) * mpf(c) ** 2)
        w0_hp = mpf(w0)
        gamma_hp = mpf(hbar) * w0_hp**2 / (12 * mp.pi * mpf(params.mass) * mpf(c) ** 2)
        coeffs = [eps_hp, mpf(-1), mpf(0), -w0_hp**2]
        try:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=120)
        except Exception as exc:  # pragma: no cover - mpmath failure is exotic
            raise RootFindingFailure(f"cubic solver did not converge: {exc}") from exc

        real_roots = [r for r in roots if mp.im(r) == 0 or abs(mp.im(r)) < abs(r) * mpf(10) ** (-digits + 5)]
        osc_roots = [r for r in roots if r not in real_roots]
        if len(real_roots) != 1 or len(osc_roots) != 2:
            raise RootFindingFailure(
                f"expected one runaway and one oscillatory pair, got roots {roots}")
        runaway_hp = mp.re(real_roots[0])
        s_plus = max(osc_roots, key=lambda r: mp.im(r))

        def residual(s):
            num = abs(eps_hp * s**3 - s**2 - w0_hp**2)
            scale = abs(eps_hp) * abs(s) ** 3 + abs(s) ** 2 + w0_hp**2
            return num / scale

        res_max = float(max(residual(r) for r in roots))
        re_dev = float(abs(mp.re(s_plus) + gamma_hp) / gamma_hp)
        im_dev = float(abs(abs(mp.im(s_plus)) - w0_hp) / w0_hp)
        run_dev = float(abs(runaway_hp - 1 / eps_hp) * eps_hp)
        osc = complex(s_plus)

    return CharacteristicRoots(
        oscillatory=(osc, osc.conjugate()),
        runaway=float(runaway_hp),
        gamma_predicted=gamma,
        re_deviation_rel=re_dev,
        im_deviation_rel=im_dev,
        runaway_deviation_rel=run_dev,
        residual_rel_max=res_max,
        precision_digits=digits,
    )


# --------------------------------------------------------------------------
# force spectrum and momentum diffusion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumModel:
    """Symmetrized radiation-pressure force spectrum model.

    kind selects the spectral law; only the vacuum plane-mirror spectrum is
    implemented. cutoff_omega is the exponential regularization frequency;
    math.inf disables the cutoff (only meaningful for pointwise evaluation,
    the finite-time quadrature requires a finite cutoff).
    """

    kind: str = "vacuum_1d"
    cutoff_omega: float = math.inf

    def __post_init__(self):
        if self.kind != "vacuum_1d":
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if not self.cutoff_omega > 0:
            raise NonPhysicalInput("cutoff_omega must be positive (math.inf allowed)")

    @classmethod
    def for_oscillator(cls, omega0: float, multiplier: float = 100.0) -> "SpectrumModel":
        """Cutoff placed well above the resonance; multiplier >= 100 by default."""
        if omega0 <= 0:
            raise DomainError("oscillator spectrum model needs omega0 > 0")
        return cls(kind="vacuum_1d", cutoff_omega=multiplier * omega0)


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


def sync_kernel(omega, omega0: float, t: float):
    """Finite-time resonance kernel sin((omega - omega0) t) / (omega - omega0).

    Tends to t at omega = omega0 and to pi * delta(omega - omega0) as
    t -> infinity. Accepts scalars or arrays.
    """
    u = np.asarray(omega, dtype=float) - omega0
    out = np.where(u == 0.0, t, np.sin(u * t) / np.where(u == 0.0, 1.0, u))
    if np.isscalar(omega) or getattr(omega, "ndim", 1) == 0:
        return float(out)
    return out


_GL_NODES_LO, _GL_WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_GL_NODES_HI, _GL_WEIGHTS_HI = np.polynomial.legendre.leggauss(12)


def _sync_quadrature(sigma, omega0: float, t: float, omega_max: float,
                     nodes, weights, *, spectral_scale: float | None = None) -> float:
    """Composite Gauss-Legendre over half-periods of the oscillating kernel.

    Integrates sigma(omega) * sin((omega-omega0) t)/(omega-omega0) over
    omega in [0, omega_max], worked in the variable u = (omega - omega0) t
    where the measures cancel: the result already is the omega integral.
    Panel edges sit on the zeros of sin(u) and are subdivided further when
    the spectrum varies on a scale finer than one half-period
    (spectral_scale, in omega units), which happens at small t.
    """
    width = math.pi
    if spectral_scale is not None and math.isfinite(spectral_scale):
        target = t * spectral_scale / 8.0
        if target < width:
            width = math.pi / math.ceil(math.pi / target)
    u_lo = -omega0 * t
    u_hi = (omega_max - omega0) * t
    k_lo = math.floor(u_lo / width)
    k_hi = math.ceil(u_hi / width)

    total = 0.0
    chunk = 100_000
    for start in range(k_lo, k_hi, chunk):
        stop = min(start + chunk, k_hi)
        edges = np.arange(start, stop + 1, dtype=float) * width
        lo = np.clip(edges[:-1], u_lo, u_hi)
        hi = np.clip(edges[1:], u_lo, u_hi)
        widths = hi - lo
        keep = widths > 0
        if not np.any(keep):
            continue
        lo, hi, widths = lo[keep], hi[keep], widths[keep]
        mid = 0.5 * (lo + hi)
        half = 0.5 * widths
        u = mid[:, None] + half[:, None] * nodes[None, :]
        w = half[:, None] * weights[None, :]
        omega = omega0 + u / t
        vals = sigma(omega) * np.where(u == 0.0, t, np.sin(u) / np.where(u == 0.0, 1.0, u))
        total += float(np.sum(vals * w))
    return total


def diffusion_finite_time(t: float, omega0: float, model: SpectrumModel,
                          constants: PhysicalConstants = CODATA, *,
                          rel_tol: float = 1e-6,
                          tail_widths: float = 45.0) -> float:
    """Momentum diffusion coefficient accumulated by time t.

    D1(t) = (1/2) Integral[ d omega / (2 pi) sigma(omega) sync_t(omega) ]
    over the positive frequency axis, evaluated by composite Gauss-Legendre
    with panels on the half-periods of the kernel. Converges to
    sigma(omega0)/4 once omega0 t >> 1. Grows linearly at small t.

    Requires a finite spectrum cutoff; the undamped omega^3 integrand does
    not decay against the 1/omega kernel tail. The quadrature is run at two
    Gauss orders and their agreement is the error estimate.
    """
    if t <= 0:
        raise DomainError("diffusion quadrature needs t > 0")
    if omega0 <= 0:
        raise DomainError("diffusion quadrature needs omega0 > 0")
    if not math.isfinite(model.cutoff_omega):
        raise QuadratureFailure("finite-time diffusion needs a finite spectrum cutoff")

    omega_max = omega0 + tail_widths * model.cutoff_omega

    def sigma(w):
        return force_spectrum_vacuum_1d(w, model, constants)

    coarse = _sync_quadrature(sigma, omega0, t, omega_max, _GL_NODES_LO, _GL_WEIGHTS_LO,
                              spectral_scale=model.cutoff_omega)
    fine = _sync_quadrature(sigma, omega0, t, omega_max, _GL_NODES_HI, _GL_WEIGHTS_HI,
                            spectral_scale=model.cutoff_omega)
    scale = max(abs(fine), abs(coarse), 1e-300)
    if abs(fine - coarse) > rel_tol * scale:
        raise QuadratureFailure(
            f"quadrature orders disagree by {abs(fine - coarse) / scale:.3g} "
            f"(tolerance {rel_tol:g}) at omega0*t = {omega0 * t:.3g}")
    return fine / (4.0 * math.pi)


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
        if self.omega_star < 0 or self.gamma < 0 or self.d1 < 0:
            raise NonPhysicalInput("omega_star, gamma, d1 must be >= 0")


def coefficient_set(params: MirrorParams, constants: PhysicalConstants = CODATA, *,
                    gamma: float | None = None, d1: float | None = None,
                    d2: float = 0.0, delta_omega: float = 0.0) -> CoefficientSet:
    """Assemble a CoefficientSet from the printed regime formulas.

    gamma defaults to the regime dispatcher; d1 defaults to the asymptotic
    thermal-interpolated diffusion coefficient for that gamma. delta_omega
    is the caller-supplied frequency shift (default 0).
    """
    g = damping_rate(params, constants) if gamma is None else gamma
    if d1 is None:
        d1 = diffusion_asymptotic(params, g, constants)
    return CoefficientSet(omega_star=params.omega0 + delta_omega, gamma=g, d1=d1, d2=d2)
