"""Phase-space grid solver for the Wigner transport equation.

Integrates

    dW/dt = -(p/m) dW/dx + m w*^2 x dW/dp + 2 g d(p W)/dp + d1 d^2W/dp^2

on a uniform (x, p) grid: the transport equation at d2 = 0, an
Ornstein-Uhlenbeck equation. Cross diffusion d2 is not integrated: with no
position diffusion its term d2 k_x k_p is ill-posed, so nondimensionalize
refuses it; the exact moment flow of gaussian_dynamics keeps it.

Each step applies the flow over dt exactly in time, the drift map then the
Gaussian blur of the moment flow, as 1-D passes that step_plan builds for
one box: FFT shears, a quintic B-spline momentum stretch, and the blur split
over them. The FFT passes treat the box as periodic, so the boundary-ring
monitor, which stops a run whose state reaches the edge, also guards
against the wrap.

A plan carries p when all its passes are p passes (pure diffusion), else x.
evolve_grid holds the field as the rfft along that axis from its first step
to its last; the stretch acts on the x spectrum as one real matmul. A
pure-diffusion plan is one factor f along the p bins, so such a run is held
as its start spectrum S times a pending factor F, the running product of f
(bins below the least normal double set to 0), taken for up to _BLOCK steps
per step call. Every step is monitored on the spectrum. An x-carried step
reads its norm drift from the zero-frequency slice and its ring mass from
small edge irffts and one real matmul. A p-carried step reads only the
ring: the zero bin of f is exactly 1, so its norm cannot drift while the
field is finite, and a non-finite or overflowing field reads NaN or far
over tolerance on the ring.

A run that carries x hands each observer sample over real, one irfft along
x of the state it holds. A pure-diffusion run hands them over held along p
with their pending factor, read through their sums over x (_XSums), taken
once per grid and shared by a run's samples, so that each reading is a dot
product of p-bin vectors with F or F^2. Only step works on a grid held
along x: every reader refuses one. evolve_grid returns a real grid.

The solver is dimensionless by convention: callers map SI inputs through
nondimensionalize(), which rescales lengths to the ground-state width (or
the thermal wavelength for a free particle) and sets hbar_eff = 1. The cat
is a two-packet superposition separated in position, whose interference
fringes sit along p with wavenumber equal to the packet separation; fringe
visibility is the Fourier amplitude of the midpoint slice at that
wavenumber, normalized to its initial value.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy
import numpy as np
from numpy.fft import irfft, rfft
from scipy.ndimage import map_coordinates

from .errors import (
    DomainError,
    FitFailure,
    GridTooSmall,
    NonPhysicalInput,
    StabilityViolation,
    StepSizeError,
)
from .gaussian_dynamics import _expm1, _generator
from .params import CODATA, MirrorParams, PhysicalConstants, thermal_de_broglie
from .spectra_damping import CoefficientSet

__all__ = [
    "SolverCoefficients",
    "ScaleSet",
    "nondimensionalize",
    "CatWignerSpec",
    "PhaseSpaceGrid",
    "init_cat",
    "check_cat_contained",
    "init_gaussian",
    "StepPlan",
    "step_plan",
    "step",
    "evolve_grid",
    "grid_norm",
    "grid_moments",
    "grid_purity",
    "marginals",
    "fringe_visibility",
    "wmin_over_wmax",
    "DecayFit",
    "measure_td",
]


@dataclass(frozen=True)
class SolverCoefficients:
    """Transport coefficients in solver (dimensionless) units, hbar = 1.

    mass=None drops the streaming term entirely (infinitely heavy in the
    kinetic sense); that needs omega = 0 since the restoring force scales
    with the mass. It has no d2: the grid integrates the d2 = 0 equation.
    """

    mass: float | None
    omega: float
    gamma: float
    d1: float

    def __post_init__(self):
        if self.mass is None:
            if self.omega != 0:
                raise NonPhysicalInput("mass=None (no streaming) requires omega = 0")
        elif not 0 < self.mass < math.inf:
            raise NonPhysicalInput(f"solver mass must be positive and finite, got {self.mass!r}")
        if not all(0 <= v < math.inf for v in (self.omega, self.gamma, self.d1)):
            raise NonPhysicalInput("omega, gamma, d1 must be finite and >= 0")


@dataclass(frozen=True)
class ScaleSet:
    """Conversion factors between SI and solver units."""

    x_scale: float   # m per solver length unit
    t_scale: float   # s per solver time unit


def nondimensionalize(params: MirrorParams, coeffs: CoefficientSet,
                      constants: PhysicalConstants = CODATA
                      ) -> tuple[SolverCoefficients, ScaleSet]:
    """Map SI parameters to solver units.

    Bound motion (omega_star > 0): lengths in the ground-state width
    sqrt(hbar / 2 M w*), momenta in hbar over that width, time in 1/w*.
    The solver mass is then exactly 1/2 and the frequency 1. Free motion
    needs a thermal bath to set the scale: lengths in the thermal
    wavelength, time in 1/Gamma, which sends the Einstein-relation d1 to
    exactly 1. d2 != 0 raises DomainError: the grid integrates d2 = 0.
    """
    if coeffs.d2 != 0:
        raise DomainError(f"d2 = {coeffs.d2!r}: the grid solver integrates the d2 = 0 "
                          "equation; evolve the moments with gaussian_dynamics instead")
    hbar = constants.hbar
    if coeffs.omega_star > 0:
        x_scale = math.sqrt(hbar / (2.0 * params.mass * coeffs.omega_star))
        t_scale = 1.0 / coeffs.omega_star
    else:
        if params.temperature <= 0 or coeffs.gamma <= 0:
            raise DomainError(
                "free-particle scaling needs temperature > 0 and gamma > 0")
        x_scale = thermal_de_broglie(params, constants)
        t_scale = 1.0 / coeffs.gamma
    sc = SolverCoefficients(
        mass=params.mass * x_scale**2 / (hbar * t_scale),
        omega=coeffs.omega_star * t_scale,
        gamma=coeffs.gamma * t_scale,
        d1=coeffs.d1 * x_scale**2 * t_scale / hbar**2,
    )
    return sc, ScaleSet(x_scale=x_scale, t_scale=t_scale)


@dataclass(frozen=True)
class CatWignerSpec:
    """Two-packet superposition in solver units.

    alpha_mag fixes the packet separation (4 alpha ground widths in
    position, so the fringes lie along p); phase is the relative phase of
    the branches.
    """

    alpha_mag: float
    phase: float = 0.0

    def __post_init__(self):
        if not (0 <= self.alpha_mag < math.inf and math.isfinite(self.phase)):
            raise NonPhysicalInput(f"alpha_mag = {self.alpha_mag!r} must be finite and "
                                   f">= 0, and phase = {self.phase!r} finite")
        if self.alpha_mag == 0 and math.cos(self.phase) <= -1.0 + 1e-12:
            raise NonPhysicalInput(
                "alpha_mag = 0 with phase pi leaves a state of zero norm")

    @property
    def separation(self) -> float:
        """Packet separation in position, solver length units."""
        return 4.0 * self.alpha_mag

    @property
    def fringe_wavenumber(self) -> float:
        """Wavenumber of the interference fringes along p.

        Equal to the separation because hbar_eff = 1 on the solver grid.
        """
        return self.separation


def _read_only(a: numpy.ndarray) -> numpy.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _axis(n: int, half_width: float) -> numpy.ndarray:
    """The n node-centred points of [-half_width, half_width], read-only and
    shared by every grid of the box."""
    return _read_only(numpy.linspace(-half_width, half_width, n))


@dataclass(eq=False)
class PhaseSpaceGrid:
    """Uniform phase-space grid, W indexed [ix, ip], node-centered axes.

    held None: values is the real field, as a sample of a run that carries
    x. held 1: values times the pending factor `factor` (None: 1) along the
    p bins is the field's rfft along p, as a pure-diffusion sample; its
    readers' sums over x (_XSums) are kept from its first read on, so its
    values must not change after that (dataclasses.replace makes a grid
    without them). held 0: values is the rfft along x, which only step
    works on; every reader refuses it. wmin_over_wmax takes only a real
    grid. x_axis and p_axis are shared read-only arrays."""

    nx: int
    np: int
    x_half_width: float
    p_half_width: float
    values: numpy.ndarray
    time: float = 0.0
    fringe_wavenumber: float | None = None
    fringe_ref: float | None = None
    held: int | None = None
    factor: numpy.ndarray | None = None
    _sums: _XSums | None = field(default=None, init=False, repr=False)

    @property
    def x_axis(self) -> numpy.ndarray:
        return _axis(self.nx, self.x_half_width)

    @property
    def p_axis(self) -> numpy.ndarray:
        return _axis(self.np, self.p_half_width)

    @property
    def dx(self) -> float:
        return 2.0 * self.x_half_width / (self.nx - 1)

    @property
    def dp(self) -> float:
        return 2.0 * self.p_half_width / (self.np - 1)


# ground-state spreads in solver units (hbar_eff = 1, mass 1/2, omega 1)
_SIGMA_X = 1.0
_SIGMA_P = 0.5

# per-step monitors: norm drift, and mass on the boundary ring
_NORM_TOL = 1e-8
_BOUNDARY_TOL = 1e-8


def _cat_field(xg, pg, spec: CatWignerSpec):
    """Analytic two-packet Wigner field on mesh arrays (xg, pg)."""
    half = 0.5 * spec.separation
    k = spec.fringe_wavenumber
    norm = 1.0 / (2.0 * math.pi * _SIGMA_X * _SIGMA_P)
    env_p = np.exp(-pg**2 / (2.0 * _SIGMA_P**2))
    lobes = (np.exp(-(xg - half) ** 2 / (2.0 * _SIGMA_X**2))
             + np.exp(-(xg + half) ** 2 / (2.0 * _SIGMA_X**2))) * env_p
    interference = (2.0 * np.exp(-xg**2 / (2.0 * _SIGMA_X**2)) * env_p
                    * np.cos(k * pg - spec.phase))
    overlap = math.exp(-spec.separation**2 / (8.0 * _SIGMA_X**2))
    return norm * (lobes + interference) / (2.0 * (1.0 + math.cos(spec.phase) * overlap))


def _set_contained(grid: PhaseSpaceGrid, w):
    """Store the sampled field w, renormalized, after checking that it stays
    below 1e-8 of its peak on the boundary and already integrates to 1e-9.
    Both checks are written to refuse a NaN field."""
    peak = float(np.max(np.abs(w)))
    edge = max(float(np.max(np.abs(w[0, :]))), float(np.max(np.abs(w[-1, :]))),
               float(np.max(np.abs(w[:, 0]))), float(np.max(np.abs(w[:, -1]))))
    if not edge <= 1e-8 * peak:
        raise GridTooSmall(
            f"state reaches {edge / peak:.3g} of its peak at the boundary; "
            "enlarge the box")
    total = float(np.sum(w)) * grid.dx * grid.dp
    if not abs(total - 1.0) <= 1e-9:
        raise GridTooSmall(
            f"sampled norm {total!r} deviates from 1 beyond 1e-9; "
            "the grid does not resolve or contain the state")
    grid.values = w / total


def _check_box(x_half_width: float, p_half_width: float):
    """Refuse a box half width that is not positive, or whose span leaves
    the double range."""
    for name, half in (("x_half_width", x_half_width), ("p_half_width", p_half_width)):
        if not 0.0 < half <= 0.5 * sys.float_info.max:
            raise DomainError(f"{name} = {half!r} must be positive, with a span "
                              "inside the double range")


def init_cat(spec: CatWignerSpec, nx: int = 256, n_p: int = 256,
             x_half_width: float | None = None,
             p_half_width: float | None = None) -> PhaseSpaceGrid:
    """Build the initial cat state on a grid sized to hold it.

    Default box: x gets 1.5 times (half separation plus five packet
    widths), p twelve packet widths. Raises GridTooSmall when the analytic
    field exceeds 1e-8 of its peak on the boundary or the fringes get fewer
    than eight nodes per period. The grid is renormalized once after
    sampling; the sampled norm must already match 1 to 1e-9.
    """
    if nx < 16 or n_p < 16:
        raise GridTooSmall("grid must be at least 16 x 16")
    k = spec.fringe_wavenumber
    xhw = 1.5 * (0.5 * spec.separation + 5.0 * _SIGMA_X) if x_half_width is None else x_half_width
    phw = 12.0 * _SIGMA_P if p_half_width is None else p_half_width
    dp = 2.0 * phw / (n_p - 1)
    if k * dp > math.pi / 4.0:
        raise GridTooSmall(
            f"fringe wavenumber {k:.3g} underresolved: {2 * math.pi / (k * dp):.1f} "
            "nodes per period, need at least 8")

    _check_box(xhw, phw)
    grid = PhaseSpaceGrid(nx=nx, np=n_p, x_half_width=xhw, p_half_width=phw,
                          values=numpy.zeros((nx, n_p)),
                          fringe_wavenumber=k if k > 0 else None)
    _set_contained(grid, _cat_field(grid.x_axis[:, None], grid.p_axis[None, :], spec))
    if grid.fringe_wavenumber is not None:
        grid.fringe_ref = _fringe_amplitude(grid)
    return grid


def check_cat_contained(grid: PhaseSpaceGrid, sc: SolverCoefficients, times) -> None:
    """Raise GridTooSmall when, at one of `times`, the cat that init_cat put
    on grid would carry more mass on the box's p edges than the ring monitor
    allows. Without streaming (sc.mass None) the momentum envelope stays a
    Gaussian centred at p = 0, of variance _SIGMA_P^2 e^{-4 g t} + d1 (1 -
    e^{-4 g t}) / (2 g), or _SIGMA_P^2 + 2 d1 t at g = 0. Its density at the
    half width peaks at a width equal to it, past which the periodic field
    only flattens, so the width is capped there; the variance is monotonic,
    so a run's first and last steps settle the verdict. Exponentials that
    overflow take their limit 0, and a width that underflows to 0 is held at
    the least normal double."""
    t = numpy.asarray(times, dtype=float)
    dist = grid.p_half_width
    with np.errstate(over="ignore"):
        g = sc.gamma
        gained = 2.0 * sc.d1 * t if g == 0 else -sc.d1 * numpy.expm1(-4.0 * g * t) / (2.0 * g)
        var = _SIGMA_P**2 * numpy.exp(-4.0 * g * t) + gained
        capped = numpy.maximum(numpy.minimum(var, dist**2), sys.float_info.min)
        edge = 2.0 * (numpy.exp(-dist**2 / (2.0 * capped))
                      / numpy.sqrt(2 * math.pi * capped))
    worst = int(numpy.argmax(edge))
    if not edge[worst] * grid.dp <= _BOUNDARY_TOL:
        raise GridTooSmall(
            f"by t = {t[worst]:.6g} the momentum envelope widens to "
            f"{math.sqrt(var[worst]):.3g}, which puts {edge[worst] * grid.dp:.3g} of the mass "
            f"on the box's p edges (the ring monitor stops a run at {_BOUNDARY_TOL:g})")


def init_gaussian(mean_x: float, mean_p: float, cov_xx: float, cov_xp: float,
                  cov_pp: float, nx: int = 256, n_p: int = 256,
                  x_half_width: float | None = None,
                  p_half_width: float | None = None) -> PhaseSpaceGrid:
    """Sample a Gaussian Wigner function on a grid (solver units).

    Same containment checks as init_cat; no fringe metadata. Default box:
    mean plus eight standard deviations, with 20% headroom.
    """
    if nx < 16 or n_p < 16:
        raise GridTooSmall("grid must be at least 16 x 16")
    det = cov_xx * cov_pp - cov_xp**2
    if cov_xx <= 0 or cov_pp <= 0 or det <= 0:
        raise NonPhysicalInput("covariance matrix must be positive definite")
    if x_half_width is None:
        x_half_width = 1.2 * (abs(mean_x) + 8.0 * math.sqrt(cov_xx))
    if p_half_width is None:
        p_half_width = 1.2 * (abs(mean_p) + 8.0 * math.sqrt(cov_pp))
    _check_box(x_half_width, p_half_width)
    grid = PhaseSpaceGrid(nx=nx, np=n_p, x_half_width=x_half_width,
                          p_half_width=p_half_width, values=numpy.zeros((nx, n_p)))
    xg, pg = np.meshgrid(grid.x_axis - mean_x, grid.p_axis - mean_p, indexing="ij")
    # a node too far out for the quadratic form to be a double has density 0
    # (inf) or none (NaN); _set_contained refuses the grid either way
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (cov_pp * xg**2 - 2.0 * cov_xp * xg * pg + cov_xx * pg**2) / det
    _set_contained(grid, np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det)))
    return grid


def _transport_generator(mass: float | None, omega: float, gamma: float, d1: float):
    """The moment generator at d2 = 0; mass=None streams nothing and feels
    no spring."""
    inv_mass, spring = (0.0, 0.0) if mass is None else (1.0 / mass, mass * omega**2)
    return _generator(inv_mass, spring, gamma, d1, 0.0)


def _drift_maps(mass: float | None, omega: float, gamma: float, dt: float):
    """The exact backtrace exp(-A dt) less the identity (by _expm1), A the
    drift block of the moment generator."""
    return _expm1(-_transport_generator(mass, omega, gamma, 0.0)[:2, :2] * dt)


def _shear_factors(step, stretch: float):
    """Shears that, followed by the momentum stretch, compose to the
    backtrace I + step (step from _drift_maps).

    I + step = Sx(s1) Sp(c) Sx(s2) diag(1, stretch), with Sx(s) = [[1, s],
    [0, 1]] and Sp(c) = [[1, 0], [c, 1]]. Returns the non-trivial shears left
    to right as ("x", s) or ("p", c). s2 comes from the upper-right entry,
    which does not cancel: both shears keep full precision as dt -> 0. With
    no restoring force a single x-shear is exact; one too weak for double
    precision (its 1 - cos(w dt) below the normal range, where it has lost
    its digits) is treated as none.
    """
    c, b = step[1, 0], step[0, 1] / stretch
    if abs(step[0, 0]) < sys.float_info.min:
        factors = [("x", b)]
    else:
        s1 = step[0, 0] / c
        factors = [("x", s1), ("p", c), ("x", (b - s1) / (1.0 + step[0, 0]))]
    return [(axis, s) for axis, s in factors if s != 0.0]


def _blur_variances(passes, q):
    """Split the blur covariance q over the passes, one variance per pass
    along its own axis.

    A blur of variance v along a pass's axis commutes with that pass's
    shear; the later passes carry it forward to v u u^T, u the axis pushed
    through their forward maps (x shear s: [[1, -s], [0, 1]], p shear c:
    [[1, 0], [-c, 1]], stretch: diag(1, 1/stretch)). The stretch blurs after
    it moves, along p. q is (xx, xp, pp). Returns the variances of the
    first set of passes, fewest first, that fits q to 1e-12 with none
    negative; raises StepSizeError when no set does.
    """
    forward, axes = numpy.eye(2), []
    for axis, s in reversed(passes):
        axes.append(forward[:, 0] if axis == "x" else forward[:, 1])
        if axis == "x":
            forward = forward @ [[1.0, -s], [0.0, 1.0]]
        elif axis == "p":
            forward = forward @ [[1.0, 0.0], [-s, 1.0]]
        else:
            forward = forward @ [[1.0, 0.0], [0.0, 1.0 / s]]
    # fit unit axes in x units of the blur's own width ratio, so that xx, xp
    # and pp are each matched to the same relative precision
    ratio = math.sqrt(q[0] / q[2]) or 1.0
    u = numpy.array(axes[::-1]).T / [[ratio], [1.0]]
    length2 = u[0] ** 2 + u[1] ** 2
    u = u / numpy.sqrt(length2)
    terms = numpy.array([u[0] * u[0], u[0] * u[1], u[1] * u[1]])
    target = q / [ratio**2, ratio, 1.0]
    tol = 1e-12 * target[2]
    for size in range(1, 4):
        for pick in itertools.combinations(range(len(passes)), size):
            sub = terms[:, pick]
            try:    # fewer than three passes: least squares, by normal equations
                var = (numpy.linalg.solve(sub, target) if size == 3
                       else numpy.linalg.solve(sub.T @ sub, sub.T @ target))
            except numpy.linalg.LinAlgError:   # parallel axes
                continue
            if numpy.all(var >= 0.0) and numpy.all(numpy.abs(sub @ var - target) <= tol):
                out = numpy.zeros(len(passes))
                out[list(pick)] = var
                return out / length2
    raise StepSizeError(
        f"the step's blur covariance (xx, xp, pp) = {q.tolist()} has no "
        "non-negative split over its passes")


def _shift_ramp(n: int, shifts):
    """rfft-domain factors that move a length-n periodic signal by `shifts`
    nodes, one column per shift: f(i) -> f(i + shift). The even-n Nyquist
    bin keeps the real part, as the real trigonometric interpolant does."""
    k = numpy.arange(n // 2 + 1)[:, None]
    ramp = numpy.exp(2j * math.pi * k * shifts[None, :] / n)
    if n % 2 == 0:
        ramp[-1] = ramp[-1].real
    return ramp


def _exact_passes(mass: float | None, omega: float, gamma: float, d1: float,
                  dt: float):
    """The exact Ornstein-Uhlenbeck step, drift map then the Gaussian blur of
    covariance Q(dt), as (axis, shift, blur variance) passes.

    The drift is the shears of _shear_factors, then ("stretch", stretch) when
    damped. Q(dt) is the covariance block of expm(G dt) e_6 for the moment
    generator G, split by _blur_variances. That split needs a p pass
    mid-step: a lone x shear (free streaming) is halved around a zero-shift
    p pass; with no streaming a p pass carries the blur, or the stretch when
    damped. With neither drift nor diffusion there are no passes.
    """
    stretch = math.exp(2.0 * gamma * dt)
    passes = _shear_factors(_drift_maps(mass, omega, gamma, dt), stretch)
    if d1 > 0 and not any(axis == "p" for axis, _ in passes):
        if passes:
            halves = [("x", 0.5 * s) for _, s in passes]
            passes = [*halves, ("p", 0.0), *halves]
        elif stretch == 1.0:
            passes = [("p", 0.0)]
    if stretch != 1.0:
        passes.append(("stretch", stretch))
    if d1 > 0:
        q = _expm1(_transport_generator(mass, omega, gamma, d1) * dt)[2:5, 5]
        if q[2] > 0:    # else the blur underflows: its split is all zeros
            return [(axis, s, float(v))
                    for (axis, s), v in zip(passes, _blur_variances(passes, q))]
    return [(axis, s, 0.0) for axis, s in passes]


def _diffuse(k2, v: float):
    """rfft-domain factor of a Gaussian blur of variance v along an axis with
    squared wavenumbers k2: each plan pass's share of the diffusion."""
    return numpy.exp(-0.5 * v * k2)


def _bin_weights(n: int):
    """Weight of each rfft bin of a length-n real signal in its inverse
    transform: 2/n, and 1/n at zero and (even n) Nyquist."""
    k = numpy.arange(n // 2 + 1)
    return numpy.where((k == 0) | (2 * k == n), 1.0, 2.0) / n


def _edge_rows(n: int):
    """Rows 0 and n - 1 of the inverse real transform as a complex matrix on
    the rfft bins: (E @ f).real equals irfft(f, n)[[0, -1]] for complex f.
    Bin k weighs _bin_weights(n) times exp(2 pi i j k / n) for row j; the
    zero and Nyquist columns are real, so E ignores the imaginary parts of
    their bins exactly as irfft does."""
    k = numpy.arange(n // 2 + 1)
    weight = _bin_weights(n)
    last = numpy.exp(-2j * math.pi * k / n)
    if n % 2 == 0:
        last[-1] = -1.0
    return numpy.array([weight + 0j, weight * last])


@dataclass(frozen=True, eq=False)
class StepPlan:
    """One step on one box, built by step_plan: the (kind, operator) passes,
    and the carried axis (1 when every pass is a p pass, else 0; None for a
    plan with no passes) with the ring monitor's real edge operator: the
    carried axis's _edge_rows E as the stacked [E.real; E.imag], (4, m),
    for x, and as the interleaved rows (E.real, -E.imag), (2m, 2), for p."""

    box: tuple          # (nx, np, x_half_width, p_half_width)
    dt: float
    passes: tuple
    carry: int | None
    edges: numpy.ndarray | None


def step_plan(grid: PhaseSpaceGrid, sc: SolverCoefficients, dt: float) -> StepPlan:
    """The exact step (_exact_passes) over dt as 1-D operators on grid's box.

    ("x", f) or ("p", f): rfft along that axis, multiply by the factor f,
    irfft; f is the shear's phase ramp times the blur exp(-v k^2 / 2) of the
    pass's variance v, or the blur alone for a zero-shift p pass.
    ("stretch", C): the damping stretch, a quintic B-spline operator along p,
    zero outside the box and carrying the Jacobian exp(2 g dt), applied as
    w @ C, with its blur multiplied into C's columns. Pure diffusion is one
    exp(-d1 k_p^2 dt) pass, a plan that carries p (StepPlan).

    dt must resolve the rotation (dt <= 0.005 periods) and the damping
    (gamma dt <= 0.05); StepSizeError otherwise.
    """
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if sc.omega > 0 and dt > 0.005 * 2.0 * math.pi / sc.omega * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt = {dt:g} exceeds 0.005 rotation periods ({0.01 * math.pi / sc.omega:g})")
    if sc.gamma * dt > 0.05 * (1.0 + 1e-9):
        raise StepSizeError(f"gamma * dt = {sc.gamma * dt:g} exceeds 0.05")
    nx, n_p = grid.nx, grid.np
    x, p, dx, dp = grid.x_axis, grid.p_axis, grid.dx, grid.dp
    kx2 = (2.0 * math.pi * numpy.fft.rfftfreq(nx, dx)) ** 2
    kp2 = (2.0 * math.pi * numpy.fft.rfftfreq(n_p, dp)) ** 2
    # a drift or blur beyond double range raises FloatingPointError, which
    # run_scenario reports as a DomainError
    with numpy.errstate(over="raise", invalid="raise"):
        exact = _exact_passes(sc.mass, sc.omega, sc.gamma, sc.d1, dt)
    passes = []
    for axis, s, v in exact:
        if axis == "x":     # w(x + s p, p): column j moves by s p_j / dx nodes
            op = _shift_ramp(nx, s * p / dx) * _diffuse(kx2, v)[:, None]
        elif axis == "p":   # w(x, p + s x): row i moves by s x_i / dp nodes
            op = _diffuse(kp2, v)
            if s != 0.0:
                op = numpy.ascontiguousarray(_shift_ramp(n_p, s * x / dp).T) * op
        else:
            # C[j, i] is the quintic-spline weight of input node j at the
            # source point stretch * p_i; reading the identity at integer rows
            # keeps the interpolation one-dimensional
            rows = numpy.arange(n_p, dtype=float)[:, None].repeat(n_p, axis=1)
            cols = numpy.broadcast_to((s * p + grid.p_half_width) / dp, (n_p, n_p))
            op = map_coordinates(numpy.eye(n_p), [rows, cols], order=5,
                                 mode="constant", cval=0.0) * s
            if v > 0:
                op = irfft(rfft(op, axis=1) * _diffuse(kp2, v), n=n_p, axis=1)
        passes.append((axis, op))
    kinds = {kind for kind, _ in passes}
    carry = (1 if kinds == {"p"} else 0) if kinds else None
    edges = None if carry is None else _edge_rows((nx, n_p)[carry])
    if carry == 0:
        edges = numpy.concatenate([edges.real, edges.imag])
    elif carry == 1:
        edges = numpy.stack([edges.real.T, -edges.imag.T], axis=1).reshape(-1, 2)
    return StepPlan(box=(nx, n_p, grid.x_half_width, grid.p_half_width), dt=dt,
                    passes=tuple(passes), carry=carry, edges=edges)


def _in_domain(w, held: int | None, to: int | None, shape, factor=None):
    """w, the rfft along axis `held` of a field of this shape (None: the real
    field itself), as the rfft along axis `to` (None: real); a pending factor
    along the p bins is multiplied in only as w leaves the p spectrum."""
    if held == to:
        return w
    if factor is not None:
        w = w * factor
    if held is not None:
        w = irfft(w, n=shape[held], axis=held)
    return w if to is None else rfft(w, axis=to)


def _stretch(w, c):
    """w @ c for the real stretch operator c and w the field's rfft along x,
    as one real matmul on its stacked real and imaginary parts: numpy would
    run w @ c as a complex matmul of twice the work."""
    stacked = numpy.concatenate([w.real, w.imag]) @ c
    out = numpy.empty(w.shape, complex)
    out.real, out.imag = stacked[:len(w)], stacked[len(w):]
    return out


def _node_sum(w) -> float:
    """Sum of the field over all nodes, read from w, its rfft along x: the
    real part of the zero-frequency slice."""
    return float(np.sum(w[0].real))


def _ring_sum(w, held: int, shape, edges, factor=None):
    """Sum of |W| over the box's four edges, corners counted twice, from w,
    its rfft along axis `held`: the edges across that axis by irffts of its
    edge slices, the two along it by one real matmul of `edges`
    (StepPlan.edges) on w's float view (held x, E.real @ w.real in rows 0-1
    at even columns, E.imag @ w.imag in rows 2-3 at odd ones). Held p, it
    gives k sums for a stack of k factors (k, m) that scale the slices and
    the operator's rows, never w."""
    wf = numpy.ascontiguousarray(w).view(float)
    if held == 0:
        ab = edges @ wf
        sides = (ab[:2, 0::2] - ab[2:, 1::2], irfft(w[:, [0, -1]], n=shape[0], axis=0))
        return sum(float(np.sum(np.abs(e))) for e in sides)
    across = irfft(w[[0, -1]] * factor[..., None, :], n=shape[1], axis=-1)
    rows = edges.T * numpy.repeat(factor, 2, axis=-1)[..., None, :]
    along = rows.reshape(-1, edges.shape[0]) @ wf.T
    return sum(numpy.abs(e).reshape(*factor.shape[:-1], -1).sum(axis=-1) for e in (across, along))


def _monitor(rings, done: int, times, drift: float = 0.0):
    """Check consecutive steps of one step call: rings holds each step's ring
    mass (ring sum times dx dp), times its start time, `done` counts the
    call's steps before them, and drift is a lone x-carried step's norm
    drift. At the first step whose drift or ring mass crosses its tolerance
    or reads NaN, raise StabilityViolation with its index in the call (from
    1) as `step` and its start time as `time`."""
    mass = numpy.asarray(rings)
    j = int(numpy.argmin(mass <= _BOUNDARY_TOL))    # the first failing step, else 0
    if abs(drift) <= _NORM_TOL and mass[j] <= _BOUNDARY_TOL:
        return
    exc = StabilityViolation(
        f"norm drifted by {drift:.3g} in one step (tolerance {_NORM_TOL:g})"
        if not abs(drift) <= _NORM_TOL else
        f"boundary ring carries {mass[j]:.3g} mass (tolerance {_BOUNDARY_TOL:g}); "
        "the state is leaving the box and would wrap in the periodic passes")
    exc.step, exc.time = done + j + 1, times[j]
    raise exc


# the most steps of a pure-diffusion step call whose monitors are read as
# one stack: its stacked arrays hold 2 _BLOCK rows as long as a box side
_BLOCK = 64


def _running(plan: StepPlan, factor, t: float, k: int):
    """The pending factors F f^j and start times t + j plan.dt, j = 0..k, of k
    steps of the held-p plan's factor f from F (None: 1) at time t, by one
    cumprod; bins below the least normal double are then set to 0, which,
    every bin of f being at most 1, equals setting them to 0 at every step."""
    (_, f), = plan.passes
    factors = numpy.empty((k + 1, f.size))
    factors[0], factors[1:] = 1.0 if factor is None else factor, f
    numpy.cumprod(factors, axis=0, out=factors)
    factors[factors < sys.float_info.min] = 0.0
    return factors, list(itertools.accumulate(itertools.repeat(plan.dt, k), initial=t))


def step(grid: PhaseSpaceGrid, plan: StepPlan, n: int = 1) -> PhaseSpaceGrid:
    """Advance n >= 1 steps by plan (from step_plan), the time summed one
    plan.dt at a time.

    The steps run on the field's rfft along plan.carry; a grid held
    otherwise (a real one, say) is moved there on entry and back on exit by
    _in_domain. A plan that carries p is one factor f along the p bins: a
    grid held along p keeps its field and gets F f^n (_running, F its
    factor or 1), any other grid its field times f^n. On a grid as
    evolve_grid holds it, n steps are n calls of one step bit for bit. A
    plan with no passes leaves the field untouched; one built for another
    box raises DomainError. Every step is monitored; the first that fails
    raises StabilityViolation with its index in the call (from 1) as `step`
    and its start time as `time`.
    """
    box = (grid.nx, grid.np, grid.x_half_width, grid.p_half_width)
    if box != plan.box:
        raise DomainError(f"step plan built for the box {plan.box}, not {box}")
    if not (isinstance(n, (int, numpy.integer)) and n >= 1):
        raise DomainError(f"step count n = {n!r} must be an integer of at least 1")
    t = grid.time
    if not plan.passes:
        for _ in range(n):
            t += plan.dt
        return replace(grid, time=t)
    dx, dp = grid.dx, grid.dp
    shape, held = (grid.nx, grid.np), plan.carry
    # a non-finite or overflowing field stops typed, on the monitors, unwarned
    with numpy.errstate(over="ignore", invalid="ignore"):
        w = _in_domain(grid.values, grid.held, held, shape, grid.factor)
        if held == 1:
            factor = grid.factor
            for done in range(0, n, _BLOCK):
                factors, times = _running(plan, factor, t, min(_BLOCK, n - done))
                _monitor(_ring_sum(w, held, shape, plan.edges, factors[1:]) * dx * dp, done, times)
                factor, t = factors[-1], times[-1]
        else:
            factor = None
            norm = _node_sum(w) * dx * dp
            for done in range(n):
                at = held
                for kind, op in plan.passes:
                    axis = 1 if kind == "p" else 0   # the stretch, along p, acts on the x spectrum
                    w, at = _in_domain(w, at, axis, shape), axis
                    w = _stretch(w, op) if kind == "stretch" else w * op
                w = _in_domain(w, at, held, shape)
                after = _node_sum(w) * dx * dp
                _monitor([_ring_sum(w, held, shape, plan.edges) * dx * dp], done, [t], after - norm)
                norm, t = after, t + plan.dt

    return replace(grid, values=_in_domain(w, held, grid.held, shape, factor),
                   factor=factor if grid.held == 1 else None, time=t)


def evolve_grid(grid: PhaseSpaceGrid, sc: SolverCoefficients, t_final: float,
                dt: float, *, sample_every: int = 0, observer=None) -> PhaseSpaceGrid:
    """Step the grid to t_final by the fewest equal steps of at most dt (to a
    relative 1e-9, so a whole number of dt gains no step from rounding), all
    by one plan (step_plan); optionally call observer(grid) every
    sample_every steps. A pure-diffusion run calls step for up to _BLOCK
    steps at a time, any other run once per sample, or once with no observer.

    The observer gets the grid it was given, then the state after every
    sample_every-th step (an integer >= 0, else DomainError), read-only and
    bit for bit that of as many single steps: real for a run that carries
    x (only step works on a grid held along x), held along p with its
    pending factor for a pure-diffusion run; a run started from one starts
    from its pending factor. A sample is delivered once every step of its
    call has passed its monitors, so a run that fails delivers none at or
    after its failing step. Sampling never changes the trajectory. The
    returned grid is real. A monitor or step-size failure is re-raised with
    the step index and its time.
    """
    if not grid.time <= t_final < math.inf:
        raise DomainError(f"t_final = {t_final!r} must be finite and not before the "
                          f"grid's current time {grid.time!r}")
    if not dt > 0:
        raise StepSizeError(f"dt = {dt!r} must be positive")
    if not (isinstance(sample_every, (int, numpy.integer)) and sample_every >= 0):
        raise DomainError(f"sample_every = {sample_every!r} must be an integer of at least 0")
    span = t_final - grid.time
    shape = (grid.nx, grid.np)
    if span == 0:   # a held grid comes back real, as the returned grid always does
        return grid if grid.held is None else replace(
            grid, values=_in_domain(grid.values, grid.held, None, shape, grid.factor),
            held=None, factor=None)
    if not span / dt < math.inf:
        raise StepSizeError(f"the span {span!r} over dt = {dt!r} overflows the step count")
    n = max(1, math.ceil(span / dt * (1.0 - 1e-9)))
    h = span / n

    def located(exc, i, t):
        return type(exc)(f"step {i} of {n} (h = {h:.6g}) from t = {t:.6g}: {exc}")

    sampling = observer is not None and sample_every > 0
    if sampling:
        observer(grid)
    try:
        plan = step_plan(grid, sc, h)
    except StepSizeError as exc:
        raise located(exc, 1, grid.time) from exc
    held = plan.carry
    to = 1 if held == 1 else None   # the axis a sample is handed over held along
    with numpy.errstate(over="ignore", invalid="ignore"):   # step's monitors stop a bad field
        state = replace(grid, values=_in_domain(grid.values, grid.held, held, shape, grid.factor),
                        held=held, factor=grid.factor if held == 1 else None)
    every = sample_every if sampling else n
    block = _BLOCK if held == 1 else every
    run_sums = _XSums(state) if held == 1 else None
    for done in range(0, n, block):
        k = min(block, n - done)
        try:
            after = step(state, plan, k)
        except StabilityViolation as exc:
            raise located(exc, done + exc.step, exc.time) from exc
        marks = range(every - done % every, k + 1, every) if sampling else range(0)
        if marks and held == 1:
            factors, times = _running(plan, state.factor, state.time, k)
            _read_only(factors)
        for j in marks:
            factor, t = (factors[j], times[j]) if held == 1 else (None, after.time)
            values = _in_domain(after.values, held, to, shape).view()
            sample = replace(after, values=_read_only(values), held=to, factor=factor, time=t)
            sample._sums = run_sums
            observer(sample)
        state = after
    return replace(state, values=_in_domain(state.values, held, None, shape, state.factor),
                   held=None, factor=None)


class _XSums:
    """The sums over x of a field W held along p, spectrum S times factor F,
    each taken from S at its first use and kept: ones_x (ones @ S, x @ S),
    and real p-bin arrays with F @ moments = sum W (p, p^2, x p), F^2 @ power
    = n_p sum W^2, and F @ fringe = the midpoint slice against (cos k p, sin
    k p). A sum against a function u of p weighs bin k by _bin_weights(n_p)[k]
    times the conjugate of rfft(u)[k], keeping the real part, as irfft does."""

    def __init__(self, grid: PhaseSpaceGrid):
        self._w, self._x, self._p = grid.values, grid.x_axis, grid.p_axis
        self._wf = numpy.ascontiguousarray(grid.values).view(float)
        self._k = grid.fringe_wavenumber

    def _against(self, row, u):
        return (row * _bin_weights(len(self._p)) * numpy.conj(rfft(u))).real

    @functools.cached_property
    def ones_x(self):
        """ones @ S and x @ S, by one real matmul on S's float view."""
        return (numpy.stack([numpy.ones(len(self._x)), self._x]) @ self._wf).view(complex)

    @functools.cached_property
    def moments(self):
        ones, xs = self.ones_x
        p = self._p
        return numpy.stack([self._against(ones, p), self._against(ones, p * p),
                            self._against(xs, p)], axis=1)

    @functools.cached_property
    def power(self):
        """Each bin's power twice, by Parseval, but only its real part's, once,
        at zero and (even n_p) Nyquist, whose imaginary parts irfft ignores."""
        parts = numpy.einsum("ij,ij->j", self._wf, self._wf).reshape(-1, 2)
        ends = [0, -1] if len(self._p) % 2 == 0 else [0]
        power = 2.0 * parts.sum(axis=1)
        power[ends] = parts[ends, 0]
        return power

    @functools.cached_property
    def fringe(self):
        """The midpoint row of S, or the mean of the two middle rows for an
        even n_x, against the fringe kernel."""
        w, mid = self._w, len(self._x) // 2
        row = w[mid] if len(self._x) % 2 else 0.5 * (w[mid - 1] + w[mid])
        kp = self._k * self._p
        return numpy.stack([self._against(row, numpy.cos(kp)),
                            self._against(row, numpy.sin(kp))], axis=1)


def _held_p(grid: PhaseSpaceGrid) -> tuple[_XSums, numpy.ndarray]:
    """grid's sums over x, taken at its first read and kept, and its factor
    (1 when it has none)."""
    if grid._sums is None:
        grid._sums = _XSums(grid)
    return grid._sums, numpy.ones(grid.np // 2 + 1) if grid.factor is None else grid.factor


def _readable(grid: PhaseSpaceGrid) -> int | None:
    """grid.held, once the grid is one a reader takes: real or held along p."""
    if grid.held == 0:
        raise DomainError("a grid held along x is a step's working state, which no reader "
                          "takes; read the samples or the grid evolve_grid hands over")
    return grid.held


def _profile(grid: PhaseSpaceGrid, axis: int, weights=None) -> numpy.ndarray:
    """The field summed over `axis` against `weights` (None: ones), as a
    real profile along the other axis.

    A real grid is contracted directly. One held along p takes no weights:
    summed over p it is its zero bin, summed over x one irfft of its sums
    over x (_XSums); its pending factor scales only those 1-D results. A
    grid held along x raises DomainError."""
    w, factor = grid.values, grid.factor
    if _readable(grid) is None:
        u = numpy.ones(w.shape[axis]) if weights is None else weights
        return u @ w if axis == 0 else w @ u
    if axis == 1:
        out = w[:, 0].real
        return out if factor is None else out * factor[0]
    out = _held_p(grid)[0].ones_x[0]
    return irfft(out if factor is None else out * factor, n=grid.np)


def grid_norm(grid: PhaseSpaceGrid) -> float:
    w = grid.values if grid.held is None else _profile(grid, 1)
    return float(np.sum(w)) * grid.dx * grid.dp


def grid_moments(grid: PhaseSpaceGrid) -> tuple[float, float, float, float, float]:
    """(mean_x, mean_p, cov_xx, cov_xp, cov_pp) by Riemann sums: the means
    and variances from the two marginals, cov_xp as one bilinear form. Held
    along p, the p sums come from _XSums: cov_pp as the mean of p^2 less
    mean_p^2, cov_xp as the mean of x p less mean_x mean_p. A field whose
    node sum is not positive and finite raises DomainError."""
    x, p = grid.x_axis, grid.p_axis
    wx = _profile(grid, 1)
    n = float(np.sum(wx))
    if not 0.0 < n < math.inf:
        raise DomainError(f"field sums to {n!r}; moments need a positive, finite mass")
    mx = float(wx @ x) / n
    xx = float(wx @ (x - mx) ** 2) / n
    if grid.held == 1:
        sums, factor = _held_p(grid)
        sp, spp, sxp = (float(v) / n for v in factor @ sums.moments)
        return mx, sp, xx, sxp - mx * sp, spp - sp * sp
    wp = _profile(grid, 0)
    mp_ = float(wp @ p) / n
    pp = float(wp @ (p - mp_) ** 2) / n
    xp = float((x - mx) @ _profile(grid, 1, p - mp_)) / n
    return mx, mp_, xx, xp, pp


def grid_purity(grid: PhaseSpaceGrid) -> float:
    """Tr rho^2 = 2 pi hbar Integral[W^2], hbar = 1. A grid held along p
    weighs the power of each p bin (_XSums) by its factor squared."""
    if _readable(grid) is None:
        total = float(np.sum(grid.values**2))
    else:
        sums, factor = _held_p(grid)
        total = float(factor**2 @ sums.power) / grid.np
    return 2.0 * math.pi * total * grid.dx * grid.dp


def marginals(grid: PhaseSpaceGrid) -> tuple[numpy.ndarray, numpy.ndarray]:
    """Position and momentum marginal densities (P(x), P(p))."""
    return _profile(grid, 1) * grid.dp, _profile(grid, 0) * grid.dx


def _fringe_amplitude(grid: PhaseSpaceGrid) -> float:
    """|Fourier amplitude| of the midpoint slice at the fringe wavenumber:
    a real grid's midpoint rows, or two sums from _XSums held along p."""
    held = _readable(grid)
    if grid.fringe_wavenumber is None:
        raise DomainError("grid carries no fringe metadata; build it with init_cat")
    if held == 1:
        sums, factor = _held_p(grid)
        return math.hypot(*(factor @ sums.fringe)) * grid.dp
    w, mid = grid.values, grid.nx // 2
    sl = w[mid] if grid.nx % 2 else 0.5 * (w[mid - 1] + w[mid])
    return float(np.abs(np.sum(sl * np.exp(-1j * grid.fringe_wavenumber * grid.p_axis)))
                 * grid.dp)


def fringe_visibility(grid: PhaseSpaceGrid) -> float:
    """Fringe amplitude normalized to its value at initialization."""
    amp = _fringe_amplitude(grid)
    if grid.fringe_ref is None or grid.fringe_ref <= 0:
        raise DomainError("grid carries no initial fringe amplitude reference")
    return amp / grid.fringe_ref


def wmin_over_wmax(grid: PhaseSpaceGrid) -> float:
    """Most negative value over the peak; >= -1e-3 once fringes are gone.
    It needs every node, so a held grid raises DomainError."""
    if grid.held is not None:
        raise DomainError("wmin_over_wmax reads every node of the real field; "
                          "a held grid carries its spectrum (read the grid evolve_grid returns)")
    w = grid.values
    return float(np.min(w)) / float(np.max(w))


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay constant fitted from a visibility series."""

    td: float
    r_squared: float
    n_points: int


_FIT_FLOOR = 1e-3
_FIT_MIN_EFOLDS = 3.0
_FIT_R2_MIN = 0.99


def measure_td(times, visibilities) -> DecayFit:
    """Least-squares exponential fit v(t) = exp(-t/td) on the series, whose
    times and visibilities must all be finite (FitFailure otherwise).

    Points at or below the floor 1e-3 are dropped (everything after the
    first floor crossing is noise). The retained window must span three
    e-foldings unless the series genuinely reached the floor. The fit is
    linear in log space; a residual R^2 below 0.99 raises FitFailure.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(visibilities, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 4:
        raise FitFailure("need matching 1-d series with at least 4 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise FitFailure("times and visibilities must all be finite")
    crossed = bool(np.any(v <= _FIT_FLOOR))
    if crossed:
        cut = int(np.argmax(v <= _FIT_FLOOR))
        t, v = t[:cut], v[:cut]
    if v.size < 4 or np.any(v <= 0):
        raise FitFailure("too few usable points above the visibility floor")
    span = math.log(float(np.max(v)) / float(np.min(v)))
    if span < _FIT_MIN_EFOLDS and not crossed:
        raise FitFailure(
            f"series spans only {span:.2f} e-foldings (need {_FIT_MIN_EFOLDS}) "
            "and never reached the floor")
    ln_v = np.log(v)
    # fit in units of the last time: polyfit scales by the norm of t, and
    # t^2 underflows for times below about 1e-154
    unit = float(np.max(np.abs(t))) or 1.0
    slope, intercept = np.polyfit(t / unit, ln_v, 1)
    slope /= unit
    if slope >= 0:
        raise FitFailure("visibility does not decay")
    fit = slope * t + intercept
    ss_res = float(np.sum((ln_v - fit) ** 2))
    ss_tot = float(np.sum((ln_v - np.mean(ln_v)) ** 2))
    if ss_tot <= 0:
        raise FitFailure("series carries no decay to fit")
    r2 = 1.0 - ss_res / ss_tot
    if r2 < _FIT_R2_MIN:
        raise FitFailure(f"log-linear fit rejected: R^2 = {r2:.4f} < {_FIT_R2_MIN}")
    return DecayFit(td=-1.0 / slope, r_squared=r2, n_points=int(v.size))
