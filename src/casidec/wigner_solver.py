"""Phase-space grid solver for the Wigner transport equation.

Integrates

    dW/dt = -(p/m) dW/dx + m w*^2 x dW/dp + 2 g d(p W)/dp
            + d1 d^2W/dp^2 - d2 d^2W/(dx dp)

on a uniform (x, p) grid. At d2 = 0 this is an Ornstein-Uhlenbeck equation,
and each step applies its flow over dt exactly in time: the drift map
(rotation, shear, damping contraction), then a Gaussian blur whose
covariance Q(dt) is the covariance block of expm(G dt) e_6, G the moment
generator of gaussian_dynamics. The drift's backtrace matrix is factored
into three shears and a momentum stretch. Each shear is a per-row (or
per-column) shift applied as an FFT phase ramp, exact for a band-limited
field; the stretch, which carries the Jacobian exp(2 g dt) that restores
the mass the contraction removes, is a 1-D cubic B-spline pass along p,
zero outside the box. The blur splits into one non-negative variance per
pass, along that pass's axis, multiplied into its factor; it adds a
zero-shift p pass only where no pass can carry it (pure diffusion, free
streaming). All passes are cached per (coefficients, dt, grid) as one step
plan. The FFT passes treat the box as periodic, so mass that reaches the
edge would wrap to the far side: the boundary-ring monitor that stops a run
whose state leaves the box also guards against that wrap. Only the d2 cross
term is an explicit stencil (see _diffuse for why); when d2 != 0 it runs
for half a step on either side of the exact step.

The solver is dimensionless by convention: callers map SI inputs through
nondimensionalize(), which rescales lengths to the ground-state width (or
the thermal wavelength for a free particle) and sets hbar_eff = 1. The
default initial state is a two-packet superposition whose interference
fringes sit along p with wavenumber equal to the packet separation; fringe
visibility is the Fourier amplitude of the midpoint slice at that
wavenumber, normalized to its initial value.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

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
from .gaussian_dynamics import _generator
from .params import CODATA, CatSpec, MirrorParams, PhysicalConstants, resolve_cat
from .spectra_damping import CoefficientSet

__all__ = [
    "SolverCoefficients",
    "ScaleSet",
    "nondimensionalize",
    "CatWignerSpec",
    "PhaseSpaceGrid",
    "init_cat",
    "init_gaussian",
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
    with the mass.
    """

    mass: float | None
    omega: float
    gamma: float
    d1: float
    d2: float = 0.0

    def __post_init__(self):
        if self.mass is None:
            if self.omega != 0:
                raise NonPhysicalInput("mass=None (no streaming) requires omega = 0")
        elif self.mass <= 0:
            raise NonPhysicalInput("solver mass must be positive")
        if self.omega < 0 or self.gamma < 0 or self.d1 < 0:
            raise NonPhysicalInput("omega, gamma, d1 must be >= 0")


@dataclass(frozen=True)
class ScaleSet:
    """Conversion factors between SI and solver units."""

    x_scale: float   # m per solver length unit
    p_scale: float   # kg m/s per solver momentum unit
    t_scale: float   # s per solver time unit
    kind: str        # "oscillator" or "free"


def nondimensionalize(params: MirrorParams, coeffs: CoefficientSet,
                      constants: PhysicalConstants = CODATA
                      ) -> tuple[SolverCoefficients, ScaleSet]:
    """Map SI parameters to solver units.

    Bound motion (omega_star > 0): lengths in the ground-state width
    sqrt(hbar / 2 M w*), momenta in hbar over that width, time in 1/w*.
    The solver mass is then exactly 1/2 and the frequency 1. Free motion
    needs a thermal bath to set the scale: lengths in the thermal
    wavelength, time in 1/Gamma, which sends the Einstein-relation d1 to
    exactly 1.
    """
    hbar = constants.hbar
    if coeffs.omega_star > 0:
        x_scale = math.sqrt(hbar / (2.0 * params.mass * coeffs.omega_star))
        t_scale = 1.0 / coeffs.omega_star
        kind = "oscillator"
    else:
        if params.temperature <= 0 or coeffs.gamma <= 0:
            raise DomainError(
                "free-particle scaling needs temperature > 0 and gamma > 0")
        x_scale = hbar / math.sqrt(
            2.0 * params.mass * constants.k_boltzmann * params.temperature)
        t_scale = 1.0 / coeffs.gamma
        kind = "free"
    sc = SolverCoefficients(
        mass=params.mass * x_scale**2 / (hbar * t_scale),
        omega=coeffs.omega_star * t_scale,
        gamma=coeffs.gamma * t_scale,
        d1=coeffs.d1 * x_scale**2 * t_scale / hbar**2,
        d2=coeffs.d2 * t_scale / hbar,
    )
    return sc, ScaleSet(x_scale=x_scale, p_scale=hbar / x_scale, t_scale=t_scale, kind=kind)


@dataclass(frozen=True)
class CatWignerSpec:
    """Two-packet superposition in solver units.

    alpha_mag fixes the packet separation (4 alpha ground widths along the
    separated axis); phase is the relative phase of the branches;
    orientation chooses whether the packets are separated in position
    (fringes along p) or momentum (fringes along x).
    """

    alpha_mag: float
    phase: float = 0.0
    orientation: str = "position"

    def __post_init__(self):
        if self.alpha_mag < 0:
            raise NonPhysicalInput("alpha_mag must be non-negative")
        if self.alpha_mag == 0 and math.cos(self.phase) <= -1.0 + 1e-12:
            raise NonPhysicalInput(
                "alpha_mag = 0 with phase pi leaves a state of zero norm")
        if self.orientation not in ("position", "momentum"):
            raise NonPhysicalInput(f"unknown orientation {self.orientation!r}")

    @classmethod
    def from_cat_spec(cls, cat: CatSpec, params: MirrorParams,
                      constants: PhysicalConstants = CODATA,
                      orientation: str = "position") -> "CatWignerSpec":
        cat = resolve_cat(cat, params, constants)
        return cls(alpha_mag=cat.alpha_mag, phase=cat.phase, orientation=orientation)

    @property
    def separation(self) -> float:
        """Packet separation along the separated axis, solver length units."""
        if self.orientation == "position":
            return 4.0 * self.alpha_mag
        return 2.0 * self.alpha_mag  # momentum units are twice as fine

    @property
    def fringe_wavenumber(self) -> float:
        """Wavenumber of the interference fringes along the conjugate axis.

        Equal to the separation because hbar_eff = 1 on the solver grid.
        """
        return self.separation


@dataclass(eq=False)
class PhaseSpaceGrid:
    """Uniform phase-space grid, W indexed [ix, ip], node-centered axes."""

    nx: int
    np: int
    x_half_width: float
    p_half_width: float
    values: numpy.ndarray
    time: float = 0.0
    fringe_wavenumber: float | None = None
    fringe_axis: str = "p"
    fringe_ref: float | None = None

    @property
    def x_axis(self) -> numpy.ndarray:
        return numpy.linspace(-self.x_half_width, self.x_half_width, self.nx)

    @property
    def p_axis(self) -> numpy.ndarray:
        return numpy.linspace(-self.p_half_width, self.p_half_width, self.np)

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
    if spec.orientation == "position":
        u, v, su, sv = xg, pg, _SIGMA_X, _SIGMA_P
    else:
        u, v, su, sv = pg, xg, _SIGMA_P, _SIGMA_X
    half = 0.5 * spec.separation
    k = spec.fringe_wavenumber
    norm = 1.0 / (2.0 * math.pi * _SIGMA_X * _SIGMA_P)
    env_v = np.exp(-v**2 / (2.0 * sv**2))
    lobes = (np.exp(-(u - half) ** 2 / (2.0 * su**2))
             + np.exp(-(u + half) ** 2 / (2.0 * su**2))) * env_v
    interference = 2.0 * np.exp(-u**2 / (2.0 * su**2)) * env_v * np.cos(k * v - spec.phase)
    overlap = math.exp(-spec.separation**2 / (8.0 * su**2))
    return norm * (lobes + interference) / (2.0 * (1.0 + math.cos(spec.phase) * overlap))


def _set_contained(grid: PhaseSpaceGrid, w):
    """Store the sampled field w, renormalized, after checking that it stays
    below 1e-8 of its peak on the boundary and already integrates to 1e-9."""
    peak = float(np.max(np.abs(w)))
    edge = max(float(np.max(np.abs(w[0, :]))), float(np.max(np.abs(w[-1, :]))),
               float(np.max(np.abs(w[:, 0]))), float(np.max(np.abs(w[:, -1]))))
    if edge > 1e-8 * peak:
        raise GridTooSmall(
            f"state reaches {edge / peak:.3g} of its peak at the boundary; "
            "enlarge the box")
    total = float(np.sum(w)) * grid.dx * grid.dp
    if abs(total - 1.0) > 1e-9:
        raise GridTooSmall(
            f"sampled norm {total!r} deviates from 1 beyond 1e-9; "
            "the grid does not resolve or contain the state")
    grid.values = w / total


def init_cat(spec: CatWignerSpec, nx: int = 256, n_p: int = 256,
             x_half_width: float | None = None,
             p_half_width: float | None = None) -> PhaseSpaceGrid:
    """Build the initial cat state on a grid sized to hold it.

    Default box: the separated axis gets 1.5 times (half separation plus
    five packet widths), the conjugate axis twelve packet widths. Raises
    GridTooSmall when the analytic field exceeds 1e-8 of its peak on the
    boundary or the fringes get fewer than eight nodes per period. The
    grid is renormalized once after sampling; the sampled norm must
    already match 1 to 1e-9.
    """
    if nx < 16 or n_p < 16:
        raise GridTooSmall("grid must be at least 16 x 16")
    sep, k = spec.separation, spec.fringe_wavenumber
    if spec.orientation == "position":
        xhw = 1.5 * (0.5 * sep + 5.0 * _SIGMA_X) if x_half_width is None else x_half_width
        phw = 12.0 * _SIGMA_P if p_half_width is None else p_half_width
        fringe_axis, fringe_dk = "p", 2.0 * phw / (n_p - 1)
    else:
        xhw = 12.0 * _SIGMA_X if x_half_width is None else x_half_width
        phw = 1.5 * (0.5 * sep + 5.0 * _SIGMA_P) if p_half_width is None else p_half_width
        fringe_axis, fringe_dk = "x", 2.0 * xhw / (nx - 1)
    if k * fringe_dk > math.pi / 4.0:
        raise GridTooSmall(
            f"fringe wavenumber {k:.3g} underresolved: {2 * math.pi / (k * fringe_dk):.1f} "
            "nodes per period, need at least 8")

    grid = PhaseSpaceGrid(nx=nx, np=n_p, x_half_width=xhw, p_half_width=phw,
                          values=numpy.zeros((nx, n_p)),
                          fringe_wavenumber=k if k > 0 else None,
                          fringe_axis=fringe_axis)
    xg, pg = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    _set_contained(grid, _cat_field(xg, pg, spec))
    if grid.fringe_wavenumber is not None:
        grid.fringe_ref = _fringe_amplitude(grid)
    return grid


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
    grid = PhaseSpaceGrid(nx=nx, np=n_p, x_half_width=x_half_width,
                          p_half_width=p_half_width, values=numpy.zeros((nx, n_p)))
    xg, pg = np.meshgrid(grid.x_axis - mean_x, grid.p_axis - mean_p, indexing="ij")
    quad = (cov_pp * xg**2 - 2.0 * cov_xp * xg * pg + cov_xx * pg**2) / det
    _set_contained(grid, np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det)))
    return grid


def _transport_generator(mass: float | None, omega: float, gamma: float, d1: float):
    """The moment generator at d2 = 0; mass=None streams nothing and feels
    no spring."""
    inv_mass, spring = (0.0, 0.0) if mass is None else (1.0 / mass, mass * omega**2)
    return _generator(inv_mass, spring, gamma, d1, 0.0)


def _expm1(m):
    """exp(m) - I, by scaling and squaring on E = exp - I itself: a Taylor
    sum at norm 1/64, then E(2X) = 2 E(X) + E(X)^2.

    Small entries keep their relative precision, which exp(m) - I read off
    a rounded exp(m) loses: the drift's 1 - cos(w dt) and w^2 dt at any dt
    and any w, and the blur's dt^3 position variance. Entries that vanish
    stay exactly zero.
    """
    norm = float(numpy.max(numpy.sum(numpy.abs(m), axis=0)))
    squarings = max(0, math.ceil(math.log2(64.0 * norm))) if norm > 0 else 0
    x = m / 2.0**squarings
    e = term = x
    for k in range(2, 8):
        term = term @ x / k
        e = e + term
    for _ in range(squarings):
        e = 2.0 * e + e @ e
    return e


@functools.lru_cache(maxsize=64)
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

    The drift is the shears of _shear_factors, then ("stretch", stretch)
    when damped. Q(dt) is the covariance block of expm(G dt) e_6 for the
    moment generator G, split into one variance per pass by
    _blur_variances. The split needs a p pass mid-step: a lone x shear
    (free streaming) is halved around a zero-shift p pass; with no
    streaming a single p pass carries the blur, or the stretch alone when
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
    if d1 == 0:
        return [(axis, s, 0.0) for axis, s in passes]
    q = _expm1(_transport_generator(mass, omega, gamma, d1) * dt)[2:5, 5]
    return [(axis, s, float(v))
            for (axis, s), v in zip(passes, _blur_variances(passes, q))]


@functools.lru_cache(maxsize=4)
def _step_plan(mass: float | None, omega: float, gamma: float, d1: float, dt: float,
               nx: int, n_p: int, x_half_width: float, p_half_width: float):
    """The exact step (_exact_passes) as cached 1-D operators on the grid.

    ("x", f) or ("p", f): rfft along that axis, multiply by the factor f,
    irfft; f is the shear's phase ramp times the blur exp(-v k^2 / 2) of the
    pass's variance v, or the blur alone for a zero-shift p pass.
    ("stretch", C): the damping stretch, a cubic B-spline operator along p,
    zero outside the box and carrying the Jacobian exp(2 g dt), applied as
    w @ C, with its blur multiplied into C's columns. So pure diffusion is
    one exp(-d1 k_p^2 dt) pass.
    """
    x, dx = numpy.linspace(-x_half_width, x_half_width, nx, retstep=True)
    p, dp = numpy.linspace(-p_half_width, p_half_width, n_p, retstep=True)
    kx2 = (2.0 * math.pi * numpy.fft.rfftfreq(nx, dx)) ** 2
    kp2 = (2.0 * math.pi * numpy.fft.rfftfreq(n_p, dp)) ** 2
    plan = []
    for axis, s, v in _exact_passes(mass, omega, gamma, d1, dt):
        if axis == "x":     # w(x + s p, p): column j moves by s p_j / dx nodes
            op = _shift_ramp(nx, s * p / dx) * numpy.exp(-0.5 * v * kx2)[:, None]
        elif axis == "p":   # w(x, p + s x): row i moves by s x_i / dp nodes
            op = numpy.exp(-0.5 * v * kp2)
            if s != 0.0:
                op = numpy.ascontiguousarray(_shift_ramp(n_p, s * x / dp).T) * op
        else:
            # C[j, i] is the cubic-spline weight of input node j at the source
            # point stretch * p_i; reading the identity at integer rows keeps
            # the interpolation one-dimensional
            rows = numpy.arange(n_p, dtype=float)[:, None].repeat(n_p, axis=1)
            cols = numpy.broadcast_to((s * p + p_half_width) / dp, (n_p, n_p))
            op = map_coordinates(numpy.eye(n_p), [rows, cols], order=3,
                                 mode="constant", cval=0.0) * s
            if v > 0:
                op = irfft(rfft(op, axis=1) * numpy.exp(-0.5 * v * kp2), n=n_p, axis=1)
        plan.append((axis, op))
    return tuple(plan)


def _diffuse(w, cross: float):
    """Cross term -d2 d^2W/(dx dp), cross = -d2 dt / (4 dx dp): a central
    stencil on the interior nodes, sub-cycled to |cross| <= 0.1 (none at 0).

    Without position diffusion the term is ill-posed (its symbol d2 k_x k_p
    grows along one diagonal of k-space), so it is not made spectral: at
    the oracle defaults an exact spectral factor trips the ring monitor from
    |d2| = 0.05 and a spectral central difference at d2 = -0.1, while this
    stencil runs d2 = +-0.1 to t = 40.
    """
    cycles = math.ceil(abs(cross) / 0.1)
    for _ in range(cycles):
        mixed = numpy.zeros_like(w)
        mixed[1:-1, 1:-1] = (w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2])
        w = w + (cross / cycles) * mixed
    return w


def step(grid: PhaseSpaceGrid, sc: SolverCoefficients, dt: float) -> PhaseSpaceGrid:
    """Advance one step: the exact Ornstein-Uhlenbeck flow of the d2 = 0
    equation as one cached plan (_step_plan), with the d2 cross stencil
    for half a step on either side of it when d2 != 0.

    dt must resolve the rotation (dt <= 0.005 periods) and the damping
    (gamma dt <= 0.05). Norm drift per step and mass on the boundary ring
    are monitored; crossing either tolerance raises StabilityViolation. The
    ring monitor is what keeps the periodic wrap of the FFT passes harmless.
    """
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if sc.omega > 0 and dt > 0.005 * 2.0 * math.pi / sc.omega * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt = {dt:g} exceeds 0.005 rotation periods ({0.01 * math.pi / sc.omega:g})")
    if sc.gamma * dt > 0.05 * (1.0 + 1e-9):
        raise StepSizeError(f"gamma * dt = {sc.gamma * dt:g} exceeds 0.05")

    dx, dp = grid.dx, grid.dp
    w = grid.values
    norm_before = float(np.sum(w)) * dx * dp

    cross_half = -sc.d2 * (0.5 * dt) / (4.0 * dx * dp)
    w = _diffuse(w, cross_half)
    for kind, op in _step_plan(sc.mass, sc.omega, sc.gamma, sc.d1, dt, grid.nx,
                               grid.np, grid.x_half_width, grid.p_half_width):
        if kind == "stretch":
            w = w @ op
        else:
            axis = 0 if kind == "x" else 1
            w = irfft(rfft(w, axis=axis) * op, n=w.shape[axis], axis=axis)
    w = _diffuse(w, cross_half)

    norm_after = float(np.sum(w)) * dx * dp
    if abs(norm_after - norm_before) > _NORM_TOL:
        raise StabilityViolation(
            f"norm drifted by {norm_after - norm_before:.3g} in one step "
            f"(tolerance {_NORM_TOL:g})")
    ring = (float(np.sum(np.abs(w[0, :]))) + float(np.sum(np.abs(w[-1, :])))
            + float(np.sum(np.abs(w[:, 0]))) + float(np.sum(np.abs(w[:, -1]))))
    if ring * dx * dp > _BOUNDARY_TOL:
        raise StabilityViolation(
            f"boundary ring carries {ring * dx * dp:.3g} mass (tolerance {_BOUNDARY_TOL:g}); "
            "the state is leaving the box and would wrap in the periodic passes")

    return replace(grid, values=w, time=grid.time + dt)


def evolve_grid(grid: PhaseSpaceGrid, sc: SolverCoefficients, t_final: float,
                dt: float, *, sample_every: int = 0, observer=None) -> PhaseSpaceGrid:
    """Step the grid to t_final; optionally call observer(grid) every k steps.

    Takes the fewest equal steps that tile t_final and are no longer than
    dt (to a relative 1e-9, so a span that is a whole number of dt in exact
    arithmetic does not gain a step from rounding). A monitor or step-size
    failure is re-raised with the step index and the time it happened at.
    """
    if t_final < grid.time:
        raise DomainError("t_final lies before the grid's current time")
    if not dt > 0:
        raise StepSizeError(f"dt = {dt!r} must be positive")
    span = t_final - grid.time
    if span == 0:
        return grid
    n = max(1, math.ceil(span / dt * (1.0 - 1e-9)))
    h = span / n
    if observer is not None and sample_every > 0:
        observer(grid)
    for i in range(1, n + 1):
        try:
            grid = step(grid, sc, h)
        except (StabilityViolation, StepSizeError) as exc:
            raise type(exc)(f"step {i} of {n} (h = {h:.6g}) from t = {grid.time:.6g}: "
                            f"{exc}") from exc
        if observer is not None and sample_every > 0 and i % sample_every == 0:
            observer(grid)
    return grid


def grid_norm(grid: PhaseSpaceGrid) -> float:
    return float(np.sum(grid.values)) * grid.dx * grid.dp


def grid_moments(grid: PhaseSpaceGrid) -> tuple[float, float, float, float, float]:
    """(mean_x, mean_p, cov_xx, cov_xp, cov_pp) by Riemann sums."""
    w = grid.values
    dxdp = grid.dx * grid.dp
    x = grid.x_axis[:, None]
    p = grid.p_axis[None, :]
    n = float(np.sum(w)) * dxdp
    mx = float(np.sum(w * x)) * dxdp / n
    mp_ = float(np.sum(w * p)) * dxdp / n
    xx = float(np.sum(w * (x - mx) ** 2)) * dxdp / n
    pp = float(np.sum(w * (p - mp_) ** 2)) * dxdp / n
    xp = float(np.sum(w * (x - mx) * (p - mp_))) * dxdp / n
    return mx, mp_, xx, xp, pp


def grid_purity(grid: PhaseSpaceGrid) -> float:
    """Tr rho^2 = 2 pi hbar Integral[W^2], hbar = 1."""
    return 2.0 * math.pi * float(np.sum(grid.values**2)) * grid.dx * grid.dp


def marginals(grid: PhaseSpaceGrid) -> tuple[numpy.ndarray, numpy.ndarray]:
    """Position and momentum marginal densities (P(x), P(p))."""
    px = np.sum(grid.values, axis=1) * grid.dp
    pp = np.sum(grid.values, axis=0) * grid.dx
    return px, pp


def _fringe_amplitude(grid: PhaseSpaceGrid) -> float:
    """|Fourier amplitude| of the midpoint slice at the fringe wavenumber."""
    if grid.fringe_wavenumber is None:
        raise DomainError("grid carries no fringe metadata; build it with init_cat")
    k = grid.fringe_wavenumber
    if grid.fringe_axis == "p":
        w, axis_vals, d = grid.values, grid.p_axis, grid.dp
    else:
        w, axis_vals, d = grid.values.T, grid.x_axis, grid.dx
    mid = len(w) // 2
    sl = w[mid] if len(w) % 2 else 0.5 * (w[mid - 1] + w[mid])
    return float(np.abs(np.sum(sl * np.exp(-1j * k * axis_vals))) * d)


def fringe_visibility(grid: PhaseSpaceGrid) -> float:
    """Fringe amplitude normalized to its value at initialization."""
    amp = _fringe_amplitude(grid)
    if grid.fringe_ref is None or grid.fringe_ref <= 0:
        raise DomainError("grid carries no initial fringe amplitude reference")
    return amp / grid.fringe_ref


def wmin_over_wmax(grid: PhaseSpaceGrid) -> float:
    """Most negative value over the peak; >= -1e-3 once fringes are gone."""
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
    """Least-squares exponential fit v(t) = exp(-t/td) on the series.

    Points at or below the floor 1e-3 are dropped (everything after the
    first floor crossing is noise). The retained window must span three
    e-foldings unless the series genuinely reached the floor. The fit is
    linear in log space; a residual R^2 below 0.99 raises FitFailure.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(visibilities, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 4:
        raise FitFailure("need matching 1-d series with at least 4 samples")
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
    slope, intercept = np.polyfit(t, ln_v, 1)
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
