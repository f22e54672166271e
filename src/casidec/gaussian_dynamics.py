"""Gaussian moment dynamics under the phase-space transport equation.

The transport equation for the Wigner distribution,

    dW/dt = -(p/M) dW/dx + M omega*^2 x dW/dp + 2 Gamma d(p W)/dp
            + D1 d^2W/dp^2 - D2 d^2W/(dx dp),

closes on the first and second moments of any Gaussian state, a linear
system with a constant source whose exact flow is one matrix exponential
(Van Loan 1978):

    d<x>/dt  = <p>/M
    d<p>/dt  = -M omega*^2 <x> - 2 Gamma <p>
    d cov_xx = 2 cov_xp / M
    d cov_xp = cov_pp / M - M omega*^2 cov_xx - 2 Gamma cov_xp - D2
    d cov_pp = -2 M omega*^2 cov_xp - 4 Gamma cov_pp + 2 D1

This module propagates that flow (its mean block is also the grid
solver's drift, which the moments serve as an exact oracle), tracks
Gaussian purity, and implements the predictability sieve: minimize
early-time entropy production over the family of pure squeezed states.
The instantaneous production rate at a pure state decreases under
position squeezing (the transport equation is not completely positive at
short times), so the sieve's default objective averages the rate over one
free rotation, which is also what the evolved entropy at times long
against the period measures. Under that averaging
the coherent state (zero squeezing) is the strict minimum whenever the
diffusion enters through the momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DomainError,
    NonPhysicalInput,
    OptimizationFailure,
    StepSizeError,
)
from .params import CODATA, MirrorParams, PhysicalConstants
from .spectra_damping import CoefficientSet

__all__ = [
    "GaussianState",
    "moment_derivatives",
    "evolve",
    "purity",
    "linear_entropy",
    "entropy_production_rate",
    "secular_linear_entropy",
    "squeezed_pure_state",
    "SieveResult",
    "sieve_search",
]


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian phase-space distribution."""

    mean_x: float
    mean_p: float
    cov_xx: float
    cov_xp: float
    cov_pp: float

    def __post_init__(self):
        if not (self.cov_xx > 0 and self.cov_pp > 0):
            raise NonPhysicalInput("diagonal covariances must be positive")
        if self.det_cov <= 0:
            raise NonPhysicalInput("covariance matrix must be positive definite")

    @property
    def det_cov(self) -> float:
        return self.cov_xx * self.cov_pp - self.cov_xp**2

    @classmethod
    def coherent(cls, params: MirrorParams, mean_x: float = 0.0, mean_p: float = 0.0,
                 constants: PhysicalConstants = CODATA, omega: float | None = None
                 ) -> "GaussianState":
        """Minimum-uncertainty state with the trap's ground-state widths."""
        w = params.omega0 if omega is None else omega
        if w <= 0:
            raise DomainError("coherent state needs a positive frequency")
        return cls(mean_x=mean_x, mean_p=mean_p,
                   cov_xx=constants.hbar / (2.0 * params.mass * w),
                   cov_xp=0.0,
                   cov_pp=constants.hbar * params.mass * w / 2.0)


def _generator(inv_mass: float, spring: float, gamma: float, d1: float,
               d2: float) -> np.ndarray:
    """dy/dt = G y for y = (mean_x, mean_p, cov_xx, cov_xp, cov_pp, 1).

    spring is M omega*^2. The means follow the drift A = G[:2, :2], the
    covariance A cov + cov A^T plus the diffusion source that the constant
    sixth component carries, so expm(G h) is the exact flow over h.
    """
    a = np.array([[0.0, inv_mass], [-spring, -2.0 * gamma]])
    (a00, a01), (a10, a11) = a
    g = np.zeros((6, 6))
    g[:2, :2] = a
    g[2, 2:4] = 2.0 * a00, 2.0 * a01
    g[3, 2:5] = a10, a00 + a11, a01
    g[4, 3:5] = 2.0 * a10, 2.0 * a11
    g[3:5, 5] = -d2, 2.0 * d1
    return g


def _state_generator(params: MirrorParams, coeffs: CoefficientSet) -> np.ndarray:
    return _generator(1.0 / params.mass, params.mass * coeffs.omega_star**2,
                      coeffs.gamma, coeffs.d1, coeffs.d2)


def moment_derivatives(state: GaussianState, params: MirrorParams,
                       coeffs: CoefficientSet) -> np.ndarray:
    """Time derivatives of (mean_x, mean_p, cov_xx, cov_xp, cov_pp)."""
    y = [state.mean_x, state.mean_p, state.cov_xx, state.cov_xp, state.cov_pp, 1.0]
    return (_state_generator(params, coeffs) @ y)[:5]


def _default_dt(coeffs: CoefficientSet) -> float:
    scales = []
    if coeffs.omega_star > 0:
        scales.append(2.0 * math.pi / coeffs.omega_star)
    if coeffs.gamma > 0:
        scales.append(1.0 / coeffs.gamma)
    if not scales:
        raise DomainError("cannot pick a default step for coefficient-free evolution; pass dt")
    return 0.01 * min(scales)


def evolve(state: GaussianState, params: MirrorParams, coeffs: CoefficientSet,
           t: float, dt: float | None = None) -> GaussianState:
    """Propagate the moments for a time t along their exact flow expm(G h).

    dt (default and maximum: 1% of the fastest coefficient timescale) is
    the interval at which positive-definiteness of the covariance is
    checked; it does not change the result beyond rounding. The transport
    equation is not completely positive, so a coefficient set can leave the
    physical cone; that raises StepSizeError with the time and determinant.
    """
    if t < 0:
        raise DomainError("evolution time must be >= 0")
    if t == 0.0:
        return state
    limit = _default_dt(coeffs)
    if dt is None:
        dt = limit
    elif dt <= 0:
        raise StepSizeError("dt must be positive")
    elif dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"dt = {dt:g} exceeds the stability budget {limit:g}")

    n = max(1, math.ceil(t / dt - 1e-12))
    h = t / n
    flow = expm(_state_generator(params, coeffs) * h)
    lin, src = flow[:5, :5], flow[:5, 5]
    y = np.array([state.mean_x, state.mean_p, state.cov_xx, state.cov_xp, state.cov_pp])
    for i in range(1, n + 1):
        y = lin @ y + src
        det = y[2] * y[4] - y[3] ** 2
        if not (y[2] > 0 and y[4] > 0 and det > 0):
            raise StepSizeError(
                f"covariance lost positive-definiteness at t = {i * h:.6g} "
                f"(det cov = {det:.3g}); the coefficient set drives the state "
                "out of the physical cone, which no smaller dt avoids")
    return GaussianState(*(float(v) for v in y))


def purity(state: GaussianState, constants: PhysicalConstants = CODATA) -> float:
    """Gaussian purity hbar / (2 sqrt(det cov)); 1 for minimum uncertainty."""
    return constants.hbar / (2.0 * math.sqrt(state.det_cov))


def linear_entropy(state: GaussianState, constants: PhysicalConstants = CODATA) -> float:
    """Linear entropy 1 - purity."""
    return 1.0 - purity(state, constants)


def entropy_production_rate(state: GaussianState, params: MirrorParams,
                            coeffs: CoefficientSet,
                            constants: PhysicalConstants = CODATA, *,
                            rotation_averaged: bool = False) -> float:
    """Initial linear-entropy production rate dS/dt of the state.

    Analytically, d(det cov)/dt = -4 Gamma det cov + 2 D1 cov_xx
    + 2 D2 cov_xp, and dS/dt = (hbar/4) (det cov)^(-3/2) d(det cov)/dt. With
    rotation_averaged=True the covariances entering the diffusion terms
    are replaced by their averages over one free rotation at omega_star,
    which removes the unphysical transient reward for position squeezing
    and is the quantity the sieve ranks states by.
    """
    if abs(4.0 * state.det_cov / constants.hbar**2 - 1.0) > 1e-9:
        raise DomainError("entropy production rate is defined at a pure state "
                          "(det cov = hbar^2/4 to 1e-9)")
    xx, xp, pp = state.cov_xx, state.cov_xp, state.cov_pp
    if rotation_averaged:
        if coeffs.omega_star <= 0:
            raise DomainError("rotation averaging needs omega_star > 0")
        mw = params.mass * coeffs.omega_star
        xx, xp, pp = (0.5 * (xx + pp / mw**2), 0.0, 0.5 * (pp + mw**2 * state.cov_xx))
    det = state.det_cov
    ddet = -4.0 * coeffs.gamma * det + 2.0 * coeffs.d1 * xx + 2.0 * coeffs.d2 * xp
    return 0.25 * constants.hbar * det ** (-1.5) * ddet


def secular_linear_entropy(state: GaussianState, params: MirrorParams,
                           coeffs: CoefficientSet, t: float, omega: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Linear entropy at time t from the period-averaged moment system.

    Exact closed form of the rotation-averaged (secular) covariance
    dynamics at reference frequency omega: the occupation-like invariant
    relaxes as e^(-2 gamma t) toward its diffusive steady state and the
    squeezing-correlation magnitude decays as e^(-2 gamma t); the phase of
    the squeezing ellipse is dropped. Accurate to O(gamma/omega) and
    O(D2/omega) relative to the exact dynamics, at O(1) cost for any t,
    which is what makes evaluation times of order 1/gamma reachable when
    omega/gamma is astronomically large.
    """
    if omega <= 0:
        raise DomainError("secular evaluation needs a positive reference frequency")
    if t < 0:
        raise DomainError("evolution time must be >= 0")
    hbar = constants.hbar
    mw = params.mass * omega
    occ = (mw * state.cov_xx + state.cov_pp / mw) / (2.0 * hbar)
    sq = math.hypot((mw * state.cov_xx - state.cov_pp / mw) / (2.0 * hbar),
                    state.cov_xp / hbar)
    source = coeffs.d1 / mw / hbar
    if coeffs.gamma > 0:
        decay = math.exp(-2.0 * coeffs.gamma * t)
        occ = source / (2.0 * coeffs.gamma) + (occ - source / (2.0 * coeffs.gamma)) * decay
        sq *= decay
    else:
        occ += source * t
    det_scaled = occ**2 - sq**2  # det cov / hbar^2
    if det_scaled <= 0:
        raise DomainError("secular covariance lost positivity; inconsistent inputs")
    return 1.0 - 0.5 / math.sqrt(det_scaled)


def squeezed_pure_state(r: float, theta: float, params: MirrorParams, omega: float,
                        constants: PhysicalConstants = CODATA) -> GaussianState:
    """Pure squeezed state at frequency omega: r = 0 is the coherent state.

    cov_xx = (hbar / 2 M omega) (e^-2r cos^2(theta/2) + e^2r sin^2(theta/2)),
    cov_pp = (hbar M omega / 2) (e^-2r sin^2(theta/2) + e^2r cos^2(theta/2)),
    cov_xp = -(hbar/2) sinh 2r sin theta; the determinant is hbar^2/4 for
    every (r, theta). The sums of positive terms equal cosh 2r -/+ sinh 2r
    cos theta, whose difference form cancels at theta = 0 for large r.
    """
    if omega <= 0:
        raise DomainError("squeezed state needs a positive reference frequency")
    if r < 0:
        raise NonPhysicalInput("squeezing magnitude must be >= 0")
    shrink, stretch = math.exp(-2.0 * r), math.exp(2.0 * r)
    c2, s2 = math.cos(0.5 * theta) ** 2, math.sin(0.5 * theta) ** 2
    mw = params.mass * omega
    return GaussianState(
        mean_x=0.0, mean_p=0.0,
        cov_xx=(constants.hbar / (2.0 * mw)) * (shrink * c2 + stretch * s2),
        cov_xp=-(constants.hbar / 2.0) * math.sinh(2.0 * r) * math.sin(theta),
        cov_pp=(constants.hbar * mw / 2.0) * (shrink * s2 + stretch * c2),
    )


@dataclass(frozen=True)
class SieveResult:
    """Outcome of the pointer-state sieve.

    landscape rows are (r, theta, objective rate, entropy at each
    evaluation time); argmin_r_per_time records, for every evaluation
    time, the r of the landscape row with the least entropy; stable is
    True when every one of those sits at the bottom of the r grid.
    """

    r_star: float
    theta_star: float
    rate_at_optimum: float
    eval_times: tuple[float, ...]
    landscape: tuple[tuple[float, ...], ...]
    argmin_r_per_time: tuple[float, ...]
    stable: bool


def _golden_minimize(f, lo: float, hi: float, tol: float, maxiter: int = 200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol:
        it += 1
        if it > maxiter:
            raise OptimizationFailure("golden-section search did not converge")
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# the sieve's landscape grid, and the tolerance of its minimization in r
_R_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
_THETA_GRID = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_SIEVE_TOL = 1e-6


def sieve_search(params: MirrorParams, coeffs: CoefficientSet,
                 constants: PhysicalConstants = CODATA, *,
                 r_max: float = 2.0,
                 objective: str = "rotation_averaged") -> SieveResult:
    """Predictability sieve over the pure squeezed-state family.

    Minimizes the entropy production rate over squeezing magnitude r (the
    rotation-averaged objective is independent of the squeezing angle; the
    instantaneous objective is minimized over the theta grid first). The
    robustness check re-ranks every landscape state by its entropy at each
    evaluation time, computed with secular_linear_entropy: the states
    selected by the sieve must remain at the bottom of the entropy
    landscape as the comparison time changes. Evaluation times are (0,
    0.1/Gamma, 0.5/Gamma), or 0 alone; time 0 ranks by the analytic rate.
    Following the exact flow to times of order 1/Gamma is unreachable when
    omega/Gamma is large (it resolves every rotation), so the check uses
    the closed secular form, which agrees with evolve() to O(Gamma/omega).
    """
    if coeffs.d1 <= 0:
        raise DomainError("the sieve needs a positive diffusion coefficient")
    if objective not in ("rotation_averaged", "instantaneous"):
        raise DomainError(f"unknown sieve objective {objective!r}")
    if objective == "rotation_averaged" and coeffs.omega_star <= 0:
        raise DomainError("rotation-averaged sieve needs omega_star > 0")
    omega_ref = coeffs.omega_star if coeffs.omega_star > 0 else params.omega0
    if omega_ref <= 0:
        raise DomainError("sieve needs a reference frequency for the squeezing family")

    averaged = objective == "rotation_averaged"

    def state(r, theta):
        return squeezed_pure_state(r, theta, params, omega_ref, constants)

    def rate(st):
        return entropy_production_rate(st, params, coeffs, constants,
                                       rotation_averaged=averaged)

    if averaged:
        r_star, best = _golden_minimize(lambda r: rate(state(r, 0.0)), 0.0, r_max, _SIEVE_TOL)
        theta_star = 0.0
    else:
        best = math.inf
        r_star = theta_star = 0.0
        for theta in _THETA_GRID:
            r_opt, val = _golden_minimize(lambda r: rate(state(r, theta)), 0.0, r_max, _SIEVE_TOL)
            if val < best:
                best, r_star, theta_star = val, r_opt, theta
    if abs(r_star) < _SIEVE_TOL:
        r_star = 0.0

    if coeffs.gamma > 0:
        eval_times = (0.0, 0.1 / coeffs.gamma, 0.5 / coeffs.gamma)
    else:
        eval_times = (0.0,)

    rows = []
    for r in _R_GRID:
        for theta in (_THETA_GRID if r > 0 else (0.0,)):
            st = state(r, theta)
            rate_st = rate(st)
            rows.append((r, theta, rate_st, *(
                rate_st if te == 0.0
                else secular_linear_entropy(st, params, coeffs, te, omega_ref, constants)
                for te in eval_times)))

    # the r of the least-entropy row at each evaluation time (columns 3 on)
    argmin_r = [min(rows, key=lambda row: row[j])[0]
                for j in range(3, 3 + len(eval_times))]
    r_floor = min(_R_GRID)
    stable = all(r == r_floor for r in argmin_r) if averaged else True

    return SieveResult(
        r_star=r_star,
        theta_star=theta_star,
        rate_at_optimum=best,
        eval_times=eval_times,
        landscape=tuple(rows),
        argmin_r_per_time=tuple(argmin_r),
        stable=stable,
    )
