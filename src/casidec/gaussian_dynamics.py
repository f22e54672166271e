"""Gaussian moment dynamics under the phase-space transport equation.

The transport equation for the Wigner distribution,

    dW/dt = -(p/M) dW/dx + M omega*^2 x dW/dp + 2 Gamma d(p W)/dp
            + D1 d^2W/dp^2 - D2 d^2W/(dx dp),

closes on the first and second moments of any Gaussian state, a linear
system with a constant source whose exact flow is one matrix exponential
(Van Loan 1978), the scaling and squaring _expm1 that the grid solver shares:

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
short times), so the sieve takes the rate averaged over one free rotation,
in closed form, which is what the evolved entropy at times long against the
period measures. Under that averaging the coherent state (zero squeezing) is
the strict minimum whenever the diffusion enters through the momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPhysicalInput, StepSizeError
from .params import CODATA, MirrorParams, PhysicalConstants
from .spectra_damping import CoefficientSet

__all__ = [
    "GaussianState",
    "evolve",
    "purity",
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
        moments = (self.mean_x, self.mean_p, self.cov_xx, self.cov_xp, self.cov_pp)
        if not all(math.isfinite(v) for v in moments):
            raise NonPhysicalInput(f"moments must be finite, got {moments}")
        if not (self.cov_xx > 0 and self.cov_pp > 0):
            raise NonPhysicalInput("diagonal covariances must be positive")
        if self.det_cov <= 0:
            raise NonPhysicalInput("covariance matrix must be positive definite")

    @property
    def det_cov(self) -> float:
        return self.cov_xx * self.cov_pp - self.cov_xp**2


def _generator(inv_mass: float, spring: float, gamma: float, d1: float,
               d2: float) -> np.ndarray:
    """dy/dt = G y for y = (mean_x, mean_p, cov_xx, cov_xp, cov_pp, 1).

    spring is M omega*^2. The means follow the drift A = G[:2, :2], the
    covariance A cov + cov A^T plus the diffusion source that the constant
    sixth component carries, so I + _expm1(G h) is the exact flow over h.
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


def _expm1(m):
    """exp(m) - I, by scaling and squaring on E = exp - I itself: a Taylor
    sum at norm 1/64, then E(2X) = 2 E(X) + E(X)^2.

    Small entries keep their relative precision, which exp(m) - I read off
    a rounded exp(m) loses: the drift's 1 - cos(w dt) and w^2 dt at any dt
    and any w, and the blur's dt^3 position variance. Entries that vanish
    stay exactly zero.
    """
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    squarings = max(0, math.ceil(math.log2(64.0 * norm))) if norm > 0 else 0
    x = m / 2.0**squarings
    e = term = x
    for k in range(2, 8):
        term = term @ x / k
        e = e + term
    for _ in range(squarings):
        e = 2.0 * e + e @ e
    return e


def _state_generator(params: MirrorParams, coeffs: CoefficientSet) -> np.ndarray:
    return _generator(1.0 / params.mass, params.mass * coeffs.omega_star**2,
                      coeffs.gamma, coeffs.d1, coeffs.d2)


def _default_dt(coeffs: CoefficientSet) -> float:
    scales = []
    if coeffs.omega_star > 0:
        scales.append(2.0 * math.pi / coeffs.omega_star)
    if coeffs.gamma > 0:
        scales.append(1.0 / coeffs.gamma)
    if not scales:
        raise DomainError("cannot pick a default step for coefficient-free evolution; pass dt")
    return 0.01 * min(scales)


# the most positivity checks one evolve call runs, each a Python-level step:
# a default oracle leg takes about 8, and the longest leg an accepted oracle
# config can ask for about 500,000 (100,000 grid steps, each at most five
# checks long under the grid's damping guard)
_MAX_CHECKS = 1_000_000


def evolve(state: GaussianState, params: MirrorParams, coeffs: CoefficientSet,
           t: float, dt: float | None = None) -> GaussianState:
    """Propagate the moments for a time t along their exact flow exp(G h).

    dt (default and maximum: 1% of the fastest coefficient timescale) is
    the interval at which positive-definiteness of the covariance is
    checked; it does not change the result beyond rounding. A coefficient set
    can leave the physical cone (the transport equation is not completely
    positive) or the double range: StepSizeError names the time (and det cov).
    A span that needs more than _MAX_CHECKS checks is refused up front with
    StepSizeError, naming t, dt and the count.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"evolution time must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return state
    limit = _default_dt(coeffs)
    if dt is None:
        dt = limit
    elif not dt > 0:
        raise StepSizeError("dt must be positive")
    elif dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"dt = {dt:g} exceeds {limit:g}, the longest interval between "
                            "positivity checks (the flow itself is exact at any step)")

    if not t / dt < math.inf:
        raise StepSizeError(f"the span {t!r} over dt = {dt!r} overflows the step count")
    n = max(1, math.ceil(t / dt - 1e-12))
    if n > _MAX_CHECKS:
        raise StepSizeError(
            f"t = {t:.6g}, dt = {dt:.6g}: {n} positivity checks, more than the "
            f"{_MAX_CHECKS} one call takes; evolve over shorter spans")
    h = t / n
    try:
        with np.errstate(over="raise", invalid="raise"):
            flow = np.eye(6) + _expm1(_state_generator(params, coeffs) * h)
    except (FloatingPointError, OverflowError) as exc:
        raise StepSizeError(f"the flow from t = 0 to t = {h:.6g} leaves the double range") from exc
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


def secular_linear_entropy(state: GaussianState, params: MirrorParams,
                           coeffs: CoefficientSet, t: float,
                           constants: PhysicalConstants = CODATA) -> float:
    """Linear entropy at time t from the period-averaged moment system.

    Exact closed form of the rotation-averaged (secular) covariance
    dynamics at the frequency omega_star: the occupation-like invariant
    relaxes as e^(-2 gamma t) toward its diffusive steady state and the
    squeezing-correlation magnitude decays as e^(-2 gamma t); the phase of
    the squeezing ellipse is dropped. Accurate to O(gamma/omega) and
    O(D2/omega) relative to the exact dynamics, at O(1) cost for any t,
    which is what makes evaluation times of order 1/gamma reachable when
    omega/gamma is astronomically large.
    """
    if coeffs.omega_star <= 0:
        raise DomainError("secular evaluation needs omega_star > 0")
    if t < 0:
        raise DomainError("evolution time must be >= 0")
    hbar = constants.hbar
    mw = params.mass * coeffs.omega_star
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

    landscape rows are (r, rotation-averaged rate, entropy at each
    evaluation time), one per r of the grid; r_star and rate_at_optimum
    are the row with the least rate; argmin_r_per_time records, for every
    evaluation time, the r of the row with the least entropy; stable is
    True when every one of those sits at the bottom of the r grid.
    """

    r_star: float
    rate_at_optimum: float
    eval_times: tuple[float, ...]
    landscape: tuple[tuple[float, ...], ...]
    argmin_r_per_time: tuple[float, ...]
    stable: bool


# the sieve's landscape grid in squeezing magnitude r
_R_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def sieve_search(params: MirrorParams, coeffs: CoefficientSet,
                 constants: PhysicalConstants = CODATA) -> SieveResult:
    """Predictability sieve over the pure squeezed-state family.

    Ranks the squeezed states of the r grid by their rotation-averaged
    entropy production rate, taken in closed form: at a pure state,
    dS/dt = (hbar/4) (det cov)^(-3/2) (-4 Gamma det cov + 2 D1 cov_xx), with
    cov_xx averaged over a rotation to hbar cosh 2r / (2 M omega*), is
    2 (-Gamma + D1 cosh 2r / (hbar M omega*)): free of the squeezing angle,
    so every row sits at theta = 0, and strictly rising in r, so the least
    rate is the coherent state r = 0, a point of the grid. The robustness
    check re-ranks every landscape state by its entropy at each evaluation
    time, computed with secular_linear_entropy: the selected state must
    remain at the bottom of the entropy landscape as the comparison time
    changes. Evaluation times are (0, 0.1/Gamma, 0.5/Gamma), or 0 alone;
    time 0 ranks by the analytic rate. Following the exact flow to times of
    order 1/Gamma is unreachable when omega/Gamma is large (it resolves
    every rotation), so the check uses the closed secular form, which
    agrees with evolve() to O(Gamma/omega).
    """
    if coeffs.d1 <= 0:
        raise DomainError("the sieve needs a positive diffusion coefficient")
    if coeffs.omega_star <= 0:
        raise DomainError("the rotation-averaged sieve needs omega_star > 0")

    if coeffs.gamma > 0:
        eval_times = (0.0, 0.1 / coeffs.gamma, 0.5 / coeffs.gamma)
    else:
        eval_times = (0.0,)

    hbar_mw = constants.hbar * params.mass * coeffs.omega_star
    rows = []
    for r in _R_GRID:
        st = squeezed_pure_state(r, 0.0, params, coeffs.omega_star, constants)
        rate = 2.0 * (coeffs.d1 * math.cosh(2.0 * r) / hbar_mw - coeffs.gamma)
        rows.append((r, rate, *(
            rate if te == 0.0
            else secular_linear_entropy(st, params, coeffs, te, constants)
            for te in eval_times)))

    r_star, rate_at_optimum = min(rows, key=lambda row: row[1])[:2]
    # the r of the least-entropy row at each evaluation time (columns 2 on)
    argmin_r = [min(rows, key=lambda row: row[j])[0]
                for j in range(2, 2 + len(eval_times))]

    return SieveResult(
        r_star=r_star,
        rate_at_optimum=rate_at_optimum,
        eval_times=eval_times,
        landscape=tuple(rows),
        argmin_r_per_time=tuple(argmin_r),
        stable=all(r == _R_GRID[0] for r in argmin_r),
    )
