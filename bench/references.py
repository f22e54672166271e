"""Exact references the benchmark checks the program against.

Everything here is closed form or a matrix exponential; none of it calls
into casidec, so a change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# CODATA 2018 exact SI values
HBAR = 1.054571817e-34
C = 299792458.0
K_B = 1.380649e-23

# ground-state spreads on the solver grid (hbar_eff = 1, mass 1/2, omega 1)
SIGMA_X = 1.0
SIGMA_P = 0.5


def diffused_cat_field(x, p, alpha_mag: float, phase: float, d1: float, t: float):
    """Position-separated cat Wigner function after pure momentum diffusion.

    With no drift the transport equation is the heat equation in p, so the
    field is the initial one convolved in p with variance b = 2 d1 t. With
    a = sigma_p^2 each envelope exp(-p^2/2a) widens to
    sqrt(a/(a+b)) exp(-p^2/2(a+b)); the fringe term cos(k p - phase) also
    slows to wavenumber k a/(a+b) and loses exp(-k^2 a b / 2(a+b)).
    x and p broadcast against each other.
    """
    sep = 4.0 * alpha_mag
    half, k = 0.5 * sep, sep
    a = SIGMA_P**2
    b = 2.0 * d1 * t
    s = a + b
    env_p = math.sqrt(a / s) * np.exp(-p**2 / (2.0 * s))
    lobes = (np.exp(-(x - half) ** 2 / (2.0 * SIGMA_X**2))
             + np.exp(-(x + half) ** 2 / (2.0 * SIGMA_X**2))) * env_p
    fringes = (2.0 * np.exp(-x**2 / (2.0 * SIGMA_X**2)) * env_p
               * np.cos(k * a * p / s - phase) * math.exp(-k**2 * a * b / (2.0 * s)))
    norm = 1.0 / (2.0 * math.pi * SIGMA_X * SIGMA_P)
    overlap = math.exp(-sep**2 / (8.0 * SIGMA_X**2))
    return norm * (lobes + fringes) / (2.0 * (1.0 + math.cos(phase) * overlap))


def moment_generator(mass: float, omega: float, gamma: float, d1: float, d2: float):
    """6x6 generator of (mean_x, mean_p, cov_xx, cov_xp, cov_pp, 1).

    The Gaussian moments of the transport equation obey a linear system
    with a constant source; carrying the constant as a sixth component
    makes the flow a single matrix exponential.
    """
    k = mass * omega**2
    g = np.zeros((6, 6))
    g[0, 1] = 1.0 / mass
    g[1, 0], g[1, 1] = -k, -2.0 * gamma
    g[2, 3] = 2.0 / mass
    g[3, 2], g[3, 3], g[3, 4], g[3, 5] = -k, -2.0 * gamma, 1.0 / mass, -d2
    g[4, 3], g[4, 4], g[4, 5] = -2.0 * k, -4.0 * gamma, 2.0 * d1
    return g


def moment_flow(generator, moments0, times):
    """Exact moments at each time: rows of (mean_x, mean_p, cov_xx, cov_xp, cov_pp)."""
    y0 = np.append(np.asarray(moments0, dtype=float), 1.0)
    return np.array([(expm(generator * t) @ y0)[:5] for t in times])


def gaussian_field(x, p, moments):
    """Wigner function of the Gaussian with the given five moments."""
    mx, mp_, xx, xp, pp = moments
    det = xx * pp - xp**2
    dx, dp = x - mx, p - mp_
    quad = (pp * dx**2 - 2.0 * xp * dx * dp + xx * dp**2) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def peak_relative_errors(measured, exact):
    """Per column, max |measured - exact| over the column's peak |exact|.

    This is the quantity the grid-oracle scenario reports against its own
    integrator (criterion 6), here taken against the exact flow.
    """
    measured, exact = np.asarray(measured), np.asarray(exact)
    return np.max(np.abs(measured - exact), axis=0) / np.max(np.abs(exact), axis=0)
