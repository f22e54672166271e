"""Perturbative photon-pair emission and which-way overlap decay.

An oscillating mirror in vacuum dresses itself with two-photon states. For
a superposition of two opposite-phase oscillations the emitted pairs carry
which-way information, and the field-state overlap between the two
branches decays with the accumulated pair weight. The linear (short-time)
branch is the literal perturbative result; the exponentiated branch resums
it into exp(-t/td) with the same initial slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonPhysicalInput

__all__ = [
    "PairEmissionState",
    "pair_probability",
    "which_way_overlap",
    "reduced_offdiagonal_weight",
    "emission_state",
]


@dataclass(frozen=True)
class PairEmissionState:
    """Snapshot of the dressed-mirror field state at time t.

    pair_weight is the accumulated two-photon weight (the perturbative
    sum of squared pair amplitudes), vacuum_weight the surviving
    no-emission weight, clamped at 0 once the linear expansion leaves its
    window. perturbative is False once 4 |alpha|^2 Gamma t exceeds 1.
    """

    time: float
    pair_weight: float
    vacuum_weight: float
    overlap: float
    perturbative: bool


def pair_probability(t: float, alpha_mag: float, gamma: float) -> float:
    """Accumulated pair weight 2 |alpha|^2 Gamma t of both branches.

    Grows linearly without saturation: over a full damping time 1/Gamma it
    reaches 2 |alpha|^2, the total expected pair count, which is far past
    the perturbative window 4 |alpha|^2 Gamma t <= 1. Interpret values
    above ~1/2 as expected counts rather than probabilities.
    """
    if t < 0:
        raise DomainError("pair weight needs t >= 0")
    if alpha_mag < 0 or gamma < 0:
        raise NonPhysicalInput("alpha_mag and gamma must be >= 0")
    return 2.0 * alpha_mag**2 * gamma * t


def which_way_overlap(t: float, alpha_mag: float, gamma: float, *,
                      exponentiated: bool = True) -> float:
    """Overlap of the two branches' field states at time t.

    Linear branch: 1 - 2 * pair_weight = 1 - 4 |alpha|^2 Gamma t, clamped
    at -1. Exponentiated branch (default): exp(-t/td) with
    td = 1 / (4 |alpha|^2 Gamma), matching the linear slope at t = 0. The
    overlap crosses zero (linear) or 1/e (exponentiated) at td.
    """
    if t < 0:
        raise DomainError("overlap needs t >= 0")
    if alpha_mag <= 0 or gamma <= 0:
        raise NonPhysicalInput("alpha_mag and gamma must be positive")
    rate = 4.0 * alpha_mag**2 * gamma
    if exponentiated:
        return math.exp(-rate * t)
    return max(1.0 - rate * t, -1.0)


def reduced_offdiagonal_weight(t: float, alpha_mag: float, gamma: float, *,
                               exponentiated: bool = True) -> float:
    """Off-diagonal coefficient of the mirror's reduced density matrix.

    Tracing the field out of the dressed superposition leaves the
    coherence suppressed by half the branch overlap.
    """
    return 0.5 * which_way_overlap(t, alpha_mag, gamma, exponentiated=exponentiated)


def emission_state(t: float, alpha_mag: float, gamma: float, *,
                   exponentiated: bool = False) -> PairEmissionState:
    """Assemble the full emission snapshot at time t.

    In the linear branch vacuum_weight + pair_weight = 1 holds exactly
    while the expansion is valid; vacuum_weight is clamped at 0 beyond it
    and the perturbative flag records the breach.
    """
    weight = pair_probability(t, alpha_mag, gamma)
    perturbative = 2.0 * weight <= 1.0
    overlap = which_way_overlap(t, alpha_mag, gamma, exponentiated=exponentiated) \
        if alpha_mag > 0 and gamma > 0 else 1.0
    return PairEmissionState(
        time=t,
        pair_weight=weight,
        vacuum_weight=max(1.0 - weight, 0.0),
        overlap=overlap,
        perturbative=perturbative,
    )
