"""Physical constants, system parameters, and regime validation.

All quantities are SI at the API boundary: kg, rad/s, K, m. Tests and
desk-scale scenarios may substitute natural units (hbar = c = kB = 1)
through an explicit PhysicalConstants instance; nothing in this module
assumes a particular unit system beyond positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, NonPhysicalInput

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "MirrorParams",
    "CatSpec",
    "DerivedQuantities",
    "RegimeCheck",
    "ValidationReport",
    "validate",
    "derived_quantities",
    "ground_state_width",
    "packet_velocity",
    "thermal_de_broglie",
    "separation_from_alpha",
    "alpha_from_separation",
    "resolve_cat",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants. Defaults are CODATA 2018 exact SI values."""

    hbar: float = 1.054571817e-34      # J s
    c: float = 299792458.0             # m/s
    k_boltzmann: float = 1.380649e-23  # J/K

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0 and self.k_boltzmann > 0):
            raise NonPhysicalInput("all fundamental constants must be positive")

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        """hbar = c = kB = 1, for desk-scale and unit tests."""
        return cls(hbar=1.0, c=1.0, k_boltzmann=1.0)


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class MirrorParams:
    """Mass, trap frequency, temperature, and geometry of the moving scatterer.

    omega0 = 0 denotes a free particle. radius is only meaningful for
    sphere geometries.
    """

    mass: float
    omega0: float = 0.0        # rad/s; 0 = free particle
    temperature: float = 0.0   # K
    radius: float = 0.0        # m, for sphere scatterers

    def __post_init__(self):
        if not (self.mass > 0) or math.isnan(self.mass) or math.isinf(self.mass):
            raise NonPhysicalInput(f"mass must be positive and finite, got {self.mass}")
        for name in ("omega0", "temperature", "radius"):
            v = getattr(self, name)
            if v < 0 or math.isnan(v) or math.isinf(v):
                raise NonPhysicalInput(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class CatSpec:
    """Superposition of two coherent wave packets.

    Specify exactly one of (alpha_mag, delta_x); the other is derived
    through the packet-separation relation once a MirrorParams context is
    supplied, and resolve_cat returns a spec with both filled in. phase is
    the relative phase of the two branches in radians.
    """

    alpha_mag: float | None = None
    delta_x: float | None = None   # m, separation between packet centers
    phase: float = 0.0

    def __post_init__(self):
        if self.alpha_mag is None and self.delta_x is None:
            raise NonPhysicalInput("specify one of alpha_mag, delta_x")
        for v in (self.alpha_mag, self.delta_x):
            if v is not None and (v < 0 or math.isnan(v) or math.isinf(v)):
                raise NonPhysicalInput(f"cat amplitude/separation must be finite and >= 0, got {v}")
        if math.isnan(self.phase) or math.isinf(self.phase):
            raise NonPhysicalInput("phase must be finite")


def ground_state_width(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Ground-state position spread sqrt(hbar / (2 M omega0)) of the trap."""
    if params.omega0 <= 0:
        raise DomainError("ground-state width needs omega0 > 0")
    return math.sqrt(constants.hbar / (2.0 * params.mass * params.omega0))


def separation_from_alpha(alpha_mag: float, params: MirrorParams,
                          constants: PhysicalConstants = CODATA) -> float:
    """Packet-center separation 2 sqrt(2 hbar / (M omega0)) |alpha|."""
    if params.omega0 <= 0:
        raise DomainError("separation from amplitude needs omega0 > 0")
    return 2.0 * math.sqrt(2.0 * constants.hbar / (params.mass * params.omega0)) * alpha_mag


def alpha_from_separation(delta_x: float, params: MirrorParams,
                          constants: PhysicalConstants = CODATA) -> float:
    """Inverse of separation_from_alpha."""
    if params.omega0 <= 0:
        raise DomainError("amplitude from separation needs omega0 > 0")
    return delta_x / (2.0 * math.sqrt(2.0 * constants.hbar / (params.mass * params.omega0)))


def packet_velocity(params: MirrorParams, alpha_mag: float,
                    constants: PhysicalConstants = CODATA) -> float:
    """Peak oscillation velocity sqrt(2 hbar omega0 / M) |alpha|."""
    if params.omega0 <= 0:
        raise DomainError("packet velocity needs omega0 > 0")
    return math.sqrt(2.0 * constants.hbar * params.omega0 / params.mass) * alpha_mag


def thermal_de_broglie(params: MirrorParams, constants: PhysicalConstants = CODATA) -> float:
    """Thermal de Broglie length hbar / sqrt(2 M kB T)."""
    if params.temperature <= 0:
        raise DomainError("thermal de Broglie length needs temperature > 0")
    return constants.hbar / math.sqrt(2.0 * params.mass * constants.k_boltzmann * params.temperature)


def resolve_cat(cat: CatSpec, params: MirrorParams,
                constants: PhysicalConstants = CODATA) -> CatSpec:
    """Fill in the derived member of (alpha_mag, delta_x).

    Requires omega0 > 0 since the conversion uses the trap length scale.
    """
    if cat.alpha_mag is not None and cat.delta_x is not None:
        return cat
    if cat.alpha_mag is not None:
        return replace(cat, delta_x=separation_from_alpha(cat.alpha_mag, params, constants))
    return replace(cat, alpha_mag=alpha_from_separation(cat.delta_x, params, constants))


@dataclass(frozen=True)
class DerivedQuantities:
    """Derived length and velocity scales for a resolved configuration."""

    ground_width: float          # m
    packet_velocity: float       # m/s
    delta_x: float               # m
    alpha_mag: float


def derived_quantities(params: MirrorParams, cat: CatSpec,
                       constants: PhysicalConstants = CODATA) -> DerivedQuantities:
    """Compute the standard derived scales; raises DomainError when omega0 = 0."""
    cat = resolve_cat(cat, params, constants)
    return DerivedQuantities(
        ground_width=ground_state_width(params, constants),
        packet_velocity=packet_velocity(params, cat.alpha_mag, constants),
        delta_x=cat.delta_x,
        alpha_mag=cat.alpha_mag,
    )


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    passed: bool
    value: float
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the regime validation: one record per check."""

    checks: tuple[RegimeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> RegimeCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# validate's gates: the nonrelativistic ratio, the least and the comfortable |alpha|
_NONRELATIVISTIC_THRESHOLD = 1e-6
_ALPHA_MIN = 3.0
_ALPHA_COMFORTABLE = 10.0


def validate(params: MirrorParams, cat: CatSpec | None = None,
             constants: PhysicalConstants = CODATA) -> ValidationReport:
    """Regime validation for the perturbative vacuum-friction treatment.

    Non-physical inputs raise at construction time; everything here is a
    soft regime check collected into the report. The key gate is the
    nonrelativistic ratio hbar omega0 / (M c^2) << 1, which controls the
    perturbative elimination of the field.
    """
    checks = []
    if params.omega0 > 0:
        ratio = constants.hbar * params.omega0 / (params.mass * constants.c**2)
        checks.append(RegimeCheck(
            name="nonrelativistic",
            passed=ratio < _NONRELATIVISTIC_THRESHOLD,
            value=ratio,
            note="hbar*omega0/(M c^2) must be small for the weak-coupling expansion",
        ))
    if cat is not None:
        if params.omega0 > 0:
            cat = resolve_cat(cat, params, constants)
        if cat.alpha_mag is not None:
            note = ""
            if cat.alpha_mag < _ALPHA_COMFORTABLE:
                note = "amplitude below the comfortably-large regime; results are marginal"
            checks.append(RegimeCheck(
                name="large_amplitude",
                passed=cat.alpha_mag >= _ALPHA_MIN,
                value=cat.alpha_mag,
                note=note,
            ))
    return ValidationReport(checks=tuple(checks))
