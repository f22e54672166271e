"""Vacuum-friction decoherence toolkit.

Damping rates and decoherence times for superpositions of mirror motional
states coupled to the radiation field, Gaussian moment dynamics with a
predictability sieve, and a phase-space grid solver for watching the
interference fringes die.

Each library module's __all__ declares its public names (errors exports
every class it defines), and the package re-exports all of them.
"""

from .errors import *
from .params import *
from .spectra_damping import *
from .decoherence_times import *
from .pair_emission import *
from .gaussian_dynamics import *
from .wigner_solver import *

__version__ = "0.1.0"
