"""The package surface: each library module's __all__ names what it has,
and the package re-exports every one of those names."""

import importlib

import pytest

import casidec

MODULES = ["params", "spectra_damping", "decoherence_times", "pair_emission",
           "gaussian_dynamics", "wigner_solver"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists_and_is_re_exported(name):
    module = importlib.import_module(f"casidec.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"casidec.{name}.__all__ names what it lacks"
    unexported = [n for n in module.__all__
                  if getattr(casidec, n, None) is not getattr(module, n)]
    assert unexported == [], f"casidec does not re-export these from {name}"
