"""The package surface: each library module's __all__ names what it has,
the package re-exports every one of those names, and importing the CLI
loads no scipy and no mpmath."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_the_cli_imports_no_scipy_and_no_mpmath():
    # the moment flow's exponential is numpy's own (gaussian_dynamics._expm1),
    # the stretch imports scipy.ndimage on its first call
    # (wigner_solver.map_coordinates), and only diffusion_finite_time imports
    # mpmath: a fresh interpreter that imports the CLI has loaded neither
    src = str(Path(casidec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, casidec.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('scipy', 'mpmath')))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
