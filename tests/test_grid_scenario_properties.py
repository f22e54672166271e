"""Property tests of the scenarios: every draw of their numeric keys within
the config schema either runs or raises a CasidecError, never an untyped
error or a RuntimeWarning, and an oracle draw with a cross diffusion
d2 != 0 is refused by that key.

The grids are small (16 to 64 a side) and the step budget is cut to a few
hundred steps, so a draw that asks for more is refused by the same
ConfigError that guards the full cap. The closed-form scenarios draw their
float keys over the whole double range.
"""

import math
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from casidec import scenarios
from casidec.errors import CasidecError, ConfigError, RegimeWarning

_STEP_BUDGET = 300


def _number(draw, lo, hi):
    """Mostly a value in [lo, hi], where runs are likely; one draw in ten is
    any finite float, which the schema also accepts."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.floats(lo, hi))


def _dt_for(draw, span):
    """A step that tiles span in at most ten steps, or any float."""
    if span > 0 and math.isfinite(span) and draw(st.integers(0, 9)) > 0:
        return span / draw(st.integers(1, 10))
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _grid_size(draw):
    return {"nx": draw(st.integers(16, 64)), "np": draw(st.integers(16, 64))}


@st.composite
def _cat_overrides(draw):
    alpha = _number(draw, 0.05, 1.0)
    d1 = _number(draw, 0.05, 5.0)
    t_over = _number(draw, 0.2, 3.0)
    n_samples = draw(st.integers(1, 30))
    try:
        span = t_over * 2.0 / (d1 * (4.0 * alpha) ** 2) / n_samples
    except (ArithmeticError, ValueError):
        span = math.nan
    return {
        "cat": {"alpha_mag": alpha, "phase": _number(draw, -math.pi, math.pi)},
        "coefficients": {"d1": d1, "gamma": _number(draw, 0.0, 0.5)},
        "grid": _grid_size(draw),
        "time": {"dt": _dt_for(draw, span), "n_samples": n_samples},
        "t_end_over_td": t_over,
    }


@st.composite
def _oracle_overrides(draw):
    co = {"mass": _number(draw, 0.3, 1.5), "omega": _number(draw, 0.5, 2.0),
          "gamma": _number(draw, 0.0, 0.3), "d1": _number(draw, 0.0, 0.05),
          # mostly 0, the only d2 the grid takes, so most draws reach the grid
          "d2": 0.0 if draw(st.integers(0, 9)) > 0 else _number(draw, -0.05, 0.05)}
    dt_periods = _number(draw, 5e-4, 6e-3)
    n_samples = draw(st.integers(1, 10))
    try:
        # widths near the oscillator's own ratio, and a box that holds the
        # free rotation of the mean and of the widths
        mw = co["mass"] * co["omega"]
        xx = draw(st.floats(0.5, 2.0))
        pp = xx * mw**2 * draw(st.floats(0.5, 2.0))
        mean = (draw(st.floats(-1.0, 1.0)), mw * draw(st.floats(-1.0, 1.0)))
        reach = math.hypot(mean[0], mean[1] / mw)
        box = (1.2 * (reach + 8.0 * math.sqrt(xx + pp / mw**2)),
               1.2 * (mw * reach + 8.0 * math.sqrt(pp + mw**2 * xx)))
        t_end = dt_periods * 2.0 * math.pi / co["omega"] * draw(st.integers(1, 30)) * n_samples
        # a product that overflows gives inf or NaN without raising, and a
        # NaN bound is no strategy at all
        if not all(map(math.isfinite, (pp, *mean, *box, math.sqrt(xx * pp)))):
            raise OverflowError("a derived value leaves the double range")
    except (ArithmeticError, ValueError):
        xx, pp, mean, box, t_end = 1.0, 0.25, (0.0, 0.0), (10.0, 5.0), math.nan
    if not (math.isfinite(t_end) and t_end > 0) or draw(st.integers(0, 9)) == 0:
        t_end = draw(st.floats(allow_nan=False, allow_infinity=False))
    # _number(draw, v, v): the derived value v, or any float one time in ten
    return {
        "coefficients": co,
        "initial": {"mean_x": _number(draw, mean[0], mean[0]),
                    "mean_p": _number(draw, mean[1], mean[1]),
                    "cov_xx": _number(draw, xx, xx),
                    "cov_xp": _number(draw, -0.3, 0.3) * math.sqrt(xx * pp),
                    "cov_pp": _number(draw, pp, pp)},
        "grid": {**_grid_size(draw), "x_half_width": _number(draw, box[0], box[0]),
                 "p_half_width": _number(draw, box[1], box[1])},
        "time": {"dt_periods": dt_periods, "t_end": t_end, "n_samples": n_samples},
    }


def _run(name, overrides):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            mock.patch.object(scenarios, "_MAX_GRID_STEPS", _STEP_BUDGET):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", RegimeWarning)
        scenarios.run_scenario(name, overrides, out_base=out)


def _runs_or_fails_typed(name, overrides):
    try:
        _run(name, overrides)
    except CasidecError:
        pass


def _strongly_damped_cat(gamma):
    return {"cat": {"alpha_mag": 0.25, "phase": 0.0},
            "coefficients": {"d1": 1.0, "gamma": gamma},
            "grid": {"nx": 16, "np": 26}, "time": {"dt": 1.0, "n_samples": 1},
            "t_end_over_td": 1.0}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cat_overrides())
# dampings this strong used to overflow in the box check, untyped
@example(_strongly_damped_cat(4.9935920412842106e+306))
@example(_strongly_damped_cat(2.247116418577895e+307))
@example(_strongly_damped_cat(8.98846567431158e+307))
def test_cat_scenario_draws_run_or_fail_typed(overrides):
    _runs_or_fails_typed("wigner-cat-highT", overrides)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_oracle_overrides())
def test_oracle_scenario_draws_run_or_fail_typed(overrides):
    if overrides["coefficients"]["d2"] != 0:
        with pytest.raises(ConfigError, match="'coefficients.d2'"):
            _run("wigner-gaussian-oracle", overrides)
    else:
        _runs_or_fails_typed("wigner-gaussian-oracle", overrides)


_CLOSED_FORM = ("1d-mirror-vacuum", "sphere-rayleigh-vacuum", "sphere-thermal-free",
                "cosmic-background-sphere", "sieve-pointer-states", "identity-suite")


def _any_double(draw):
    """A finite double, log-uniform in magnitude over the whole range and
    negative one time in ten, or one time in ten 0, the smallest subnormal
    or the largest double."""
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return draw(st.sampled_from([0.0, 5e-324, sys.float_info.max]))
    return (-1.0 if pick == 1 else 1.0) * 10.0 ** draw(st.floats(-323.0, 308.0))


@st.composite
def _closed_form_draw(draw):
    """A closed-form scenario, and overrides that redraw each of its float
    keys one time in two; counts stay small, so a draw runs in milliseconds."""
    name = draw(st.sampled_from(_CLOSED_FORM))

    def redraw(tree):
        out = {}
        for key, value in tree.items():
            if isinstance(value, dict):
                out[key] = redraw(value)
            elif isinstance(value, list):
                out[key] = [_any_double(draw) for _ in value]
            elif isinstance(value, float) and draw(st.booleans()):
                out[key] = _any_double(draw)
        return out

    overrides = redraw({key: value for key, value in scenarios.scenario_defaults(name).items()
                        if key != "output"})
    if name == "identity-suite":
        overrides["draws"] = draw(st.integers(1, 20))
    if name == "sieve-pointer-states":
        overrides["objective"] = draw(st.sampled_from(["rotation_averaged", "instantaneous"]))
    return name, overrides


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_closed_form_draw())
# lifetimes of 0 and inf used to reach t / td in the series, untyped
@example(("sphere-thermal-free", {"mirror": {"mass": 5.5e26, "radius": 1.1e154}}))
@example(("sphere-rayleigh-vacuum", {"mirror": {"mass": 2.6e-9, "omega0": 1.7e-24}}))
@example(("cosmic-background-sphere", {"mirror": {"mass": 3.1e-8, "temperature": 4.4e62},
                                       "delta_x": 2.8e16}))
@example(("1d-mirror-vacuum", {"mirror": {"omega0": 1e-141}}))
# the identity suite's numpy draws used to overflow, or divide by an
# alpha^2 that underflowed to 0, with a RuntimeWarning
@example(("identity-suite", {"draws": 1, "ranges": {"alpha": [1e-251, 1e-251]}}))
@example(("identity-suite", {"draws": 1, "ranges": {"mass_kg": [1e29, 1e29],
                                                    "temperature_K": [1e70, 1e70]}}))
def test_closed_form_scenario_draws_run_or_fail_typed(draw):
    _runs_or_fails_typed(*draw)
