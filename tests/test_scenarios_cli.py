"""Registry and CLI behavior: deterministic artifacts, config merging,
exit codes."""

import dataclasses
import errno
import json
import math
import pathlib
import re
import time

import numpy as np
import pytest

from casidec import cli, errors, scenarios
from casidec.cli import main
from casidec.errors import ConfigError, DomainError, UnknownScenario
from casidec.scenarios import (
    _COUNT_BOUNDS,
    _merge_config,
    describe,
    format_float,
    list_scenarios,
    run_scenario,
    scenario_defaults,
)

EXPECTED_NAMES = [
    "1d-mirror-vacuum",
    "sphere-rayleigh-vacuum",
    "sphere-thermal-free",
    "cosmic-background-sphere",
    "sieve-pointer-states",
    "wigner-cat-highT",
    "wigner-gaussian-oracle",
    "identity-suite",
]

# cosmic-background anchor: micron coherence in the 2.7 K photon bath
TD_COSMIC = 2.6552247664074382e-09


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ------------------------------------------------------------- registry


def test_registry_lists_every_scenario_in_order():
    assert [name for name, _ in list_scenarios()] == EXPECTED_NAMES


def test_describe_carries_summary_and_defaults():
    text = describe("cosmic-background-sphere")
    assert text.startswith("cosmic-background-sphere\n")
    assert "2.7 K" in text
    assert '"delta_x"' in text and '"series_points": 25' in text


def test_describe_unknown_scenario():
    with pytest.raises(UnknownScenario):
        describe("warp-drive")


def test_scenario_defaults_are_copies():
    first = scenario_defaults("cosmic-background-sphere")
    first["mirror"]["radius"] = 123.0
    assert scenario_defaults("cosmic-background-sphere")["mirror"]["radius"] == 1e-2


def test_cosmic_background_run(tmp_path):
    rep = run_scenario("cosmic-background-sphere", {"series_points": 5},
                       out_base=str(tmp_path))
    routes = rep.summary["derived"]["td_routes_s"]
    assert routes["combined"] == pytest.approx(TD_COSMIC, rel=1e-12)
    assert routes["thermal_length"] == pytest.approx(TD_COSMIC, rel=1e-12)
    assert routes["diffusion"] == pytest.approx(TD_COSMIC, rel=1e-12)
    assert rep.summary["derived"]["td_times_dx2_s_m2"] == pytest.approx(
        2.655224766407438e-21, rel=1e-12)

    assert rep.artifacts == ("summary.json", "series.csv")
    on_disk = json.loads((rep.out_dir / "summary.json").read_text())
    assert on_disk["derived"]["td_routes_s"]["combined"] == routes["combined"]

    lines = (rep.out_dir / "series.csv").read_text().splitlines()
    assert lines[0] == "t_seconds,visibility,purity,mean_x,mean_p,cov_xx,cov_xp,cov_pp"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0  # overlap starts at unity
    assert float(first[2]) == 1.0


def test_reruns_are_byte_identical(tmp_path):
    rep_a = run_scenario("cosmic-background-sphere", {"series_points": 5},
                         out_base=str(tmp_path / "a"))
    rep_b = run_scenario("cosmic-background-sphere", {"series_points": 5},
                         out_base=str(tmp_path / "b"))
    for name in ("summary.json", "series.csv"):
        assert (rep_a.out_dir / name).read_bytes() == (rep_b.out_dir / name).read_bytes()


def test_manifest_is_the_only_place_with_timing(tmp_path):
    rep = run_scenario("cosmic-background-sphere", {"series_points": 5},
                       out_base=str(tmp_path))
    manifest = json.loads((rep.out_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == 18
    assert manifest["scenario"] == "cosmic-background-sphere"
    assert rep.summary["scenario"] == "cosmic-background-sphere"
    assert manifest["config"]["series_points"] == 5
    assert manifest["config"]["mirror"]["temperature"] == 2.7
    assert manifest["artifacts"] == ["summary.json", "series.csv"]
    assert manifest["wall_clock_seconds"] >= 0.0
    assert "started_utc" in manifest
    for name in ("summary.json", "series.csv"):
        assert "wall_clock" not in (rep.out_dir / name).read_text()


def test_manifest_stays_valid_json_with_a_tab_in_the_output_directory(tmp_path):
    out = str(tmp_path / "with\ttab")
    rep = run_scenario("cosmic-background-sphere", {"series_points": 5}, out_base=out)
    assert rep.out_dir.parent == tmp_path / "with\ttab"
    manifest = json.loads((rep.out_dir / "manifest.json").read_text())
    assert manifest["config"]["series_points"] == 5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_format_float_rejects_non_finite_values_typed(value):
    with pytest.raises(DomainError):
        format_float(value)


def test_list_valued_keys_can_be_overridden(tmp_path):
    rep = run_scenario("identity-suite", {"draws": 20,
                                          "ranges": {"mass_kg": [1e-20, 1]}},
                       out_base=str(tmp_path))
    manifest = json.loads((rep.out_dir / "manifest.json").read_text())
    assert manifest["config"]["ranges"]["mass_kg"] == [1e-20, 1.0]
    assert rep.summary["pass"] is True


def test_sieve_series_leaves_visibility_blank(tmp_path):
    rep = run_scenario("sieve-pointer-states", {"series_points": 5},
                       out_base=str(tmp_path))
    lines = (rep.out_dir / "series.csv").read_text().splitlines()
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert cells[1] == ""            # no fringes in a Gaussian series
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-12)
    assert rep.summary["derived"]["r_star"] <= 1e-3
    assert rep.summary["derived"]["stable"] is True


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        run_scenario("warp-drive", {})


@pytest.mark.parametrize("overrides", [["series_points", 5], "series_points", 5])
def test_overrides_that_are_not_a_mapping_are_refused_typed(tmp_path, overrides):
    with pytest.raises(ConfigError, match="overrides must be a mapping") as info:
        run_scenario("cosmic-background-sphere", overrides, out_base=str(tmp_path))
    assert info.value.exit_code == 2
    assert list(tmp_path.iterdir()) == []


def test_the_output_directory_is_not_a_config_key(tmp_path):
    # the base directory comes from out_base, CASIDEC_OUT_DIR or runs/ only
    with pytest.raises(ConfigError, match="unknown config key 'output'"):
        run_scenario("cosmic-background-sphere", {"output": {"directory": str(tmp_path)}})
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ CLI


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert name in out


def test_cli_describe(capsys):
    assert main(["describe", "identity-suite"]) == 0
    assert "identity-suite" in capsys.readouterr().out


def test_cli_run_success(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "cosmic-background-sphere", "series_points": 5})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "scenario: cosmic-background-sphere" in out
    assert "wrote" in out
    assert (tmp_path / "out" / "cosmic-background-sphere" / "manifest.json").exists()


def test_cli_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASIDEC_OUT_DIR", str(tmp_path / "env_out"))
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "cosmic-background-sphere", "series_points": 5})
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "env_out" / "cosmic-background-sphere" / "summary.json").exists()


def test_cli_out_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASIDEC_OUT_DIR", str(tmp_path / "env_out"))
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "cosmic-background-sphere", "series_points": 5})
    assert main(["run", cfg, "--out", str(tmp_path / "flag_out")]) == 0
    capsys.readouterr()
    assert (tmp_path / "flag_out" / "cosmic-background-sphere").is_dir()
    assert not (tmp_path / "env_out").exists()


@pytest.mark.parametrize("payload", [
    {"series_points": 5},                                   # no scenario key
    {"scenario": "warp-drive"},                             # unknown scenario
    {"scenario": "cosmic-background-sphere", "bogus": 1},   # unknown key
    {"scenario": "cosmic-background-sphere", "mirror": {"bogus": 1}},
    {"scenario": "cosmic-background-sphere", "series_points": "many"},
    {"scenario": "cosmic-background-sphere", "mirror": {"mass": -1.0}},
    {"scenario": "identity-suite", "ranges": {"mass_kg": [1e-20]}},
    {"scenario": "identity-suite", "ranges": {"mass_kg": [1e-20, "1"]}},
    {"scenario": "identity-suite", "ranges": {"mass_kg": [-1.0, 1.0]}},
    {"scenario": "identity-suite", "ranges": {"mass_kg": [2.0, 1.0]}},
])
def test_cli_config_errors_exit_2(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_and_malformed_files_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["run", str(arr)]) == 2
    capsys.readouterr()


def test_cli_regime_violation_exits_3(tmp_path, capsys):
    # a meter-scale sphere is far outside the long-wavelength window
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "sphere-rayleigh-vacuum", "mirror": {"radius": 1.0}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_failed_consistency_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "identity-suite", "draws": 50, "tolerance": 1e-30})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "FAIL" in capsys.readouterr().err


def test_sphere_reports_the_relative_weight_route_exactly_where_it_holds(tmp_path, capsys):
    # size parameter 2.67e-9 against v/c 1.53e-9: outside td_relative_sphere's
    # window, which the scenario used to widen to 2.6 v/c and then exit 3 on
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "sphere-rayleigh-vacuum", "mirror": {"radius": 8e-11}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    derived = json.loads(
        (tmp_path / "out" / "sphere-rayleigh-vacuum" / "summary.json").read_text())["derived"]
    assert derived["size_parameter"] > derived["v_over_c"]
    assert list(derived["td_routes_s"]) == ["amplitude"]
    assert "relative_weight_note" in derived
    # size parameter 1.0e-9: inside the window, where the two routes agree
    routes = run_scenario("sphere-rayleigh-vacuum", {"mirror": {"radius": 3e-11}},
                          out_base=str(tmp_path / "lib")).summary["derived"]["td_routes_s"]
    assert routes["relative_weight"] == pytest.approx(routes["amplitude"], rel=1e-12)


def test_identity_suite_checks_every_route_a_scenario_reports(tmp_path, monkeypatch):
    # the thermal scenarios report the diffusion route, so the suite checks it too
    td_from_diffusion = scenarios.td_from_diffusion
    monkeypatch.setattr(scenarios, "td_from_diffusion",
                        lambda *args, **kwargs: 2.0 * td_from_diffusion(*args, **kwargs))
    summary = run_scenario("identity-suite", {"draws": 5}, out_base=str(tmp_path)).summary
    assert summary["pass"] is False
    assert summary["derived"]["max_relative_deviation"]["thermal_chain"] > 0.1


# the documented exit code of every package error
_EXIT_CODES = {
    errors.ConfigError: 2, errors.UnknownScenario: 2, errors.NonPhysicalInput: 2,
    errors.DomainError: 2,
    errors.RegimeViolation: 3,
    errors.QuadratureFailure: 4, errors.StepSizeError: 4,
    errors.StabilityViolation: 4, errors.GridTooSmall: 4, errors.FitFailure: 4,
    errors.IoError: 1,
}


def test_every_error_class_maps_to_its_documented_exit_code():
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.CasidecError)
               and cls is not errors.CasidecError}
    assert defined == set(_EXIT_CODES)
    for cls, code in _EXIT_CODES.items():
        assert cls("x").exit_code == code, cls.__name__


def test_cli_io_failure_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "cosmic-background-sphere", "series_points": 5})
    assert main(["run", cfg, "--out", str(blocker / "sub")]) == 1
    capsys.readouterr()


def test_cli_oracle_with_zero_means_reports_finite_errors(tmp_path, capsys):
    # the means stay identically zero, so their error cannot be peak-relative
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "wigner-gaussian-oracle",
        "initial": {"mean_x": 0.0, "mean_p": 0.0},
        "grid": {"nx": 64, "np": 64},
        "time": {"t_end": 1.0, "n_samples": 2}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    summary = json.loads(
        (tmp_path / "out" / "wigner-gaussian-oracle" / "summary.json").read_text())
    errors = summary["derived"]["max_rel_moment_errors"]
    assert all(math.isfinite(v) for v in errors.values())
    assert errors["mean_x"] <= 1e-12 and errors["mean_p"] <= 1e-12


@pytest.mark.parametrize("payload", [
    # Python's json reads NaN; it used to reach the output writer
    {"scenario": "identity-suite", "draws": 5, "tolerance": math.nan},
    # eps * omega0 underflows to zero ahead of the root solve
    {"scenario": "1d-mirror-vacuum", "mirror": {"mass": 1e300}},
    # (lambda_T / delta_x)^2 overflows
    {"scenario": "sphere-thermal-free", "delta_x": 1e-200},
    # overflow and underflow elsewhere in the closed forms
    {"scenario": "1d-mirror-vacuum", "mirror": {"omega0": 1e300}},
    {"scenario": "sieve-pointer-states", "mirror": {"omega0": 1e300}},
])
def test_cli_out_of_range_inputs_exit_2_and_write_nothing(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sieve_runs_for_a_featherweight_mirror(tmp_path, capsys):
    # M omega* = 1e-190 squared to 0 in the general rotation-averaged rate,
    # which then exited 2 on a ZeroDivisionError; the closed form never squares it
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "sieve-pointer-states", "mirror": {"mass": 1e-200}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    out = tmp_path / "out" / "sieve-pointer-states"
    derived = json.loads((out / "summary.json").read_text())["derived"]
    assert derived["r_star"] == 0.0 and derived["stable"] is True
    cells = [c for line in (out / "series.csv").read_text().splitlines()[1:]
             for c in line.split(",") if c]
    assert all(math.isfinite(float(c)) for c in cells)


def test_cli_sphere_lifetime_past_the_double_range_exits_2_by_key(tmp_path, capsys):
    # the lifetime overflows to inf; it used to exit 3, blamed on the
    # (c/v)^8 period floor that the validity window already implies
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "sphere-rayleigh-vacuum",
        "mirror": {"mass": 1e-3, "omega0": 1e-25, "radius": 1e-3}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert ("'mirror.mass', 'mirror.omega0', 'mirror.radius' and 'cat.alpha_mag'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    # numpy refuses a negative seed; it used to end in a ValueError traceback
    cfg = _write_config(tmp_path / "cfg.json", {"scenario": "identity-suite", "seed": -1})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_COUNT_KEYS = [
    ("identity-suite", "draws"),
    ("cosmic-background-sphere", "series_points"),
    ("wigner-cat-highT", "time.n_samples"),
    ("wigner-gaussian-oracle", "grid.nx"),
    ("wigner-cat-highT", "grid.np"),
]


def _nested(dotted, value):
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("name,key", _COUNT_KEYS)
def test_cli_count_keys_out_of_bounds_exit_2_and_write_nothing(tmp_path, capsys,
                                                               monkeypatch, name, key):
    # the runner is replaced, so no value here can allocate what it asks for
    def unreachable(cfg):
        raise AssertionError(f"{name} ran with {key} out of bounds")

    monkeypatch.setitem(scenarios._REGISTRY, name,
                        dataclasses.replace(scenarios._REGISTRY[name], runner=unreachable))
    lo, hi = _COUNT_BOUNDS[key]
    for value in sorted({-1, 0, lo - 1, hi + 1}):
        cfg = _write_config(tmp_path / "cfg.json", {"scenario": name, **_nested(key, value)})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2, value
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,key", _COUNT_KEYS)
def test_count_keys_accept_their_bounds(name, key):
    section, _, leaf = key.rpartition(".")
    for value in _COUNT_BOUNDS[key]:
        merged = _merge_config(scenario_defaults(name), _nested(key, value))
        assert (merged[section] if section else merged)[leaf] == value


@pytest.mark.parametrize("payload", [
    {"scenario": "wigner-gaussian-oracle", "time": {"dt_periods": 1e-300}},
    {"scenario": "wigner-cat-highT", "time": {"dt": 1e-300}},
])
def test_cli_tiny_grid_step_is_refused_within_a_second(tmp_path, capsys, payload):
    # about 1e301 steps used to be planned, and the run did not end
    cfg = _write_config(tmp_path / "cfg.json", payload)
    start = time.perf_counter()
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "grid steps" in err and "'time.dt" in err
    assert not (tmp_path / "out").exists()


def test_step_cap_admits_whole_steps_up_to_the_cap(tmp_path, monkeypatch):
    per_cap = scenarios._MAX_GRID_STEPS // 50
    for t_end in (50 * (per_cap - 0.5), 50.0 * per_cap):
        assert scenarios._sample_steps(t_end, 50, 1.0, "k") == (per_cap, t_end / (50 * per_cap))
    for t_end in (50.0 * per_cap * (1.0 + 2e-9), math.inf, math.nan):
        with pytest.raises(ConfigError):
            scenarios._sample_steps(t_end, 50, 1.0, "k")
    # the oracle's keys: 10 steps per sample, which t_end / (5 dt) reads as
    # 10.000000000000002; its cap check, without the rounding, refused them
    monkeypatch.setattr(scenarios, "_MAX_GRID_STEPS", 50)
    dt = 0.005 * 2.0 * math.pi
    overrides = {"grid": {"nx": 64, "np": 64}, "time": {"t_end": 50 * dt, "n_samples": 5}}
    report = run_scenario("wigner-gaussian-oracle", overrides, out_base=str(tmp_path))
    assert len((report.out_dir / "series.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize("name,key", [
    ("wigner-gaussian-oracle", "coefficients.omega"),
    ("wigner-gaussian-oracle", "time.dt_periods"),
    ("wigner-gaussian-oracle", "grid.x_half_width"),
    ("wigner-gaussian-oracle", "grid.p_half_width"),
    ("wigner-cat-highT", "cat.alpha_mag"),
    ("wigner-cat-highT", "coefficients.d1"),
    ("wigner-cat-highT", "t_end_over_td"),
    ("wigner-cat-highT", "time.dt"),
])
def test_cli_zero_grid_inputs_are_refused_by_name(tmp_path, capsys, name, key):
    # these used to exit 2 as "a result leaves double-precision range"
    cfg = _write_config(tmp_path / "cfg.json", {"scenario": name, **_nested(key, 0.0)})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' must be > 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    # on 64 x 64 these stepped about 850 steps, then the ring monitor stopped them
    {"cat": {"alpha_mag": 0.3}, "grid": {"nx": 64, "np": 64}},
    {"cat": {"alpha_mag": 1.0}, "grid": {"nx": 64, "np": 64}},
    # an envelope far wider than the box, whose open-space density at the edge
    # is below the tolerance; the periodic field is nearly flat there
    {"t_end_over_td": 1e16, "time": {"dt": 1e15}},
])
def test_a_cat_that_outgrows_its_momentum_box_is_refused_before_any_step(
        tmp_path, monkeypatch, overrides):
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized cat reached the grid")

    monkeypatch.setattr(scenarios, "evolve_grid", unreachable)
    with pytest.raises(ConfigError, match="'cat.alpha_mag' and 't_end_over_td'"):
        run_scenario("wigner-cat-highT", overrides, out_base=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_a_damped_cat_is_judged_by_its_damped_envelope(tmp_path):
    # damping holds the lobes' variance below d1 / (2 gamma); the undamped
    # envelope sigma_p^2 + 2 d1 t_end put 7.6e-7 on the p edges and refused it
    overrides = {"cat": {"alpha_mag": 1.0}, "coefficients": {"gamma": 0.3},
                 "grid": {"nx": 64, "np": 64}}
    report = run_scenario("wigner-cat-highT", overrides, out_base=str(tmp_path))
    assert (report.out_dir / "summary.json").exists()


@pytest.mark.parametrize("d2", [0.1, -1e-300])
def test_cli_oracle_refuses_a_cross_diffusion(tmp_path, capsys, d2):
    # the grid integrates the d2 = 0 equation; d2 = +-0.1 ran as a stencil
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "wigner-gaussian-oracle", "coefficients": {"d2": d2}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'coefficients.d2'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orientation", ["momentum", "diagonal"])
def test_cli_cat_refuses_an_orientation_other_than_position(tmp_path, capsys, monkeypatch,
                                                            orientation):
    # a momentum cat stepped to the end and exited 4 in the fit: momentum
    # diffusion does not blur its fringes, which lie along x
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused cat reached the grid")

    monkeypatch.setattr(scenarios, "evolve_grid", unreachable)
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "wigner-cat-highT", "cat": {"orientation": orientation},
        "coefficients": {"gamma": 0.5}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'cat.orientation'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_oracle_accepts_an_explicit_zero_cross_diffusion(tmp_path):
    overrides = {"coefficients": {"d2": 0.0}, "grid": {"nx": 64, "np": 64},
                 "time": {"t_end": 1.0, "n_samples": 2}}
    report = run_scenario("wigner-gaussian-oracle", overrides, out_base=str(tmp_path))
    assert report.summary["inputs"]["d2"] == 0.0


@pytest.mark.parametrize("t_end", [-1.0, 0.0])
def test_cli_oracle_refuses_a_nonpositive_end_time(tmp_path, capsys, t_end):
    # -1 used to exit 2 naming no key; 0 wrote 41 identical t = 0 rows
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "wigner-gaussian-oracle", "time": {"t_end": t_end}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'time.t_end' must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_parser_is_built_once_and_carries_nothing_over(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CASIDEC_OUT_DIR", str(tmp_path / "env"))
    cfg = _write_config(tmp_path / "cfg.json", {"scenario": "cosmic-background-sphere"})
    calls = [["run", cfg, "--out", str(tmp_path / "flag")], ["check"], ["no-such-command"],
             ["run", cfg]]

    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    def parsed(parser, argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code

    cli._parser.cache_clear()
    codes = [exit_code(argv) for argv in calls]
    cached = [parsed(cli._parser(), argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = [parsed(cli._parser.__wrapped__(), argv) for argv in calls]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._parser.__wrapped__)   # a new parser per call
        assert [exit_code(argv) for argv in calls] == codes == [0, 0, 2, 0]
    capsys.readouterr()
    assert cached == fresh
    assert cached[0]["out"] == str(tmp_path / "flag")
    assert cached[1]["out"] is None and cached[3]["out"] is None
    assert (tmp_path / "env" / "cosmic-background-sphere" / "summary.json").exists()


def test_non_finite_summary_value_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    name = "cosmic-background-sphere"
    monkeypatch.setitem(scenarios._REGISTRY, name, dataclasses.replace(
        scenarios._REGISTRY[name], runner=lambda cfg: ({"derived": {"td": math.nan}}, None)))
    with pytest.raises(DomainError):
        run_scenario(name, out_base=str(tmp_path / "lib"))
    assert not (tmp_path / "lib").exists()
    cfg = _write_config(tmp_path / "cfg.json", {"scenario": name})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_THERMAL_KEYS = "'mirror.temperature', 'mirror.radius' and 'delta_x'"


# a lifetime of 0 also draws the thermal route's regime warning
@pytest.mark.filterwarnings("ignore::casidec.errors.RegimeWarning")
@pytest.mark.parametrize("payload, keys", [
    # the lifetime underflows to 0
    ({"scenario": "sphere-thermal-free", "mirror": {"mass": 5.5e26, "radius": 1.1e154}},
     _THERMAL_KEYS),
    ({"scenario": "cosmic-background-sphere",
      "mirror": {"mass": 3.1e-8, "temperature": 4.4e62}, "delta_x": 2.8e16}, _THERMAL_KEYS),
    # the friction rate is subnormal and the lifetime overflows to inf
    ({"scenario": "sphere-rayleigh-vacuum", "mirror": {"mass": 2.6e-9, "omega0": 1.7e-24}},
     "'mirror.mass', 'mirror.omega0', 'mirror.radius' and 'cat.alpha_mag'"),
    ({"scenario": "1d-mirror-vacuum", "mirror": {"omega0": 1e-141}},
     "'mirror.mass', 'mirror.omega0' and 'cat.alpha_mag'"),
])
def test_a_lifetime_outside_double_range_is_refused_by_its_keys(tmp_path, capsys, payload,
                                                                keys):
    # the series divided t / td at a td of 0 or inf: an untyped RuntimeWarning
    # from run_scenario, and at the CLI a refusal at write time naming no key
    overrides = {key: value for key, value in payload.items() if key != "scenario"}
    with pytest.raises(ConfigError, match=re.escape(keys)):
        run_scenario(payload["scenario"], overrides, out_base=str(tmp_path / "lib"))
    assert not (tmp_path / "lib").exists()
    cfg = _write_config(tmp_path / "cfg.json", payload)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert keys in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x", [0.1, 1e-21, 5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -0.0, 1 / 3])
def test_floats_round_trip_to_the_same_double(x):
    assert float(format_float(x)) == x
    assert math.copysign(1.0, float(format_float(x))) == math.copysign(1.0, x)
    assert format_float(np.float64(x)) == format_float(x)
    assert json.loads(scenarios._json_render({"v": x}))["v"] == x


@pytest.mark.parametrize("mass", [1e-9, 1.0])
def test_cli_heavy_mirror_roots_meet_their_bound(tmp_path, capsys, mass):
    # the cubic solver used to stop converging from about 1e-12 kg up (exit 4)
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "1d-mirror-vacuum", "mirror": {"mass": mass}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    derived = json.loads(
        (tmp_path / "out" / "1d-mirror-vacuum" / "summary.json").read_text())["derived"]
    ratio = derived["hbar_omega0_over_Mc2"]
    assert derived["characteristic_roots"]["re_deviation_rel"] <= 10.0 * ratio**2


def test_cli_light_mirror_is_refused_for_its_speed(tmp_path, capsys):
    # at 1e-70 kg the cubic solver used to stop converging (exit 4) before the
    # run reached its real fault: the packets would move faster than light
    cfg = _write_config(tmp_path / "cfg.json", {
        "scenario": "1d-mirror-vacuum", "mirror": {"mass": 1e-70}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "v/c" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("objective", "instantaneous"), ("r_max", 4.0)])
def test_cli_sieve_refuses_its_removed_keys(tmp_path, capsys, key, value):
    # the sieve has one objective and reads its optimum off a fixed r grid
    cfg = _write_config(tmp_path / "cfg.json", {"scenario": "sieve-pointer-states", key: value})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_check_runs_the_identity_suite(tmp_path, capsys):
    assert main(["check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all identities hold" in out
    assert "max deviation" in out


def test_cli_check_exits_4_and_says_fail_when_an_identity_breaks(tmp_path, capsys,
                                                                  monkeypatch):
    # no deviation is below a negative tolerance
    defaults = scenarios._REGISTRY["identity-suite"].defaults
    monkeypatch.setitem(defaults, "tolerance", -1.0)
    monkeypatch.setitem(defaults, "draws", 5)
    assert main(["check", "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and "max deviation" in captured.out


def test_a_failed_write_replaces_no_artifact_and_leaves_no_temp_file(tmp_path, monkeypatch):
    # the new summary.json was renamed into place before series.csv failed,
    # beside the old series.csv and manifest.json, and series.csv.tmp was left
    name = "1d-mirror-vacuum"
    out_dir = run_scenario(name, out_base=str(tmp_path)).out_dir
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    write_text = pathlib.Path.write_text

    def disk_full(path, text, *args, **kwargs):
        if path.name == "series.csv.tmp":
            write_text(path, text[:10], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
    with pytest.raises(errors.IoError, match="series.csv"):
        run_scenario(name, {"mirror": {"mass": 2e-21}}, out_base=str(tmp_path))
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
