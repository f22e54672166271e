"""Command-line front end.

Subcommands: run <config.json>, list, describe <name>, check. Exit codes:
0 success, 2 config error, 3 regime violation, 4 numerical failure,
1 anything else. The config file is JSON with a "scenario" key naming the
registry entry; every other key overrides that scenario's defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import CasidecError, ConfigError
from .scenarios import describe, format_float, list_scenarios, run_scenario


def _print_derived(derived: dict):
    for key, val in derived.items():
        if isinstance(val, float):
            print(f"  {key} = {format_float(val)}")
        elif isinstance(val, bool):
            print(f"  {key} = {val}")
        elif isinstance(val, dict):
            print(f"  {key}:")
            for k2, v2 in val.items():
                out = format_float(v2) if isinstance(v2, float) else v2
                print(f"    {k2} = {out}")


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.pop("scenario", None)
    if not isinstance(name, str):
        raise ConfigError('config needs a "scenario" key naming a registry entry')

    report = run_scenario(name, raw, out_base=args.out)
    print(f"scenario: {report.scenario}")
    _print_derived(report.summary.get("derived", {}))
    for artifact in report.artifacts:
        print(f"wrote {report.out_dir / artifact}")
    print(f"wrote {report.out_dir / 'manifest.json'}")
    if report.summary.get("pass") is False:
        print("FAIL: consistency checks exceeded tolerance", file=sys.stderr)
        return 4
    return 0


def _cmd_list(_args) -> int:
    for name, summary in list_scenarios():
        print(f"{name:26s} {summary}")
    return 0


def _cmd_describe(args) -> int:
    print(describe(args.name))
    return 0


def _cmd_check(args) -> int:
    report = run_scenario("identity-suite", {}, out_base=args.out)
    dev = report.summary["derived"]["max_relative_deviation"]
    for chain, value in dev.items():
        print(f"{chain:32s} max deviation {format_float(value)}")
    if report.summary["pass"]:
        print("all identities hold")
        return 0
    print("FAIL: consistency checks exceeded tolerance", file=sys.stderr)
    return 4


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    in-process callers run main many times, and each build is mostly
    gettext lookups. Each parse fills a fresh namespace, so nothing carries
    over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="casidec",
        description="Vacuum-friction decoherence scenarios: damping rates, "
                    "superposition lifetimes, Gaussian and phase-space-grid "
                    "evolution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config file")
    p_run.add_argument("config", help='JSON file with a "scenario" key plus overrides')
    p_run.add_argument("--out", default=None,
                       help="output base directory (wins over CASIDEC_OUT_DIR)")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.set_defaults(fn=_cmd_list)

    p_desc = sub.add_parser("describe", help="show a scenario's story and defaults")
    p_desc.add_argument("name")
    p_desc.set_defaults(fn=_cmd_describe)

    p_check = sub.add_parser("check", help="run the cross-route identity suite")
    p_check.add_argument("--out", default=None, help="output base directory")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CasidecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
