"""Wall time of every scenario's CLI run at its defaults, and of the tier-1
suite, for a base commit and a change, both run on this machine.

    python tools/cli_walls.py BASE_REV [CHANGE_REV] [--rounds N]

BASE_REV and CHANGE_REV (default HEAD) are each extracted with git archive
into a temporary directory, and each tree's src is byte-compiled before any
timing, so that both sides run with a __pycache__; the record says whether
one was there before. Each round runs, for each tree in turn (the tree that
goes first alternating from round to round), a bare interpreter, an
interpreter that imports casidec.scenarios and casidec.cli, and then
`python -m casidec.cli run CONFIG` for each scenario at its defaults, then
the tree's tier-1 suite, every one a fresh interpreter whose PYTHONPATH is
that tree's src. A CLI run's wall time is split into the scenario runner's
own time, the manifest's wall_clock_seconds, and the rest: interpreter
start, imports, config parsing, rendering, writing and exit. The result,
printed as JSON, gives the median and quartiles of each quantity over the
rounds (at least 5, the default) in milliseconds, and the provenance of the
run. It gates nothing: the exit status is 0 unless a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a child that prints the registered scenario names, one a line
_NAMES = "from casidec.scenarios import list_scenarios\n" \
         "print('\\n'.join(name for name, _ in list_scenarios()))"

_TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]


def _extract(rev: str, dest: Path) -> str:
    """Extract rev with git archive into dest; its full commit id."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", full], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return full


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _timed(cmd: list[str], tree: Path, cwd: Path) -> tuple[float, str]:
    """Wall seconds and the last output line of one child process; a failed
    child stops the tool."""
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=_env(tree), cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{(done.stdout + done.stderr)[-2000:]}")
    return wall, (done.stdout.strip().splitlines() or [""])[-1]


def _summary(seconds: list[float]) -> dict:
    """Median and quartiles of a list of seconds, in milliseconds."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_ms": round(median * 1e3, 1), "q1_ms": round(q1 * 1e3, 1),
            "q3_ms": round(q3 * 1e3, 1), "n": len(seconds)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error("--rounds must be at least 5")

    import mpmath
    import numpy
    import scipy

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": tmp / "base", "change": tmp / "change"}
        commits = {side: _extract(rev, sides[side])
                   for side, rev in (("base", args.base), ("change", args.change))}
        pycache = {side: any((tree / "src").rglob("__pycache__")) for side, tree in sides.items()}
        for tree in sides.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                           check=True)
        names = subprocess.run([sys.executable, "-c", _NAMES], env=_env(sides["base"]),
                               capture_output=True, text=True, check=True).stdout.split()
        (tmp / "cfg").mkdir()
        for name in names:
            (tmp / "cfg" / f"{name}.json").write_text(json.dumps({"scenario": name}))

        probes = {"python -c pass": [sys.executable, "-c", "pass"],
                  "import casidec.scenarios, casidec.cli":
                      [sys.executable, "-c", "import casidec.scenarios, casidec.cli"]}
        walls = {side: {key: [] for key in [*probes, *names]} for side in sides}
        runner = {side: {name: [] for name in names} for side in sides}
        tier1, tier1_result = {side: [] for side in sides}, {}
        loads = [os.getloadavg()]
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                tree, out = sides[side], tmp / f"{side}-out"
                for key, cmd in probes.items():
                    walls[side][key].append(_timed(cmd, tree, tmp)[0])
                for name in names:
                    cfg = tmp / "cfg" / f"{name}.json"
                    walls[side][name].append(_timed(
                        [sys.executable, "-m", "casidec.cli", "run", str(cfg), "--out", str(out)],
                        tree, tmp)[0])
                    manifest = json.loads((out / name / "manifest.json").read_text())
                    runner[side][name].append(manifest["wall_clock_seconds"])
                wall, tier1_result[side] = _timed(_TIER1, tree, tree)
                tier1[side].append(wall)
            loads.append(os.getloadavg())

    scenarios = {}
    for name in names:
        scenarios[name] = {side: {
            "wall": _summary(walls[side][name]),
            "runner": _summary(runner[side][name]),
            "outside_runner": _summary([w - s for w, s in zip(walls[side][name],
                                                               runner[side][name])]),
        } for side in sides}
    record = {
        "what": "casidec run at each scenario's defaults, each in a fresh interpreter "
                "with the tree's bytecode compiled; wall = the child's wall time, "
                "runner = the manifest's wall_clock_seconds, outside_runner = wall - "
                "runner (interpreter start, imports, config parsing, rendering, "
                "writing, exit); tier1 = the tree's own tier-1 suite",
        "command": f"python tools/cli_walls.py {args.base} {args.change} --rounds {args.rounds}",
        "commits": commits,
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "loadavg_per_round": [[round(v, 2) for v in load] for load in loads],
            "pycache_before_compile": pycache,
            "rounds": args.rounds,
            "order": "interleaved; the side that runs first alternates by round",
        },
        "probes": {key: {side: _summary(walls[side][key]) for side in sides} for key in probes},
        "scenarios": scenarios,
        "tier1": {side: {**_summary(tier1[side]), "last_result": tier1_result[side]}
                  for side in sides},
    }
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
