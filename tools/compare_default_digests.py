"""Compare every scenario's default summary.json and series.csv between a
base commit and this checkout, both run on this machine, along with those of
a few non-default configs.

    python tools/compare_default_digests.py BASE_REV

BASE_REV is extracted with git archive into a temporary directory. Each
tree's scenarios run at their defaults, and the configs of _EXTRA with their
overrides, in a child process whose PYTHONPATH is that tree's src, and the
child refuses to run unless casidec is imported from there. One line per
artifact gives its SHA-256 in this checkout and whether it matches the
base; under a summary.json that differs, one line per JSON key path whose
value differs gives that value in the base, then here, and under a
series.csv that differs, one line per column that differs gives its largest
absolute and relative change. A closing line gives the largest relative
change over all artifacts: |new - old| / max(|old|, |new|) between two
finite numbers, and inf for any other change (text, an absent key, a row
count). The exit status is 1
when a digest differs while the schema version (each manifest's
schema_version) is unchanged, else 0. With no base commit (BASE_REV empty,
all zeros, or not in this clone) the script says so and exits 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# paths that no scenario's defaults reach, ten non-default configs: the
# damped cat, the cat on an odd grid (no Nyquist bin, an odd midpoint slice),
# the cat run long enough that its p factor leaves the double range, the cat
# at 70 steps a sample (a sample falls inside a step call of _BLOCK = 64
# steps), the cat at one step a sample, the cat at a nonzero relative phase
# (its mean p, zero by symmetry at the defaults, is not), the undamped
# oracle, an odd oracle grid, the sieve at a kilogram mirror and the sphere's
# relative-weight route, each keyed by its scenario and overrides
_EXTRA = {
    "sieve-pointer-states:mass=1": ["sieve-pointer-states", {"mirror": {"mass": 1.0}}],
    "sphere-rayleigh-vacuum:radius=3e-11": ["sphere-rayleigh-vacuum",
                                            {"mirror": {"radius": 3e-11}}],
    "wigner-cat-highT:gamma=0.05": ["wigner-cat-highT", {"coefficients": {"gamma": 0.05}}],
    "wigner-cat-highT:grid=65x127": ["wigner-cat-highT", {"grid": {"nx": 65, "np": 127}}],
    "wigner-cat-highT:t_end_over_td=6": ["wigner-cat-highT", {"t_end_over_td": 6.0}],
    "wigner-cat-highT:n_samples=5": ["wigner-cat-highT", {"time": {"n_samples": 5}}],
    "wigner-cat-highT:dt=3.125e-3": ["wigner-cat-highT", {"time": {"dt": 3.125e-3}}],
    "wigner-cat-highT:phase=1": ["wigner-cat-highT", {"cat": {"phase": 1.0}}],
    "wigner-gaussian-oracle:gamma=0": ["wigner-gaussian-oracle",
                                       {"coefficients": {"gamma": 0.0}}],
    "wigner-gaussian-oracle:grid=65x63": ["wigner-gaussian-oracle",
                                          {"grid": {"nx": 65, "np": 63}}],
}

# runs in the child: argv is (src, out, extra as JSON); prints
# {key: {schema, digests}}, keyed by scenario name for the defaults
_CHILD = """
import hashlib, json, sys
from pathlib import Path

src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
import casidec
if Path(casidec.__file__).resolve().parents[1] != src:
    sys.exit(f"casidec was imported from {casidec.__file__}, not from {src}")
from casidec.scenarios import list_scenarios, run_scenario

runs = {name: [name, {}] for name, _ in list_scenarios()}
runs.update(json.loads(sys.argv[3]))
result = {}
for key, (name, overrides) in runs.items():
    report = run_scenario(name, overrides, out_base=str(out / key))
    manifest = json.loads((report.out_dir / "manifest.json").read_text())
    result[key] = {"schema": manifest["schema_version"], "digests": {
        artifact: hashlib.sha256((report.out_dir / artifact).read_bytes()).hexdigest()
        for artifact in ("summary.json", "series.csv")
        if (report.out_dir / artifact).exists()},
        "summary": json.loads((report.out_dir / "summary.json").read_text()),
        "series": (report.out_dir / "series.csv").read_text()
        if (report.out_dir / "series.csv").exists() else ""}
print(json.dumps(result))
"""


def _run_configs(src: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), str(out),
                           json.dumps(_EXTRA)], env=env,
                          cwd=out.parent, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


_ABSENT = object()


def _differences(old, new, path: str = ""):
    """(key path, old, new) for each leaf at which two parsed JSON documents
    differ, compared and given as JSON text (so 1 and 1.0 differ); a key on
    one side only is "absent" on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _differences(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                    f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{path}[{i}]")
    elif _text(old) != _text(new):
        yield path or "(root)", _text(old), _text(new)


def _text(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value)


def _size(old: str, new: str) -> tuple[float, float]:
    """(absolute, relative) change from one number, given as text, to
    another: |new - old| and that over max(|old|, |new|); inf for both when
    either is not a number or the change is not finite."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf, math.inf
    if a == b:
        return 0.0, 0.0
    change = abs(b - a)
    return (change, change / max(abs(a), abs(b))) if math.isfinite(change) else (
        math.inf, math.inf)


def _column_changes(old: str, new: str):
    """(column, largest absolute change, largest relative change) for each
    column of two series.csv texts that differs; a header or row shape that
    differs is one ("(shape)", inf, inf)."""
    a, b = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if [len(row) for row in a] != [len(row) for row in b] or a[:1] != b[:1]:
        yield "(shape)", math.inf, math.inf
        return
    for j, column in enumerate(a[0] if a else []):
        sizes = [_size(x[j], y[j]) for x, y in zip(a[1:], b[1:]) if x[j] != y[j]]
        if sizes:
            yield column, max(s[0] for s in sizes), max(s[1] for s in sizes)


def _has_commit(rev: str) -> bool:
    if not rev.strip("0"):
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "cat-file", "-e", f"{rev}^{{commit}}"],
                           capture_output=True)
    return probe.returncode == 0


def main(argv: list[str]) -> int:
    base = argv[0] if argv else ""
    if not _has_commit(base):
        print(f"no base commit to compare against ({base or 'none given'}); skipped")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        tree.mkdir()
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", base],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {base} failed")
        old = _run_configs(tree / "src", Path(tmp) / "base-runs")
        new = _run_configs(ROOT / "src", Path(tmp) / "head-runs")

    failed, largest = False, (0.0, "")
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            print(f"{name}: only in {'this checkout' if name in new else 'the base'}")
            continue
        schemas = old[name]["schema"], new[name]["schema"]
        for artifact in sorted(old[name]["digests"].keys() | new[name]["digests"].keys()):
            was, now = old[name]["digests"].get(artifact), new[name]["digests"].get(artifact)
            if was == now:
                status = "same as base"
            elif schemas[0] == schemas[1]:
                status, failed = f"DIFFERS from base at schema {schemas[1]}", True
            else:
                status = f"differs from base, schema {schemas[0]} -> {schemas[1]}"
            print(f"{now or '-':64}  {name}/{artifact}  {status}")
            if was == now:
                continue
            if artifact == "summary.json":
                for path, a, b in _differences(old[name]["summary"], new[name]["summary"]):
                    print(f"    {path}: {a} -> {b}")
                    largest = max(largest, (_size(a, b)[1], f"{name}/{artifact} {path}"))
            else:
                for column, size, rel in _column_changes(old[name]["series"],
                                                         new[name]["series"]):
                    print(f"    {column}: largest change {size:.3g}, relative {rel:.3g}")
                    largest = max(largest, (rel, f"{name}/{artifact} {column}"))
    print(f"largest relative change over all artifacts: {largest[0]:.3g}"
          + (f" ({largest[1]})" if largest[1] else ""))
    print(f"base {base}: " + ("artifact bytes changed without a schema bump" if failed
                              else "no artifact changed without a schema bump"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
