"""Compare every scenario's default summary.json and series.csv between a
base commit and this checkout, both run on this machine, along with those of
a few non-default grid configs.

    python tools/compare_default_digests.py BASE_REV

BASE_REV is extracted with git archive into a temporary directory. Each
tree's scenarios run at their defaults, and the configs of _EXTRA with their
overrides, in a child process whose PYTHONPATH is that tree's src, and the
child refuses to run unless casidec is imported from there. One line per
artifact gives its SHA-256 in this checkout and whether it matches the
base. The exit status is 1 when a digest differs while the schema version
(each manifest's schema_version) is unchanged, else 0. With no base commit (BASE_REV empty, all zeros, or not in this
clone) the script says so and exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# grid paths that no scenario's defaults reach: the damped cat, the cat on an
# odd grid (no Nyquist bin, an odd midpoint slice), the undamped oracle and
# an odd oracle grid, each keyed by its scenario and overrides
_EXTRA = {
    "wigner-cat-highT:gamma=0.05": ["wigner-cat-highT", {"coefficients": {"gamma": 0.05}}],
    "wigner-cat-highT:grid=65x127": ["wigner-cat-highT", {"grid": {"nx": 65, "np": 127}}],
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
        if (report.out_dir / artifact).exists()}}
print(json.dumps(result))
"""


def _run_configs(src: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), str(out),
                           json.dumps(_EXTRA)], env=env,
                          cwd=out.parent, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


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

    failed = False
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
    print(f"base {base}: " + ("artifact bytes changed without a schema bump" if failed
                              else "no artifact changed without a schema bump"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
