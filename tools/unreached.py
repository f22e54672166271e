"""List the functions of src/casidec that no CLI path enters.

    python tools/unreached.py

A profile hook, installed before casidec is imported (so that calls made
at import count), records every Python function entered while cli.main
runs `list`, then `describe` and `run` for every scenario at its defaults
and for each non-default config of compare_default_digests._EXTRA, then
`check`. The commands' own output is swallowed; a command that exits
nonzero or raises gets a note line. The script then prints each `def` in
src/casidec/*.py that was never entered, with its line count (decorators
included), and a closing total. It gates nothing: the exit status is
always 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "casidec"

_entered: set[tuple[str, int]] = set()


def _hook(frame, event, _arg):
    if event == "call":
        _entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def _defs(tree, prefix: str = ""):
    """(qualified name, first line, last line) of every def under tree, the
    first line that of its first decorator, as its code object counts it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node.end_lineno
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        else:
            yield from _defs(node, prefix)


def _run_cli(cli, extra: dict, tmp: Path) -> list[str]:
    """Run the CLI commands under the hook; the notes on those that failed."""
    notes = []

    def call(*argv) -> str:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(list(argv))
        except (Exception, SystemExit) as exc:   # reported, never gating
            notes.append(f"note: casidec {' '.join(argv)} raised {exc!r}")
        else:
            if status:
                notes.append(f"note: casidec {' '.join(argv)} exited {status}")
        return out.getvalue()

    names = [line.split()[0] for line in call("list").splitlines() if line.strip()]
    runs = {name: [name, {}] for name in names}
    runs.update(extra)
    for name in names:
        call("describe", name)
    for i, (name, overrides) in enumerate(runs.values()):
        config = tmp / f"config-{i}.json"
        config.write_text(json.dumps({"scenario": name, **overrides}))
        call("run", str(config), "--out", str(tmp / "runs"))
    call("check", "--out", str(tmp / "runs"))
    return notes


def main() -> int:
    sys.setprofile(_hook)
    try:
        sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
        from casidec import cli
        from compare_default_digests import _EXTRA
        with tempfile.TemporaryDirectory() as tmp:
            notes = _run_cli(cli, _EXTRA, Path(tmp))
    finally:
        sys.setprofile(None)

    entered = {(str(Path(name).resolve()), line) for name, line in _entered}
    count = lines = 0
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _defs(ast.parse(path.read_text())):
            if (str(path.resolve()), first) not in entered:
                count, lines = count + 1, lines + last - first + 1
                print(f"{path.relative_to(ROOT)}:{first} {name} ({last - first + 1} lines)")
    print(f"{count} defs, {lines} lines, never entered")
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
