"""Recapture stored golden outputs from the current tree, with an audit report.

Usage::

    python tests/golden/capture.py NAME [NAME ...]

Each NAME is a case of ``manifest.json``. The case is run as a fresh
``python -m statepath.cli`` process on this checkout's ``src/``; its stdout
replaces ``NAME.out``. For every JSON field the script prints the largest
absolute change against the old bytes, with the place where it occurs, so a
recapture can be quoted and checked. A refusal case (manifest exit 2) also
stores its one-line stderr as ``NAME.err``. A case whose exit code differs
from the manifest, or that writes to stderr without being a refusal, is
reported and left unwritten; the script then exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SRC = GOLDEN.parents[1] / "src"
REFUSAL = 2


def run_case(case: dict) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-m", "statepath.cli", case["command"],
            "--config", str(GOLDEN / f"{case['name']}.json")]
    if case["seed"] is not None:
        argv += ["--seed", str(case["seed"])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, capture_output=True, env=env, check=False)


def leaves(node, path="", field="(value)"):
    """(path, field, value) for every scalar; ``field`` is the innermost key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key, key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, f"{path}[{index}]", field)
    else:
        yield path, field, node


def field_changes(old: bytes, new: bytes) -> list[str]:
    """One report line per field: its largest change and where it occurs."""
    if old == new:
        return ["  bytes unchanged"]
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        return ["  bytes changed (not JSON, no field report)"]
    old_leaves = list(leaves(old_doc))
    new_leaves = list(leaves(new_doc))
    if [p for p, _, _ in old_leaves] != [p for p, _, _ in new_leaves]:
        return ["  structure changed: the field layout differs"]
    worst: dict[str, tuple[float, str]] = {}
    for (path, field, a), (_, _, b) in zip(old_leaves, new_leaves):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        gap = abs(b - a) if numeric else (0.0 if a == b else float("inf"))
        if field not in worst or gap > worst[field][0]:
            worst[field] = (gap, path)
    lines = []
    for field, (gap, path) in worst.items():
        if gap == 0.0:
            lines.append(f"  {field:<22} unchanged")
        elif gap == float("inf"):
            lines.append(f"  {field:<22} value changed at {path}")
        else:
            lines.append(f"  {field:<22} max |change| {gap:.3e} at {path}")
    return lines


def main(names: list[str]) -> int:
    cases = {case["name"]: case
             for case in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))}
    unknown = [name for name in names if name not in cases]
    if not names or unknown:
        print(f"usage: capture.py NAME [NAME ...]; unknown: {unknown}; "
              f"known: {sorted(cases)}", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        case = cases[name]
        done = run_case(case)
        refusal = case["exit"] == REFUSAL
        if done.returncode != case["exit"] or bool(done.stderr) != refusal:
            print(f"{name}: exit {done.returncode} (manifest {case['exit']}), "
                  f"stderr {done.stderr.decode(errors='replace').strip()!r}; not written")
            failed = True
            continue
        out = GOLDEN / f"{name}.out"
        old = out.read_bytes() if out.exists() else b""
        print(f"{name}: exit {done.returncode}")
        print("\n".join(field_changes(old, done.stdout)))
        out.write_bytes(done.stdout)
        if refusal:
            err = GOLDEN / f"{name}.err"
            old_err = err.read_bytes() if err.exists() else b""
            print(f"  stderr {'unchanged' if old_err == done.stderr else 'changed'}: "
                  f"{done.stderr.decode(errors='replace').strip()}")
            err.write_bytes(done.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
