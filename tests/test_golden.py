"""Golden CLI corpus: each config under tests/golden must reproduce its stored
stdout byte for byte, with its stored exit code.

The stored outputs guard refactors that promise unchanged results. To add a
case, drop ``<name>.json`` next to the others, add an entry to
``manifest.json`` and store the output of ``statepath <command> --config
<name>.json [--seed N]`` as ``<name>.out`` from a known-good tree. A refusal case
(exit code 2) also stores its one-line stderr as ``<name>.err``.

A change that is meant to move stored bytes recaptures them with
``python tests/golden/capture.py NAME...``: it rewrites the named ``.out``
files from the current tree and prints the largest change of every JSON
field, a report to quote in the change's notes.
"""

import json
from pathlib import Path

import pytest

from statepath.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_golden_bytes(case, capsysbinary):
    argv = [case["command"], "--config", str(GOLDEN / f"{case['name']}.json")]
    if case["seed"] is not None:
        argv += ["--seed", str(case["seed"])]
    code = main(argv)
    captured = capsysbinary.readouterr()
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_bytes()
    err = GOLDEN / f"{case['name']}.err"
    assert captured.err == (err.read_bytes() if err.exists() else b"")
    assert code == case["exit"]
