"""Byte-exact outputs of the exact commands against committed golden files.

Each ``tests/golden/NAME.config.json`` holds the command line after
``--config FILE`` and the config it reads; ``NAME.json`` is the output the
command printed when the files were made.  Every value in these outputs is
an exact rational string or a fixed literal, so the bytes do not depend on
the platform, and any change to them is a change in what the program
computes or prints.
"""

import json
from pathlib import Path

import pytest

from qims.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name[: -len(".config.json")] for p in GOLDEN.glob("*.config.json"))


def test_golden_cases_present():
    assert CASES == ["check_all_L2N2", "check_all_L3N2", "check_commute_L3N3",
                     "hamiltonian_L2N1M20", "hamiltonian_L3N2T22"]


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path, capsys):
    case = json.loads((GOLDEN / f"{name}.config.json").read_text(encoding="utf-8"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(case["config"]), encoding="utf-8")
    assert main(["--config", str(cfg)] + case["args"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
