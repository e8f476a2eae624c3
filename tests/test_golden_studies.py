"""Command outputs against the files an earlier release wrote, byte for byte.

The determinism contract makes every study bit-exact for a given seed, so a
refactor or speed-up of the lab must leave these files unchanged.  The cases
are the ``STUDIES`` and ``OUTPUTS`` tables of ``cli_cases.py``, which CI also
runs through the installed script.
"""

import csv
import json

import pytest

from cli_cases import (COMPARE_ARGS, GOLDEN, OUTPUTS, SCENARIO_DIR, SCENARIOS, STUDIES,
                       WAGE_ARGS, run_case)
from trialbet.cli import main


@pytest.mark.parametrize("variant", sorted(WAGE_ARGS))
def test_wage_outputs_match_golden(tmp_path, variant):
    assert run_case(STUDIES[f"wage-{variant}"], tmp_path) is None


@pytest.mark.parametrize("stem", SCENARIOS)
def test_simulate_outputs_match_golden(tmp_path, stem):
    """On one worker and on two."""
    assert run_case(STUDIES[f"simulate-{stem}"], tmp_path) is None


def test_compare_outputs_match_golden(tmp_path):
    assert run_case(STUDIES["compare"], tmp_path) is None


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_match_golden(tmp_path, name):
    """The monitor on each golden stream, cut and resumed and read from stdin,
    ``power`` and ``trajectories``."""
    assert run_case(OUTPUTS[name], tmp_path) is None


@pytest.mark.parametrize("stem,key", [("compare", "rows"), *((f"wage_{v}", "cells")
                                                            for v in sorted(WAGE_ARGS))])
def test_golden_csv_rows_are_their_json_twins(stem, key):
    """Each golden CSV holds, field for field, the rows of the JSON the same
    run wrote, and every one of its lines ends in LF alone."""
    data = (GOLDEN / f"{stem}.csv").read_bytes()
    assert b"\r" not in data
    schema, header, *rows = csv.reader(data.decode().splitlines())
    expected = json.loads((GOLDEN / f"{stem}.json").read_text())[key]
    assert schema == ["# schema: trialbet.v1"] and header == list(expected[0])
    assert rows == [["" if v is None else str(v) for v in row.values()] for row in expected]


@pytest.mark.parametrize("argv", [
    ["compare", *COMPARE_ARGS],
    ["wage", "--variant", "survival", *WAGE_ARGS["survival"]],
    ["trajectories", "--scenario", str(SCENARIO_DIR / "survival_alt.json"),
     "--trials", "3"],
], ids=["compare", "wage", "trajectories"])
def test_csv_lines_end_in_lf(capsys, tmp_path, argv):
    """Every CSV the CLI writes ends its lines as every other file it writes does."""
    out = tmp_path / "out.csv"
    assert main([*argv, "--csv" if argv[0] != "trajectories" else "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n") and data.count(b"\n") > 2
