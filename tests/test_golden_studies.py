"""Study outputs against the files an earlier release wrote, byte for byte.

The determinism contract makes every study bit-exact for a given seed, so a
refactor or speed-up of the lab must leave these files unchanged.
"""

import csv
import json
from pathlib import Path

import pytest

from trialbet.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden"

# Continuous and survival are sized per effect (no --n), binary at a fixed n.
WAGE_ARGS = {
    "continuous": ["--d", "0.2,0.4", "--sims", "30", "--seed", "3"],
    "binary": ["--arr", "0.05", "--n", "400", "--fixed", "0.08", "--sims", "40", "--seed", "5"],
    "survival": ["--hr", "0.7,0.8", "--sims", "30", "--seed", "1"],
}
COMPARE_ARGS = ["--baselines", "0.15,0.40", "--sims", "25", "--seed", "2"]
SCENARIOS = ["binary_alt", "binary_null", "continuous_alt", "deaths_alt", "multistate_alt",
             "survival_alt"]


@pytest.mark.parametrize("variant", sorted(WAGE_ARGS))
def test_wage_outputs_match_golden(capsys, tmp_path, variant):
    out = tmp_path / "wage.json"
    csv = tmp_path / "wage.csv"
    assert main(["wage", "--variant", variant, *WAGE_ARGS[variant], "--json", str(out),
                 "--csv", str(csv)]) == 0
    assert out.read_bytes() == (GOLDEN / f"wage_{variant}.json").read_bytes()
    assert csv.read_bytes() == (GOLDEN / f"wage_{variant}.csv").read_bytes()


@pytest.mark.parametrize("stem", SCENARIOS)
def test_simulate_outputs_match_golden(capsys, tmp_path, stem):
    out = tmp_path / "oc.json"
    assert main(["simulate", "--scenario", str(ROOT / "scenarios" / f"{stem}.json"),
                 "--sims", "40", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"simulate_{stem}.json").read_bytes()


def test_compare_outputs_match_golden(capsys, tmp_path):
    out = tmp_path / "compare.json"
    csv = tmp_path / "compare.csv"
    assert main(["compare", *COMPARE_ARGS, "--json", str(out), "--csv", str(csv)]) == 0
    assert out.read_bytes() == (GOLDEN / "compare.json").read_bytes()
    assert csv.read_bytes() == (GOLDEN / "compare.csv").read_bytes()


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
    ["trajectories", "--scenario", str(ROOT / "scenarios" / "survival_alt.json"),
     "--trials", "3"],
], ids=["compare", "wage", "trajectories"])
def test_csv_lines_end_in_lf(capsys, tmp_path, argv):
    """Every CSV the CLI writes ends its lines as every other file it writes does."""
    out = tmp_path / "out.csv"
    assert main([*argv, "--csv" if argv[0] != "trajectories" else "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n") and data.count(b"\n") > 2
