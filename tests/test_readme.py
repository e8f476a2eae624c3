"""The README's library quick tour runs as written."""

import json
import re

from cli_cases import GOLDEN, ROOT


def test_library_quick_tour_runs(capsys):
    """Its three fenced Python blocks, in order and in one namespace, with
    ``stream`` the (outcome, arm) pairs of the golden binary stream."""
    tour = (ROOT / "README.md").read_text().split("\n## Library quick tour\n")[1].split("\n## ")[0]
    events = map(json.loads, (GOLDEN / "binary.ndjson").read_text().splitlines())
    namespace = {"stream": [(event["outcome"], event["arm"]) for event in events]}
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(blocks) == 3 and namespace["r"].ledger.steps and namespace["oc"].n_sims == 1000
    assert len(capsys.readouterr().out.splitlines()) == 2  # the recorded steps, the lab's rates
