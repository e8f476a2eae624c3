import json
import shutil
from pathlib import Path

import pytest

from trialbet import checkpoint as ckpt
from trialbet.cli import main
from trialbet.variants import MONITORS

GOLDEN = Path(__file__).parent / "data" / "golden"

# The options each committed checkpoint was written under; its config_sha256
# pins the configuration dict the monitor command builds from them.
GOLDEN_ARGS = {
    "binary": [],
    "deaths": ["--alpha", "0.1"],
    "continuous": ["--c-max", "0.5", "--burn-in", "20", "--ramp", "40"],
    "survival": ["--risk-trt", "60", "--risk-ctrl", "60", "--lambda-max", "0.3"],
    "multistate": [],
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_golden_checkpoint_resumes_bit_exactly(capsys, tmp_path, variant):
    """A checkpoint written by an earlier release, halfway through its stream,
    resumes to that release's uninterrupted report, byte for byte."""
    ck = tmp_path / "ck.json"
    shutil.copyfile(GOLDEN / f"{variant}.ckpt.json", ck)
    report = tmp_path / "report.json"
    code = main(["monitor", "--variant", variant, "--input", str(GOLDEN / f"{variant}.ndjson"),
                 "--checkpoint", str(ck), "--resume", "--report", str(report),
                 *GOLDEN_ARGS[variant]])
    err = capsys.readouterr().err
    assert code in (0, 10), err
    assert "resumed from checkpoint at line 60" in err
    assert report.read_text() == (GOLDEN / f"{variant}.report.json").read_text()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    monitor = MONITORS["binary"]
    cfg = {"variant": "binary", "alpha": 0.05, "burn_in": 5, "ramp": 10, "p": 0.5}
    state = monitor.build(cfg)
    for k in range(30):
        state.step(int(k % 3 == 0), k % 2)
    path = tmp_path / "ck.json"
    ckpt.write_checkpoint_file(str(path), "binary", state, cfg, 30)
    before = path.read_text()

    state.step(1, 1)

    def dump_half(doc, fh):
        text = json.dumps(doc)
        fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(ckpt.json, "dump", dump_half)
    with pytest.raises(OSError, match="no space"):
        ckpt.write_checkpoint_file(str(path), "binary", state, cfg, 31)
    monkeypatch.undo()

    assert path.read_text() == before
    resumed, position = ckpt.read_checkpoint_file(str(path), "binary", cfg)
    assert position == 30 and resumed.i == 30
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
