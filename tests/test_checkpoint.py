import contextlib
import dataclasses
import functools
import io
import json
import math
import operator
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from trialbet import checkpoint as ckpt
from trialbet.cli import main
from trialbet.core import RampSchedule, WealthLedger
from trialbet.survival import SurvivalRecord
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


def run_main(argv):
    """(exit code, stdout, stderr) of ``main``, without pytest's capture
    fixtures, which hypothesis tests cannot use."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


@pytest.mark.parametrize("cls", [*(m.state for m in MONITORS.values()), WealthLedger],
                         ids=lambda cls: cls.__name__)
def test_saved_form_is_every_field(cls):
    """Every dataclass field of a state and of the ledger is saved, with no
    exception: what is not state (alpha, record_steps) is not a field."""
    assert [name for name, _, _ in ckpt._layout(cls)] == [f.name for f in dataclasses.fields(cls)]


def _monitor(variant, source, *argv):
    return main(["monitor", "--variant", variant, "--input", str(source),
                 *argv, *GOLDEN_ARGS[variant]])


def _head(tmp_path, variant, k):
    """The first ``k`` lines of a golden stream, as a file."""
    lines = (GOLDEN / f"{variant}.ndjson").read_text().splitlines(keepends=True)
    head = tmp_path / f"head{k}.ndjson"
    head.write_text("".join(lines[:k]))
    return head


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_writer_reproduces_golden_checkpoint(capsys, tmp_path, variant):
    """The golden schema-1 checkpoints pin the writer as well as the reader: the
    checkpoint written after the first 60 lines equals the earlier release's,
    apart from its time, its schema number and the multistate state model,
    which schema 2 no longer saves."""
    ck = tmp_path / "ck.json"
    assert _monitor(variant, _head(tmp_path, variant, 60), "--checkpoint", str(ck)) in (0, 10)
    written = json.loads(ck.read_text())
    golden = json.loads((GOLDEN / f"{variant}.ckpt.json").read_text())
    written.pop("written_at")
    golden.pop("written_at")
    assert (written["schema"], golden["schema"]) == (2, 1)
    golden["schema"] = 2
    if variant == "multistate":
        for key in ("states", "absorbing", "good"):
            golden["state"].pop(key)
    assert written == golden


@pytest.mark.parametrize("cut", [1, 37, 119])
@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_interrupted_run_resumes_to_same_report(capsys, tmp_path, variant, cut):
    stream = GOLDEN / f"{variant}.ndjson"
    full, resumed, ck = tmp_path / "full.json", tmp_path / "resumed.json", tmp_path / "ck.json"
    code = _monitor(variant, stream, "--report", str(full))
    assert _monitor(variant, _head(tmp_path, variant, cut), "--checkpoint", str(ck)) in (0, 10)
    assert _monitor(variant, stream, "--checkpoint", str(ck), "--resume",
                    "--report", str(resumed)) == code
    assert f"resumed from checkpoint at line {cut}" in capsys.readouterr().err
    assert resumed.read_text() == full.read_text()
    assert full.read_text() == (GOLDEN / f"{variant}.report.json").read_text()


@pytest.mark.parametrize("variant,corrupt", [
    ("binary", lambda doc: [1]),
    ("continuous", lambda doc: {**doc, "state": {**doc["state"], "values": 5}}),
    ("binary", lambda doc: {**doc, "state": {k: v for k, v in doc["state"].items()
                                             if k != "ledger"}}),
    ("multistate", lambda doc: {**doc, "state": {k: v for k, v in doc["state"].items()
                                                 if k != "good"}}),
    ("multistate", lambda doc: {**doc, "state": {**doc["state"], "good": [["ICU"], "Ward"]}}),
], ids=["not-an-object", "scalar-values", "no-ledger", "schema-1-no-good", "schema-1-mixed-good"])
def test_corrupt_checkpoint_is_one_error_line(capsys, tmp_path, variant, corrupt):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(corrupt(json.loads((GOLDEN / f"{variant}.ckpt.json").read_text()))))
    code = _monitor(variant, GOLDEN / f"{variant}.ndjson", "--checkpoint", str(ck), "--resume")
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: corrupt checkpoint"), err


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

    def open_full_disk(*args, **kwargs):
        """A file whose write stores half its text, then fails."""
        fh = open(*args, **kwargs)
        write = fh.write

        def write_half(text):
            write(text[: len(text) // 2])
            raise OSError("no space left on device")

        fh.write = write_half
        return fh

    monkeypatch.setattr(ckpt, "open", open_full_disk, raising=False)
    with pytest.raises(OSError, match="no space"):
        ckpt.write_checkpoint_file(str(path), "binary", state, cfg, 31)
    monkeypatch.undo()

    assert path.read_text() == before
    resumed, position = ckpt.read_checkpoint_file(str(path), "binary", cfg)
    assert position == 30 and resumed.i == 30
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


@pytest.mark.parametrize("events,positions", [(3000, [1000, 2000, 3000]),
                                              (2500, [1000, 2000, 2500])])
def test_no_final_rewrite_of_the_last_periodic_checkpoint(tmp_path, monkeypatch, events,
                                                          positions):
    """``--checkpoint-every 1000`` writes after each thousandth event, and at the
    end only when events came after the last periodic write: a run that ends
    on a periodic write saved its final state there.  Either checkpoint
    resumes to the uninterrupted report."""
    stream, ck = tmp_path / "deaths.ndjson", tmp_path / "ck.json"
    stream.write_text('{"arm": 1}\n{"arm": 0}\n\n' * (events // 2))
    written = []
    write = ckpt.write_checkpoint_file

    def counted(path, variant, state, config, position):
        written.append(position)
        write(path, variant, state, config, position)

    monkeypatch.setattr(ckpt, "write_checkpoint_file", counted)
    argv = ["monitor", "--variant", "deaths", "--input", str(stream), "--checkpoint", str(ck)]
    code, out, _ = run_main([*argv, "--checkpoint-every", "1000"])
    lines = [3 * (n // 2) - 1 for n in positions]  # each event pair is three lines
    assert code in (0, 10) and written == lines
    assert run_main([*argv, "--resume"])[:2] == (code, out)


@pytest.mark.parametrize("variant,edit,message", [
    ("binary", {"p": 0.3}, "checkpoint p 0.3 does not match"),
    ("binary", {"position": -5}, "position -5 is before its 60 events"),
    ("binary", {"p": 0.3, "position": -5}, "position -5"),
    ("deaths", {"position": 59}, "position 59 is before its 60 events"),
    ("continuous", {"c_max": 0.9}, "checkpoint c_max 0.9 does not match"),
    ("continuous", {"p": 0.6}, "checkpoint p 0.6 does not match"),
    ("survival", {"lambda_max": 0.5}, "checkpoint lambda_max 0.5 does not match"),
    ("multistate", {"burn_in": 3}, "checkpoint burn_in 3 does not match"),
    ("multistate", {"good": [["Ward", "ICU"], ["ICU", "Dead"]]},
     "checkpoint good [['ICU', 'Dead'], ['Ward', 'ICU']] does not match"),
    ("multistate", {"states": ["ICU", "Ward", "Home", "Dead"]},
     "checkpoint states ['ICU', 'Ward', 'Home', 'Dead'] does not match"),
    ("multistate", {"absorbing": ["Dead"]}, "checkpoint absorbing ['Dead'] does not match"),
], ids=["binary-p", "binary-position", "binary-p-and-position", "deaths-position",
        "continuous-c_max", "continuous-p", "survival-lambda_max", "multistate-burn_in",
        "multistate-good", "multistate-states", "multistate-absorbing"])
def test_impossible_checkpoint_is_refused(capsys, tmp_path, variant, edit, message):
    """A position before the state's events, or a setting the state holds that
    differs from the configuration, is refused instead of resumed."""
    doc = json.loads((GOLDEN / f"{variant}.ckpt.json").read_text())
    for key, value in edit.items():
        (doc if key == "position" else doc["state"])[key] = value
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code = _monitor(variant, GOLDEN / f"{variant}.ndjson", "--checkpoint", str(ck), "--resume",
                    "--report", str(report))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err
    assert not report.exists()


def test_a_non_finite_float_decodes_only_where_a_run_can_hold_it():
    """``float.fromhex`` reads "nan", "inf" and "-inf".  A state refuses them
    where no run holds them: log-wealth, past outcomes, the survival score,
    and a survival last time of NaN or ``inf``.  A fresh survival
    state's ``last_time`` of -inf, and the arm moments that outcomes near
    the float range overflow (infinite, then NaN), still decode."""
    ledger = ckpt.encode_state(WealthLedger())
    for spelling in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="^log_wealth must be finite"):
            ckpt.decode_state(WealthLedger, {**ledger, "log_wealth": spelling})
    continuous = MONITORS["continuous"].state
    state = continuous()
    for y, moments in ((-1.7e308, None), (1.7e308, ["inf", "-inf"]), (0.0, ["nan", "nan"])):
        state.step(y, 1)
        saved = ckpt.encode_state(state)
        assert moments is None or saved["trt"][1:] == moments  # mean and m2
        assert ckpt.encode_state(ckpt.decode_state(continuous, saved)) == saved
    with pytest.raises(ValueError, match="^past outcomes must be finite numbers, got inf"):
        ckpt.decode_state(continuous, {**saved, "values": ["0x0p+0", "inf"]})
    survival = ckpt.encode_state(MONITORS["survival"].state(risk_trt=3, risk_ctrl=4))
    assert survival["last_time"] == "-inf"
    assert ckpt.decode_state(MONITORS["survival"].state, survival).last_time == -math.inf
    for key, spelling in (("cum_z", "nan"), ("cum_z", "-inf"), ("last_time", "nan"),
                          ("last_time", "inf")):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ckpt.decode_state(MONITORS["survival"].state, {**survival, key: spelling})


def test_schema_1_model_sets_resume_in_any_order(capsys, tmp_path):
    """Schema 1 saved ``absorbing`` and ``good`` as sets: their order is no part
    of the model, so a reordered schema-1 checkpoint still resumes."""
    doc = json.loads((GOLDEN / "multistate.ckpt.json").read_text())
    doc["state"]["absorbing"].reverse()
    doc["state"]["good"].reverse()
    ck, report = tmp_path / "ck.json", tmp_path / "report.json"
    ck.write_text(json.dumps(doc))
    assert _monitor("multistate", GOLDEN / "multistate.ndjson", "--checkpoint", str(ck),
                    "--resume", "--report", str(report)) == 0
    assert report.read_text() == (GOLDEN / "multistate.report.json").read_text()


def test_survival_risk_sets_resume_from_the_checkpoint(capsys, tmp_path):
    """The risk sets are running values: the checkpoint's, not the cohort sizes
    the configuration starts from, are the ones a resume continues."""
    doc = json.loads((GOLDEN / "survival.ckpt.json").read_text())
    state, position = ckpt.load_checkpoint(doc, "survival", {
        "variant": "survival", "alpha": 0.05, "burn_in": 30, "ramp": 50,
        "lambda_max": 0.3, "risk_trt": 60, "risk_ctrl": 60})
    assert position == 60
    assert (state.risk_trt, state.risk_ctrl) == (doc["state"]["risk_trt"],
                                                 doc["state"]["risk_ctrl"])
    assert state.risk_trt + state.risk_ctrl < 120


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_periodic_checkpoint_survives_a_failed_run(capsys, tmp_path, variant):
    """``--checkpoint-every 7`` on a stream with a corrupt line after its 35th
    event: the run fails with one error line, its checkpoint is the one
    written after event 35, and a resume over the intact stream reports
    exactly what the uninterrupted run reports."""
    lines = (GOLDEN / f"{variant}.ndjson").read_text().splitlines(keepends=True)
    lines[37] = '{"arm": 1,\n'  # line 38
    broken, ck = tmp_path / "broken.ndjson", tmp_path / "ck.json"
    broken.write_text("".join(lines))
    code = _monitor(variant, broken, "--checkpoint", str(ck), "--checkpoint-every", "7")
    err = capsys.readouterr().err
    assert code == 1
    assert [row for row in err.splitlines() if row.startswith("error:")] == [
        "error: line 38: invalid JSON (Expecting property name enclosed in double quotes)"]
    assert json.loads(ck.read_text())["position"] == 35
    report = tmp_path / "report.json"
    assert _monitor(variant, GOLDEN / f"{variant}.ndjson", "--checkpoint", str(ck), "--resume",
                    "--report", str(report)) in (0, 10)
    assert "resumed from checkpoint at line 35" in capsys.readouterr().err
    assert report.read_text() == (GOLDEN / f"{variant}.report.json").read_text()


def _paths(node, path=()):
    """The path (keys and indexes) of every entry of a JSON document."""
    entries = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in entries:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


def _entry(doc, path):
    return functools.reduce(operator.getitem, path, doc)


_HUGE_INTS = hs.sampled_from([10**19, 10**300, 10**309, 10**400]).flatmap(
    lambda v: hs.sampled_from([v, -v]))
# each corruption that replaces an entry: what replaces it, and the entries it is drawn for
_REPLACEMENTS = {
    "type swap": (hs.sampled_from(["x", "", 0.5, 3, True, None, [], {}]), lambda v: True),
    "huge int": (_HUGE_INTS, lambda v: type(v) in (int, float)),
    "hex past range": (hs.sampled_from(["0x1p+1024", "-0x1.8p+1100"]),
                       lambda v: isinstance(v, str) and "0x" in v),  # a running float
    # what float.hex writes for the non-finite floats, which float.fromhex reads
    "hex non-finite": (hs.sampled_from(["nan", "inf", "-inf"]),
                       lambda v: isinstance(v, str) and "0x" in v),
    "nan": (hs.just(math.nan), lambda v: True),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
@settings(max_examples=30, deadline=None)
@given(data=hs.data())
def test_any_corrupt_field_ends_cleanly(variant, data):
    """One entry of a golden checkpoint swapped for another type, an int far
    past int64 or the float range, a hex float past that range, the hex
    spelling of NaN or an infinity, or NaN, or deleted, or a key added beside
    it: the resume ends in exit 0 or 10 with a finite log e-value, or in exit
    1 with one ``error:`` line, the last; never in a traceback."""
    doc = json.loads((GOLDEN / f"{variant}.ckpt.json").read_text())
    how = data.draw(hs.sampled_from([*_REPLACEMENTS, "delete", "extra"]), label="corruption")
    value, fits = _REPLACEMENTS.get(how, (None, lambda v: True))
    *parents, last = data.draw(hs.sampled_from(
        [path for path in _paths(doc) if fits(_entry(doc, path))]), label="path")
    node = _entry(doc, parents)
    if how == "delete":
        del node[last]
    elif how == "extra" and isinstance(node, dict):
        node["extra"] = 0
    elif how == "extra":
        node.append(0)
    else:
        node[last] = data.draw(value, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck.json"
        ck.write_text(json.dumps(doc))
        code, out, err = run_main(["monitor", "--variant", variant, "--checkpoint", str(ck),
                                   "--resume", "--input", str(GOLDEN / f"{variant}.ndjson"),
                                   *GOLDEN_ARGS[variant]])
    errors = [row for row in err.splitlines() if row.startswith("error:")]
    if code == 1:
        assert errors == err.splitlines()[-1:] and out == "", err
    else:
        report = json.loads(out)
        assert code in (0, 10) and errors == [] and report["crossed"] == (code == 10)
        assert type(report["log_e_value"]) is float and math.isfinite(report["log_e_value"])


# 0 and 1 as a caller may spell them: int, bool, float and numpy scalars
_FLAGS = hs.sampled_from([0, 1, False, True, 0.0, 1.0, np.int8(0), np.int8(1), np.int64(1),
                          np.bool_(False), np.bool_(True), np.float64(0.0), np.float64(1.0)])
_NUMBERS = hs.sampled_from([int, float, np.float64])


def _survival_event(state, draw):
    """The next record in time order, its time an int, a float or an
    ``np.float64``, as a ``SurvivalRecord`` or a plain tuple."""
    time = draw(_NUMBERS)(max(state.last_time, 0.0) + draw(hs.integers(0, 2)))
    record = draw(hs.sampled_from([SurvivalRecord, lambda *fields: fields]))
    state.step(record(time, draw(_FLAGS), draw(_FLAGS)))


# each variant's fresh state (bets start at its third event) and one drawn event fed to it
_STREAMS = {
    "binary": ({}, lambda s, draw: s.step(draw(_FLAGS), draw(_FLAGS))),
    "deaths": ({}, lambda s, draw: s.step(draw(_FLAGS))),
    "continuous": ({}, lambda s, draw: s.step(draw(_NUMBERS)(draw(hs.integers(-3, 3))),
                                              draw(_FLAGS))),
    "survival": ({"risk_trt": 20, "risk_ctrl": 20}, _survival_event),
    "multistate": ({}, lambda s, draw: s.step_classified(draw(_FLAGS), draw(_FLAGS))),
}
_BAD_TIMES = hs.one_of(hs.sampled_from([math.nan, math.inf, True, False, 10**400, -10**400,
                                        -1, np.float64("nan"), np.float64(-2.5)]),
                       hs.floats(max_value=-5e-324))  # every negative float, -inf too


@pytest.mark.parametrize("variant", sorted(_STREAMS))
@settings(max_examples=15, deadline=None)
@given(data=hs.data())
def test_any_spelling_of_a_stream_round_trips(variant, data):
    """A short stream whose flags, outcomes and survival times are drawn as
    ints, bools, floats and numpy scalars leaves a state that a checkpoint
    writes and reads back equal; a survival time no record may hold is
    refused by ``step``, with nothing changed."""
    options, feed = _STREAMS[variant]
    cls = MONITORS[variant].state
    state = cls(sched=RampSchedule(2, 3), **options)
    for _ in range(data.draw(hs.integers(0, 12), label="events")):
        feed(state, data.draw)
    saved = json.loads(json.dumps(ckpt.encode_state(state)))
    clone = ckpt.decode_state(cls, saved)
    assert clone == state and ckpt.encode_state(clone) == saved
    if variant == "survival":
        time = data.draw(_BAD_TIMES, label="time")
        with pytest.raises(ValueError, match="^time on study must be finite and >= 0, got "):
            state.step((time, 1, 1))
        assert ckpt.encode_state(state) == saved
