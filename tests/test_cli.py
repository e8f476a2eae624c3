import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from test_checkpoint import GOLDEN, GOLDEN_ARGS, run_main
from trialbet.binary import BinaryState
from trialbet.cli import EXIT_CROSSED, EXIT_ERROR, EXIT_OK, main
from trialbet.multistate import CONTROL_DAILY
from trialbet.simlab.generators import binary_trial
from trialbet.simlab.scenario import SIM_VARIANTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def binary_stream(tmp_path):
    rng = np.random.default_rng(17)
    t, y = binary_trial(rng, 160, 0.30, 0.40)
    path = tmp_path / "events.ndjson"
    write_ndjson(path, [{"arm": int(a), "outcome": int(o)} for a, o in zip(t, y)])
    return path, t, y


class TestMonitor:
    def test_binary_stream_report(self, capsys, binary_stream):
        path, t, y = binary_stream
        code, out, err = run_cli(capsys, "monitor", "--variant", "binary",
                                 "--input", str(path))
        report = json.loads(out)
        state = BinaryState()
        for a, o in zip(t, y):
            state.step(int(o), int(a))
        assert report["e_value"] == pytest.approx(state.ledger.wealth, rel=1e-12)
        assert report["events"] == 160
        assert code == (EXIT_CROSSED if state.ledger.crossed else EXIT_OK)

    def test_empty_stream(self, capsys, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        code, out, _ = run_cli(capsys, "monitor", "--variant", "binary",
                               "--input", str(path))
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["e_value"] == 1.0 and report["crossed"] is False

    def test_crossing_exit_code_and_notice(self, capsys, tmp_path):
        # a long run of control deaths drives the death coin toward 0
        path = tmp_path / "deaths.ndjson"
        write_ndjson(path, [{"arm": 0}] * 200)
        code, out, err = run_cli(capsys, "monitor", "--variant", "deaths",
                                 "--input", str(path))
        assert code == EXIT_CROSSED
        assert "CROSSED at event" in err
        report = json.loads(out)
        assert report["crossed"] is True and report["crossed_at"] is not None

    def test_overflowing_e_value_reports_inf(self, capsys, tmp_path):
        # log-e passes 709.78, beyond which exp() leaves the float range
        rng = np.random.default_rng(1)
        t, y = binary_trial(rng, 60_000, 0.6, 0.2)
        path = tmp_path / "strong.ndjson"
        write_ndjson(path, [{"arm": int(a), "outcome": int(o)} for a, o in zip(t, y)])
        code, out, err = run_cli(capsys, "monitor", "--variant", "binary",
                                 "--input", str(path))
        assert code == EXIT_CROSSED
        assert "Traceback" not in err

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        report = json.loads(out, parse_constant=reject)
        assert report["e_value"] == "inf"
        assert report["log_e_value"] > 709.79

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"arm": 1, "outcome": 0}\nnot json at all\n')
        code, _, err = run_cli(capsys, "monitor", "--variant", "binary",
                               "--input", str(path))
        assert code == EXIT_ERROR
        assert "line 2" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.ndjson"
        write_ndjson(path, [{"arm": 1, "outcome": 0, "site": "A"}])
        code, _, err = run_cli(capsys, "monitor", "--variant", "binary",
                               "--input", str(path))
        assert code == EXIT_ERROR
        assert "unknown fields" in err and "site" in err

    def test_missing_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "missing.ndjson"
        write_ndjson(path, [{"arm": 1}])
        code, _, err = run_cli(capsys, "monitor", "--variant", "binary",
                               "--input", str(path))
        assert code == EXIT_ERROR and "missing fields" in err

    def test_unsorted_survival_stream_rejected(self, capsys, tmp_path):
        path = tmp_path / "surv.ndjson"
        write_ndjson(path, [{"time": 5.0, "status": 1, "arm": 0},
                            {"time": 4.0, "status": 1, "arm": 1}])
        code, _, err = run_cli(capsys, "monitor", "--variant", "survival",
                               "--input", str(path),
                               "--risk-trt", "10", "--risk-ctrl", "10")
        assert code == EXIT_ERROR and "not sorted" in err

    def test_survival_requires_risk_sets(self, capsys, tmp_path):
        path = tmp_path / "surv.ndjson"
        write_ndjson(path, [{"time": 5.0, "status": 1, "arm": 0}])
        code, _, err = run_cli(capsys, "monitor", "--variant", "survival",
                               "--input", str(path))
        assert code == EXIT_ERROR and "--risk-trt" in err

    def test_survival_exhausted_risk_set_refused(self, capsys, tmp_path):
        """Ten treated events against a treated cohort of two: the third is refused."""
        path = tmp_path / "s.ndjson"
        write_ndjson(path, [{"time": float(k + 1), "status": 1, "arm": 1} for k in range(10)])
        code, out, err = run_cli(capsys, "monitor", "--variant", "survival",
                                 "--risk-trt", "2", "--risk-ctrl", "2", "--input", str(path))
        assert code == EXIT_ERROR and out == ""
        assert err.splitlines() == ["error: line 3: treated risk set is exhausted: "
                                    "more treated records than the treated cohort size"]

    def test_survival_entry_time_offsets_clock(self, capsys, tmp_path):
        path = tmp_path / "surv.ndjson"
        write_ndjson(path, [
            {"time": 10.0, "status": 1, "arm": 0, "entry_time": 8.0},
            {"time": 9.0, "status": 1, "arm": 1, "entry_time": 2.0},
        ])  # study times 2.0 then 7.0: sorted
        code, out, _ = run_cli(capsys, "monitor", "--variant", "survival",
                               "--input", str(path),
                               "--risk-trt", "5", "--risk-ctrl", "5")
        assert code == EXIT_OK
        assert json.loads(out)["events"] == 2

    def test_multistate_unknown_state_rejected(self, capsys, tmp_path):
        path = tmp_path / "ms.ndjson"
        write_ndjson(path, [{"from": "ICU", "to": "Hospice", "arm": 0}])
        code, _, err = run_cli(capsys, "monitor", "--variant", "multistate",
                               "--input", str(path))
        assert code == EXIT_ERROR and "unknown state" in err

    def test_multistate_stream_with_day_field(self, capsys, tmp_path):
        path = tmp_path / "ms.ndjson"
        write_ndjson(path, [{"from": "ICU", "to": "Ward", "arm": 1, "day": 3},
                            {"from": "Ward", "to": "Home", "arm": 1, "day": 7}])
        code, out, _ = run_cli(capsys, "monitor", "--variant", "multistate",
                               "--input", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["counts"]["good_trt"] == 2

    def test_progress_lines(self, capsys, tmp_path):
        path = tmp_path / "d.ndjson"
        write_ndjson(path, [{"arm": k % 2} for k in range(10)])
        code, _, err = run_cli(capsys, "monitor", "--variant", "deaths",
                               "--input", str(path), "--progress-every", "5")
        assert code == EXIT_OK
        assert "event 5:" in err and "event 10:" in err


class TestCheckpoint:
    def test_resume_is_bit_exact(self, capsys, tmp_path, binary_stream):
        path, _, _ = binary_stream
        full = tmp_path / "full.json"
        run_cli(capsys, "monitor", "--variant", "binary", "--input", str(path),
                "--report", str(full))

        # process only the first 60 lines, checkpointing
        head = tmp_path / "head.ndjson"
        head.write_text("".join(path.read_text().splitlines(keepends=True)[:60]))
        ck = tmp_path / "ck.json"
        run_cli(capsys, "monitor", "--variant", "binary", "--input", str(head),
                "--checkpoint", str(ck))

        resumed = tmp_path / "resumed.json"
        code, _, _ = run_cli(capsys, "monitor", "--variant", "binary",
                             "--input", str(path), "--checkpoint", str(ck),
                             "--resume", "--report", str(resumed))
        a = json.loads(full.read_text())
        b = json.loads(resumed.read_text())
        assert b["log_e_value"] == a["log_e_value"]  # bit-exact
        assert b["events"] == a["events"]
        assert b["counts"] == a["counts"]

    def test_config_mismatch_refused(self, capsys, tmp_path, binary_stream):
        path, _, _ = binary_stream
        ck = tmp_path / "ck.json"
        run_cli(capsys, "monitor", "--variant", "binary", "--input", str(path),
                "--checkpoint", str(ck))
        code, _, err = run_cli(capsys, "monitor", "--variant", "binary",
                               "--input", str(path), "--checkpoint", str(ck),
                               "--resume", "--ramp", "55")
        assert code == EXIT_ERROR and "configuration does not match" in err

    def test_variant_mismatch_refused(self, capsys, tmp_path, binary_stream):
        path, _, _ = binary_stream
        ck = tmp_path / "ck.json"
        run_cli(capsys, "monitor", "--variant", "binary", "--input", str(path),
                "--checkpoint", str(ck))
        code, _, err = run_cli(capsys, "monitor", "--variant", "deaths",
                               "--input", str(path), "--checkpoint", str(ck),
                               "--resume")
        assert code == EXIT_ERROR


def test_monitor_prefix_purity(binary_stream):
    """State after k events is a pure function of the first k events: a
    mid-stream snapshot taken while processing the full stream equals the
    state from replaying only the k-prefix."""
    from trialbet.checkpoint import encode_state
    from trialbet.cli import parse_event
    from trialbet.variants import MONITORS

    path, _, _ = binary_stream
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    monitor = MONITORS["binary"]
    cfg = {"variant": "binary", "alpha": 0.05, "burn_in": 50, "ramp": 100, "p": 0.5}
    k = 45
    full = monitor.build(cfg)
    snapshot = None
    for i, line in enumerate(lines, start=1):
        full.step(*parse_event(monitor, line, i))
        if i == k:
            snapshot = encode_state(full)
    prefix_only = monitor.build(cfg)
    for i, line in enumerate(lines[:k], start=1):
        prefix_only.step(*parse_event(monitor, line, i))
    assert encode_state(prefix_only) == snapshot


class TestSimulate:
    def test_scenario_run_and_json(self, capsys, tmp_path):
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({
            "variant": "deaths",
            "params": {"n_deaths": 120, "coin": 0.30},
            "n_sims": 50, "alpha": 0.05, "seed": 5,
        }))
        out_json = tmp_path / "oc.json"
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(sc),
                               "--json", str(out_json))
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["variant"] == "deaths" and doc["n_sims"] == 50
        assert doc["schema"] == 1
        assert 0 <= doc["rejection_rate"] <= 1
        assert "rejection rate" in out

    def test_invalid_scenario_schema(self, capsys, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"variant": "binary",
                                  "params": {"n_patients": 10, "p_ctrl": 0.4,
                                             "typo_field": 1}}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(sc))
        assert code == EXIT_ERROR and "unknown parameters" in err

    @pytest.mark.parametrize("doc", [
        [1],
        {"variant": "binary", "params": [1, 2]},
        {"variant": ["binary"]},
        {"variant": "binary", "params": {"n_patients": "abc", "p_ctrl": 0.4, "p_trt": 0.3}},
    ], ids=["not-an-object", "params-list", "variant-list", "n-patients-string"])
    def test_malformed_scenario_is_one_error_line(self, capsys, tmp_path, doc):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(sc), "--seed", "1")
        assert code == EXIT_ERROR
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_impossible_trial_is_refused(self, capsys, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"variant": "binary",
                                  "params": {"n_patients": 50, "p_ctrl": 0.4, "p_trt": 1.2}}))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(sc))
        assert code == EXIT_ERROR and out == ""
        assert err == "error: p_trt must be in [0, 1], got 1.2\n"

    def test_scenario_without_variant_names_the_field(self, capsys, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"params": {}}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(sc))
        assert code == EXIT_ERROR
        assert err == "error: scenario is missing the required field 'variant'\n"


class TestPower:
    """Exact stdout and error text of every variant's design calculator."""

    def test_binary(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "binary",
                                 "--p1", "0.40", "--p2", "0.35", "--power", "0.80")
        assert (code, out, err) == (EXIT_OK, "2942\n", "")

    def test_continuous(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "continuous",
                                 "--d", "0.40", "--power", "0.80")
        assert (code, out, err) == (EXIT_OK, "200\n", "")

    def test_continuous_large_effect(self, capsys):
        """The solver's bracket starts at 2 per arm, where the noncentral t is sound."""
        code, out, err = run_cli(capsys, "power", "--variant", "continuous", "--d", "2")
        assert (code, out, err) == (EXIT_OK, "12\n", "")

    def test_survival(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "survival",
                                 "--hr", "0.80", "--power", "0.80")
        assert (code, out, err) == (EXIT_OK, "631\n", "")

    def test_deaths(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "deaths",
                                 "--p1", "0.25", "--p2", "0.15")
        assert (code, err) == (EXIT_OK, "")
        assert out == ("frequentist N       500\n"
                       "deaths-only N       1250\n"
                       "expected deaths     250 (alt) / 313 (null)\n"
                       "death coin          0.375\n")

    def test_missing_args(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "binary")
        assert (code, out, err) == (EXIT_ERROR, "",
                                    "error: --p1 and --p2 are required for binary sizing\n")

    @pytest.mark.parametrize("argv,message", [
        (["binary", "--p1", "0.4"], "--p1 and --p2 are required for binary sizing"),
        (["deaths", "--p2", "0.15"], "--p1 and --p2 are required for deaths sizing"),
        (["continuous"], "--d is required for continuous sizing"),
        (["survival", "--p1", "0.5"], "--hr is required for survival sizing"),
    ])
    def test_missing_flag_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "power", "--variant", *argv)
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


def test_compare_smoke(capsys, tmp_path):
    csv_path = tmp_path / "cmp.csv"
    code, out, _ = run_cli(capsys, "compare", "--baselines", "0.15,0.40",
                           "--sims", "25", "--seed", "2", "--csv", str(csv_path))
    assert code == EXIT_OK
    assert "winner" in out
    text = csv_path.read_text()
    assert text.startswith("# schema: trialbet.v1")
    assert "baseline" in text.splitlines()[1]


def test_wage_smoke(capsys, tmp_path):
    json_path = tmp_path / "wage.json"
    code, out, _ = run_cli(capsys, "wage", "--variant", "survival", "--hr", "0.80",
                           "--sims", "20", "--seed", "3", "--n", "150",
                           "--json", str(json_path))
    assert code == EXIT_OK
    doc = json.loads(json_path.read_text())
    assert {c["strategy"] for c in doc["cells"]} == {"fixed(0.25)", "half-kelly"}


def test_wage_continuous_smoke(capsys):
    code, out, _ = run_cli(capsys, "wage", "--variant", "continuous", "--d", "0.4",
                           "--sims", "10", "--seed", "3", "--n", "200")
    assert code == EXIT_OK
    assert "sign-only(0.6)" in out and "adaptive" in out


@pytest.mark.parametrize("command", [["wage", "--variant", "binary"], ["compare"]])
@pytest.mark.parametrize("sims", ["0", "-3"])
def test_study_refuses_fewer_than_one_replication(capsys, command, sims):
    code, out, err = run_cli(capsys, *command, "--sims", sims)
    assert code == EXIT_ERROR
    assert err == "error: n_sims must be >= 1\n"


@pytest.mark.parametrize("argv,message", [
    (["--variant", "survival", "--hr", "-0.5"], "hr must be > 0, got -0.5"),
    (["--variant", "binary", "--arr", "0.45"], "p_trt must be in [0, 1], got -0.0"),
])
def test_wage_refuses_impossible_trials(capsys, argv, message):
    """With --n given no sizing runs, so the scenario row's check refuses the effect."""
    code, out, err = run_cli(capsys, "wage", *argv, "--n", "50", "--sims", "3")
    assert code == EXIT_ERROR and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("argv,message", [
    (["wage", "--variant", "binary", "--hr", "0.5", "--sims", "3"],
     "the binary wage study does not read --hr"),
    (["wage", "--variant", "continuous", "--fixed", "0.9", "--sims", "3"],
     "the continuous wage study does not read --fixed"),
    (["wage", "--variant", "survival", "--arr", "0.1", "--sign-c", "0.3", "--sims", "3"],
     "the survival wage study does not read --arr or --sign-c"),
    (["power", "--variant", "survival", "--hr", "0.8", "--p1", "0.5"],
     "survival sizing does not read --p1"),
    (["power", "--variant", "deaths", "--p1", "0.25", "--p2", "0.15", "--d", "0.3"],
     "deaths sizing does not read --d"),
])
def test_option_the_variant_does_not_read_is_refused(capsys, argv, message):
    """An effect or strategy option meant for another variant is refused, not ignored."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


def _one_error_line(code: int, err: str) -> str:
    assert code == EXIT_ERROR and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


DEEP = "[" * 100_000  # nested past the interpreter's recursion limit


def test_deeply_nested_event_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "deep.ndjson"
    path.write_text('{"arm": 1}\n{"arm": ' + DEEP + "]" * len(DEEP) + "}\n")
    code, out, err = run_cli(capsys, "monitor", "--variant", "deaths", "--input", str(path))
    assert out == ""
    assert _one_error_line(code, err) == "error: line 2: invalid JSON (nested too deeply)"


def test_deeply_nested_scenario_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"variant": "binary", "params": ' + DEEP)
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert out == ""
    _one_error_line(code, err)


def test_deeply_nested_checkpoint_is_one_error_line(capsys, tmp_path, binary_stream):
    path, _, _ = binary_stream
    ckpt_path = tmp_path / "ck.json"
    ckpt_path.write_text('{"schema": 1, "state": ' + DEEP)
    code, out, err = run_cli(capsys, "monitor", "--variant", "binary", "--input", str(path),
                             "--checkpoint", str(ckpt_path), "--resume")
    assert out == ""
    _one_error_line(code, err)


def _edited_checkpoint(variant, path, value):
    """A resume from the golden ``variant`` checkpoint with the entry at
    ``path`` (keys and indexes into its document) set to ``value``."""
    def argv(tmp_path):
        doc = json.loads((GOLDEN / f"{variant}.ckpt.json").read_text())
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(doc))
        return ["monitor", "--variant", variant, "--input", str(GOLDEN / f"{variant}.ndjson"),
                "--checkpoint", str(ck), "--resume", *GOLDEN_ARGS[variant]]
    return argv


def _checkpoint_text(variant, edit):
    """A resume from the golden ``variant`` checkpoint whose text is ``edit``
    of the golden text, for a file that is not JSON."""
    def argv(tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(edit((GOLDEN / f"{variant}.ckpt.json").read_text()))
        return ["monitor", "--variant", variant, "--input", str(GOLDEN / f"{variant}.ndjson"),
                "--checkpoint", str(ck), "--resume", *GOLDEN_ARGS[variant]]
    return argv


def _short_input_resume(variant, k):
    """A resume from the golden ``variant`` checkpoint, at line 60, over only
    the first ``k`` lines of its stream."""
    def argv(tmp_path):
        lines = (GOLDEN / f"{variant}.ndjson").read_text().splitlines(keepends=True)
        head, ck = tmp_path / "head.ndjson", tmp_path / "ck.json"
        head.write_text("".join(lines[:k]))
        ck.write_text((GOLDEN / f"{variant}.ckpt.json").read_text())
        return ["monitor", "--variant", variant, "--input", str(head),
                "--checkpoint", str(ck), "--resume", *GOLDEN_ARGS[variant]]
    return argv


def _scenario_text(text):
    def argv(tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(text)
        return ["simulate", "--scenario", str(path)]
    return argv


def _events(variant, records, *options):
    """``monitor`` on a stream of ``records``."""
    def argv(tmp_path):
        path = tmp_path / "events.ndjson"
        write_ndjson(path, records)
        return ["monitor", "--variant", variant, "--input", str(path), *options]
    return argv


def _event_lines(variant, lines, *options):
    """``monitor`` on a stream of raw ``lines``, for numbers ``json.dumps`` cannot write."""
    def argv(tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text("".join(line + "\n" for line in lines))
        return ["monitor", "--variant", variant, "--input", str(path), *options]
    return argv


DIGITS_5001 = "1" + "0" * 5000  # past Python's 4,300-digit limit on int conversion
DIGIT_LIMIT = "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"


def _scenario(doc):
    def argv(tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        return ["simulate", "--scenario", str(path)]
    return argv


def _matrices(edit, both=False):
    """A multistate scenario whose ``trt`` matrix, and with ``both`` its
    ``ctrl`` matrix, is ``edit`` of the control matrix."""
    rows = [list(row) for row in CONTROL_DAILY.probs]
    return _scenario({"variant": "multistate", "n_sims": 2, "params": {
        "n_patients": 20, "matrices": {"trt": edit(rows), "ctrl": edit(rows) if both else rows}}})


_BINARY = {"n_patients": 20, "p_ctrl": 0.4}


# outcomes near the float maximum put residuals past the float range: the lab and the
# monitor both refuse them
_OVERFLOWING = {"variant": "continuous", "n_sims": 5, "seed": 1,
                "params": {"n_patients": 60, "mu_ctrl": 1e308, "burn_in": 5, "ramp": 5}}


def _lab(variant, **params):
    return _scenario({"variant": variant, "n_sims": 2, "params": {"n_patients": 20, **params}})


def _wage(variant, *argv):
    return lambda tmp_path: ["wage", "--variant", variant, *argv]


def _golden_monitor(variant, *argv):
    """``monitor`` on a golden stream with extra options."""
    def make(tmp_path):
        return ["monitor", "--variant", variant,
                "--input", str(GOLDEN / f"{variant}.ndjson"), *argv]
    return make


@pytest.mark.parametrize("argv,message", [
    (_edited_checkpoint("binary", ["schema"], 3), "error: unsupported checkpoint schema: 3"),
    (_edited_checkpoint("binary", ["schema"], True), "error: unsupported checkpoint schema: True"),
    (_edited_checkpoint("binary", ["schema"], 1.0), "error: unsupported checkpoint schema: 1.0"),
    (_events("survival", [{"time": 2.0, "status": 1, "arm": 1},
                          {"time": 3.0, "status": 1, "arm": 0, "entry_time": 4.5}],
             "--risk-trt", "5", "--risk-ctrl", "5"), "error: line 2: negative time on study"),
    (_scenario({"variant": "binary", "params": _BINARY, "alpha": 1.5}),
     "error: alpha must be in (0,1)"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 0}),
     "error: n_sims must be >= 1"),
    (_matrices(lambda rows: [[1.1, -0.1, 0.0, 0.0], *rows[1:]]),
     "error: transition probabilities must be >= 0"),
    (_matrices(lambda rows: rows[:3]), "error: transition matrix must be 4x4, got (3, 4)"),
    (_matrices(lambda rows: [[math.nan, 0.07, 0.03, 0.02], *rows[1:]]),
     "error: transition probabilities must be >= 0"),
    (lambda tmp_path: ["power", "--variant", "binary", "--p1", "0.4", "--p2", "0.3",
                       "--power", "1.5"], "error: power and alpha must be in (0,1)"),
    (_lab("binary", p_ctrl=0.4, ramp=0), "error: ramp must be >= 1, got 0"),
    (_lab("survival", lambda_max=1.8), "error: lambda_max must be in (0,1), got 1.8"),
    (_lab("continuous", c_max=3.0), "error: c_max must be in (0,1), got 3.0"),
    (_scenario({"variant": "deaths", "n_sims": 2, "params": {"n_deaths": 20, "burn_in": -5}}),
     "error: burn_in must be >= 0, got -5"),
    (_golden_monitor("binary", "--lambda-max", "0.3", "--c-max", "0.9"),
     "error: binary monitoring does not read --c-max or --lambda-max"),
    (_golden_monitor("continuous", "--p", "1.5"), "error: p must be in (0,1), got 1.5"),
    (_golden_monitor("binary", "--p", "0"), "error: p must be in (0,1), got 0.0"),
    (_golden_monitor("binary", "--resume"),
     "error: --resume and --checkpoint-every need --checkpoint"),
    (_golden_monitor("binary", "--checkpoint-every", "5"),
     "error: --resume and --checkpoint-every need --checkpoint"),
    (lambda tmp_path: [*_golden_monitor("binary", "--checkpoint-every", "-1")(tmp_path),
                       "--checkpoint", str(tmp_path / "ck.json")],
     "error: --checkpoint-every must be >= 0, got -1"),
    (_golden_monitor("deaths", "--progress-every", "-1"),
     "error: --progress-every must be >= 0, got -1"),
    (lambda tmp_path: ["trajectories", "--scenario", str(_scenario_path("binary_alt")),
                       "--trials", "-3", "--out", str(tmp_path / "t.csv")],
     "error: --trials must be >= 0, got -3"),
    (lambda tmp_path: ["simulate", "--scenario", str(_scenario_path("binary_alt")),
                       "--workers", "0"], "error: --workers must be >= 1, got 0"),
    (_wage("binary", "--n", "100", "--alpha", "1.5", "--sims", "3"),
     "error: alpha must be in (0,1)"),
    (_lab("binary", p_ctrl=0.4, n_patients=0), "error: n_patients must be an integer >= 1, got 0"),
    (_lab("continuous", n_patients=2.5), "error: n_patients must be an integer >= 1, got 2.5"),
    (_lab("survival", n_patients=True), "error: n_patients must be an integer >= 1, got True"),
    (_scenario({"variant": "deaths", "n_sims": 2, "params": {"n_deaths": 0}}),
     "error: n_deaths must be an integer >= 1, got 0"),
    (_lab("multistate", horizon=0), "error: horizon must be an integer >= 1, got 0"),
    (_wage("binary", "--arr", "0.05", "--n", "0", "--sims", "7"),
     "error: n_patients must be an integer >= 1, got 0"),
    (_wage("continuous", "--d", "0.3", "--n", "0", "--sims", "7"),
     "error: n_patients must be an integer >= 1, got 0"),
    (_wage("survival", "--hr", "0.7", "--n", "0", "--sims", "7"),
     "error: n_patients must be an integer >= 1, got 0"),
    (_lab("continuous", mu_trt=math.inf), "error: mu_trt must be finite, got inf"),
    (_lab("continuous", sd=math.inf), "error: sd must be finite, got inf"),
    (_lab("survival", hr=math.inf), "error: hr must be finite, got inf"),
    (_wage("continuous", "--d", "nan", "--n", "50", "--sims", "3"),
     "error: mu_trt must be finite, got nan"),
    (_lab("multistate", start="Dead"),
     "error: start must be one of the non-absorbing states ('Ward', 'ICU'), got 'Dead'"),
    (_lab("multistate", start="Foo"),
     "error: start must be one of the non-absorbing states ('Ward', 'ICU'), got 'Foo'"),
    (_lab("multistate", start=["ICU"]),
     "error: start must be one of the non-absorbing states ('Ward', 'ICU'), got ['ICU']"),
    (lambda tmp_path: ["power", "--variant", "survival", "--hr", "inf"],
     "error: hazard ratio must be finite, positive and != 1, got inf"),
    (lambda tmp_path: ["power", "--variant", "continuous", "--d", "nan"],
     "error: effect size must be finite and > 0, got nan"),
    (lambda tmp_path: ["power", "--variant", "continuous", "--d", "inf"],
     "error: effect size must be finite and > 0, got inf"),
    (_wage("survival", "--hr", "inf", "--sims", "3"),
     "error: hazard ratio must be finite, positive and != 1, got inf"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 2.9, "seed": 1.7}),
     "error: n_sims must be an integer, got 2.9"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": True}),
     "error: n_sims must be an integer, got True"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": "3"}),
     "error: n_sims must be an integer, got '3'"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "seed": 1.7}),
     "error: seed must be an integer, got 1.7"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "seed": -1}),
     "error: seed must be >= 0"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "alpha": "0.05"}),
     "error: alpha must be a number, got '0.05'"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "alpha": True}),
     "error: alpha must be a number, got True"),
    (_matrices(lambda rows: [rows[0], [0.0, 1.0, 0.0, 0.0], *rows[2:]], both=True),
     "error: start 'ICU' has an identity row in both arms' matrices: no patient can leave it"),
    (_scenario({"variant": "binary", "params": _BINARY, "n_sim": 5, "seeed": 3}),
     "error: unknown scenario fields: ['n_sim', 'seeed']"),
    (_lab("binary", p_ctrl="0.3"), "error: p_ctrl must be in [0, 1], got '0.3'"),
    (_lab("survival", censor_upper="5"), "error: censor_upper must be > 0 when set, got '5'"),
    (_lab("binary", p_ctrl=0.4, p_alloc=[0.5]), "error: p_alloc must be in (0, 1), got [0.5]"),
    (_scenario({"variant": ["x"], "params": _BINARY}),
     "error: unknown variant ['x']; expected one of "
     "('binary', 'deaths', 'continuous', 'survival', 'multistate')"),
    (_lab("binary", p_ctrl=True), "error: p_ctrl must be in [0, 1], got True"),
    (_lab("binary", p_ctrl=0.4, ramp=True), "error: ramp must be >= 1, got True"),
    (_lab("binary", p_ctrl=0.4, burn_in=True), "error: burn_in must be >= 0, got True"),
    (_lab("continuous", sign_only="yes"), "error: sign_only must be true or false, got 'yes'"),
    (_lab("binary", p_ctrl=0.4, burn_in="5"), "error: burn_in must be >= 0, got '5'"),
    (_lab("continuous", c_max="0.5"), "error: c_max must be in (0,1), got '0.5'"),
    (_lab("continuous", mu_trt="1"), "error: mu_trt must be a number, got '1'"),
    (_lab("continuous", mu_ctrl=None), "error: mu_ctrl must be a number, got None"),
    (_lab("continuous", mu_ctrl=True), "error: mu_ctrl must be a number, got True"),
    (_lab("multistate", matrices=5),
     "error: matrices must be exactly 'trt' and 'ctrl' rows of numbers when set, got 5"),
    (_matrices(lambda rows: [*rows[:3], [0, 0, 0, True]]),
     "error: matrices must be exactly 'trt' and 'ctrl' rows of numbers when set"),
    (_lab("binary", p_ctrl=0.4, fixed_dev="x"),
     "error: fixed_dev must be a number when set, got 'x'"),
    (_lab("survival", bet_rule="kelly"),
     "error: bet_rule must be 'fixed' or 'half_kelly', got 'kelly'"),
    (_edited_checkpoint("continuous", ["state", "trt", 0], -1),
     "error: corrupt checkpoint: arm counts must be >= 0, got -1 and 29"),
    (lambda tmp_path: ["power", "--variant", "survival", "--hr", "0.5", "--alpha", "1e-308"],
     "error: alpha must be > 2**-53 to size a trial, got 1e-308"),
    (lambda tmp_path: ["power", "--variant", "binary", "--p1", "0.3", "--p2", "0.2",
                       "--alpha", "1e-308"],
     "error: alpha must be > 2**-53 to size a trial, got 1e-308"),
    (_wage("survival", "--hr", "0.5", "--alpha", "1e-308", "--sims", "2"),
     "error: alpha must be > 2**-53 to size a trial, got 1e-308"),
    (lambda tmp_path: ["power", "--variant", "continuous", "--d", "0.3", "--alpha", "1e-308"],
     "error: alpha must be > 2**-53 to size a trial, got 1e-308"),
    (lambda tmp_path: ["power", "--variant", "continuous", "--d", "0.0001"],
     "error: effect size d=0.0001 needs more than 1e7 patients per arm at power 0.8 "
     "and alpha 0.05"),
    (lambda tmp_path: ["power", "--variant", "continuous", "--d", "0.001", "--power", "0.9",
                       "--alpha", "0.01"],
     "error: effect size d=0.001 needs more than 1e7 patients per arm at power 0.9 "
     "and alpha 0.01"),
    (_wage("continuous", "--d", "0.0001", "--sims", "2"),
     "error: effect size d=0.0001 needs more than 1e7 patients per arm"),
    (_lab("survival", censor_upper=10**400), f"error: censor_upper must be finite, got {10**400}"),
    (_lab("continuous", mu_trt=-10**309), f"error: mu_trt must be finite, got {-10**309}"),
    (_matrices(lambda rows: [[10**400, *rows[0][1:]], *rows[1:]]),
     "error: a transition-matrix entry is past the float range"),
    (_events("continuous", [{"arm": 1, "y": 10**400}]),
     f"error: line 1: field 'y' must be a finite number, got {10**400}"),
    (_events("survival", [{"time": -10**400, "status": 1, "arm": 0}], "--risk-trt", "5",
             "--risk-ctrl", "5"),
     f"error: line 1: field 'time' must be a finite number, got {-10**400}"),
    (_events("survival", [{"time": 3.0, "status": 1, "arm": 0, "entry_time": 10**400}],
             "--risk-trt", "5", "--risk-ctrl", "5"),
     f"error: line 1: field 'entry_time' must be a finite number, got {10**400}"),
    (_golden_monitor("binary", "--burn-in", str(10**400)),
     f"error: burn_in must be finite, got {10**400}"),
    (_golden_monitor("deaths", "--ramp", str(10**400)),
     f"error: ramp must be finite, got {10**400}"),
    (_edited_checkpoint("binary", ["state", "ledger", "log_wealth"], "0x1p+1024"),
     "error: corrupt checkpoint: field 'log_wealth' holds a hex float past the float range"),
    (_edited_checkpoint("survival", ["state", "cum_z"], "-0x1p+1024"),
     "error: corrupt checkpoint: field 'cum_z' holds a hex float past the float range"),
    (_edited_checkpoint("continuous", ["state", "values", 3], "0x1.8p+1025"),
     "error: corrupt checkpoint: field 'values' holds a hex float past the float range"),
    (_edited_checkpoint("continuous", ["state", "ctrl", 2], "0x1p+1024"),
     "error: corrupt checkpoint: field 'm2' holds a hex float past the float range"),
    (_edited_checkpoint("binary", ["state", "e_trt"], 10**400),
     f"error: corrupt checkpoint: field 'e_trt' is past the float range: {10**400}"),
    (_edited_checkpoint("multistate", ["state", "good_trt"], 10**400),
     f"error: corrupt checkpoint: field 'good_trt' is past the float range: {10**400}"),
    (_edited_checkpoint("continuous", ["state", "trt", 0], 10**400),
     f"error: corrupt checkpoint: field 'n' is past the float range: {10**400}"),
    (_event_lines("binary", ['{"arm": 1, "outcome": 0}'] * 3
                  + ['{"arm": 0, "outcome": ' + DIGITS_5001 + '}']),
     f"error: line 4: {DIGIT_LIMIT}"),
    (_event_lines("continuous", ['{"arm": 1, "y": 0.5}', '{"arm": 0, "y": -' + DIGITS_5001 + '}']),
     f"error: line 2: {DIGIT_LIMIT}"),
    (_event_lines("survival", ['{"time": 3.0, "status": 1, "arm": 0, "entry_time": '
                               + DIGITS_5001 + '}'], "--risk-trt", "5", "--risk-ctrl", "5"),
     f"error: line 1: {DIGIT_LIMIT}"),
    # refused by step on a line parsed before: the error names its own line
    (_event_lines("binary", ['{"arm": 1, "outcome": 0}'] * 3, "--p", "1e-320"),
     "error: line 2: multiplier must be positive and finite, got inf"),
    (_event_lines("survival", ['{"time": 1.0, "status": 1, "arm": 1}'] * 3,
                  "--risk-trt", "2", "--risk-ctrl", "2"),
     "error: line 3: treated risk set is exhausted"),
    (_short_input_resume("binary", 30),
     "error: input ends at line 30, before the checkpoint's line 60"),
    (_short_input_resume("survival", 0),
     "error: input ends at line 0, before the checkpoint's line 60"),
    (_short_input_resume("deaths", 59),
     "error: input ends at line 59, before the checkpoint's line 60"),
    (_edited_checkpoint("continuous", ["state", "ledger", "log_wealth"], "inf"),
     "error: corrupt checkpoint: log_wealth must be finite, got inf"),
    (_edited_checkpoint("continuous", ["state", "ledger", "log_wealth"], "nan"),
     "error: corrupt checkpoint: log_wealth must be finite, got nan"),
    (_edited_checkpoint("binary", ["state", "ledger", "log_wealth"], "-inf"),
     "error: corrupt checkpoint: log_wealth must be finite, got -inf"),
    (_edited_checkpoint("continuous", ["state", "values", 3], "nan"),
     "error: corrupt checkpoint: past outcomes must be finite numbers, got nan"),
    (_edited_checkpoint("continuous", ["state", "values", 0], "-inf"),
     "error: corrupt checkpoint: past outcomes must be finite numbers, got -inf"),
    (_edited_checkpoint("survival", ["state", "cum_z"], "nan"),
     "error: corrupt checkpoint: cum_z must be finite, got nan"),
    (_edited_checkpoint("survival", ["state", "last_time"], "nan"),
     "error: corrupt checkpoint: last_time must be finite or -inf, got nan"),
    (_checkpoint_text("binary", lambda text: text[: len(text) // 2]),
     "error: corrupt checkpoint: invalid JSON (Expecting value: line 1 column 208 (char 207))"),
    (_checkpoint_text("deaths", lambda text: text.replace('"position": 60',
                                                          '"position": ' + DIGITS_5001)),
     "error: corrupt checkpoint: " + DIGIT_LIMIT),
    (_scenario_text('{"variant": "binary", "n_sims": ' + DIGITS_5001 + "}"),
     "sc.json: " + DIGIT_LIMIT),
    (_scenario_text('{"variant": "binary", "n_sims": 5'),
     "sc.json: invalid JSON (Expecting ',' delimiter: line 1 column 34 (char 33))"),
    (_scenario(_OVERFLOWING),
     "error: continuous seed 1: replication 0 ends at a NaN log e-value; "
     "its data overflow the float range"),
    (lambda tmp_path: ["trajectories", *_scenario(_OVERFLOWING)(tmp_path)[1:], "--out", str(tmp_path / "t.csv")],
     "error: continuous seed 1: replication 0 ends at a NaN log e-value"),
    (_wage("continuous", "--d", "1e308", "--n", "60", "--sims", "2"),
     "error: continuous seed 0: replication 0 ends at a NaN log e-value"),
], ids=["checkpoint-schema-3", "checkpoint-schema-true", "checkpoint-schema-float",
        "entry-after-time", "alpha-1.5", "n_sims-0",
        "negative-matrix-entry", "three-matrix-rows", "nan-matrix-entry", "power-1.5",
        "lab-ramp-0", "lab-lambda_max-1.8", "lab-c_max-3", "lab-burn_in-negative",
        "monitor-other-variant-options", "monitor-continuous-p-1.5", "monitor-binary-p-0",
        "resume-without-checkpoint", "checkpoint-every-without-checkpoint",
        "negative-checkpoint-every", "negative-progress-every", "trajectories-trials-negative",
        "simulate-workers-0", "wage-alpha-1.5", "lab-n_patients-0", "lab-n_patients-2.5",
        "lab-n_patients-true", "lab-n_deaths-0", "lab-horizon-0", "wage-binary-n-0",
        "wage-continuous-n-0", "wage-survival-n-0", "lab-mu_trt-inf", "lab-sd-inf",
        "lab-hr-inf", "wage-d-nan", "lab-start-Dead", "lab-start-Foo", "lab-start-list",
        "power-hr-inf", "power-d-nan", "power-d-inf", "wage-hr-inf-sized", "n_sims-2.9",
        "n_sims-true", "n_sims-string", "seed-1.7", "seed-negative", "alpha-string",
        "alpha-true", "start-row-identity-in-both-arms", "misspelled-scenario-fields",
        "p_ctrl-string", "censor_upper-string", "p_alloc-list", "variant-list-named",
        "p_ctrl-true", "lab-ramp-true", "lab-burn_in-true", "lab-sign_only-yes",
        "lab-burn_in-string", "lab-c_max-string", "lab-mu_trt-string", "lab-mu_ctrl-null",
        "lab-mu_ctrl-true", "lab-matrices-5", "matrix-bool-entry", "lab-fixed_dev-string",
        "lab-bet_rule-kelly", "checkpoint-arm-count-negative", "power-survival-alpha-1e-308",
        "power-binary-alpha-1e-308", "wage-survival-alpha-1e-308-sized",
        "power-continuous-alpha-1e-308", "power-continuous-d-1e-4", "power-continuous-d-1e-3",
        "wage-continuous-d-1e-4-sized", "lab-censor_upper-400-digits",
        "lab-mu_trt-past-float", "matrix-entry-400-digits", "event-y-400-digits",
        "event-time-400-digits", "event-entry_time-400-digits", "monitor-burn-in-400-digits",
        "monitor-ramp-400-digits", "checkpoint-log_wealth-hex-past-float",
        "checkpoint-cum_z-hex-past-float", "checkpoint-values-hex-past-float",
        "checkpoint-moment-hex-past-float", "checkpoint-e_trt-400-digits",
        "checkpoint-good_trt-400-digits", "checkpoint-arm-count-400-digits",
        "event-outcome-5001-digits-line-4", "event-y-5001-digits", "event-entry_time-5001-digits",
        "recurring-line-payout-inf", "recurring-line-risk-set-exhausted",
        "resume-input-30-of-60-lines", "resume-input-empty", "resume-input-59-of-60-lines",
        "checkpoint-log_wealth-inf", "checkpoint-log_wealth-nan", "checkpoint-log_wealth-minus-inf",
        "checkpoint-values-nan", "checkpoint-values-minus-inf", "checkpoint-cum_z-nan",
        "checkpoint-last_time-nan", "checkpoint-truncated",
        "checkpoint-position-5001-digits", "scenario-n_sims-5001-digits",
        "scenario-truncated", "simulate-nan-e-value", "trajectories-nan-e-value",
        "wage-continuous-d-1e308-nan-e-value"])
def test_refusal_is_one_error_line(capsys, tmp_path, argv, message):
    """Inputs no run can use end in exit 1 and one ``error:`` line."""
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert out == ""
    assert message in _one_error_line(code, err)


def test_start_row_identity_in_one_arm_runs(capsys, tmp_path):
    """Only an identity start row in both arms empties every trial; with one
    in one arm, the other arm's patients still move."""
    argv = _matrices(lambda rows: [rows[0], [0.0, 1.0, 0.0, 0.0], *rows[2:]])(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert "median stream len   0\n" not in out


# A small trial of each variant: a fuzzed scenario that is accepted runs fast.
_SMALL = {"binary": {"n_patients": 20, "p_ctrl": 0.4}, "deaths": {"n_deaths": 20},
          "continuous": {"n_patients": 20}, "survival": {"n_patients": 20},
          "multistate": {"n_patients": 10, "horizon": 10}}
_FIELDS = ("variant", "params", "n_sims", "alpha", "seed")
# Every integer drawn is at most 30, so an accepted size stays small.
_JSON_SCALARS = hs.one_of(
    hs.none(), hs.booleans(), hs.integers(-3, 30), hs.floats(0.0, 1.0),
    hs.floats(),  # NaN and the infinities too
    hs.sampled_from(["", "5", "0.5", "ICU", "Dead", "null", "fixed", "half_kelly"]))
_JSON_VALUES = hs.recursive(
    _JSON_SCALARS, lambda inner: hs.lists(inner, max_size=4)
    | hs.dictionaries(hs.sampled_from(["trt", "ctrl", "x"]), inner, max_size=3), max_leaves=8)
_NUMBER = (int, float)
# the JSON types each field and parameter takes: a number unless listed, and a
# bool only where bool is listed
_TAKES = {"variant": (str,), "params": (dict,), "n_sims": (int,), "seed": (int,),
          "n_patients": (int,), "n_deaths": (int,), "horizon": (int,), "effect": (str,),
          "start": (str,), "bet_rule": (str,), "sign_only": (bool,),
          "matrices": (dict, type(None)),
          **dict.fromkeys(("p_trt", "mu_trt", "fixed_dev", "censor_upper", "recruit_period"),
                          (*_NUMBER, type(None)))}


def _mistyped(key, value) -> bool:
    takes = _TAKES.get(key, _NUMBER)
    return not isinstance(value, takes) or isinstance(value, bool) and bool not in takes


@hs.composite
def _one_value_changed(draw):
    """(variant, key, value): a small scenario with one field or parameter set
    to any JSON value; a transition matrix entry is also set alone."""
    variant = draw(hs.sampled_from(sorted(SIM_VARIANTS)))
    key = draw(hs.sampled_from([*_FIELDS, *SIM_VARIANTS[variant].params]))
    value = draw(hs.one_of(_JSON_SCALARS, _JSON_VALUES))
    if key == "matrices" and draw(hs.booleans()):
        rows = [list(row) for row in CONTROL_DAILY.probs]
        rows[draw(hs.integers(0, 3))][draw(hs.integers(0, 3))] = value
        value = {"trt": rows, "ctrl": CONTROL_DAILY.probs}
    return variant, key, value


@settings(max_examples=150, deadline=None)
@given(case=_one_value_changed())
@example(case=("binary", "burn_in", "5"))
@example(case=("continuous", "c_max", "0.5"))
@example(case=("continuous", "mu_trt", "1"))
@example(case=("continuous", "mu_ctrl", None))
@example(case=("multistate", "matrices", 5))
@example(case=("binary", "fixed_dev", "x"))
@example(case=("continuous", "mu_ctrl", 10**30))  # two int means past int64
@example(case=("survival", "censor_upper", 10**400))  # an int past the float range
@example(case=("binary", "burn_in", 2**63))  # an int burn-in past int64
@example(case=("continuous", "burn_in", 10**30))
@example(case=("multistate", "matrices",  # a matrix entry past the float range
               {"trt": [[10**400, *CONTROL_DAILY.probs[0][1:]], *CONTROL_DAILY.probs[1:]],
                "ctrl": CONTROL_DAILY.probs}))
# a payout past the float range on the arm not drawn, an outcome past it, and
# times on study past it (from the shape, the scale, and the scale and entry)
@example(case=("binary", "params", {"n_patients": 60, "p_ctrl": 0.3, "p_alloc": 1e-320}))
@example(case=("continuous", "params", {"n_patients": 60, "sd": 1e308, "burn_in": 5,
                                        "ramp": 5}))
@example(case=("survival", "params", {"n_patients": 60, "shape": 0.001}))
@example(case=("survival", "params", {"n_patients": 60, "scale": 1e308}))
@example(case=("survival", "params", {"n_patients": 60, "recruit_period": 1e308,
                                      "scale": 1e308}))
# a treatment-arm scale past the float range, above it and below it
@example(case=("survival", "params", {"n_patients": 60, "shape": 0.001, "hr": 3}))
@example(case=("survival", "params", {"n_patients": 60, "shape": 0.001, "hr": 0.3}))
def test_any_scenario_document_ends_cleanly(case):
    """Exit 0 with a report and a ``--json`` document free of NaN, or exit 1
    with one ``error:`` line; never an exception, and no warning on any exit.
    A refused value of the wrong JSON type is named."""
    variant, key, value = case
    doc = {"variant": variant, "params": dict(_SMALL[variant]), "n_sims": 2}
    (doc if key in _FIELDS else doc["params"])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "sc.json", Path(tmp) / "oc.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # numpy's warnings, which pytest would capture
            code, out, err = run_main(["simulate", "--scenario", str(path),
                                       "--json", str(report)])
        written = report.read_text() if code == EXIT_OK else None
    assert not [str(w.message) for w in caught], doc
    if code == EXIT_OK:
        assert out.startswith(f"variant             {doc['variant']}\n") and err == ""
        assert "nan" not in out, (doc, out)
        assert '"nan"' not in written, (doc, written)  # strict JSON spells a NaN "nan"
    else:
        line = _one_error_line(code, err)
        assert out == ""
        if _mistyped(key, value):
            assert key in line, (doc, line)


def test_variant_choices_are_the_rows_with_design_facts():
    """``power`` and ``wage`` list their variants literally (the CLI imports no
    simlab); the lists must be the rows with a calculator and with strategies."""
    from trialbet.cli import build_parser
    from trialbet.simlab.scenario import SIM_VARIANTS

    commands = build_parser()._subparsers._group_actions[0].choices

    def choices(command):
        return {v for a in commands[command]._actions if a.dest == "variant" for v in a.choices}

    assert choices("power") == {v for v, sim in SIM_VARIANTS.items() if sim.size}
    assert choices("wage") == {v for v, sim in SIM_VARIANTS.items() if sim.wage}


@pytest.mark.parametrize("variant,records,extra", [
    ("deaths", [{"arm": k % 2} for k in range(90)], []),
    ("continuous", [{"arm": k % 2, "y": float((k * 7) % 13) - 6.0} for k in range(120)], []),
    ("survival", [{"time": float(k), "status": 1 if k % 3 else 0, "arm": (k * 5) % 2}
                  for k in range(80)], ["--risk-trt", "40", "--risk-ctrl", "40"]),
    ("multistate", [{"from": "ICU", "to": "Ward" if k % 2 else "Dead", "arm": (k * 3) % 2}
                    for k in range(70)], []),
])
def test_checkpoint_resume_bit_exact_all_variants(capsys, tmp_path, variant,
                                                  records, extra):
    path = tmp_path / "events.ndjson"
    write_ndjson(path, records)
    full = tmp_path / "full.json"
    run_cli(capsys, "monitor", "--variant", variant, "--input", str(path),
            "--report", str(full), *extra)
    head = tmp_path / "head.ndjson"
    head.write_text("".join(path.read_text().splitlines(keepends=True)[: len(records) // 2]))
    ck = tmp_path / "ck.json"
    run_cli(capsys, "monitor", "--variant", variant, "--input", str(head),
            "--checkpoint", str(ck), *extra)
    resumed = tmp_path / "resumed.json"
    run_cli(capsys, "monitor", "--variant", variant, "--input", str(path),
            "--checkpoint", str(ck), "--resume", "--report", str(resumed), *extra)
    a = json.loads(full.read_text())
    b = json.loads(resumed.read_text())
    assert b["log_e_value"] == a["log_e_value"]
    assert b["events"] == a["events"]


class TestTrajectories:
    def scenario_file(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({
            "variant": "binary",
            "params": {"n_patients": 60, "p_ctrl": 0.4, "p_trt": 0.2,
                       "burn_in": 5, "ramp": 10},
            "n_sims": 10, "seed": 8,
        }))
        return sc

    def test_csv_and_svg(self, capsys, tmp_path):
        sc = self.scenario_file(tmp_path)
        out_csv = tmp_path / "traj.csv"
        out_svg = tmp_path / "traj.svg"
        code, _, _ = run_cli(capsys, "trajectories", "--scenario", str(sc),
                             "--trials", "3", "--out", str(out_csv),
                             "--svg", str(out_svg))
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# schema: trialbet.v1"
        assert lines[1] == "trial,index,lambda,multiplier,wealth"
        # 3 trials x 59 betting patients (first never bets)
        assert len(lines) == 2 + 3 * 59
        svg = out_svg.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_overflowing_trajectory_svg(self, capsys, tmp_path):
        # log-e passes 709.78, where the wealth column saturates to inf
        sc = tmp_path / "strong.json"
        sc.write_text(json.dumps({
            "variant": "binary",
            "params": {"n_patients": 8000, "p_ctrl": 0.1, "p_trt": 0.9},
            "n_sims": 1, "seed": 3,
        }))
        out_csv = tmp_path / "traj.csv"
        out_svg = tmp_path / "traj.svg"
        code, _, _ = run_cli(capsys, "trajectories", "--scenario", str(sc),
                             "--trials", "1", "--out", str(out_csv),
                             "--svg", str(out_svg))
        assert code == EXIT_OK
        assert out_csv.read_text().splitlines()[-1].endswith(",inf")
        svg = out_svg.read_text()
        assert "polyline" in svg and "nan" not in svg and "inf" not in svg
        assert svg.count("<text") <= 25

    def test_subnormal_alpha_svg(self, capsys, tmp_path):
        # 1/alpha overflows to inf; the plot works from -log10(alpha) = 312.7
        sc = tmp_path / "subnormal.json"
        sc.write_text(json.dumps({"variant": "binary", "alpha": 2.2e-313,
                                  "params": {"n_patients": 40, "p_ctrl": 0.4}, "seed": 3}))
        out_svg = tmp_path / "traj.svg"
        code, _, err = run_cli(capsys, "trajectories", "--scenario", str(sc), "--trials", "2",
                               "--out", str(tmp_path / "traj.csv"), "--svg", str(out_svg))
        assert code == EXIT_OK and err == ""
        svg = out_svg.read_text()
        assert "polyline" in svg and "nan" not in svg and "inf" not in svg
        assert svg.count("<text") <= 25
        threshold_y = float(re.search(r'y1="([^"]+)"[^>]*stroke="red"', svg).group(1))
        assert 50 <= threshold_y <= 520 - 50  # the threshold line lies inside the plot

    def test_zero_trials_writes_header_only(self, capsys, tmp_path):
        sc = self.scenario_file(tmp_path)
        out_csv = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "trajectories", "--scenario", str(sc),
                             "--trials", "0", "--out", str(out_csv))
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2


def test_unknown_command_errors(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_ERROR


def test_monitor_three_patient_walkthrough(capsys, tmp_path):
    """Feed a stream whose counts reach (100 treated / 35 events,
    99 control / 40 events), then three more patients; the e-value ratio over
    those three equals the product of their multipliers."""
    prefix = []
    for k in range(100):
        prefix.append({"arm": 1, "outcome": 1 if k < 35 else 0})
    for k in range(99):
        prefix.append({"arm": 0, "outcome": 1 if k < 40 else 0})
    tail = [{"arm": 0, "outcome": 1},   # correct lean: wealth x1.0540
            {"arm": 1, "outcome": 0},   # correct lean: wealth x1.0600
            {"arm": 1, "outcome": 1}]   # wrong lean:   wealth x0.9365

    p199 = tmp_path / "p199.ndjson"
    write_ndjson(p199, prefix)
    p202 = tmp_path / "p202.ndjson"
    write_ndjson(p202, prefix + tail)
    _, out_a, _ = run_cli(capsys, "monitor", "--variant", "binary",
                          "--input", str(p199))
    _, out_b, _ = run_cli(capsys, "monitor", "--variant", "binary",
                          "--input", str(p202))
    ratio = json.loads(out_b)["e_value"] / json.loads(out_a)["e_value"]
    assert ratio == pytest.approx(1.0540404040 * 1.06 * 0.9365346535, rel=1e-9)


def test_wealth_column_consistency(capsys, tmp_path):
    """Trajectory wealth column equals the cumulative product of multipliers."""
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({
        "variant": "deaths", "params": {"n_deaths": 80, "coin": 0.2},
        "n_sims": 5, "seed": 4,
    }))
    out_csv = tmp_path / "t.csv"
    run_cli(capsys, "trajectories", "--scenario", str(sc), "--trials", "2",
            "--out", str(out_csv))
    rows = out_csv.read_text().splitlines()[2:]
    wealth = 1.0
    for row in rows:
        trial, index, lam, mult, w = row.split(",")
        if index == "1":
            wealth = 1.0
        wealth *= float(mult)
        assert math.isclose(float(w), wealth, rel_tol=1e-9)


def reject_constant(constant):
    raise ValueError(f"invalid JSON constant {constant}")


def test_study_json_is_strict_when_e_values_overflow(capsys, tmp_path, recwarn):
    # log-e passes 709.78 on every replication, so exp() leaves the float range
    sc = tmp_path / "strong.json"
    sc.write_text(json.dumps({
        "variant": "binary",
        "params": {"n_patients": 8000, "p_ctrl": 0.1, "p_trt": 0.9},
        "n_sims": 20, "seed": 1,
    }))
    sim_json = tmp_path / "oc.json"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(sc), "--json", str(sim_json))
    assert code == EXIT_OK
    doc = json.loads(sim_json.read_text(), parse_constant=reject_constant)
    assert doc["final_e_median"] == "inf" and doc["final_e_quantiles"]["q10"] == "inf"

    wage_json = tmp_path / "wage.json"
    code, _, _ = run_cli(capsys, "wage", "--variant", "binary", "--arr", "0.39",
                         "--n", "12000", "--sims", "5", "--json", str(wage_json))
    assert code == EXIT_OK
    cells = json.loads(wage_json.read_text(), parse_constant=reject_constant)["cells"]
    assert {c["strategy"]: c["median_final_e"] for c in cells}["adaptive"] == "inf"
    assert not [str(w.message) for w in recwarn]


def test_cli_import_loads_no_simlab_or_scipy():
    import subprocess
    import sys

    probe = ("import sys, trialbet.cli; "
             "print(sorted(m for m in sys.modules if m in ('scipy', 'numpy') or m.startswith("
             "('scipy.', 'numpy.', 'trialbet.simlab'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"

    # the studies load scipy only to size a trial, which simulate never does
    probe = ("import sys, trialbet.simlab.engine; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_one_worker_simulate_loads_no_process_pool():
    """Only a run with more than one worker imports the process pool; a fresh
    interpreter shows it, since other tests may have loaded it here."""
    import subprocess
    import sys

    probe = ("import sys; from trialbet.cli import main; "
             f"code = main(['simulate', '--scenario', {str(_scenario_path('binary_alt'))!r}, "
             "'--sims', '5']); "
             "print(code, 'concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("variant,param", [
    ("binary", {"n_patients": 60, "p_ctrl": 0.4, "fixed_dev": -0.1}),
    ("survival", {"n_patients": 60, "bet_rule": "half_kelly"}),
    ("continuous", {"n_patients": 60, "sign_only": True}),
])
def test_trajectories_run_every_wager_rule(capsys, tmp_path, variant, param):
    """Wager rules the streaming monitor lacks export too; each trial's last
    log-wealth is the final log-e the engine scores, exactly."""
    from trialbet.simlab import engine
    from trialbet.simlab.scenario import SimScenario

    doc = {"variant": variant, "params": param, "n_sims": 2}
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(doc))
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "trajectories", "--scenario", str(sc), "--trials", "3",
                           "--out", str(out_csv))
    assert code == EXIT_OK and out.startswith("wrote ")
    assert out_csv.read_text().splitlines()[1] == "trial,index,lambda,multiplier,wealth"
    scenario = SimScenario.from_dict(doc)
    trials = engine.trajectories(scenario, 3)
    final = engine._run_range(scenario, 0, 3)[1]
    if variant == "binary":  # a prespecified wager bets on the first patient too
        assert [index[0] for index, *_ in trials] == [1, 1, 1]
    for (index, _, _, logw), log_e in zip(trials, final):
        assert (logw[-1] if index.size else 0.0) == log_e


SCENARIOS = ["binary_alt", "binary_null", "continuous_alt", "deaths_alt", "multistate_alt",
             "survival_alt"]


def _scenario_path(stem):
    return Path(__file__).parent.parent / "scenarios" / f"{stem}.json"


def _committed_scenario(stem):
    from trialbet.simlab.scenario import SimScenario

    return SimScenario.from_dict(json.loads(_scenario_path(stem).read_text()))


@pytest.mark.parametrize("stem", SCENARIOS)
def test_trajectories_match_engine(stem):
    """Each exported trial ends at the log-e the engine scores for it."""
    from trialbet.simlab import engine

    scenario = _committed_scenario(stem)
    n = 3
    trials = engine.trajectories(scenario, n)
    final = engine._run_range(scenario, 0, n)[1]
    for (index, _, _, logw), log_e in zip(trials, final):
        assert (logw[-1] if index.size else 0.0) == log_e


@pytest.mark.parametrize("stem", SCENARIOS)
def test_trajectories_match_streaming_monitor(capsys, tmp_path, stem):
    """The exported CSV holds the rows the live monitor records on the same
    trials: the same indices, wagers and multipliers.  Continuous wagers may
    differ in the last digits, from the lab's raw-sum arm moments against the
    monitor's Welford accumulator, and so may wealth (numpy's log against
    libm's)."""
    import oracles

    scenario = _committed_scenario(stem)
    n = 30
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "trajectories", "--scenario", str(_scenario_path(stem)),
                         "--trials", str(n), "--out", str(out_csv))
    assert code == EXIT_OK
    rows = [row.split(",") for row in out_csv.read_text().splitlines()[2:]]
    expected = [(trial, step) for trial, steps
                in enumerate(oracles.stream_trajectories(scenario, n), 1) for step in steps]
    assert len(rows) == len(expected)
    exact = scenario.variant != "continuous"
    for (trial, index, lam, mult, wealth), (ref_trial, step) in zip(rows, expected):
        assert (int(trial), int(index)) == (ref_trial, step.index)
        for got, ref in ((float(lam), step.wager), (float(mult), step.multiplier)):
            assert got == ref if exact else math.isclose(got, ref, rel_tol=1e-12)
        assert math.isclose(float(wealth), step.wealth, rel_tol=1e-12)


@pytest.mark.parametrize("sd", [1e200, 1e307])  # 1e307: the arm sums overflow too
def test_overflowing_continuous_moments_bet_neutral(capsys, tmp_path, recwarn, sd):
    """Outcomes whose squares overflow give an arm SD of +inf: Cohen's d is 0
    and every wager neutral, as in the monitor, not NaN."""
    sc = tmp_path / "huge.json"
    sc.write_text(json.dumps({"variant": "continuous",
                              "params": {"n_patients": 200, "sd": sd}, "n_sims": 20}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(sc))
    assert code == EXIT_OK and err == ""
    assert "nan" not in out and "median final e      1\n" in out
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "trajectories", "--scenario", str(sc), "--trials", "5",
                         "--out", str(out_csv))
    assert code == EXIT_OK
    rows = [row.split(",") for row in out_csv.read_text().splitlines()[2:]]
    assert len(rows) == 5 * 150 and {row[4] for row in rows} == {"1.0"}
    assert not [str(w.message) for w in recwarn]
