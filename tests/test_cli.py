import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

import cli_cases
from cli_cases import (GOLDEN, OUTPUTS, REFUSALS, SCENARIO_DIR, SCENARIOS, matrix_scenario,
                       run_case, run_main)
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


class TestPower:
    """Sizes written out here, not only in the golden files that the
    ``power-*`` rows of ``cli_cases.OUTPUTS`` compare against."""

    def test_continuous_large_effect(self, capsys):
        """The solver's bracket starts at 2 per arm, where the noncentral t is sound."""
        code, out, err = run_cli(capsys, "power", "--variant", "continuous", "--d", "2")
        assert (code, out, err) == (EXIT_OK, "12\n", "")

    def test_deaths(self, capsys):
        code, out, err = run_cli(capsys, "power", "--variant", "deaths",
                                 "--p1", "0.25", "--p2", "0.15")
        assert (code, err) == (EXIT_OK, "")
        assert out == ("frequentist N       500\n"
                       "deaths-only N       1250\n"
                       "expected deaths     250 (alt) / 313 (null)\n"
                       "death coin          0.375\n")


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


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_is_one_error_line(tmp_path, name):
    """Inputs no run can use end in exit 1, no stdout, no file written and
    exactly the row's ``error:`` line (the refusal table of ``cli_cases.py``,
    which CI runs through the installed script)."""
    assert run_case(REFUSALS[name], tmp_path) is None


def test_cases_run_through_a_command(tmp_path, capsys):
    """The runner CI uses: a golden and a refused case through ``python -m
    trialbet.cli``, then the golden case against an edited golden file, which
    fails and is named."""
    entry = [sys.executable, "-m", "trialbet.cli"]
    golden = OUTPUTS["monitor-binary"]
    assert cli_cases.main(entry, {"monitor-binary": golden,
                                  "monitor-binary-p-0": REFUSALS["monitor-binary-p-0"]}) == 0
    edited = tmp_path / "binary.report.json"
    text = (GOLDEN / "binary.report.json").read_text()
    edited.write_text(text.replace('"crossed": false', '"crossed": true'))
    assert edited.read_text() != text
    capsys.readouterr()
    assert cli_cases.main(entry, {"edited": golden._replace(golden={"-": edited})}) == 1
    assert capsys.readouterr().out.startswith("FAIL edited: run 1 ")


def test_start_row_identity_in_one_arm_runs(capsys, tmp_path):
    """Only an identity start row in both arms empties every trial; with one
    in one arm, the other arm's patients still move."""
    argv = matrix_scenario(lambda rows: [rows[0], [0.0, 1.0, 0.0, 0.0], *rows[2:]])(tmp_path)
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
        assert code == EXIT_ERROR and out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: "), err
        if _mistyped(key, value):
            assert key in err, (doc, err)


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


def _parsed(parser, argv):
    """What ``parser`` makes of ``argv``: its namespace, as text so that a NaN
    equals itself, or its exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(sorted(vars(parser.parse_args(argv)).items()))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_a_command_line_parses_alike_with_only_its_command_options(tmp_path):
    """``main`` builds the options of the command it runs alone: each command
    line of the case table, and ones argparse refuses or answers with help,
    parse to the namespace, or the exit and output, of the full parser."""
    from trialbet.cli import build_parser

    argvs = [run.argv(tmp_path) if callable(run.argv) else run.argv
             for case in cli_cases.CASES.values() for run in cli_cases.runs(case)]
    argvs += [[], ["-h"], ["nope"], ["--variant", "binary"], ["monitor"], ["monitor", "-h"],
              ["wage", "--help"], ["monitor", "--variant", "binary", "--bogus"],
              ["monitor", "--variant", "binary", "power"], ["power", "--variant", "binary", "--p1"],
              ["simulate", "--scenario", "s.json", "extra"], ["trajectories", "--out", "t.csv"]]
    for argv in argvs:
        assert _parsed(build_parser(argv[0] if argv else None), argv) == \
               _parsed(build_parser(), argv), argv


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

    probe = ("import sys; from trialbet.cli import main; "
             f"code = main(['simulate', '--scenario', {str(SCENARIO_DIR / 'binary_alt.json')!r}, "
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


def _committed_scenario(stem):
    from trialbet.simlab.scenario import SimScenario

    return SimScenario.from_dict(json.loads((SCENARIO_DIR / f"{stem}.json").read_text()))


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
    code, _, _ = run_cli(capsys, "trajectories", "--scenario",
                         str(SCENARIO_DIR / f"{stem}.json"), "--trials", str(n),
                         "--out", str(out_csv))
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
