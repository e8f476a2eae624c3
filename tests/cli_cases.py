"""End-to-end cases of the ``trialbet`` command line: outputs that must equal
golden files byte for byte, and refused inputs.  Tier-1 runs each case
in-process (``OUTPUTS`` and ``STUDIES`` in ``test_golden_studies.py``,
``REFUSALS`` in ``test_cli.py``); run as a script, this module runs every
case through a command and exits 1 naming each case that fails:

    python tests/cli_cases.py trialbet                                 # the installed script
    PYTHONPATH=src python tests/cli_cases.py python -m trialbet.cli    # a checkout
    python tests/cli_cases.py --only monitor trialbet                  # monitor runs alone

The table is code, not data: its inputs (edited checkpoints, 5,001-digit
integers) are built by code.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import operator
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

from trialbet.cli import main as cli_main
from trialbet.multistate import CONTROL_DAILY

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
SCENARIO_DIR = ROOT / "scenarios"
# every committed scenario, each of which must have a simulate golden
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))

# The options each golden stream's report and checkpoint were written under;
# a checkpoint's config_sha256 pins the configuration built from them.
GOLDEN_ARGS = {
    "binary": [],
    "deaths": ["--alpha", "0.1"],
    "continuous": ["--c-max", "0.5", "--burn-in", "20", "--ramp", "40"],
    "survival": ["--risk-trt", "60", "--risk-ctrl", "60", "--lambda-max", "0.3"],
    "multistate": [],
}
# Continuous and survival are sized per effect (no --n), binary at a fixed n.
WAGE_ARGS = {
    "continuous": ["--d", "0.2,0.4", "--sims", "30", "--seed", "3"],
    "binary": ["--arr", "0.05", "--n", "400", "--fixed", "0.08", "--sims", "40", "--seed", "5"],
    "survival": ["--hr", "0.7,0.8", "--sims", "30", "--seed", "1"],
}
COMPARE_ARGS = ["--baselines", "0.15,0.40", "--sims", "25", "--seed", "2"]


class Prefix(bytes):
    """An expected output that need only start with these bytes."""


class Part(str):
    """An expected stderr text, or error line, that need only hold this text."""


class Run(NamedTuple):
    """One command of a case, which is a run or a list of runs sharing a temp dir.

    ``argv`` is a list, or a function of the temp dir that writes any input
    files there and returns the list; ``stdin`` is text, or a file to read.
    A refused run (``error`` set, text or a function of the temp dir) must
    exit 1 with no stdout, write no file, and print one stderr line that
    starts ``error: `` and equals ``error`` (holds it, for a ``Part``).  Any
    other run must exit in ``codes``, print exactly ``stderr`` (or hold its
    ``Part``), and each ``golden`` output (``"-"`` for stdout, else a file
    in the temp dir) must equal its golden file, its bytes or its ``Prefix``.
    """

    argv: list | Callable[[Path], list]
    stdin: str | Path = ""
    codes: tuple = (0,)
    golden: dict = {}
    error: str | Callable[[Path], str] | None = None
    stderr: str = ""


def run_main(argv, stdin=""):
    """(exit code, stdout, stderr) of ``cli.main`` reading ``stdin``, without
    pytest's capture fixtures, which hypothesis tests cannot use."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _matches(got: str, want: str) -> bool:
    return want in got if isinstance(want, Part) else got == want


def _problem(run, tmp, code, out, err, written):
    """What ``run`` did that it should not have, or None; ``written`` lists
    the files it added to the temp dir."""
    if run.error is not None:
        error = run.error(tmp) if callable(run.error) else run.error
        lines = err.splitlines()
        if (code, out, len(lines), written) == (1, b"", 1, []) \
                and lines[0].startswith("error: ") and _matches(lines[0], error):
            return None
        return (f"exit {code}, stdout {out[:200]!r}, stderr {err[:400]!r}, wrote {written}; "
                f"expected exit 1, no stdout, no file and the error line {error[:200]!r}")
    if code not in run.codes:
        return f"exit {code}, expected one of {run.codes}; stderr {err[-400:]!r}"
    if not _matches(err, run.stderr):
        return f"stderr {err[-400:]!r}, expected {run.stderr!r}"
    for name, want in run.golden.items():
        path = tmp / name
        got = out if name == "-" else path.read_bytes() if path.exists() else None
        expected = want.read_bytes() if isinstance(want, Path) else want
        if got is None or not (got.startswith(expected) if isinstance(want, Prefix)
                               else got == expected):
            return f"{name} differs from {want if isinstance(want, Path) else repr(want)}"
    return None


def runs(case) -> list:
    """The runs of ``case``, which is a run or a list of runs."""
    return [case] if isinstance(case, Run) else case


def commands(case) -> set:
    """The commands the runs of ``case`` give (their inputs built in a temp dir
    of their own)."""
    with tempfile.TemporaryDirectory() as tmp:
        return {(run.argv(Path(tmp)) if callable(run.argv) else run.argv)[0] for run in runs(case)}


def run_case(case, tmp: Path, entry=None):
    """None when every run of ``case`` ends as recorded, else what went wrong.

    Without ``entry`` each run goes through ``cli.main`` in this process, and
    any warning fails it; with ``entry``, an argv prefix such as
    ``["trialbet"]``, each run is a subprocess of that command."""
    for k, run in enumerate(runs(case), 1):
        argv = run.argv(tmp) if callable(run.argv) else run.argv
        stdin = run.stdin.read_text() if isinstance(run.stdin, Path) else run.stdin
        inputs = set(tmp.iterdir())
        if entry is None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # also a warning an earlier run gave
                code, out, err = run_main(argv, stdin)
            out = out.encode()
            if caught:
                return f"run {k}: warned {[str(w.message) for w in caught]}"
        else:
            done = subprocess.run([*entry, *argv], input=stdin.encode(), capture_output=True,
                                  timeout=600)
            code, out, err = done.returncode, done.stdout, done.stderr.decode(errors="replace")
        problem = _problem(run, tmp, code, out, err,
                           sorted(path.name for path in set(tmp.iterdir()) - inputs))
        if problem:
            return f"run {k} ({' '.join(argv)[:160]}): {problem}"
    return None


# -- input builders: each returns an argv, or a function of the temp dir ---------------


def monitor_argv(variant, source, *options):
    """``monitor`` on ``source`` with the options its variant's goldens were written under."""
    return ["monitor", "--variant", variant, "--input", str(source), *options,
            *GOLDEN_ARGS[variant]]


def _golden_monitor(variant, *options):
    """``monitor`` on a golden stream with ``options`` alone."""
    return ["monitor", "--variant", variant, "--input", str(GOLDEN / f"{variant}.ndjson"),
            *options]


def golden_head(tmp, variant, k):
    """The first ``k`` lines of a golden stream, as a file."""
    lines = (GOLDEN / f"{variant}.ndjson").read_text().splitlines(keepends=True)
    head = tmp / f"head{k}.ndjson"
    head.write_text("".join(lines[:k]))
    return head


def _resume(variant, edit=lambda text: text, lines=None):
    """A resume from the golden ``variant`` checkpoint, its text passed
    through ``edit``, over the golden stream or its first ``lines`` lines."""
    def argv(tmp):
        ck = tmp / "ck.json"
        ck.write_text(edit((GOLDEN / f"{variant}.ckpt.json").read_text()))
        source = (GOLDEN / f"{variant}.ndjson" if lines is None
                  else golden_head(tmp, variant, lines))
        return monitor_argv(variant, source, "--checkpoint", str(ck), "--resume")
    return argv


def _set(text, path, value=None, delete=False):
    """The JSON document ``text`` with the entry at ``path`` (keys and indexes)
    set to ``value``, or with ``delete`` removed."""
    doc = json.loads(text)
    *parents, last = path
    parent = functools.reduce(operator.getitem, parents, doc)
    if delete:
        del parent[last]
    else:
        parent[last] = value
    return json.dumps(doc)


def _edited_checkpoint(variant, path, value=None, delete=False):
    """A resume from the golden ``variant`` checkpoint with the entry at
    ``path`` set to ``value``, or with ``delete`` removed."""
    return _resume(variant, edit=lambda text: _set(text, path, value, delete))


def _impossible(variant, path, value):
    """A resume from the golden checkpoint with the entry at ``path`` set to
    ``value``, asking for a ``--report`` the refusal must not write."""
    return _writing(_edited_checkpoint(variant, path, value), report="report.json")


def monitor_lines(variant, lines, *options):
    """``monitor`` on a stream of raw ``lines``, for numbers ``json.dumps`` cannot write."""
    def argv(tmp):
        path = tmp / "events.ndjson"
        path.write_text("".join(line + "\n" for line in lines))
        return ["monitor", "--variant", variant, "--input", str(path), *options]
    return argv


def monitor_records(variant, records, *options):
    """``monitor`` on a stream of ``records``."""
    return monitor_lines(variant, [json.dumps(record) for record in records], *options)


def scenario_text(text, command="simulate", *options):
    """``command`` on a scenario file holding ``text``."""
    def argv(tmp):
        path = tmp / "sc.json"
        path.write_text(text)
        return [command, "--scenario", str(path), *options]
    return argv


def scenario(doc, *command):
    return scenario_text(json.dumps(doc), *command)


def _lab(variant, **params):
    return scenario({"variant": variant, "n_sims": 2, "params": {"n_patients": 20, **params}})


def matrix_scenario(edit, both=False):
    """A multistate scenario whose ``trt`` matrix, and with ``both`` its
    ``ctrl`` matrix, is ``edit`` of the control matrix."""
    rows = [list(row) for row in CONTROL_DAILY.probs]
    return scenario({"variant": "multistate", "n_sims": 2, "params": {
        "n_patients": 20, "matrices": {"trt": edit(rows), "ctrl": edit(rows) if both else rows}}})


def _writing(argv, **files):
    """``argv`` and, for each ``option=name``, ``--option`` with that file in the temp dir."""
    return lambda tmp: [*(argv(tmp) if callable(argv) else argv),
                        *(arg for option, name in files.items()
                          for arg in (f"--{option}", str(tmp / name)))]


# -- outputs that must equal the golden files ---------------------------------------

_TRAJECTORY_HEADER = Prefix(b"# schema: trialbet.v1\ntrial,index,lambda,multiplier,wealth\n")
_RESUMED_AT_60 = "resumed from checkpoint at line 60\n"
# the one golden stream that crosses: its notice ends in the time it crossed
_CROSSED = {"deaths": Part("CROSSED at event 84: e-value 11.145 >= 10 [")}


def _cut_at_60(variant, stdin=False):
    """The golden stream's first 60 lines checkpointed, then the whole stream
    resumed, from the file or, with ``stdin``, from standard input: the report
    is the uninterrupted run's."""
    whole = GOLDEN / f"{variant}.ndjson"
    return [Run(_writing(lambda tmp: monitor_argv(variant, golden_head(tmp, variant, 60)),
                         checkpoint="ck.json")),
            Run(_writing(monitor_argv(variant, "-" if stdin else whole, "--resume"),
                         checkpoint="ck.json", report="report.json"), whole if stdin else "",
                golden={"report.json": GOLDEN / f"{variant}.report.json"}, stderr=_RESUMED_AT_60)]


def _simulate(stem, *options):
    return Run(_writing(["simulate", "--scenario", str(SCENARIO_DIR / f"{stem}.json"),
                         "--sims", "40", *options], json="oc.json"),
               golden={"oc.json": GOLDEN / f"simulate_{stem}.json"})


def _json_and_csv(argv, stem):
    return Run(_writing(argv, json="out.json", csv="out.csv"),
               golden={"out.json": GOLDEN / f"{stem}.json", "out.csv": GOLDEN / f"{stem}.csv"})


OUTPUTS = {
    # each variant's golden stream reproduces its report; exit 10 (crossed) is a valid end
    **{f"monitor-{v}": Run(monitor_argv(v, GOLDEN / f"{v}.ndjson"), codes=(0, 10),
                           golden={"-": GOLDEN / f"{v}.report.json"}, stderr=_CROSSED.get(v, ""))
       for v in GOLDEN_ARGS},
    # the continuous resume searches the MAD window from a fresh start
    "monitor-binary-cut-at-60": _cut_at_60("binary"),
    "monitor-continuous-cut-at-60": _cut_at_60("continuous"),
    # a schema-1 checkpoint, which also saved the state model, still resumes
    "monitor-multistate-schema-1-resume": Run(
        _writing(_resume("multistate"), report="report.json"),
        golden={"report.json": GOLDEN / "multistate.report.json"}, stderr=_RESUMED_AT_60),
    "monitor-survival-stdin": Run(monitor_argv("survival", "-"), GOLDEN / "survival.ndjson",
                                  golden={"-": GOLDEN / "survival.report.json"}),
    "monitor-survival-stdin-cut-at-60": _cut_at_60("survival", stdin=True),
    "power-binary": Run(["power", "--variant", "binary", "--p1", "0.40", "--p2", "0.35",
                         "--power", "0.80"], golden={"-": b"2942\n"}),
    "power-continuous": Run(["power", "--variant", "continuous", "--d", "0.40", "--power", "0.80"],
                            golden={"-": b"200\n"}),
    "power-survival": Run(["power", "--variant", "survival", "--hr", "0.80", "--power", "0.80"],
                          golden={"-": b"631\n"}),
    "power-deaths": Run(["power", "--variant", "deaths", "--p1", "0.25", "--p2", "0.15"],
                        golden={"-": GOLDEN / "power_deaths.txt"}),
    # a large effect: the t-test solver starts at 2 patients per arm
    "power-continuous-d-2": Run(["power", "--variant", "continuous", "--d", "2"],
                                golden={"-": b"12\n"}),
    # the monitor's own wager rule, and one only the lab has
    "trajectories-survival_alt": Run(
        _writing(["trajectories", "--scenario", str(SCENARIO_DIR / "survival_alt.json"),
                  "--trials", "3"], out="traj.csv", svg="traj.svg"),
        golden={"traj.csv": _TRAJECTORY_HEADER}),
    "trajectories-half-kelly": Run(
        _writing(scenario({"variant": "survival", "params": {"n_patients": 60,
                                                             "bet_rule": "half_kelly"}},
                          "trajectories", "--trials", "3"), out="traj.csv"),
        golden={"traj.csv": _TRAJECTORY_HEADER}),
}

# The committed studies.  Two workers derive the streams of their own chunks
# of replications and still write the one-process output.
STUDIES = {
    **{f"wage-{v}": _json_and_csv(["wage", "--variant", v, *args], f"wage_{v}")
       for v, args in WAGE_ARGS.items()},
    **{f"simulate-{stem}": [_simulate(stem), _simulate(stem, "--workers", "2")]
       for stem in SCENARIOS},
    "compare": _json_and_csv(["compare", *COMPARE_ARGS], "compare"),
}


# -- inputs no run can use ------------------------------------------------------------

DIGITS_5001 = "1" + "0" * 5000  # past Python's 4,300-digit limit on int conversion
try:  # the interpreter's own words for the limit, which changed in Python 3.11
    int(DIGITS_5001)
except ValueError as exc:
    DIGIT_LIMIT = f"invalid JSON ({exc})"
_BINARY = {"n_patients": 20, "p_ctrl": 0.4}
# outcomes near the float maximum put residuals past the float range: the lab and the
# monitor both refuse them
_OVERFLOWING = {"variant": "continuous", "n_sims": 5, "seed": 1,
                "params": {"n_patients": 60, "mu_ctrl": 1e308, "burn_in": 5, "ramp": 5}}
_NAN_LOG_E = "replication 0 ends at a NaN log e-value; its data overflow the float range"
_ALPHA_TOO_SMALL = "error: alpha must be > 2**-53 to size a trial, got 1e-308"
_NOT_A_START = "error: start must be one of the non-absorbing states ('Ward', 'ICU'), got "
_SURVIVAL_5 = ("--risk-trt", "5", "--risk-ctrl", "5")
_ROWS = [list(row) for row in CONTROL_DAILY.probs]
_RISK_SET_EXHAUSTED = ("error: line 3: treated risk set is exhausted: "
                       "more treated records than the treated cohort size")
DEEP = "[" * 100_000  # nested past the interpreter's recursion limit

# name: (argv, its one error line, as ``Run.error`` takes it[, stdin])
REFUSALS = {name: Run(argv, *stdin, error=error) for name, (argv, error, *stdin) in {
    "checkpoint-schema-3": (_edited_checkpoint("binary", ["schema"], 3),
                            "error: unsupported checkpoint schema: 3"),
    "checkpoint-schema-true": (_edited_checkpoint("binary", ["schema"], True),
                               "error: unsupported checkpoint schema: True"),
    "checkpoint-schema-float": (_edited_checkpoint("binary", ["schema"], 1.0),
                                "error: unsupported checkpoint schema: 1.0"),
    "entry-after-time": (
        monitor_records("survival", [{"time": 2.0, "status": 1, "arm": 1},
                                     {"time": 3.0, "status": 1, "arm": 0, "entry_time": 4.5}],
                        *_SURVIVAL_5),
        "error: line 2: negative time on study"),
    "alpha-1.5": (scenario({"variant": "binary", "params": _BINARY, "alpha": 1.5}),
                  "error: alpha must be in (0,1)"),
    "n_sims-0": (scenario({"variant": "binary", "params": _BINARY, "n_sims": 0}),
                 "error: n_sims must be >= 1"),
    "negative-matrix-entry": (matrix_scenario(lambda rows: [[1.1, -0.1, 0.0, 0.0], *rows[1:]]),
                              "error: transition probabilities must be >= 0"),
    "three-matrix-rows": (matrix_scenario(lambda rows: rows[:3]),
                          "error: transition matrix must be 4x4, got (3, 4)"),
    "nan-matrix-entry": (matrix_scenario(lambda rows: [[math.nan, 0.07, 0.03, 0.02], *rows[1:]]),
                         "error: transition probabilities must be >= 0"),
    "power-1.5": (["power", "--variant", "binary", "--p1", "0.4", "--p2", "0.3", "--power", "1.5"],
                  "error: power and alpha must be in (0,1)"),
    "lab-ramp-0": (_lab("binary", p_ctrl=0.4, ramp=0), "error: ramp must be >= 1, got 0"),
    "lab-lambda_max-1.8": (_lab("survival", lambda_max=1.8),
                           "error: lambda_max must be in (0,1), got 1.8"),
    "lab-c_max-3": (_lab("continuous", c_max=3.0), "error: c_max must be in (0,1), got 3.0"),
    "lab-burn_in-negative": (
        scenario({"variant": "deaths", "n_sims": 2, "params": {"n_deaths": 20, "burn_in": -5}}),
        "error: burn_in must be >= 0, got -5"),
    "monitor-other-variant-options": (
        _golden_monitor("binary", "--lambda-max", "0.3", "--c-max", "0.9"),
        "error: binary monitoring does not read --c-max or --lambda-max"),
    "monitor-binary-lambda-max": (_golden_monitor("binary", "--lambda-max", "0.3"),
                                  "error: binary monitoring does not read --lambda-max"),
    "monitor-continuous-p-1.5": (_golden_monitor("continuous", "--p", "1.5"),
                                 "error: p must be in (0,1), got 1.5"),
    "monitor-binary-p-0": (_golden_monitor("binary", "--p", "0"),
                           "error: p must be in (0,1), got 0.0"),
    "resume-without-checkpoint": (_golden_monitor("binary", "--resume"),
                                  "error: --resume and --checkpoint-every need --checkpoint"),
    "checkpoint-every-without-checkpoint": (
        _golden_monitor("binary", "--checkpoint-every", "5"),
        "error: --resume and --checkpoint-every need --checkpoint"),
    "negative-checkpoint-every": (
        _writing(_golden_monitor("binary", "--checkpoint-every", "-1"), checkpoint="ck.json"),
        "error: --checkpoint-every must be >= 0, got -1"),
    "negative-progress-every": (_golden_monitor("deaths", "--progress-every", "-1"),
                                "error: --progress-every must be >= 0, got -1"),
    "trajectories-trials-negative": (
        _writing(["trajectories", "--scenario", str(SCENARIO_DIR / "binary_alt.json"),
                  "--trials", "-3"], out="t.csv"),
        "error: --trials must be >= 0, got -3"),
    "simulate-workers-0": (
        ["simulate", "--scenario", str(SCENARIO_DIR / "binary_alt.json"), "--workers", "0"],
        "error: --workers must be >= 1, got 0"),
    "wage-alpha-1.5": (
        ["wage", "--variant", "binary", "--n", "100", "--alpha", "1.5", "--sims", "3"],
        "error: alpha must be in (0,1)"),
    "lab-n_patients-0": (_lab("binary", p_ctrl=0.4, n_patients=0),
                         "error: n_patients must be an integer >= 1, got 0"),
    "lab-n_patients-2.5": (_lab("continuous", n_patients=2.5),
                           "error: n_patients must be an integer >= 1, got 2.5"),
    "lab-n_patients-true": (_lab("survival", n_patients=True),
                            "error: n_patients must be an integer >= 1, got True"),
    "lab-n_deaths-0": (scenario({"variant": "deaths", "n_sims": 2, "params": {"n_deaths": 0}}),
                       "error: n_deaths must be an integer >= 1, got 0"),
    "lab-horizon-0": (_lab("multistate", horizon=0),
                      "error: horizon must be an integer >= 1, got 0"),
    "wage-binary-n-0": (
        ["wage", "--variant", "binary", "--arr", "0.05", "--n", "0", "--sims", "7"],
        "error: n_patients must be an integer >= 1, got 0"),
    "wage-continuous-n-0": (
        ["wage", "--variant", "continuous", "--d", "0.3", "--n", "0", "--sims", "7"],
        "error: n_patients must be an integer >= 1, got 0"),
    "wage-survival-n-0": (
        ["wage", "--variant", "survival", "--hr", "0.7", "--n", "0", "--sims", "7"],
        "error: n_patients must be an integer >= 1, got 0"),
    "lab-mu_trt-inf": (_lab("continuous", mu_trt=math.inf),
                       "error: mu_trt must be finite, got inf"),
    "lab-sd-inf": (_lab("continuous", sd=math.inf), "error: sd must be finite, got inf"),
    "lab-hr-inf": (_lab("survival", hr=math.inf), "error: hr must be finite, got inf"),
    "wage-d-nan": (["wage", "--variant", "continuous", "--d", "nan", "--n", "50", "--sims", "3"],
                   "error: mu_trt must be finite, got nan"),
    "lab-start-Dead": (_lab("multistate", start="Dead"), _NOT_A_START + "'Dead'"),
    "lab-start-Foo": (_lab("multistate", start="Foo"), _NOT_A_START + "'Foo'"),
    "lab-start-list": (_lab("multistate", start=["ICU"]), _NOT_A_START + "['ICU']"),
    "power-hr-inf": (["power", "--variant", "survival", "--hr", "inf"],
                     "error: hazard ratio must be finite, positive and != 1, got inf"),
    "power-d-nan": (["power", "--variant", "continuous", "--d", "nan"],
                    "error: effect size must be finite and > 0, got nan"),
    "power-d-inf": (["power", "--variant", "continuous", "--d", "inf"],
                    "error: effect size must be finite and > 0, got inf"),
    "wage-hr-inf-sized": (["wage", "--variant", "survival", "--hr", "inf", "--sims", "3"],
                          "error: hazard ratio must be finite, positive and != 1, got inf"),
    "n_sims-2.9": (scenario({"variant": "binary", "params": _BINARY, "n_sims": 2.9, "seed": 1.7}),
                   "error: n_sims must be an integer, got 2.9"),
    "n_sims-true": (scenario({"variant": "binary", "params": _BINARY, "n_sims": True}),
                    "error: n_sims must be an integer, got True"),
    "n_sims-string": (scenario({"variant": "binary", "params": _BINARY, "n_sims": "3"}),
                      "error: n_sims must be an integer, got '3'"),
    "seed-1.7": (scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "seed": 1.7}),
                 "error: seed must be an integer, got 1.7"),
    "seed-negative": (scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "seed": -1}),
                      "error: seed must be >= 0"),
    "alpha-string": (
        scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "alpha": "0.05"}),
        "error: alpha must be a number, got '0.05'"),
    "alpha-true": (scenario({"variant": "binary", "params": _BINARY, "n_sims": 2, "alpha": True}),
                   "error: alpha must be a number, got True"),
    "start-row-identity-in-both-arms": (
        matrix_scenario(lambda rows: [rows[0], [0.0, 1.0, 0.0, 0.0], *rows[2:]], both=True),
        "error: start 'ICU' has an identity row in both arms' matrices: "
              "no patient can leave it"),
    "misspelled-scenario-fields": (
        scenario({"variant": "binary", "params": _BINARY, "n_sim": 5, "seeed": 3}),
        "error: unknown scenario fields: ['n_sim', 'seeed']"),
    "p_ctrl-string": (_lab("binary", p_ctrl="0.3"), "error: p_ctrl must be in [0, 1], got '0.3'"),
    "censor_upper-string": (_lab("survival", censor_upper="5"),
                            "error: censor_upper must be > 0 when set, got '5'"),
    "p_alloc-list": (_lab("binary", p_ctrl=0.4, p_alloc=[0.5]),
                     "error: p_alloc must be in (0, 1), got [0.5]"),
    "variant-list-named": (
        scenario({"variant": ["x"], "params": _BINARY}),
        "error: unknown variant ['x']; expected one of "
              "('binary', 'deaths', 'continuous', 'survival', 'multistate')"),
    "p_ctrl-true": (_lab("binary", p_ctrl=True), "error: p_ctrl must be in [0, 1], got True"),
    "lab-ramp-true": (_lab("binary", p_ctrl=0.4, ramp=True), "error: ramp must be >= 1, got True"),
    "lab-burn_in-true": (_lab("binary", p_ctrl=0.4, burn_in=True),
                         "error: burn_in must be >= 0, got True"),
    "lab-sign_only-yes": (_lab("continuous", sign_only="yes"),
                          "error: sign_only must be true or false, got 'yes'"),
    "lab-burn_in-string": (_lab("binary", p_ctrl=0.4, burn_in="5"),
                           "error: burn_in must be >= 0, got '5'"),
    "lab-c_max-string": (_lab("continuous", c_max="0.5"),
                         "error: c_max must be in (0,1), got '0.5'"),
    "lab-mu_trt-string": (_lab("continuous", mu_trt="1"),
                          "error: mu_trt must be a number, got '1'"),
    "lab-mu_ctrl-null": (_lab("continuous", mu_ctrl=None),
                         "error: mu_ctrl must be a number, got None"),
    "lab-mu_ctrl-true": (_lab("continuous", mu_ctrl=True),
                         "error: mu_ctrl must be a number, got True"),
    "lab-matrices-5": (
        _lab("multistate", matrices=5),
        "error: matrices must be exactly 'trt' and 'ctrl' rows of numbers when set, got 5"),
    "matrix-bool-entry": (
        matrix_scenario(lambda rows: [*rows[:3], [0, 0, 0, True]]),
        "error: matrices must be exactly 'trt' and 'ctrl' rows of numbers when set, got "
        f"{ {'trt': [*_ROWS[:3], [0, 0, 0, True]], 'ctrl': _ROWS} }"),
    "lab-fixed_dev-string": (_lab("binary", p_ctrl=0.4, fixed_dev="x"),
                             "error: fixed_dev must be a number when set, got 'x'"),
    "lab-bet_rule-kelly": (_lab("survival", bet_rule="kelly"),
                           "error: bet_rule must be 'fixed' or 'half_kelly', got 'kelly'"),
    "checkpoint-arm-count-negative": (
        _edited_checkpoint("continuous", ["state", "trt", 0], -1),
        "error: corrupt checkpoint: arm counts must be >= 0, got -1 and 29"),
    "power-survival-alpha-1e-308": (
        ["power", "--variant", "survival", "--hr", "0.5", "--alpha", "1e-308"],
        _ALPHA_TOO_SMALL),
    "power-binary-alpha-1e-308": (
        ["power", "--variant", "binary", "--p1", "0.3", "--p2", "0.2", "--alpha", "1e-308"],
        _ALPHA_TOO_SMALL),
    "wage-survival-alpha-1e-308-sized": (
        ["wage", "--variant", "survival", "--hr", "0.5", "--alpha", "1e-308", "--sims", "2"],
        _ALPHA_TOO_SMALL),
    "power-continuous-alpha-1e-308": (
        ["power", "--variant", "continuous", "--d", "0.3", "--alpha", "1e-308"],
        _ALPHA_TOO_SMALL),
    "power-continuous-d-1e-4": (
        ["power", "--variant", "continuous", "--d", "0.0001"],
        "error: effect size d=0.0001 needs more than 1e7 patients per arm at power 0.8 "
              "and alpha 0.05"),
    "power-continuous-d-1e-3": (
        ["power", "--variant", "continuous", "--d", "0.001", "--power", "0.9", "--alpha", "0.01"],
        "error: effect size d=0.001 needs more than 1e7 patients per arm at power 0.9 "
              "and alpha 0.01"),
    "wage-continuous-d-1e-4-sized": (
        ["wage", "--variant", "continuous", "--d", "0.0001", "--sims", "2"],
        "error: effect size d=0.0001 needs more than 1e7 patients per arm at power 0.8 "
              "and alpha 0.05"),
    "lab-censor_upper-400-digits": (_lab("survival", censor_upper=10**400),
                                    f"error: censor_upper must be finite, got {10**400}"),
    "lab-mu_trt-past-float": (_lab("continuous", mu_trt=-10**309),
                              f"error: mu_trt must be finite, got {-10**309}"),
    "matrix-entry-400-digits": (matrix_scenario(lambda rows: [[10**400, *rows[0][1:]], *rows[1:]]),
                                "error: a transition-matrix entry is past the float range"),
    "event-y-400-digits": (["monitor", "--variant", "continuous", "--input", "-"],
                           f"error: line 1: field 'y' must be a finite number, got {10**400}",
                           json.dumps({"arm": 1, "y": 10**400}) + "\n"),
    "event-time-400-digits": (
        monitor_records("survival", [{"time": -10**400, "status": 1, "arm": 0}], *_SURVIVAL_5),
        f"error: line 1: field 'time' must be a finite number, got {-10**400}"),
    "event-entry_time-400-digits": (
        monitor_records("survival", [{"time": 3.0, "status": 1, "arm": 0,
                                      "entry_time": 10**400}], *_SURVIVAL_5),
        f"error: line 1: field 'entry_time' must be a finite number, got {10**400}"),
    "monitor-burn-in-400-digits": (_golden_monitor("binary", "--burn-in", str(10**400)),
                                   f"error: burn_in must be finite, got {10**400}"),
    "monitor-ramp-400-digits": (_golden_monitor("deaths", "--ramp", str(10**400)),
                                f"error: ramp must be finite, got {10**400}"),
    "checkpoint-log_wealth-hex-past-float": (
        _edited_checkpoint("binary", ["state", "ledger", "log_wealth"], "0x1p+1024"),
        "error: corrupt checkpoint: field 'log_wealth' holds a hex float past the "
              "float range"),
    "checkpoint-cum_z-hex-past-float": (
        _edited_checkpoint("survival", ["state", "cum_z"], "-0x1p+1024"),
        "error: corrupt checkpoint: field 'cum_z' holds a hex float past the float range"),
    "checkpoint-values-hex-past-float": (
        _edited_checkpoint("continuous", ["state", "values", 3], "0x1.8p+1025"),
        "error: corrupt checkpoint: field 'values' holds a hex float past the float range"),
    "checkpoint-moment-hex-past-float": (
        _edited_checkpoint("continuous", ["state", "ctrl", 2], "0x1p+1024"),
        "error: corrupt checkpoint: field 'm2' holds a hex float past the float range"),
    "checkpoint-e_trt-400-digits": (
        _edited_checkpoint("binary", ["state", "e_trt"], 10**400),
        f"error: corrupt checkpoint: field 'e_trt' is past the float range: {10**400}"),
    "checkpoint-good_trt-400-digits": (
        _edited_checkpoint("multistate", ["state", "good_trt"], 10**400),
        f"error: corrupt checkpoint: field 'good_trt' is past the float range: {10**400}"),
    "checkpoint-arm-count-400-digits": (
        _edited_checkpoint("continuous", ["state", "trt", 0], 10**400),
        f"error: corrupt checkpoint: field 'n' is past the float range: {10**400}"),
    "event-outcome-5001-digits-line-4": (
        ["monitor", "--variant", "binary", "--input", "-"],
        f"error: line 4: {DIGIT_LIMIT}",
        '{"arm": 1, "outcome": 0}\n' * 3 + '{"arm": 0, "outcome": ' + DIGITS_5001 + "}\n"),
    "event-y-5001-digits": (
        monitor_lines("continuous", ['{"arm": 1, "y": 0.5}',
                                     '{"arm": 0, "y": -' + DIGITS_5001 + "}"]),
        f"error: line 2: {DIGIT_LIMIT}"),
    "event-entry_time-5001-digits": (
        monitor_lines("survival", ['{"time": 3.0, "status": 1, "arm": 0, "entry_time": '
                                   + DIGITS_5001 + "}"], *_SURVIVAL_5),
        f"error: line 1: {DIGIT_LIMIT}"),
    # refused by step on a line parsed before: the error names its own line
    "recurring-line-payout-inf": (
        monitor_lines("binary", ['{"arm": 1, "outcome": 0}'] * 3, "--p", "1e-320"),
        "error: line 2: multiplier must be positive and finite, got inf"),
    "recurring-line-risk-set-exhausted": (
        ["monitor", "--variant", "survival", "--risk-trt", "2", "--risk-ctrl", "2",
         "--input", "-"],
        _RISK_SET_EXHAUSTED,
        '{"time": 1.0, "status": 1, "arm": 1}\n' * 3),
    "resume-input-30-of-60-lines": (
        _resume("binary", lines=30),
        "error: input ends at line 30, before the checkpoint's line 60"),
    "resume-input-empty": (_resume("survival", lines=0),
                           "error: input ends at line 0, before the checkpoint's line 60"),
    "resume-input-59-of-60-lines": (
        _resume("deaths", lines=59),
        "error: input ends at line 59, before the checkpoint's line 60"),
    "checkpoint-log_wealth-inf": (
        _edited_checkpoint("continuous", ["state", "ledger", "log_wealth"], "inf"),
        "error: corrupt checkpoint: log_wealth must be finite, got inf"),
    "checkpoint-log_wealth-nan": (
        _edited_checkpoint("continuous", ["state", "ledger", "log_wealth"], "nan"),
        "error: corrupt checkpoint: log_wealth must be finite, got nan"),
    "checkpoint-log_wealth-minus-inf": (
        _edited_checkpoint("binary", ["state", "ledger", "log_wealth"], "-inf"),
        "error: corrupt checkpoint: log_wealth must be finite, got -inf"),
    "checkpoint-values-nan": (
        _edited_checkpoint("continuous", ["state", "values", 3], "nan"),
        "error: corrupt checkpoint: past outcomes must be finite numbers, got nan"),
    "checkpoint-values-minus-inf": (
        _edited_checkpoint("continuous", ["state", "values", 0], "-inf"),
        "error: corrupt checkpoint: past outcomes must be finite numbers, got -inf"),
    "checkpoint-cum_z-nan": (_edited_checkpoint("survival", ["state", "cum_z"], "nan"),
                             "error: corrupt checkpoint: cum_z must be finite, got nan"),
    "checkpoint-last_time-nan": (
        _edited_checkpoint("survival", ["state", "last_time"], "nan"),
        "error: corrupt checkpoint: last_time must be finite or -inf, got nan"),
    "checkpoint-truncated": (
        _resume("binary", edit=lambda text: text[: len(text) // 2]),
        "error: corrupt checkpoint: invalid JSON "
              "(Expecting value: line 1 column 208 (char 207))"),
    "checkpoint-position-5001-digits": (
        _resume("deaths", edit=lambda text: text.replace('"position": 60',
                                                         '"position": ' + DIGITS_5001)),
        "error: corrupt checkpoint: " + DIGIT_LIMIT),
    "scenario-n_sims-5001-digits": (
        scenario_text('{"variant": "binary", "n_sims": ' + DIGITS_5001 + "}"),
        Part("sc.json: " + DIGIT_LIMIT)),
    "scenario-truncated": (
        scenario_text('{"variant": "binary", "n_sims": 5'),
        lambda tmp: f"error: scenario {tmp / 'sc.json'}: invalid JSON "
                    "(Expecting ',' delimiter: line 1 column 34 (char 33))"),
    "simulate-nan-e-value": (scenario(_OVERFLOWING), f"error: continuous seed 1: {_NAN_LOG_E}"),
    # and with no numpy warning beside the error line: outcomes whose spread, and
    # survival times whose shape, overflow the float range
    "simulate-sd-1e308-nan-e-value": (
        scenario({"variant": "continuous", "n_sims": 5, "seed": 1,
                  "params": {"n_patients": 60, "sd": 1e308, "burn_in": 5, "ramp": 5}}),
        f"error: continuous seed 1: {_NAN_LOG_E}"),
    "simulate-shape-0.001-nan-e-value": (
        scenario({"variant": "survival", "n_sims": 5, "seed": 1,
                  "params": {"n_patients": 60, "shape": 0.001}}),
        f"error: survival seed 1: {_NAN_LOG_E}"),
    "trajectories-nan-e-value": (_writing(scenario(_OVERFLOWING, "trajectories"), out="t.csv"),
                                 f"error: continuous seed 1: {_NAN_LOG_E}"),
    "wage-continuous-d-1e308-nan-e-value": (
        ["wage", "--variant", "continuous", "--d", "1e308", "--n", "60", "--sims", "2"],
        f"error: continuous seed 0: {_NAN_LOG_E}"),
    # event streams
    "event-not-json": (monitor_lines("binary", ['{"arm": 1, "outcome": 0}', "not json at all"]),
                       "error: line 2: invalid JSON (Expecting value)"),
    "event-unknown-field": (monitor_records("binary", [{"arm": 1, "outcome": 0, "site": "A"}]),
                            "error: line 1: unknown fields ['site']"),
    "event-missing-field": (monitor_records("binary", [{"arm": 1}]),
                            "error: line 1: missing fields ['outcome']"),
    "event-nested-too-deeply": (
        monitor_lines("deaths", ['{"arm": 1}', '{"arm": ' + DEEP + "]" * len(DEEP) + "}"]),
        "error: line 2: invalid JSON (nested too deeply)"),
    "survival-unsorted": (
        monitor_records("survival", [{"time": 5.0, "status": 1, "arm": 0},
                                     {"time": 4.0, "status": 1, "arm": 1}],
                        "--risk-trt", "10", "--risk-ctrl", "10"),
        "error: line 2: stream not sorted: time 4.0 after 5.0"),
    "survival-without-risk-sets": (
        monitor_records("survival", [{"time": 5.0, "status": 1, "arm": 0}]),
        "error: survival monitoring needs --risk-trt and --risk-ctrl"),
    "survival-risk-set-exhausted": (
        monitor_records("survival", [{"time": float(k), "status": 1, "arm": 1}
                                     for k in range(1, 11)], "--risk-trt", "2", "--risk-ctrl", "2"),
        _RISK_SET_EXHAUSTED),
    # outcomes whose spread leaves the float range, and a time on study past it
    "event-y-residual-past-float": (
        monitor_records("continuous", [{"arm": k % 2, "y": 1e308} for k in range(3)]
                        + [{"arm": 1, "y": -1e308}], "--burn-in", "3", "--ramp", "5"),
        "error: line 4: residual must be finite, got -inf"),
    "event-time-infinity": (
        monitor_lines("survival", ['{"time": Infinity, "status": 1, "arm": 0}'], *_SURVIVAL_5),
        "error: line 1: field 'time' must be a finite number, got inf"),
    "multistate-unknown-state": (
        monitor_records("multistate", [{"from": "ICU", "to": "Hospice", "arm": 0}]),
        "error: line 1: unknown state: 'Hospice'"),
    # checkpoints that cannot be resumed
    "checkpoint-nested-too-deeply": (
        _resume("binary", edit=lambda text: '{"schema": 1, "state": ' + DEEP),
        "error: corrupt checkpoint: invalid JSON (nested too deeply)"),
    "checkpoint-not-an-object": (_resume("binary", edit=lambda text: "[1]"),
                                 "error: corrupt checkpoint: not a JSON object"),
    "checkpoint-values-scalar": (
        _edited_checkpoint("continuous", ["state", "values"], 5),
        "error: corrupt checkpoint: field 'values' has the wrong type: 5"),
    "checkpoint-no-ledger": (_edited_checkpoint("binary", ["state", "ledger"], delete=True),
                             "error: corrupt checkpoint: no field 'ledger'"),
    "checkpoint-schema-1-no-good": (
        _edited_checkpoint("multistate", ["state", "good"], delete=True),
        "error: corrupt checkpoint: no field 'good'"),
    "checkpoint-schema-1-mixed-good": (
        _edited_checkpoint("multistate", ["state", "good"], [["ICU"], "Ward"]),
        "error: corrupt checkpoint: '<' not supported between instances of 'str' and 'list'"),
    # a position before the state's events, or a setting the state holds that
    # differs from the configuration
    "checkpoint-binary-position": (
        _impossible("binary", ["position"], -5),
        "error: corrupt checkpoint: position -5 is before its 60 events"),
    "checkpoint-binary-p-and-position": (
        _writing(_resume("binary", edit=lambda text: _set(_set(text, ["state", "p"], 0.3),
                                                          ["position"], -5)),
                 report="report.json"),
        "error: corrupt checkpoint: position -5 is before its 60 events"),
    "checkpoint-deaths-position": (
        _impossible("deaths", ["position"], 59),
        "error: corrupt checkpoint: position 59 is before its 60 events"),
    **{f"checkpoint-{variant}-{key}": (
        _impossible(variant, ["state", key], value),
        f"error: checkpoint {key} {held} does not match the configuration's {configured}; "
        "refusing to resume")
       for variant, key, value, held, configured in [
           ("binary", "p", 0.3, 0.3, 0.5), ("continuous", "c_max", 0.9, 0.9, 0.5),
           ("continuous", "p", 0.6, 0.6, 0.5), ("survival", "lambda_max", 0.5, 0.5, 0.3),
           ("multistate", "burn_in", 3, 3, 30),
           ("multistate", "good", [["Ward", "ICU"], ["ICU", "Dead"]],
            [["ICU", "Dead"], ["Ward", "ICU"]], [["ICU", "Ward"], ["Ward", "Home"]]),
           ("multistate", "states", ["ICU", "Ward", "Home", "Dead"],
            ["ICU", "Ward", "Home", "Dead"], ["Ward", "ICU", "Home", "Dead"]),
           ("multistate", "absorbing", ["Dead"], ["Dead"], ["Dead", "Home"])]},
    # scenario files
    "scenario-not-an-object": (scenario([1], "simulate", "--seed", "1"),
                               "error: a scenario must be a JSON object"),
    "scenario-params-list": (scenario({"variant": "binary", "params": [1, 2]}, "simulate",
                                      "--seed", "1"),
                             "error: scenario 'params' must be a JSON object"),
    "scenario-variant-list": (
        scenario({"variant": ["binary"]}, "simulate", "--seed", "1"),
        "error: unknown variant ['binary']; expected one of "
              "('binary', 'deaths', 'continuous', 'survival', 'multistate')"),
    "scenario-n_patients-string": (
        scenario({"variant": "binary", "params": {"n_patients": "abc", "p_ctrl": 0.4,
                                                  "p_trt": 0.3}}, "simulate", "--seed", "1"),
        "error: n_patients must be an integer >= 1, got 'abc'"),
    "scenario-unknown-parameter": (
        scenario({"variant": "binary", "params": {"n_patients": 10, "p_ctrl": 0.4,
                                                  "typo_field": 1}}),
        "error: unknown parameters for binary: ['typo_field']"),
    "scenario-p_trt-1.2": (
        scenario({"variant": "binary", "params": {"n_patients": 50, "p_ctrl": 0.4, "p_trt": 1.2}}),
        "error: p_trt must be in [0, 1], got 1.2"),
    "scenario-without-variant": (scenario({"params": {}}),
                                 "error: scenario is missing the required field 'variant'"),
    "scenario-nested-too-deeply": (
        scenario_text('{"variant": "binary", "params": ' + DEEP),
        lambda tmp: f"error: scenario {tmp / 'sc.json'}: invalid JSON (nested too deeply)"),
    # sizing without an effect, or with an option the variant does not read
    "power-binary-without-effect": (["power", "--variant", "binary"],
                                    "error: --p1 and --p2 are required for binary sizing"),
    "power-binary-without-p2": (["power", "--variant", "binary", "--p1", "0.4"],
                                "error: --p1 and --p2 are required for binary sizing"),
    "power-deaths-without-p1": (["power", "--variant", "deaths", "--p2", "0.15"],
                                "error: --p1 and --p2 are required for deaths sizing"),
    "power-continuous-without-d": (["power", "--variant", "continuous"],
                                   "error: --d is required for continuous sizing"),
    "power-survival-without-hr": (["power", "--variant", "survival", "--p1", "0.5"],
                                  "error: --hr is required for survival sizing"),
    "power-survival-p1": (["power", "--variant", "survival", "--hr", "0.8", "--p1", "0.5"],
                          "error: survival sizing does not read --p1"),
    "power-deaths-d": (["power", "--variant", "deaths", "--p1", "0.25", "--p2", "0.15",
                        "--d", "0.3"],
                       "error: deaths sizing does not read --d"),
    # studies: fewer than one replication, an impossible trial, an unread option
    **{f"{command[0]}-sims-{sims}": ([*command, "--sims", sims], "error: n_sims must be >= 1")
       for command in (["wage", "--variant", "binary"], ["compare"]) for sims in ("0", "-3")},
    # with --n given no sizing runs, so the scenario row's check refuses the effect
    "wage-survival-hr-negative": (
        ["wage", "--variant", "survival", "--hr", "-0.5", "--n", "50", "--sims", "3"],
        "error: hr must be > 0, got -0.5"),
    "wage-binary-arr-0.45": (
        ["wage", "--variant", "binary", "--arr", "0.45", "--n", "50", "--sims", "3"],
        "error: p_trt must be in [0, 1], got -0.04999999999999999"),
    "wage-binary-hr": (["wage", "--variant", "binary", "--hr", "0.5", "--sims", "3"],
                       "error: the binary wage study does not read --hr"),
    "wage-continuous-fixed": (["wage", "--variant", "continuous", "--fixed", "0.9", "--sims", "3"],
                              "error: the continuous wage study does not read --fixed"),
    "wage-survival-arr-sign-c": (
        ["wage", "--variant", "survival", "--arr", "0.1", "--sign-c", "0.3", "--sims", "3"],
        "error: the survival wage study does not read --arr or --sign-c"),
    # a power at or below alpha/2, which a two-sided test of any size exceeds
    **{f"{name}-power-{power}": (
        [*argv, "--power", power],
        f"error: power must be > alpha/2 = 0.025 to size a trial, got {power}")
       for name, argv, power in [
           ("power-binary", ["power", "--variant", "binary", "--p1", "0.4", "--p2", "0.35"],
            "0.025"),
           ("power-deaths", ["power", "--variant", "deaths", "--p1", "0.25", "--p2", "0.15"],
            "0.01"),
           ("power-continuous", ["power", "--variant", "continuous", "--d", "0.4"], "0.01"),
           ("power-survival", ["power", "--variant", "survival", "--hr", "0.8"], "1e-300"),
           ("compare", ["compare", "--baselines", "0.3", "--sims", "2"], "0.01")]},
    # an output that cannot be written is refused before anything is printed, and
    # before the command's other ``files`` are written
    **{f"{argv[0]}-{argv[-1][2:]}-a-directory{''.join(f'-and-{key}' for key in files)}": (
        _writing(lambda tmp, argv=argv: [*argv, str(tmp)], **files),
        lambda tmp: f"error: [Errno 21] Is a directory: {str(tmp)!r}")
       for argv, files in [
           (_golden_monitor("binary", "--report"), {}),
           (["simulate", "--scenario", str(SCENARIO_DIR / "binary_alt.json"), "--sims", "5",
             "--json"], {}),
           (["compare", "--baselines", "0.3", "--sims", "5", "--csv"], {}),
           (["wage", "--variant", "binary", "--n", "100", "--sims", "5", "--json"], {}),
           (["compare", "--baselines", "0.3", "--sims", "5", "--json"], {"csv": "out.csv"}),
           (["wage", "--variant", "binary", "--n", "100", "--sims", "5", "--json"],
            {"csv": "out.csv"}),
           (["trajectories", "--scenario", str(SCENARIO_DIR / "binary_alt.json"), "--trials", "2",
             "--svg"], {"out": "traj.csv"})]},
}.items()}

# a checkpoint written, then resumed under another configuration
_CHECKPOINTED = Run(_writing(_golden_monitor("binary"), checkpoint="ck.json"))
REFUSALS |= {
    "resume-ramp-mismatch": [
        _CHECKPOINTED,
        Run(_writing(_golden_monitor("binary", "--resume", "--ramp", "55"), checkpoint="ck.json"),
            error="error: checkpoint configuration does not match; refusing to resume")],
    "resume-variant-mismatch": [
        _CHECKPOINTED,
        Run(_writing(["monitor", "--variant", "deaths", "--input", str(GOLDEN / "binary.ndjson"),
                      "--resume"], checkpoint="ck.json"),
            error="error: checkpoint is for variant 'binary', not 'deaths'")],
}

CASES = {**OUTPUTS, **STUDIES, **REFUSALS}


def main(entry, cases=CASES, only=None) -> int:
    """Run ``cases`` through the command ``entry``, or with ``only`` those
    whose runs are all that ``trialbet`` command; print each failing case, and
    return 1 if any failed."""
    if only is not None:
        cases = {name: case for name, case in cases.items() if commands(case) == {only}}
    failed = 0
    for name, case in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            try:
                problem = run_case(case, Path(tmp), entry)
            except Exception:  # a case that cannot run fails alone; the others still run
                problem = traceback.format_exc()
        if problem:
            failed += 1
            print(f"FAIL {name}: {problem}", flush=True)
    print(f"{len(cases) - failed} of {len(cases)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run the command-line cases through a command.")
    parser.add_argument("--only", metavar="COMMAND",
                        help="run only the cases whose runs are all this trialbet command")
    parser.add_argument("entry", nargs=argparse.REMAINDER,
                        help="the command that runs trialbet, e.g. trialbet")
    args = parser.parse_args()
    if not args.entry:
        parser.error("the command that runs trialbet is required, e.g. trialbet")
    sys.exit(main(args.entry, only=args.only))
