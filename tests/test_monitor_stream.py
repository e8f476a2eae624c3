"""The live monitor's event path under arbitrary input.

``cli.parse_event`` decodes most records with the JSON scanner alone; the
reference in ``oracles.parse_event`` is the plain ``json.loads`` path.  The
two must accept the same records and report the same errors, word for word.
The ``monitor`` command must end every stream in exit 0, 1 or 10 with at
most one ``error:`` line, and a run cut at any line and resumed from its
checkpoint must report exactly what the uninterrupted run reports.

The command parses each distinct line once and steps the stored arguments
when the line recurs, until it has stored ``cli._MEMO_LINES`` lines.  A
stream of recurring lines must end exactly as a line-by-line replay through
the reference parser does: the same exit, report, error line and checkpoint.
"""

import contextlib
import io
import itertools
import json
import operator
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hs

import oracles
from cli_cases import GOLDEN, GOLDEN_ARGS, run_main
from trialbet import cli
from trialbet.checkpoint import encode_state
from trialbet.cli import parse_event
from trialbet.multistate import DEFAULT_MODEL
from trialbet.variants import MONITORS

FIELDS = sorted(set().union(*(m.allowed for m in MONITORS.values())) | {"Arm", "extra"})
_SCALARS = hs.one_of(
    hs.sampled_from([0, 1, 2, -1, 0.0, 1.0, True, False, None, "", "1",
                     "ICU", "Ward", "Home", "Dead", "Nowhere"]),
    hs.integers(-3, 60),
    hs.floats(),  # NaN and the infinities included: json.dumps writes NaN, Infinity
)
_VALUES = hs.one_of(_SCALARS, hs.lists(_SCALARS, max_size=2),
                    hs.dictionaries(hs.sampled_from(FIELDS), _SCALARS, max_size=1))
_FLAG = hs.sampled_from([0, 1, 1, 0, True, False, 1.0, 2, "1", None])
# ints past the float range, which a JSON number may be
_PAST_FLOAT = hs.one_of(hs.integers(int(sys.float_info.max) + 1, 10**400),
                        hs.integers(-10**400, -int(sys.float_info.max) - 1))
_TIME = hs.one_of(hs.floats(-1.0, 50.0), hs.integers(-1, 50), hs.floats(), hs.just("3"),
                  _PAST_FLOAT)
_VALUE_OF = {"arm": _FLAG, "outcome": _FLAG, "status": _FLAG, "time": _TIME,
             "entry_time": _TIME, "y": hs.one_of(hs.floats(-5, 5), hs.floats(), _PAST_FLOAT),
             "from": _SCALARS, "to": _SCALARS, "day": hs.integers(0, 30)}
# JSON whitespace is " \t\n\r" only; the others are str.strip whitespace or not whitespace
_LEAD = ["", "", " ", "\t", "\r", "\n", "\ufeff", "\x0c", "\u00a0", "x"]
_TAIL = ["", "\n", "\n", " \n", "\r\n", "\t \r", "\x0c\n", "\u00a0", " x", "{}", "1", ",", "]"]
_JSONISH = hs.text(alphabet='{}[]":,.-+eE0123456789 \t\r\nadefilmnorstuyINaTW\ufeff',
                   max_size=40)


@hs.composite
def near_valid_lines(draw, monitor):
    """A record of the monitor's fields, give or take one: missing, unknown,
    optional and duplicate keys, odd values, and whitespace, BOM or extra
    data around the object."""
    keys = sorted(monitor.required)
    if draw(hs.integers(0, 4)) == 0:
        keys.remove(draw(hs.sampled_from(keys)))
    keys += draw(hs.lists(hs.sampled_from(FIELDS), max_size=2))
    pairs = draw(hs.permutations([(k, draw(_VALUE_OF.get(k, _VALUES))) for k in keys]))
    body = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs)
    return draw(hs.sampled_from(_LEAD)) + "{" + body + "}" + draw(hs.sampled_from(_TAIL))


def _outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # both parsers must fail alike, whatever the error
        return type(exc), str(exc)


@pytest.mark.parametrize("variant", sorted(MONITORS))
@settings(max_examples=400, deadline=None)
@given(data=hs.data())
def test_parse_event_matches_json_loads_reference(variant, data):
    monitor = MONITORS[variant]
    line = data.draw(hs.one_of(near_valid_lines(monitor), _JSONISH, hs.text(max_size=40)))
    outcome = _outcome(parse_event, monitor, line, 7)
    assert outcome == _outcome(oracles.parse_event, monitor, line, 7)
    if outcome[0] == "returned":  # immutable, so the monitor may step it again
        hash(outcome[1])


# small survival cohorts, so arbitrary streams also exhaust a risk set
_FUZZ_ARGS = {**GOLDEN_ARGS, "survival": ["--risk-trt", "4", "--risk-ctrl", "4"]}


@pytest.mark.parametrize("variant", sorted(MONITORS))
@settings(max_examples=60, deadline=None)
@given(data=hs.data())
def test_monitor_ends_arbitrary_streams_cleanly(variant, data):
    """Exit 0, 1 or 10; an error is one ``error:`` line, the last; no traceback."""
    line = hs.one_of(near_valid_lines(MONITORS[variant]), _JSONISH, hs.text(max_size=30))
    raw = data.draw(hs.lists(hs.one_of(line.map(str.encode), hs.binary(max_size=12)),
                             max_size=25))
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "events.ndjson"
        stream.write_bytes(b"\n".join(raw))
        code, out, err = run_main(["monitor", "--variant", variant, "--input", str(stream),
                                   "--checkpoint", str(Path(tmp) / "ck.json"),
                                   "--checkpoint-every", "3", "--progress-every", "2",
                                   *_FUZZ_ARGS[variant]])
    errors = [row for row in err.splitlines() if row.startswith("error:")]
    assert code in (0, 1, 10)
    if code == 1:
        assert errors == err.splitlines()[-1:] and out == "", err
    else:
        assert errors == [] and json.loads(out)["crossed"] == (code == 10)


@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
@settings(max_examples=40, deadline=None)
@given(data=hs.data())
def test_resume_from_any_line_gives_the_uninterrupted_report(variant, data):
    lines = (GOLDEN / f"{variant}.ndjson").read_text().splitlines(keepends=True)
    cut = data.draw(hs.integers(1, len(lines)), label="cut")
    golden = (GOLDEN / f"{variant}.report.json").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        head, ck, report = (Path(tmp) / name for name in ("head.ndjson", "ck.json", "r.json"))
        head.write_text("".join(lines[:cut]))
        common = ["monitor", "--variant", variant, "--checkpoint", str(ck), *GOLDEN_ARGS[variant]]
        assert run_main([*common, "--input", str(head)])[0] in (0, 10)
        code, out, err = run_main([*common, "--input", str(GOLDEN / f"{variant}.ndjson"),
                                   "--resume", "--report", str(report)])
        assert f"resumed from checkpoint at line {cut}\n" in err
        assert report.read_text() == out == golden
    assert code == (10 if json.loads(golden)["crossed"] else 0)


def test_blank_lines_are_the_lines_strip_empties():
    """The monitor skips a line when ``line.isspace()``, which copies nothing.
    A line read from a file is never empty, and for every code point, alone
    or before a newline, that is exactly when ``not line.strip()``: the skip
    passes over the same lines, "\\x1c"-"\\x1f" and "\\xa0" among them."""
    chars = list(map(chr, range(sys.maxunicode + 1)))
    for lines in (chars, list(map(operator.add, chars, itertools.repeat("\n")))):
        assert list(map(str.isspace, lines)) == list(map(operator.not_, map(str.strip, lines)))
    assert all(c.isspace() and not c.strip() for c in "\x1c\x1d\x1e\x1f\xa0\x85 　")


# a value each required field takes, or is refused by ``step`` alone: an
# unsorted survival time, a move out of an absorbing state, an exhausted risk set
_VALID_OF = {"arm": hs.sampled_from([0, 1]), "outcome": hs.sampled_from([0, 1]),
             "status": hs.sampled_from([0, 1]), "time": hs.sampled_from([0.5, 1.0, 2.0]),
             "y": hs.floats(-5, 5), "from": hs.sampled_from(DEFAULT_MODEL.states),
             "to": hs.sampled_from(DEFAULT_MODEL.states)}


def valid_lines(monitor):
    """A record of exactly the monitor's required fields."""
    return hs.fixed_dictionaries({key: _VALID_OF[key] for key in sorted(monitor.required)}
                                 ).map(json.dumps)


def _replay(variant, path, argv, every):
    """(exit code, report, error line, last checkpointed state) of a fresh
    state stepped line by line through the reference parser, as the command
    steps it, with no memo."""
    monitor = MONITORS[variant]
    state = monitor.build(cli._monitor_config(cli.build_parser().parse_args(argv), monitor))
    saved, events = None, 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                step_args = oracles.parse_event(monitor, line, line_no)
                try:
                    state.step(*step_args)
                except ValueError as exc:
                    raise cli.EventError(f"line {line_no}: {exc}") from exc
            except ValueError as exc:
                return cli.EXIT_ERROR, "", f"error: {exc}", saved
            events += 1
            if events % every == 0:
                saved = encode_state(state)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        cli._write_json(cli._monitor_summary(monitor, variant, state))
    code = cli.EXIT_CROSSED if state.ledger.crossed else cli.EXIT_OK
    return code, report.getvalue(), None, encode_state(state)


@pytest.mark.parametrize("variant", sorted(MONITORS))
@settings(max_examples=100, deadline=None)
@given(data=hs.data())
def test_recurring_lines_end_as_a_line_by_line_replay(variant, data):
    """A stream drawn from a few lines, each recurring, ends as the replay
    does: exit, report, the one error line with its line number, and the
    state in the last checkpoint."""
    monitor = MONITORS[variant]
    records = hs.sampled_from(data.draw(hs.lists(
        hs.one_of(valid_lines(monitor), near_valid_lines(monitor)), min_size=1, max_size=3)))
    # the same records again inside whitespace, a BOM or extra data
    framed = hs.tuples(hs.sampled_from(_LEAD), records, hs.sampled_from(_TAIL)).map("".join)
    pool = data.draw(hs.lists(hs.one_of(records, framed, hs.sampled_from(["", " ", "\t\r"])),
                              min_size=1, max_size=6), label="pool")
    picks = data.draw(hs.lists(hs.integers(0, len(pool) - 1), max_size=40), label="picks")
    every = data.draw(hs.integers(1, 4), label="every")
    with tempfile.TemporaryDirectory() as tmp:
        stream, ck = Path(tmp) / "events.ndjson", Path(tmp) / "ck.json"
        stream.write_text("".join(pool[k] + "\n" for k in picks), encoding="utf-8")
        argv = ["monitor", "--variant", variant, "--input", str(stream), "--checkpoint", str(ck),
                "--checkpoint-every", str(every), *_FUZZ_ARGS[variant]]
        code, out, err = run_main(argv)
        saved = json.loads(ck.read_text())["state"] if ck.exists() else None
        want_code, want_out, want_error, want_saved = _replay(variant, stream, argv, every)
    errors = [row for row in err.splitlines() if row.startswith("error:")]
    assert (code, out) == (want_code, want_out)
    assert errors == ([want_error] if want_error else [])
    assert saved == (None if want_saved is None else json.loads(json.dumps(want_saved)))


def test_each_distinct_line_is_parsed_once_up_to_the_cap(monkeypatch, tmp_path):
    """Four distinct binary lines in 3,000 parse four times.  A run that has
    stored ``_MEMO_LINES`` lines stops looking lines up: 1,023 distinct lines
    read twice parse 1,023 times, and 1,024 read twice parse 2,048 times."""
    calls = []

    def counted(*args):
        calls.append(args[2])
        return parse_event(*args)

    monkeypatch.setattr(cli, "parse_event", counted)
    binary = [json.dumps({"arm": k % 2, "outcome": k // 2}) for k in range(4)]
    multistate = [json.dumps({"from": "ICU", "to": "Ward", "arm": k % 2, "day": k})
                  for k in range(cli._MEMO_LINES)]
    for variant, lines, parses in (("binary", binary * 750, 4),
                                   ("multistate", multistate[:-1] * 2, 1023),
                                   ("multistate", multistate * 2, 2048)):
        path = tmp_path / f"{variant}.ndjson"
        path.write_text("".join(line + "\n" for line in lines))
        calls.clear()
        code, out, err = run_main(["monitor", "--variant", variant, "--input", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_CROSSED), err
        assert json.loads(out)["events"] == len(lines)
        assert len(calls) == parses
    assert cli._MEMO_LINES == 1024
