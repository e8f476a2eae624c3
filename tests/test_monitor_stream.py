"""The live monitor's event path under arbitrary input.

``cli.parse_event`` decodes most records with the JSON scanner alone; the
reference in ``oracles.parse_event`` is the plain ``json.loads`` path.  The
two must accept the same records and report the same errors, word for word.
The ``monitor`` command must end every stream in exit 0, 1 or 10 with at
most one ``error:`` line, and a run cut at any line and resumed from its
checkpoint must report exactly what the uninterrupted run reports.
"""

import itertools
import json
import operator
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hs

import oracles
from test_checkpoint import GOLDEN, GOLDEN_ARGS, run_main
from trialbet.cli import parse_event
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
    assert (_outcome(parse_event, monitor, line, 7)
            == _outcome(oracles.parse_event, monitor, line, 7))


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
