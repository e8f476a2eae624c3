"""Command-line interface: live monitoring, simulation studies, and exports.

Commands
--------
monitor       consume an NDJSON event stream, with resumable checkpoints
simulate      estimate operating characteristics for a scenario file
power         frequentist sample-size calculators used for trial design
compare       deaths-only vs binary monitor on identical simulated trials
wage          betting-strategy comparison (fixed vs adaptive wagers)
trajectories  export simulated wealth trajectories as CSV (and optional SVG)

Exit codes: 0 = completed without crossing, 10 = threshold crossed,
1 = error.  All randomness is controlled by explicit ``--seed`` flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import checkpoint as ckpt
from .core import _exp_wealth
from .variants import MONITORS, SCHEMA_VERSION, Monitor

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CROSSED = 10


class EventError(ValueError):
    pass


def _strict(obj):
    """``obj`` with every non-finite float as a string ("inf"): JSON has no infinity."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _write_json(doc, path: str | None = None) -> None:
    """Write ``doc`` as strict JSON to ``path``, or to stdout when it is None."""
    text = json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_DECODER = json.JSONDecoder()  # json.loads' own settings; its C scanner decodes each event
# Distinct event lines a monitor run keeps parsed, a memory bound.  A run that
# has stored this many stops looking lines up: its lines mostly do not recur.
_MEMO_LINES = 1024


def parse_event(monitor: Monitor, line: str, line_no: int) -> tuple:
    """Parse and strictly validate one NDJSON record; returns the ``step`` arguments.

    Unknown fields are rejected rather than ignored: a misspelled field in a
    monitoring stream must fail loudly, not silently change the analysis.
    A line that is one JSON object followed by whitespace is decoded by the
    scanner alone; any other line goes through ``json.loads``, so every
    record accepted and every error reported is exactly ``json.loads``'s.
    """
    try:
        record, end = _DECODER.scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        record = None
    if type(record) is not dict or line[end:] != "\n" and line[end:].strip(" \t\n\r"):
        try:
            record = json.loads(line)
        except RecursionError as exc:
            raise EventError(f"line {line_no}: invalid JSON (nested too deeply)") from exc
        except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
            raise EventError(f"line {line_no}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(record, dict):
            raise EventError(f"line {line_no}: record must be a JSON object")
    keys = record.keys()  # most events carry exactly the required fields
    if keys != monitor.required and not monitor.required <= keys <= monitor.allowed:
        missing = monitor.required - keys
        if missing:
            raise EventError(f"line {line_no}: missing fields {sorted(missing)}")
        raise EventError(f"line {line_no}: unknown fields {sorted(keys - monitor.allowed)}")
    arm = record["arm"]
    if arm not in (0, 1):
        raise EventError(f"line {line_no}: field 'arm' must be 0 or 1, got {arm!r}")
    try:
        return monitor.parse(record, 1 if arm else 0)  # an int, as int(arm) is
    except ValueError as exc:
        raise EventError(f"line {line_no}: {exc}") from exc


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def _monitor_config(args, monitor: Monitor) -> dict:
    """Alpha, schedule and options from the command line, defaults from the monitor."""
    _refuse_unread(args, [key for row in MONITORS.values() for key in row.options],
                   monitor.options, f"{args.variant} monitoring")
    cfg = {"variant": args.variant, "alpha": args.alpha}
    defaults = monitor.defaults
    for key in ("burn_in", "ramp", *monitor.options):
        value = getattr(args, key)
        cfg[key] = defaults.get(key) if value is None else value
    missing = [f"--{key.replace('_', '-')}" for key in monitor.options if cfg[key] is None]
    if missing:
        raise EventError(f"{args.variant} monitoring needs {' and '.join(missing)}")
    return cfg


def _monitor_summary(monitor: Monitor, variant: str, state) -> dict:
    led = state.ledger
    return {
        "schema": SCHEMA_VERSION,
        "variant": variant,
        "events": monitor.events(state),
        "e_value": led.wealth,
        "log_e_value": led.log_wealth,
        "threshold": led.threshold,
        "crossed": led.crossed,
        "crossed_at": led.crossed_at,
        **monitor.report(state),
    }


# Characters one read takes while skipping lines: at most 4 bytes each, so the
# read's byte hint stays within the 8,192-byte chunk that line iteration decodes
_SKIP_READ = 2048
_SKIP_BY_LINE = 32  # lines a skip reads one by one at its end


def skip_lines(stream, count: int) -> int:
    """Read past the first ``count`` lines of the text stream ``stream``, and
    return how many it held: ``count``, or fewer when it ends first.

    The lines are counted, not parsed.  A read takes at most as many
    characters as lines remain, and every line holds at least its newline,
    so no read passes line ``count``: a live producer is never waited on past
    it.  The last lines are read one by one.  The text layer has turned each
    ``\\r\\n`` and ``\\r`` into ``\\n`` when it does so for line iteration, and a last
    line without a newline counts as a line.
    """
    seen, partial = 0, False
    while count - seen > _SKIP_BY_LINE:
        text = stream.read(min(count - seen, _SKIP_READ))
        if not text:
            return seen + partial
        seen += text.count("\n")
        partial = text[-1] != "\n"
    while seen < count:
        line = stream.readline()
        if not line:
            return seen + partial
        seen, partial = seen + 1, False
    return seen


def cmd_monitor(args) -> int:
    variant = args.variant
    monitor = MONITORS[variant]
    cfg = _monitor_config(args, monitor)
    _at_least(args, 0, "checkpoint_every", "progress_every")
    if (args.resume or args.checkpoint_every) and not args.checkpoint:
        raise ValueError("--resume and --checkpoint-every need --checkpoint")
    position = 0  # line number of the last processed event
    if args.resume:
        state, position = ckpt.read_checkpoint_file(args.checkpoint, variant, cfg)
    else:
        state = monitor.build(cfg)

    ledger = state.ledger
    already_crossed = ledger.crossed
    step = state.step
    n_events = monitor.events(state)  # each event consumed adds one
    progress_every = args.progress_every
    checkpoint_every = args.checkpoint_every
    written = None  # position of the last periodic checkpoint
    stream = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    try:
        if args.resume:  # the input replays the stream from its start; skip the processed lines
            ends_at = skip_lines(stream, position)
            if ends_at < position:
                raise EventError(f"input ends at line {ends_at}, before the checkpoint's "
                                 f"line {position}")
            print(f"resumed from checkpoint at line {position}", file=sys.stderr)
        lines = enumerate(stream, start=position + 1)
        # exact: a parse reads only (monitor, line) and returns immutable values
        parsed, room = {}, _MEMO_LINES  # line -> its step arguments; lines it may still take
        for line_no, line in lines:
            step_args = parsed.get(line) if room else None
            if step_args is None:
                if line.isspace():  # what ``not line.strip()`` skips, without a copy
                    continue
                step_args = parse_event(monitor, line, line_no)
                if room:
                    parsed[line] = step_args
                    room -= 1
            try:
                step(*step_args)
            except ValueError as exc:
                raise EventError(f"line {line_no}: {exc}") from exc
            position = line_no
            n_events += 1
            if ledger.crossed and not already_crossed:
                already_crossed = True
                stamp = datetime.now(timezone.utc).isoformat()
                print(f"CROSSED at event {ledger.crossed_at}: "
                      f"e-value {ledger.wealth:.3f} >= {ledger.threshold:g} "
                      f"[{stamp}]", file=sys.stderr)
            if progress_every and n_events % progress_every == 0:
                print(f"event {n_events}: e-value {ledger.wealth:.4g}", file=sys.stderr)
            if checkpoint_every and n_events % checkpoint_every == 0:
                ckpt.write_checkpoint_file(args.checkpoint, variant, state, cfg, position)
                written = position
    finally:
        if stream is not sys.stdin:
            stream.close()

    if args.checkpoint and written != position:  # else the last write saved this state
        ckpt.write_checkpoint_file(args.checkpoint, variant, state, cfg, position)
    report = _monitor_summary(monitor, variant, state)
    if args.report:  # first: a report that cannot be written leaves stdout empty
        _write_json(report, args.report)
    _write_json(report)
    return EXIT_CROSSED if ledger.crossed else EXIT_OK


# ---------------------------------------------------------------------------
# simulate / power / compare / wage / trajectories
# ---------------------------------------------------------------------------

def _load_scenario(args):
    from .simlab.scenario import SimScenario

    scenario = SimScenario.from_dict(ckpt.read_json(args.scenario, f"scenario {args.scenario}"))
    overrides = {"n_sims": getattr(args, "sims", None), "seed": args.seed}
    return dataclasses.replace(scenario, **{k: v for k, v in overrides.items() if v is not None})


def cmd_simulate(args) -> int:
    from .simlab import engine

    _at_least(args, 1, "workers")
    scenario = _load_scenario(args)
    oc = engine.run_operating_characteristics(scenario, n_workers=args.workers)
    if args.json:
        _write_json(oc.to_dict(), args.json)
    med_cross = ("-" if oc.median_first_crossing is None
                 else f"{oc.median_first_crossing:.0f} ({100 * oc.median_crossing_fraction:.0f}%)")
    print(f"variant             {oc.variant}")
    print(f"replications        {oc.n_sims}  (seed {oc.seed})")
    print(f"rejection rate      {oc.rejection_rate:.4f}  (SE {oc.se:.4f})")
    print(f"median crossing     {med_cross}")
    print(f"median stream len   {oc.median_stream_length:.0f}")
    print(f"median final e      {oc.final_e_median:.4g}")
    return EXIT_OK


def _at_least(args, least: int, *keys: str) -> None:
    """Refuse any of the integer options ``keys`` that was given below ``least``."""
    for key in keys:
        if getattr(args, key) < least:
            raise ValueError(f"--{key.replace('_', '-')} must be >= {least}, "
                             f"got {getattr(args, key)}")


def _refuse_unread(args, offered, read, what: str) -> None:
    """Refuse any option of ``offered`` that was given but that ``what`` does not read."""
    unread = [f"--{key.replace('_', '-')}" for key in dict.fromkeys(offered)
              if key not in read and getattr(args, key) is not None]
    if unread:
        raise ValueError(f"{what} does not read {' or '.join(unread)}")


def cmd_power(args) -> int:
    from .simlab.scenario import SIM_VARIANTS

    sim = SIM_VARIANTS[args.variant]
    values = [getattr(args, key) for key in sim.size_flags]
    if None in values:
        raise ValueError(f"{' and '.join(f'--{key}' for key in sim.size_flags)} "
                         f"{'are' if len(values) > 1 else 'is'} required for {args.variant} sizing")
    _refuse_unread(args, [key for row in SIM_VARIANTS.values() for key in row.size_flags],
                   sim.size_flags, f"{args.variant} sizing")
    print(sim.size(*values, args.power, args.alpha))
    return EXIT_OK


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: trialbet.v{SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_all(writes: dict) -> None:
    """Write each ``path: write`` output, all or none: ``write(name)`` writes
    to a temporary name beside ``path``, and only once every output is written
    are they renamed over their paths.  An output that is a directory is
    refused before any is written, and an error names the output's path."""
    for path in writes:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        for path, write in writes.items():
            try:
                write(f"{path}.tmp")
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for path in writes:
            os.replace(f"{path}.tmp", path)
    finally:
        for path in writes:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(f"{path}.tmp")


def _write_study(args, cls, key: str, rows: list) -> None:
    """Write a study's ``rows`` of dataclass ``cls`` to ``--csv``, one column
    per field, and to ``--json`` under ``key``: both or neither."""
    writes = {}
    if args.csv:
        writes[args.csv] = lambda path: _write_csv(
            path, [f.name for f in dataclasses.fields(cls)], [list(vars(r).values()) for r in rows])
    if args.json:
        writes[args.json] = lambda path: _write_json(
            {"schema": SCHEMA_VERSION, key: [vars(r) for r in rows]}, path)
    _write_all(writes)


def cmd_compare(args) -> int:
    from .simlab import engine

    baselines = [float(b) for b in args.baselines.split(",")]
    rows = engine.head_to_head_deaths_vs_binary(
        baselines, arr=args.arr, power=args.power, alpha=args.alpha,
        n_sims=args.sims, seed=args.seed)
    _write_study(args, engine.HeadToHeadRow, "rows", rows)
    print(f"{'baseline':>8} {'coin':>6} {'N':>6} {'deaths':>7} "
          f"{'binary':>7} {'deaths-only':>11} {'delta':>7}  winner")
    for r in rows:
        print(f"{r.baseline:8.2f} {r.coin:6.3f} {r.n_patients:6d} {r.mean_deaths:7.1f} "
              f"{100 * r.binary_power:6.1f}% {100 * r.deaths_power:10.1f}% "
              f"{r.delta_pp:+6.1f}pp  {r.winner}")
    return EXIT_OK


def _wage_setup(args):
    """The effects and strategies ``wage`` compares, from the variant's row."""
    from .simlab.scenario import SIM_VARIANTS
    from .simlab.strategies import BettingStrategy

    wage = SIM_VARIANTS[args.variant].wage
    _refuse_unread(args, [key for row in SIM_VARIANTS.values() if row.wage
                          for key in row.wage.flags], wage.flags, f"the {args.variant} wage study")
    given = vars(args)
    effects = ([wage.default] if given[wage.flag] is None
               else [float(x) for x in given[wage.flag].split(",")])
    return effects, [BettingStrategy(kind, rule.default if given.get(rule.flag) is None
                                     else given[rule.flag])
                     for kind, rule in wage.strategies.items()]


def cmd_wage(args) -> int:
    from .simlab import engine

    effects, strategies = _wage_setup(args)
    # n stays None unless --n is given: each effect then runs at its own
    # frequentist design size, the convention the comparisons calibrate to
    cells = engine.wage_study(args.variant, strategies, effects, args.n,
                              n_sims=args.sims, alpha=args.alpha, seed=args.seed)
    _write_study(args, engine.WageCell, "cells", cells)
    print(f"{'effect':>8} {'strategy':>16} {'power':>7} {'median E':>10} {'med cross':>10}")
    for c in cells:
        cross = "-" if c.median_crossing is None else f"{c.median_crossing:.0f}"
        print(f"{c.effect:8.2f} {c.strategy:>16} {100 * c.power:6.1f}% "
              f"{c.median_final_e:10.3g} {cross:>10}")
    return EXIT_OK


def _write_svg(path: str, trials: list[tuple], alpha: float) -> None:
    """Minimal log-scale trajectory plot; one polyline per trial.

    Plotted from log-wealth, and the threshold 1/alpha from ``-log10(alpha)``,
    so trials whose e-value leaves the float range (``wealth`` saturates to
    ``inf``) and a subnormal alpha still get finite coordinates.
    """
    width, height, margin = 840, 520, 50
    floor = -12.0  # log10 of the smallest wealth drawn
    series = [list(zip(index.tolist(), (logw / math.log(10)).clip(floor).tolist()))
              for index, _, _, logw in trials if index.size]
    max_x = max((pt[0] for pts in series for pt in pts), default=1)
    vals = [pt[1] for pts in series for pt in pts]
    log_threshold = -math.log10(alpha)
    ly_lo = min(min(vals, default=0.0), -log_threshold)
    ly_hi = max(max(vals, default=0.0), log_threshold + math.log10(2))

    def sx(x): return margin + (width - 2 * margin) * x / max_x
    def sy(ly): return height - margin - (height - 2 * margin) * (ly - ly_lo) / (ly_hi - ly_lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    ty = sy(log_threshold)
    parts.append(f'<line x1="{margin}" y1="{ty:.1f}" x2="{width - margin}" y2="{ty:.1f}" '
                 f'stroke="red" stroke-dasharray="6,4"/>')
    oy = sy(0.0)
    parts.append(f'<line x1="{margin}" y1="{oy:.1f}" x2="{width - margin}" y2="{oy:.1f}" '
                 f'stroke="gray" stroke-dasharray="2,4"/>')
    stride = max(1, math.ceil((ly_hi - ly_lo) / 20))  # at most about 20 axis labels
    for decade in range(math.ceil(ly_lo), math.floor(ly_hi) + 1, stride):
        yy = sy(decade)
        parts.append(f'<text x="4" y="{yy + 4:.1f}" font-size="11">1e{decade}</text>')
    for pts in series:
        path_d = " ".join(f"{sx(x):.1f},{sy(ly):.1f}" for x, ly in pts)
        parts.append(f'<polyline points="{path_d}" fill="none" stroke="steelblue" '
                     f'stroke-opacity="0.45" stroke-width="1"/>')
    parts.append(f'<text x="{margin}" y="{height - 12}" font-size="11">'
                 f'observation index (threshold 1/{alpha:g})</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def cmd_trajectories(args) -> int:
    from .simlab import engine

    _at_least(args, 0, "trials")  # zero trials exports the header alone
    scenario = _load_scenario(args)
    trials = engine.trajectories(scenario, args.trials)
    rows = [[trial, i, lam, mult, _exp_wealth(log_e)]
            for trial, columns in enumerate(trials, 1)
            for i, lam, mult, log_e in zip(*(column.tolist() for column in columns))]
    writes = {args.out: lambda path: _write_csv(
        path, ["trial", "index", "lambda", "multiplier", "wealth"], rows)}
    if args.svg:
        writes[args.svg] = lambda path: _write_svg(path, trials, scenario.alpha)
    _write_all(writes)
    print(f"wrote {len(rows)} steps from {args.trials} trials to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _monitor_options(mon: argparse.ArgumentParser) -> None:
    mon.add_argument("--variant", required=True, choices=list(MONITORS))
    mon.add_argument("--input", default="-", help="NDJSON file, or - for stdin")
    mon.add_argument("--alpha", type=float, default=0.05)
    mon.add_argument("--burn-in", type=int, default=None)
    mon.add_argument("--ramp", type=int, default=None)
    # defaults of None are filled from the variant's monitor
    mon.add_argument("--p", type=float, default=None, help="allocation probability")
    mon.add_argument("--c-max", type=float, default=None)
    mon.add_argument("--lambda-max", type=float, default=None)
    mon.add_argument("--risk-trt", type=int, default=None,
                     help="initial treated cohort size (survival)")
    mon.add_argument("--risk-ctrl", type=int, default=None,
                     help="initial control cohort size (survival)")
    mon.add_argument("--checkpoint", default=None)
    mon.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint before reading input")
    mon.add_argument("--checkpoint-every", type=int, default=0)
    mon.add_argument("--progress-every", type=int, default=0)
    mon.add_argument("--report", default=None, help="also write the JSON report here")
    mon.set_defaults(func=cmd_monitor)


def _simulate_options(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--sims", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--json", default=None)
    sim.set_defaults(func=cmd_simulate)


def _power_options(pow_: argparse.ArgumentParser) -> None:
    pow_.add_argument("--variant", required=True,
                      choices=["binary", "continuous", "survival", "deaths"])
    pow_.add_argument("--p1", type=float, default=None)
    pow_.add_argument("--p2", type=float, default=None)
    pow_.add_argument("--d", type=float, default=None)
    pow_.add_argument("--hr", type=float, default=None)
    pow_.add_argument("--power", type=float, default=0.80)
    pow_.add_argument("--alpha", type=float, default=0.05)
    pow_.set_defaults(func=cmd_power)


def _compare_options(cmp_: argparse.ArgumentParser) -> None:
    cmp_.add_argument("--baselines", default="0.10,0.15,0.20,0.25,0.30,0.35,0.40")
    cmp_.add_argument("--arr", type=float, default=0.05)
    cmp_.add_argument("--power", type=float, default=0.80)
    cmp_.add_argument("--alpha", type=float, default=0.05)
    cmp_.add_argument("--sims", type=int, default=1000)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--csv", default=None)
    cmp_.add_argument("--json", default=None)
    cmp_.set_defaults(func=cmd_compare)


def _wage_options(wage: argparse.ArgumentParser) -> None:
    wage.add_argument("--variant", required=True,
                      choices=["survival", "binary", "continuous"])
    # effects and strategy values default to None: the variant's row fills them
    wage.add_argument("--hr", default=None)
    wage.add_argument("--arr", default=None)
    wage.add_argument("--d", default=None)
    wage.add_argument("--n", type=int, default=None)
    wage.add_argument("--fixed", type=float, default=None)
    wage.add_argument("--sign-c", type=float, default=None)
    wage.add_argument("--sims", type=int, default=1000)
    wage.add_argument("--alpha", type=float, default=0.05)
    wage.add_argument("--seed", type=int, default=0)
    wage.add_argument("--csv", default=None)
    wage.add_argument("--json", default=None)
    wage.set_defaults(func=cmd_wage)


def _trajectories_options(traj: argparse.ArgumentParser) -> None:
    traj.add_argument("--scenario", required=True)
    traj.add_argument("--trials", type=int, default=30)
    traj.add_argument("--out", required=True)
    traj.add_argument("--svg", default=None)
    traj.add_argument("--seed", type=int, default=None)
    traj.set_defaults(func=cmd_trajectories)


# command: (its help text, what adds its options to its subparser)
_COMMANDS = {
    "monitor": ("monitor an NDJSON event stream", _monitor_options),
    "simulate": ("operating characteristics for a scenario", _simulate_options),
    "power": ("frequentist sample-size calculators", _power_options),
    "compare": ("deaths-only vs binary on the same trials", _compare_options),
    "wage": ("fixed vs adaptive wager comparison", _wage_options),
    "trajectories": ("export wealth trajectories", _trajectories_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``trialbet`` parser, with every command and its help text.  When
    ``command`` names one, only its subparser gets its options, the only ones
    a command line that starts with it parses; else every subparser does."""
    parser = argparse.ArgumentParser(
        prog="trialbet",
        description="Anytime-valid betting monitors for randomized trials.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options) in _COMMANDS.items():
        options = sub.add_parser(name, help=text)
        if command == name or command not in _COMMANDS:
            add_options(options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
