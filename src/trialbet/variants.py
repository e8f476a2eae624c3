"""The five monitors as one table: what the live monitor knows of each variant.

A row names the streaming state class, the options its constructor takes
from the command line, the NDJSON fields of one event and how they become the
arguments of ``step``, and the fields its report adds.  The ``monitor``
command and the checkpoint reader look a variant up here, once per run;
adding a variant is one row.  The schedule and option defaults are read from
the state class itself, so each is stated once, in its module.

Imports no ``simlab`` code, so the monitoring path loads neither the Monte
Carlo lab nor scipy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable

from . import binary, continuous, deaths, multistate, survival
from .core import FLOAT_MAX, RampSchedule, finite

SCHEMA_VERSION = 1  # of the JSON reports and CSV exports


@dataclass(frozen=True)
class Monitor:
    """One variant's streaming monitor, as the CLI and checkpoints drive it."""

    state: type
    options: tuple[str, ...]         # constructor keywords set from the command line
    required: frozenset[str]         # NDJSON fields of one event, "arm" included
    optional: frozenset[str]
    parse: Callable[[dict, int], tuple]  # (record, arm) -> arguments of ``step``
    report: Callable[[Any], dict]    # fields the report adds for this variant
    events: Callable[[Any], int]     # events the state has consumed
    running: tuple[str, ...] = ()    # options the state updates as events arrive

    @cached_property
    def allowed(self) -> frozenset[str]:
        """Every NDJSON field an event may carry."""
        return self.required | self.optional

    @property
    def defaults(self) -> dict[str, Any]:
        """Burn-in and ramp of the state class's schedule, and each option that
        has a default there."""
        defaults = {f.name: f.default for f in dataclasses.fields(self.state)
                    if f.default is not dataclasses.MISSING}
        sched = defaults["sched"]
        return {"burn_in": sched.burn_in, "ramp": sched.ramp,
                **{key: v for key, v in defaults.items() if key in self.options}}

    def build(self, config: dict[str, Any]):
        """A fresh state from a monitor configuration (alpha, schedule, options)."""
        return self.state(sched=RampSchedule(config["burn_in"], config["ramp"]),
                          alpha=config["alpha"],
                          **{key: config[key] for key in self.options})


def flag_field(record: dict, key: str) -> int:
    v = record[key]
    if v not in (0, 1):
        raise ValueError(f"field {key!r} must be 0 or 1, got {v!r}")
    return 1 if v else 0  # an int, as int(v) is


def _finite_field(record: dict, key: str) -> float:
    v = record[key]
    if type(v) is float and abs(v) <= FLOAT_MAX:  # the case of almost every event, first
        return v
    if type(v) is not int or not finite(v):  # a bool is no number
        raise ValueError(f"field {key!r} must be a finite number, got {v!r}")
    return float(v)


def _state_name(record: dict, key: str) -> str:
    if not isinstance(record[key], str):
        raise ValueError(f"field {key!r} must be a state name")
    return record[key]


def _survival_args(record: dict, arm: int) -> tuple:
    """The checks that name a JSON field; ``SurvivalState.step`` checks the
    record itself (time on study, status, arm, order and risk set), which it
    takes as the plain (time, status, arm) tuple."""
    time = _finite_field(record, "time")
    status = flag_field(record, "status")
    if "entry_time" in record:
        entry = _finite_field(record, "entry_time")
        if time - entry < 0:
            raise ValueError("negative time on study")
        time -= entry
    return ((time, status, arm),)


MONITORS: dict[str, Monitor] = {
    "binary": Monitor(
        binary.BinaryState, ("p",),
        frozenset({"arm", "outcome"}), frozenset(),
        parse=lambda r, arm: (flag_field(r, "outcome"), arm),
        report=lambda s: {"delta_hat": s.delta(),
                          "counts": {"n_trt": s.n_trt, "e_trt": s.e_trt,
                                     "n_ctrl": s.n_ctrl, "e_ctrl": s.e_ctrl}},
        events=attrgetter("i")),
    "deaths": Monitor(
        deaths.DeathsState, (),
        frozenset({"arm"}), frozenset(),
        parse=lambda r, arm: (arm,),
        report=lambda s: {"p_hat": s.p_hat(), "relative_risk": s.final_rr(),
                          "counts": {"d_trt": s.d_trt, "d_ctrl": s.d_ctrl}},
        events=attrgetter("total")),
    "continuous": Monitor(
        continuous.ContinuousState, ("p", "c_max"),
        frozenset({"arm", "y"}), frozenset(),
        parse=lambda r, arm: (_finite_field(r, "y"), arm),
        report=lambda s: {"cohens_d": s.cohens_d(), "n": s.i},
        events=attrgetter("i")),
    "survival": Monitor(
        survival.SurvivalState, ("lambda_max", "risk_trt", "risk_ctrl"),
        frozenset({"time", "status", "arm"}), frozenset({"entry_time"}),
        parse=_survival_args,
        report=lambda s: {"cum_score": s.cum_z,
                          "risk_set": {"trt": s.risk_trt, "ctrl": s.risk_ctrl}},
        events=attrgetter("records_seen"),
        running=("risk_trt", "risk_ctrl")),  # the risk sets shrink from the cohort sizes
    "multistate": Monitor(
        multistate.MultistateState, (),
        frozenset({"from", "to", "arm"}), frozenset({"day"}),
        parse=lambda r, arm: (_state_name(r, "from"), _state_name(r, "to"), arm),
        report=lambda s: {"delta_hat": s.delta(),
                          "counts": {"good_trt": s.good_trt, "total_trt": s.total_trt,
                                     "good_ctrl": s.good_ctrl, "total_ctrl": s.total_ctrl}},
        events=attrgetter("total")),
}
