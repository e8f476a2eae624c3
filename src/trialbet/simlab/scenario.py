"""Scenario and result containers for the Monte Carlo lab, and its variant table.

A scenario pins everything a run needs - variant, generator parameters,
replication count, alpha, and the master seed - so that identical scenarios
reproduce identical operating characteristics bit for bit, regardless of how
many workers execute them.

``SIM_VARIANTS`` holds, per variant, the scenario parameters, each with its
default and its rule; what the lab does with a trial: draw it and replay it
through the batch kernel (prepare, then bet); and its design facts: the
calculator that sizes a trial, and what the wage study compares.  The engine, the
studies, ``power`` and trajectory exports all go through it; adding a variant
is one row here and one in ``trialbet.variants``, whose schedule and
wager-cap defaults the rows below reuse.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Mapping, NamedTuple

from ..continuous import DEFAULT_C_MAX
from ..core import finite
from ..multistate import CONTROL_DAILY, DEFAULT_MODEL, TREATMENT_DAILY, TransitionMatrix
from ..survival import DEFAULT_BET_CAP
from ..variants import MONITORS, SCHEMA_VERSION
from . import batch, generators, sizing

_REQUIRED: Any = object()  # marks a parameter without a default
Rule = tuple[Callable[[Any], bool], str]  # (ok, what): a value passes if ok(value) is true


def _alias(default) -> bool:
    """A default of "=key" takes the value of parameter ``key``."""
    return isinstance(default, str) and default.startswith("=")


class Strategy(NamedTuple):
    """A wager rule the wage study compares."""

    params: Callable[[float | None], dict]  # the scenario parameters it sets from its value
    default: float | None = None            # the value ``wage`` runs without ``flag``
    flag: str | None = None                 # the ``wage`` option that sets the value


class Wage(NamedTuple):
    """What the wage study compares on a variant."""

    flag: str                        # the ``wage`` option that lists the effects
    default: float                   # the effect run without it
    trial: Callable[[float], dict]   # one effect's scenario parameters; their values lead the
                                     # arguments of the row's ``size`` when a trial is sized
    strategies: dict[str, Strategy]  # the wager rules by kind, in the order ``wage`` reports

    @property
    def flags(self) -> tuple[str, ...]:
        """Every ``wage`` option this variant's study reads."""
        return (self.flag, *(s.flag for s in self.strategies.values() if s.flag))


@dataclass(frozen=True)
class SimVariant:
    """How the lab draws and replays one variant's trials.

    ``generate(rngs, params)`` draws a block of trials in one call, one per
    stream: a tuple of (B, n) arrays, one row per trial and one entry per
    observation; a lone ``Generator`` gives one trial's 1-D arrays.  Where
    stream lengths vary, it gives a list of B trials, each a tuple of
    equal-length arrays (multistate: a ``generators.MultistateTrial``), and
    the engine zero-pads them into blocks.  The
    first parameter declared is the trial size n.  A replay is
    ``bet(prepare(data, params), params)`` on a (B, n) block; it gives the
    (B, n) wager and multiplier of each observation from the batch kernel
    (NaN and 1.0 where no bet is placed).  ``prepare`` holds the work no
    wager rule reads, so the wage study prepares a block once and bets it
    once per strategy; it is the identity where strategies share nothing.
    Generators and kernels are looked up on their modules at call time.
    """

    params: dict[str, tuple[Any, Rule]]  # name: (default, rule), in report order; the
                                         # default may be _REQUIRED or an alias
    generate: Callable
    bet: Callable
    prepare: Callable = lambda data, params: data
    check: Callable[[dict], None] = lambda params: None  # a rule that reads several params
    size: Callable | None = None      # design calculator: size(*flag values, power, alpha)
    size_flags: tuple[str, ...] = ()  # the ``power`` options that lead its arguments
    wage: Wage | None = None

    @property
    def defaults(self) -> dict[str, Any]:
        """Every parameter that has a default of its own, at that default."""
        return {key: v for key, (v, _) in self.params.items()
                if v is not _REQUIRED and not _alias(v)}

    @property
    def trial_size(self) -> str:
        """The parameter that sets how many observations a trial draws."""
        return next(iter(self.params))


def _number(v) -> bool:
    """A JSON number: a string, list, object or bool is none, so a rule
    refuses it with its own message rather than failing to compare."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rows(v) -> bool:
    """A list or tuple of rows, each a list or tuple of numbers."""
    return isinstance(v, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(map(_number, row)) for row in v)


# A trial the generator cannot draw is refused, not reported as a result.
_SIZE = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "an integer >= 1")
_NUMBER = (_number, "a number")
_NUMBER_IF_SET = (lambda v: v is None or _number(v), "a number when set")
_UNIT = (lambda v: _number(v) and 0.0 <= v <= 1.0, "in [0, 1]")
_OPEN_UNIT = (lambda v: _number(v) and 0.0 < v < 1.0, "in (0, 1)")
_POSITIVE = (lambda v: _number(v) and v > 0.0, "> 0")
_POSITIVE_IF_SET = (lambda v: v is None or _number(v) and v > 0.0, "> 0 when set")
_MATRICES = (lambda v: v is None or isinstance(v, Mapping) and v.keys() == {"trt", "ctrl"}
             and all(map(_rows, v.values())), "exactly 'trt' and 'ctrl' rows of numbers when set")
# the settings the lab shares with the monitor, refused as the monitor refuses them
_MONITOR_RULES = {"burn_in": (lambda v: _number(v) and v >= 0, ">= 0"),
                  "ramp": (lambda v: _number(v) and v >= 1, ">= 1"),
                  **dict.fromkeys(("c_max", "lambda_max"), (_OPEN_UNIT[0], "in (0,1)"))}
_ADAPTIVE = Strategy(lambda v: {})  # the variant's own wager: its defaults unchanged
# a tuple, so a list value is not hashed: it is simply no member
_STARTS = tuple(s for s in DEFAULT_MODEL.states if s not in DEFAULT_MODEL.absorbing)


def _monitor(variant: str, *options: str) -> dict[str, tuple[Any, Rule]]:
    """The monitor's burn-in and ramp, then the named options', each with
    its monitor default and its monitor rule."""
    defaults = MONITORS[variant].defaults
    return {key: (defaults[key], _MONITOR_RULES[key]) for key in ("burn_in", "ramp", *options)}


def _check_multistate(p) -> None:
    """A start state some patient can leave: with an identity start row in
    both arms' matrices, every trial is empty."""
    k = DEFAULT_MODEL.index(p["start"])
    identity = [float(j == k) for j in range(len(DEFAULT_MODEL.states))]
    matrices = multistate_matrices(p["effect"], p["matrices"])  # validates each row
    if all([float(v) for v in m.probs[k]] == identity for m in matrices):
        raise ValueError(f"start {p['start']!r} has an identity row in both arms' matrices: "
                         "no patient can leave it")


SIM_VARIANTS: dict[str, SimVariant] = {
    "binary": SimVariant(
        {"n_patients": (_REQUIRED, _SIZE), "p_ctrl": (_REQUIRED, _UNIT),
         "p_trt": ("=p_ctrl", _UNIT), "p_alloc": (0.5, _OPEN_UNIT), **_monitor("binary"),
         "fixed_dev": (None, _NUMBER_IF_SET)},
        generate=lambda rng, p: generators.binary_trial(
            rng, p["n_patients"], p["p_trt"], p["p_ctrl"], p["p_alloc"]),
        bet=lambda d, p: batch.binary_bet(
            *d, p["p_alloc"], p["burn_in"], p["ramp"], p["fixed_dev"]),
        size=sizing.size_two_proportion, size_flags=("p1", "p2"),
        # effects are absolute risk reductions from a 0.40 control rate
        wage=Wage("arr", 0.05, lambda e: {"p_ctrl": 0.40, "p_trt": 0.40 - e},
                  {"adaptive": _ADAPTIVE,
                   "fixed": Strategy(lambda v: {"fixed_dev": -abs(v)}, 0.10, "fixed")})),
    "deaths": SimVariant(
        {"n_deaths": (_REQUIRED, _SIZE), "coin": (0.5, _UNIT), **_monitor("deaths")},
        generate=lambda rng, p: (generators.death_stream(rng, p["n_deaths"], p["coin"]),),
        bet=lambda d, p: batch.deaths_bet(*d, p["burn_in"], p["ramp"]),
        size=sizing.deaths_design, size_flags=("p1", "p2")),
    "continuous": SimVariant(
        {"n_patients": (_REQUIRED, _SIZE), "mu_ctrl": (0.0, _NUMBER),
         "mu_trt": ("=mu_ctrl", _NUMBER), "sd": (1.0, _POSITIVE), "p_alloc": (0.5, _OPEN_UNIT),
         **_monitor("continuous", "c_max"),
         "sign_only": (False, (lambda v: isinstance(v, bool), "true or false"))},
        generate=lambda rng, p: generators.continuous_trial(
            rng, p["n_patients"], p["mu_trt"], p["mu_ctrl"], p["sd"], p["p_alloc"]),
        prepare=lambda d, p: batch.continuous_prepare(*d, p["burn_in"]),
        bet=lambda prep, p: batch.continuous_bet(
            prep, p["p_alloc"], p["burn_in"], p["ramp"], p["c_max"], p["sign_only"]),
        size=sizing.size_t_test, size_flags=("d",),
        wage=Wage("d", 0.20, lambda e: {"mu_trt": e},  # sd 1: the effect is Cohen's d
                  {"adaptive": _ADAPTIVE, "sign-only": Strategy(
                      lambda v: {"c_max": v, "sign_only": True}, DEFAULT_C_MAX, "sign_c")})),
    "survival": SimVariant(
        {"n_patients": (_REQUIRED, _SIZE), "hr": (1.0, _POSITIVE), "shape": (1.2, _POSITIVE),
         "scale": (10.0, _POSITIVE), "censor_upper": (None, _POSITIVE_IF_SET),
         "recruit_period": (None, _POSITIVE_IF_SET), **_monitor("survival", "lambda_max"),
         "bet_rule": ("fixed", (lambda v: v in ("fixed", "half_kelly"),
                                "'fixed' or 'half_kelly'"))},
        generate=lambda rng, p: generators.survival_trial(
            rng, p["n_patients"], p["hr"], p["shape"], p["scale"], p["censor_upper"],
            p["recruit_period"]),
        # records in time-on-study order: time - entry (time when entry is simultaneous)
        prepare=lambda d, p: batch.survival_prepare(d[0] - d[3], d[1], d[2]),
        bet=lambda prep, p: batch.survival_bet(prep, p["burn_in"], p["ramp"],
                                               p["lambda_max"], p["bet_rule"]),
        size=sizing.size_logrank, size_flags=("hr",),
        wage=Wage("hr", 0.80, lambda e: {"hr": e},
                  {"fixed": Strategy(lambda v: {"lambda_max": v}, DEFAULT_BET_CAP, "fixed"),
                   "half-kelly": Strategy(lambda v: {"bet_rule": "half_kelly"})})),
    "multistate": SimVariant(
        {"n_patients": (_REQUIRED, _SIZE),
         "effect": ("alternative", (lambda v: v in ("alternative", "null"),
                                    "'alternative' or 'null'")),
         "matrices": (None, _MATRICES), "horizon": (28, _SIZE),
         "start": ("ICU", (lambda v: v in _STARTS, f"one of the non-absorbing states {_STARTS}")),
         **_monitor("multistate")},
        generate=lambda rng, p: generators.multistate_trial(
            rng, p["n_patients"], *multistate_matrices(p["effect"], p["matrices"]), p["start"],
            p["horizon"]),
        bet=lambda d, p: batch.multistate_bet(*d, p["burn_in"], p["ramp"]),
        check=_check_multistate),
}


def multistate_matrices(effect: str,
                        matrices: Mapping[str, Any] | None = None,
                        ) -> tuple[TransitionMatrix, TransitionMatrix]:
    """(treatment, control) daily matrices for the configured scenario.

    Explicit ``matrices`` (row lists keyed ``trt``/``ctrl``) override the
    built-in pair; otherwise ``effect`` selects the built-in alternative or
    the all-control null.
    """
    if matrices is not None:
        return (TransitionMatrix(tuple(map(tuple, matrices["trt"]))),
                TransitionMatrix(tuple(map(tuple, matrices["ctrl"]))))
    if effect == "alternative":
        return TREATMENT_DAILY, CONTROL_DAILY
    return CONTROL_DAILY, CONTROL_DAILY


@dataclass(frozen=True)
class SimScenario:
    """One Monte Carlo configuration: variant, generator parameters, and seed.

    Every study cell is one, and its constructor is the one place lab
    parameters are filled in and checked.
    """

    variant: str
    params: dict[str, Any]
    n_sims: int = 2000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the run settings and the raw parameters, and fill defaults.

        Unknown keys are rejected rather than ignored; a silently dropped typo in
        a monitoring configuration is worse than a hard error.
        """
        for key, least in (("n_sims", 1), ("seed", 0)):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{key} must be >= {least}")
        if not _number(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0,1)")
        if not isinstance(self.variant, str) or self.variant not in SIM_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {tuple(SIM_VARIANTS)}")
        sim = SIM_VARIANTS[self.variant]
        unknown = set(self.params) - set(sim.params)
        if unknown:
            raise ValueError(f"unknown parameters for {self.variant}: {sorted(unknown)}")
        params: dict[str, Any] = {}
        for key, (default, (ok, what)) in sim.params.items():
            value = self.params.get(key, default)
            if value is _REQUIRED:
                raise ValueError(f"missing required parameter {key!r} for {self.variant}")
            if _alias(default) and (value is default or value is None):
                value = params[default[1:]]
            if not ok(value):
                raise ValueError(f"{key} must be {what}, got {value!r}")
            # no trial is drawn (NaN, an infinity or an int past the float range)
            if isinstance(value, (int, float)) and not finite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            params[key] = value
        sim.check(params)
        object.__setattr__(self, "params", params)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SimScenario":
        """A scenario from its JSON object.  A misspelled field is refused, not
        run at its default; the defaults are the ones declared above."""
        if not isinstance(d, Mapping):
            raise ValueError("a scenario must be a JSON object")
        unknown = d.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        params = d.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("scenario 'params' must be a JSON object")
        if "variant" not in d:
            raise ValueError("scenario is missing the required field 'variant'")
        return cls(**{**d, "params": dict(params)})


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Estimated operating characteristics of one scenario."""

    variant: str
    n_sims: int
    alpha: float
    n_rejected: int
    rejection_rate: float
    se: float
    median_first_crossing: float | None
    median_crossing_fraction: float | None
    median_stream_length: float
    final_e_median: float
    final_e_quantiles: dict[str, float] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"schema": SCHEMA_VERSION, **asdict(self)}
