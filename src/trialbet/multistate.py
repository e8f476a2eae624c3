"""Multi-state trajectory monitor: one bet per state transition.

Each transition a patient makes is classified good (recovery-oriented) or
bad, and the monitor bets on the patient's arm exactly as the binary variant
does, using the running difference in good-transition rates between arms.  A
patient contributes as many bets as state changes, so trajectory improvements
register even when mortality barely moves.  Validity needs no Markov
assumption: only that arms are randomized and the wager uses past data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MonitorState, RampSchedule, clamp_wager

DEFAULT_SCHEDULE = RampSchedule(burn_in=30, ramp=50)

# Wager clamp for the transition monitor (wider floor than the other
# two-sided variants; transition streams are short enough not to need it).
WAGER_MIN = 0.01
WAGER_MAX = 0.99

WARD, ICU, HOME, DEAD = "Ward", "ICU", "Home", "Dead"


@dataclass(frozen=True)
class StateModel:
    """State labels, absorbing states, and the set of good transitions."""

    states: tuple[str, ...] = (WARD, ICU, HOME, DEAD)
    absorbing: frozenset = frozenset({HOME, DEAD})
    good: frozenset = frozenset({(ICU, WARD), (WARD, HOME)})

    def index(self, state: str) -> int:
        return self.states.index(state)


DEFAULT_MODEL = StateModel()  # the one state model of the multi-state endpoint


# (from, to) -> good, for every move out of a non-absorbing state
_MOVES = {(a, b): (a, b) in DEFAULT_MODEL.good
          for a in DEFAULT_MODEL.states if a not in DEFAULT_MODEL.absorbing
          for b in DEFAULT_MODEL.states if b != a}


def classify(from_state: str, to_state: str) -> bool:
    """True if the move is a good transition under the state model."""
    try:
        return _MOVES[from_state, to_state]
    except (KeyError, TypeError):  # no legal move, or an unhashable name: say which
        pass
    for s in (from_state, to_state):
        if s not in DEFAULT_MODEL.states:
            raise ValueError(f"unknown state: {s!r}")
    if from_state == to_state:
        raise ValueError(f"not a transition: {from_state!r} -> {to_state!r}")
    if from_state in DEFAULT_MODEL.absorbing:
        raise ValueError(f"absorbing state {from_state!r} has no outgoing transitions")
    return (from_state, to_state) in DEFAULT_MODEL.good


@dataclass(frozen=True)
class TransitionMatrix:
    """Daily transition probabilities over the model's states, one row per state."""

    probs: tuple  # tuple of row tuples, row-stochastic

    def __post_init__(self) -> None:
        try:  # as numpy converts them
            rows = [[float(v) for v in row] for row in self.probs]
        except OverflowError:  # an int past the float range
            raise ValueError("a transition-matrix entry is past the float range") from None
        k = len(DEFAULT_MODEL.states)
        shape = (len(rows), *{len(row) for row in rows})
        if shape != (k, k):
            raise ValueError(f"transition matrix must be {k}x{k}, got {shape}")
        if not all(v >= 0.0 for row in rows for v in row):  # NaN is not >= 0 either
            raise ValueError("transition probabilities must be >= 0")
        if not all(abs(math.fsum(row) - 1.0) <= 1e-12 for row in rows):
            raise ValueError("each transition-matrix row must sum to 1")
        for s in DEFAULT_MODEL.absorbing:
            i = DEFAULT_MODEL.index(s)
            if rows[i][i] != 1.0:
                raise ValueError(f"absorbing state {s!r} must have an identity row")


# Daily transition probabilities of the simulated ICU trial (rows: Ward, ICU,
# Home, Dead).  Treatment improves the recovery moves ICU->Ward and
# Ward->Home while barely changing mortality.
CONTROL_DAILY = TransitionMatrix((
    (0.880, 0.070, 0.030, 0.020),
    (0.070, 0.915, 0.000, 0.015),
    (0.000, 0.000, 1.000, 0.000),
    (0.000, 0.000, 0.000, 1.000),
))
TREATMENT_DAILY = TransitionMatrix((
    (0.870, 0.050, 0.050, 0.030),
    (0.090, 0.900, 0.000, 0.010),
    (0.000, 0.000, 1.000, 0.000),
    (0.000, 0.000, 0.000, 1.000),
))


@dataclass(slots=True)
class MultistateState(MonitorState):
    """Streaming state for the transition monitor; one instance per trial."""

    sched: RampSchedule = DEFAULT_SCHEDULE
    good_trt: int = 0
    total_trt: int = 0
    good_ctrl: int = 0
    total_ctrl: int = 0

    @property
    def total(self) -> int:
        return self.total_trt + self.total_ctrl

    def delta(self) -> float:
        """Good-transition rate difference, treatment minus control.

        Only meaningful once both arms have at least one transition; callers
        gate on that before betting.
        """
        rate_trt = self.good_trt / self.total_trt if self.total_trt > 0 else 0.0
        rate_ctrl = self.good_ctrl / self.total_ctrl if self.total_ctrl > 0 else 0.0
        return rate_trt - rate_ctrl

    def wager(self, is_good: bool, i: int) -> float:
        if i > self.sched.burn_in and self.total_trt > 0 and self.total_ctrl > 0:
            c = self.sched.coefficient(i)
            d = self.delta()
            lam = 0.5 + 0.5 * c * d if is_good else 0.5 - 0.5 * c * d
        else:
            lam = 0.5
        return clamp_wager(lam, WAGER_MIN, WAGER_MAX)

    def step(self, from_state: str, to_state: str, arm: int) -> None:
        """Consume one transition: classify, bet on the arm, then update counts."""
        self.step_classified(classify(from_state, to_state), arm)

    def step_classified(self, is_good: bool, arm: int) -> None:
        """Consume a transition already classified good/bad.

        The ledger refuses an arm other than 0 or 1 before anything changes.
        """
        i = self.total_trt + self.total_ctrl + 1
        self.ledger.bet(self.wager(is_good, i), arm, 0.5, i)
        if arm == 1:
            self.total_trt += 1
            self.good_trt += 1 if is_good else 0  # an int, as a checkpoint saves it
        else:
            self.total_ctrl += 1
            self.good_ctrl += 1 if is_good else 0
