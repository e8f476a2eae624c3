"""trialbet: anytime-valid betting monitors for randomized trials.

Five sequential monitors (binary, deaths-only, continuous, time-to-event,
multi-state) share one construction: wager on each observation's arm label
from past data only, multiply wealth by a fair payout, and reject when
wealth ever reaches 1/alpha.  The ``simlab`` subpackage estimates their
operating characteristics by simulation; the ``cli`` module drives live
monitoring and the studies from the command line.
"""

from .binary import BinaryState
from .continuous import ContinuousState
from .core import RampSchedule, WealthLedger, WealthStep
from .deaths import DeathsState, death_coin, expected_deaths
from .multistate import MultistateState, TransitionMatrix
from .survival import SurvivalRecord, SurvivalState

__version__ = "0.1.0"

__all__ = [
    "BinaryState",
    "ContinuousState",
    "DeathsState",
    "MultistateState",
    "RampSchedule",
    "SurvivalRecord",
    "SurvivalState",
    "TransitionMatrix",
    "WealthLedger",
    "WealthStep",
    "death_coin",
    "expected_deaths",
    "__version__",
]
