import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as hs

from cli_cases import GOLDEN, GOLDEN_ARGS, monitor_argv
from trialbet import cli
from trialbet.binary import BinaryState
from trialbet.checkpoint import decode_state, encode_state
from trialbet.continuous import ContinuousState, _ArmMoments
from trialbet.core import (
    WAGER_MAX,
    WAGER_MIN,
    MonitorState,
    RampSchedule,
    WealthLedger,
    WealthStep,
    clamp_wager,
)
from trialbet.deaths import DeathsState
from trialbet.multistate import MultistateState
from trialbet.survival import SurvivalState
from trialbet.variants import MONITORS

import oracles
from oracles import null_expectation, outcome

# bounds and values where a clamp's result could differ in sign or by one bit
_EDGES = [0.0, -0.0, WAGER_MIN, WAGER_MAX, 0.01, 0.99, 1.0, -1.0, math.nextafter(WAGER_MIN, 0.0)]


class TestRampSchedule:
    def test_boundaries(self):
        sched = RampSchedule(burn_in=50, ramp=100)
        assert sched.coefficient(50) == 0.0
        assert sched.coefficient(150) == 1.0
        assert sched.coefficient(100) == 0.5  # (100-50)/100, direct evaluation
        assert sched.coefficient(1) == 0.0
        assert sched.coefficient(10_000) == 1.0

    def test_monotone_piecewise_linear(self):
        sched = RampSchedule(burn_in=30, ramp=50)
        values = [sched.coefficient(i) for i in range(1, 200)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        # linear on the ramp segment
        for i in range(31, 80):
            assert sched.coefficient(i) == pytest.approx((i - 30) / 50, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RampSchedule(-1, 50)
        with pytest.raises(ValueError):
            RampSchedule(10, 0)
        with pytest.raises(ValueError):
            RampSchedule(10, 10).coefficient(0)


@given(burn_in=hs.integers(0, 400), ramp=hs.integers(1, 400), at_end=hs.booleans(),
       offset=hs.sampled_from([-1, 0, 1]) | hs.integers(-500, 900))
def test_coefficient_is_the_min_max_form(burn_in, ramp, at_end, offset):
    """The same float as ``min(1.0, max(0.0, ...))``, at and beside both ends of
    the ramp, and the same refusal of an index below 1."""
    sched = RampSchedule(burn_in, ramp)
    i = burn_in + (ramp if at_end else 0) + offset
    assert outcome(sched.coefficient, i) == outcome(oracles.coefficient, sched, i)


_any_float = hs.sampled_from(_EDGES) | hs.floats()


@given(raw=_any_float, lo=_any_float, hi=_any_float)
def test_clamp_wager_is_the_min_max_form(raw, lo, hi):
    """The same float as ``min(hi, max(lo, raw))`` for any bounds, signed zeros
    and NaN bounds included, and the same refusal of a non-finite wager."""
    assert outcome(clamp_wager, raw, lo, hi) == outcome(oracles.clamp_wager, raw, lo, hi)


def test_clamp_wager_is_the_min_max_form_on_every_edge():
    for raw, lo, hi in itertools.product(_EDGES, repeat=3):
        assert outcome(clamp_wager, raw, lo, hi) == outcome(oracles.clamp_wager, raw, lo, hi)
    for raw in _EDGES:
        assert outcome(clamp_wager, raw) == outcome(oracles.clamp_wager, raw)


class TestClampWager:
    def test_values(self):
        assert clamp_wager(0.473) == 0.473
        assert clamp_wager(1.7) == 0.999
        assert clamp_wager(-0.2) == 0.001

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid wager"):
            clamp_wager(bad)

    @given(hs.floats(min_value=0.001, max_value=0.999))
    def test_identity_on_interior(self, x):
        assert clamp_wager(x) == x


class TestApplyBet:
    def test_worked_example_multipliers(self):
        led = WealthLedger(record_steps=True)
        led.bet(0.473, arm=0, p=0.5, index=200)
        led.bet(0.5, 1, 0.5, 201)
        led.bet(0.469, 1, 0.5, 202)
        m1, m2, m3 = (s.multiplier for s in led.steps)
        assert m1 == pytest.approx(1.054, abs=1e-9)
        assert m2 == pytest.approx(1.0, abs=0)
        assert m3 == pytest.approx(0.938, abs=1e-9)

    def test_bad_allocation(self):
        with pytest.raises(ValueError):
            WealthLedger().bet(0.5, 1, 0.0, 1)
        with pytest.raises(ValueError):
            WealthLedger().bet(0.5, 1, 1.0, 1)
        with pytest.raises(ValueError):
            WealthLedger().bet(0.5, 2, 0.5, 1)


class TestWealthLedger:
    def test_crossed_latch_never_unsets(self):
        led = WealthLedger(alpha=0.05)
        led.apply(0.9, 25.0, 1)  # wealth 25 >= 20
        assert led.crossed and led.crossed_at == 1
        led.apply(0.5, 0.01, 2)  # wealth collapses
        assert led.wealth < 1.0
        assert led.crossed and led.crossed_at == 1

    def test_wealth_updates_multiplicatively(self):
        led = WealthLedger(record_steps=True)
        for i, m in enumerate([1.054, 1.060, 0.938], start=1):
            led.apply(0.5, m, i)
        assert led.wealth == pytest.approx(1.054 * 1.060 * 0.938, rel=1e-12)
        assert [s.index for s in led.steps] == [1, 2, 3]

    def test_log_space_survives_long_losing_streaks(self):
        led = WealthLedger()
        for i in range(5000):
            led.apply(0.5, 0.7, i + 1)
        assert led.wealth == 0.0  # underflows on export only
        assert math.isfinite(led.log_wealth)

    def test_wealth_saturates_on_long_winning_streaks(self):
        led = WealthLedger(record_steps=True)
        for i in range(1200):
            led.apply(0.9, 1.9, i + 1)
        assert led.wealth == math.inf  # overflows on export only
        assert led.steps[-1].wealth == math.inf
        assert led.log_wealth == pytest.approx(1200 * math.log(1.9), rel=1e-12)

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            WealthLedger().apply(0.5, 0.0, 1)

    @pytest.mark.parametrize("log_wealth", [math.nan, math.inf, -math.inf, 10**400])
    def test_refuses_a_log_wealth_no_run_reaches(self, log_wealth):
        """Every payout is positive and finite, so log-wealth is always finite."""
        with pytest.raises(ValueError, match="^log_wealth must be finite, got "):
            WealthLedger(log_wealth=log_wealth)

    def test_state_dict_round_trip_bit_exact(self):
        led = WealthLedger(alpha=0.01)
        for i, m in enumerate([1.3, 0.4, 2.7, 0.99], start=1):
            led.apply(0.5, m, i)
        clone = decode_state(WealthLedger, encode_state(led))
        assert clone.log_wealth == led.log_wealth
        assert (clone.crossed, clone.crossed_at, clone.n_steps) == \
               (led.crossed, led.crossed_at, led.n_steps)


@given(hs.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_rebuilt_ledger_crosses_at_log_one_over_alpha(alpha):
    """The threshold a ledger keeps is no saved field: a ledger rebuilt from a
    checkpoint crosses at exactly ``log(1/alpha)``, as a fresh one does."""
    threshold = -math.log(alpha)
    for log_wealth, crosses in ((math.nextafter(threshold, -math.inf), False),
                                (threshold, True)):
        fresh = WealthLedger(alpha, log_wealth=log_wealth)
        assert fresh.log_threshold == threshold
        doc = encode_state(fresh)
        assert set(doc) == {"alpha", "log_wealth", "n_steps", "crossed", "crossed_at"}
        for ledger in (fresh, decode_state(WealthLedger, doc)):
            ledger.apply(0.5, 1.0, 7)
            assert (ledger.crossed, ledger.crossed_at) == ((True, 7) if crosses else (False, None))


class TestMartingaleAudit:
    def test_unit_expectation_examples(self):
        assert null_expectation(0.473, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert null_expectation(0.999, 0.3) == pytest.approx(1.0, abs=1e-12)
        assert null_expectation(0.05, 0.5) == pytest.approx(1.0, abs=1e-12)

    # a wager of exactly 0 or 1 is no bet the ledger settles: one arm would pay 0
    @given(hs.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           hs.floats(min_value=0.01, max_value=0.99))
    def test_unit_expectation_everywhere(self, wager, p):
        assert null_expectation(wager, p) == pytest.approx(1.0, abs=1e-12)

    def test_signed_bet_fairness(self):
        # p*(1 + b*(1-p)) + (1-p)*(1 + b*(0-p)) == 1 for any b
        for p in [0.1, 0.3, 0.5, 0.77]:
            for b in [-0.5, -0.25, 0.0, 0.25, 0.5, 0.9]:
                expect = p * (1 + b * (1 - p)) + (1 - p) * (1 - b * p)
                assert expect == pytest.approx(1.0, abs=1e-12)


def test_fixed_wager_enumeration_is_fair():
    """With any frozen wager sequence, averaging final wealth over all
    equally likely arm sequences gives exactly 1."""
    wagers = [0.473, 0.6, 0.001, 0.999, 0.321, 0.5, 0.87, 0.13, 0.42, 0.66, 0.2, 0.71]
    for p in (0.5, 0.3):
        total = 0.0
        k = len(wagers)
        for bits in range(2 ** k):
            wealth = 1.0
            prob = 1.0
            for j, lam in enumerate(wagers):
                arm = (bits >> j) & 1
                prob *= p if arm == 1 else (1.0 - p)
                wealth *= lam / p if arm == 1 else (1.0 - lam) / (1.0 - p)
            total += prob * wealth
        assert total == pytest.approx(1.0, abs=1e-12)


def test_signed_bet_ledger():
    led = WealthLedger(record_steps=True)
    led.apply(0.25, 1.0 + 0.25 * -0.5, 1)  # a signed bet of 0.25 on a score of -0.5
    assert led.steps[0].multiplier == pytest.approx(0.875, abs=1e-12)


# one of each class a monitor makes or updates per event
_PER_EVENT = [RampSchedule(1, 2), WealthStep(1, 0.5, 1.0, 0.0, False), WealthLedger(),
              MonitorState(), _ArmMoments(), BinaryState(), DeathsState(), ContinuousState(),
              SurvivalState(risk_trt=3, risk_ctrl=3), MultistateState()]


@pytest.mark.parametrize("obj", _PER_EVENT, ids=lambda obj: type(obj).__name__)
def test_per_event_state_is_slotted(obj):
    """No instance dict: an attribute no class declares is refused (by a
    frozen one's ``__setattr__`` as a TypeError: its ``super()`` call fails in
    a slotted dataclass)."""
    assert not hasattr(obj, "__dict__")
    with pytest.raises(TypeError if type(obj).__dataclass_params__.frozen else AttributeError):
        obj.undeclared = 1


def test_study_rows_keep_their_dict():
    """``cli`` writes a study row from ``vars(row)``."""
    from trialbet.simlab.engine import HeadToHeadRow, WageCell
    from trialbet.simlab.scenario import OperatingCharacteristics

    for cls in (HeadToHeadRow, WageCell, OperatingCharacteristics):
        assert "__slots__" not in vars(cls), cls


def _everything(state):
    """A state's saved fields and what no checkpoint saves: the recorded steps,
    the threshold and, for continuous, the MAD window's search start."""
    return (encode_state(state), state.ledger.steps, state.ledger.log_threshold,
            getattr(state, "mad_start", None))


@pytest.mark.parametrize("copier", [lambda state: pickle.loads(pickle.dumps(state)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("variant", sorted(GOLDEN_ARGS))
def test_a_copied_state_steps_on_as_its_original(variant, copier):
    """A state pickled or deep-copied mid-stream, recording its steps, equals
    its original in every attribute and steps on identically."""
    monitor = MONITORS[variant]
    cfg = cli._monitor_config(cli.build_parser().parse_args(monitor_argv(variant, "-")), monitor)
    state = monitor.state(sched=RampSchedule(cfg["burn_in"], cfg["ramp"]), alpha=cfg["alpha"],
                          record_steps=True, **{key: cfg[key] for key in monitor.options})
    with open(GOLDEN / f"{variant}.ndjson", encoding="utf-8") as fh:
        events = [cli.parse_event(monitor, line, k) for k, line in enumerate(fh, 1)]
    half = len(events) // 2
    for args in events[:half]:
        state.step(*args)
    twin = copier(state)
    assert twin is not state and _everything(twin) == _everything(state)
    assert state.ledger.steps and getattr(state, "mad_start", 1) > 0
    for args in events[half:]:
        state.step(*args)
        twin.step(*args)
    assert _everything(twin) == _everything(state)
