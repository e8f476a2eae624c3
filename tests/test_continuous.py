
import math

import numpy as np
import pytest
from hypothesis import given, strategies as hs

from trialbet.checkpoint import decode_state, encode_state
from trialbet.continuous import ContinuousState, _ArmMoments, center_scales, squash
from trialbet.core import RampSchedule
from trialbet.simlab import batch
from trialbet.simlab.generators import continuous_trial

import oracles
from oracles import mean_final_wealth


class TestRobustCenterScale:
    """The median/MAD kernel on one prefix, and on a few arrivals."""

    def test_hand_computed(self):
        # |deviations| from median 3 are {2,1,0,1,97}; their median is 1
        assert center_scales([1.0, 2.0, 3.0, 4.0, 100.0])[:2] == ([3.0], [1.0])

    def test_degenerate_scale_falls_back(self):
        assert center_scales([5.0, 5.0, 5.0])[:2] == ([5.0], [1.0])
        assert center_scales([0.0])[:2] == ([0.0], [1.0])

    def test_empty_history(self):
        with pytest.raises(ValueError, match="insufficient history"):
            center_scales([])

    def test_even_history_averages_middle_pair(self):
        (med,), (mad,), _ = center_scales([1.0, 2.0, 4.0, 8.0])
        assert med == 3.0
        assert mad == 1.5  # |deviations| sorted {1,1,2,5}; middle pair averages to 1.5

    def test_arrivals_are_insorted_in_turn(self):
        s = [2.0, 8.0]
        meds, mads, _ = center_scales(s, [4.0, 1.0])
        # [2, 8] -> [2, 4, 8] -> [1, 2, 4, 8]
        assert (meds, mads) == ([5.0, 4.0, 3.0], [3.0, 2.0, 1.5])
        assert s == [1.0, 2.0, 4.0, 8.0]


def numpy_center_scale(xs):
    """The kernel's contract, written with np.median over unsorted data."""
    arr = np.asarray(xs, dtype=float)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    if not math.isfinite(mad) or mad <= 0.0:
        mad = 1.0
    return med, mad


_tied = hs.sampled_from([-2.0, -0.5, 0.0, 0.0, 1.0, 1.5, 3.0])
_any_magnitude = hs.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
_tiny = hs.floats(min_value=-1e-9, max_value=1e-9, allow_nan=False)
_signed_zero_or_subnormal = hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
# the middle pair's sum or a distance overflows to inf
_near_overflow = hs.sampled_from([-1.7e308, -1e308, 1e308, 1.7e308])


@given(hs.lists(hs.one_of(_tied, _any_magnitude, _tiny), min_size=1, max_size=60))
def test_sorted_kernel_matches_numpy_median_and_mad(xs):
    med, mad = numpy_center_scale(xs)
    assert center_scales(sorted(xs))[:2] == ([med], [mad])


@given(hs.lists(hs.integers(-3, 3).map(float), min_size=1, max_size=41))
def test_sorted_kernel_matches_numpy_on_heavy_ties(xs):
    med, mad = numpy_center_scale(xs)
    assert center_scales(sorted(xs))[:2] == ([med], [mad])


@given(hs.lists(hs.one_of(_tied, _any_magnitude, _tiny, _near_overflow), min_size=1, max_size=60),
       hs.data())
def test_kernel_result_does_not_depend_on_the_start(xs, data):
    start = data.draw(hs.integers(0, len(xs) + 1), label="start")
    with np.errstate(over="ignore", invalid="ignore"):
        expected = numpy_center_scale(xs)
    (med,), (mad,), found = center_scales(sorted(xs), (), start)
    assert (med, mad) == expected
    assert center_scales(sorted(xs), (), found) == ([med], [mad], found)


@given(hs.lists(hs.one_of(_tied, _any_magnitude, _tiny, _signed_zero_or_subnormal,
                          _near_overflow), min_size=1, max_size=60),
       hs.data())
def test_a_row_call_matches_numpy_at_every_prefix(xs, data):
    """One call over a trial gives every prefix's median and MAD, from any
    first prefix and any initial start, as the batch replay makes it."""
    first = data.draw(hs.integers(1, len(xs)), label="first prefix")
    start = data.draw(hs.integers(0, len(xs) + 1), label="start")
    meds, mads, _ = center_scales(sorted(xs[:first]), xs[first:], start)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [numpy_center_scale(xs[:k]) for k in range(first, len(xs) + 1)]
    assert list(zip(meds, mads)) == expected


@given(hs.permutations([-1.0] * 40 + [1.0] * 40))
def test_carried_start_matches_a_fresh_search_at_every_prefix(xs):
    """Shuffled ties move the MAD window by up to a quarter of the history at
    once; a start carried over the whole stream still finds it."""
    meds, mads, _ = center_scales(xs[:1], xs[1:])
    for k in range(1, len(xs) + 1):
        *_, start = center_scales(xs[:1], xs[1:k])
        assert ([meds[k - 1]], [mads[k - 1]], start) == center_scales(sorted(xs[:k]))


class TestSquash:
    def test_values(self):
        assert squash(0.0) == 0.0
        assert squash(4.0) == pytest.approx(0.8, abs=0)
        assert squash(-1.0) == -0.5

    def test_odd_monotone_bounded(self):
        xs = np.linspace(-50, 50, 401)
        gs = [squash(float(x)) for x in xs]
        assert all(-1 < g < 1 for g in gs)
        assert all(b > a for a, b in zip(gs, gs[1:]))
        for x in xs:
            assert squash(float(-x)) == -squash(float(x))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            squash(float("nan"))


class TestCohensD:
    def test_empty_arm_gives_zero(self):
        st = ContinuousState()
        assert st.cohens_d() == 0.0
        st.step(1.0, 1)
        assert st.cohens_d() == 0.0  # control arm still empty

    def test_clamped_at_one(self):
        st = ContinuousState()
        for y in (0.0, 1.0, 2.0):
            st.step(float(y + 10), 1)
            st.step(float(y), 0)
        # means 11 vs 1, pooled sd 1 -> raw d = 10, clamped
        assert st.cohens_d() == 1.0

    def test_hand_computed_unit_effect(self):
        st = ContinuousState()
        for y in (1.0, 2.0, 3.0):
            st.step(y, 1)
        for y in (0.0, 1.0, 2.0):
            st.step(y, 0)
        assert st.cohens_d() == pytest.approx(1.0, rel=1e-12)

    def test_single_observation_arm_uses_unit_sd(self):
        st = ContinuousState()
        st.step(4.0, 1)
        st.step(1.0, 0)
        # both sds undefined -> 1; d = (4-1)/1 = 3 -> clamped to 1
        assert st.cohens_d() == 1.0

    @given(hs.sampled_from([0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0)]) | hs.floats())
    def test_clamp_is_the_min_max_form(self, d):
        """One observation per arm gives unit SDs, so the raw d is the treated
        mean itself; its clamp is ``min(1.0, max(-1.0, d))`` bit for bit."""
        st = ContinuousState(trt=_ArmMoments(1, d), ctrl=_ArmMoments(1, 0.0))
        assert st.cohens_d().hex() == oracles.clamp_cohens_d(d).hex()


class TestWager:
    def make_ramped_state(self):
        # history of 101 values with median 0 and MAD 1, fully ramped
        st = ContinuousState(sched=RampSchedule(50, 50))
        values = [0.0] * 34 + [1.0] * 34 + [-1.0] * 33
        for k, y in enumerate(values):
            st.step(y, k % 2)
        # force a strong direction estimate
        st.trt.n, st.trt.mean, st.trt.m2 = 50, 10.0, 49.0
        st.ctrl.n, st.ctrl.mean, st.ctrl.m2 = 51, 0.0, 50.0
        return st

    def test_worked_example_strong_bet(self):
        st = self.make_ramped_state()
        assert st.cohens_d() == 1.0
        # r = 4 -> g = 0.8; lambda = 0.5 + 1.0*0.6*0.8*1.0 = 0.98
        assert st.wager(4.0, 102) == pytest.approx(0.98, abs=1e-12)

    def test_typical_observation_is_neutral(self):
        st = self.make_ramped_state()
        assert st.wager(0.0, 102) == 0.5  # y at the running median

    def test_no_direction_is_neutral(self):
        st = ContinuousState(sched=RampSchedule(10, 10))
        for k in range(30):
            st.step(float(k % 5), k % 2)
        st.trt.n, st.trt.mean = 15, st.ctrl.mean  # zero mean gap
        st.ctrl.n = 15
        st.trt.m2 = st.ctrl.m2 = 14.0
        assert st.wager(99.0, 31) == 0.5

    def test_burn_in_carries_wealth(self):
        st = ContinuousState(record_steps=True)  # burn-in 50
        for k in range(50):
            st.step(float(k), k % 2)
        assert st.ledger.steps == [] and st.ledger.wealth == 1.0
        st.step(3.0, 1)  # 50 past values now exist
        assert [s.index for s in st.ledger.steps] == [51]


def test_strong_bet_multipliers():
    st = ContinuousState(sched=RampSchedule(1, 1), record_steps=True)
    st.step(0.0, 0)
    st.step(0.5, 1)  # bets start once one past value exists
    st.trt.n, st.trt.mean, st.trt.m2 = 10, 10.0, 9.0
    st.ctrl.n, st.ctrl.mean, st.ctrl.m2 = 10, 0.0, 9.0
    lam = st.wager(4.0, st.i + 1)
    st.step(4.0, 1)
    assert st.ledger.steps[-1].multiplier == pytest.approx(lam / 0.5, rel=1e-12)


def test_location_scale_equivariance():
    """y -> a*y + b leaves every wager and the whole trajectory unchanged."""
    rng = np.random.default_rng(11)
    t, y = continuous_trial(rng, 240, 0.4, 0.0)
    for a, b in [(2.5, 30.0), (0.5, -75.0), (1.7, 0.0)]:
        st0 = ContinuousState(record_steps=True)
        st1 = ContinuousState(record_steps=True)
        for yy, tt in zip(y.tolist(), t.tolist()):
            st0.step(yy, tt)
            st1.step(a * yy + b, tt)
        rows0, rows1 = st0.ledger.steps, st1.ledger.steps
        assert rows0 and [s.index for s in rows0] == [s.index for s in rows1]
        for s0, s1 in zip(rows0, rows1):
            assert abs(s0.wager - s1.wager) < 1e-9
        assert abs(st0.ledger.log_wealth - st1.ledger.log_wealth) < 1e-9


def test_streaming_matches_batch_replay():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        t, y = continuous_trial(rng, 220, 0.3, 0.0)
        st = ContinuousState()
        for yy, tt in zip(y.tolist(), t.tolist()):
            st.step(yy, tt)
        logw = batch.continuous_log_wealth(t[None, :], y[None, :])[0]
        assert abs(st.ledger.log_wealth - logw[-1]) < 1e-10


@pytest.mark.parametrize("y", [10**400, -10**400, float("inf"), float("nan"), True,
                               np.bool_(True)],
                         ids=["10**400", "-10**400", "inf", "nan", "true", "np.True_"])
def test_an_outcome_past_the_float_range_is_refused(y):
    """An int too large for a float is refused as a non-finite outcome is,
    and so is a bool, Python's or numpy's, before the state changes."""
    st = ContinuousState()
    with pytest.raises(ValueError, match="^outcome must be finite"):
        st.step(y, 1)
    assert st.values == [] and st.ledger.n_steps == 0


def test_an_int_too_long_for_decimal_is_refused_by_its_size():
    with pytest.raises(ValueError, match="^outcome must be finite, got an int of 16610 bits$"):
        ContinuousState().step(10**5000, 1)


def test_int_outcomes_are_their_floats():
    """An int outcome is stored as its float: the state bets as on the float
    stream, bit for bit, and its checkpoint encodes and decodes."""
    rng = np.random.default_rng(25)
    t, y = continuous_trial(rng, 120, 0.5, 0.0)
    events = list(zip(np.round(y * 3).astype(int).tolist(), t.tolist()))
    by_int = ContinuousState(sched=RampSchedule(5, 20), record_steps=True)
    by_float = ContinuousState(sched=RampSchedule(5, 20), record_steps=True)
    for yy, tt in events:
        by_int.step(yy, tt)
        by_float.step(float(yy), tt)
    assert by_int.ledger.steps and by_int.ledger.steps == by_float.ledger.steps
    assert by_int.ledger.log_wealth == by_float.ledger.log_wealth
    assert all(type(v) is float for v in by_int.values)
    saved = encode_state(by_int)
    assert saved == encode_state(by_float)
    clone = decode_state(ContinuousState, saved)
    assert clone.values == by_float.values and clone.ledger.log_wealth == by_float.ledger.log_wealth


def test_past_outcomes_are_stored_as_finite_floats():
    """A hand-built history of ints is stored as floats, sorted, so its
    checkpoint encodes; a NaN, an infinity or a bool is refused."""
    state = ContinuousState(values=[3, 1, 2.5, -0.0])
    assert state.values == [-0.0, 1.0, 2.5, 3.0]
    assert all(type(v) is float for v in state.values)
    assert encode_state(state)["values"] == [v.hex() for v in state.values]
    for bad in (math.nan, math.inf, -math.inf, True, 10**400):
        with pytest.raises(ValueError, match="^past outcomes must be finite numbers, got "):
            ContinuousState(values=[1.0, bad, 2.0])


def test_wagers_always_interior():
    rng = np.random.default_rng(2)
    t, y = continuous_trial(rng, 300, 3.0, 0.0, sd=4.0)
    st = ContinuousState(sched=RampSchedule(5, 5), record_steps=True)
    for yy, tt in zip(y.tolist(), t.tolist()):
        st.step(yy, tt)
    assert st.ledger.steps
    for step in st.ledger.steps:
        assert 0.0 < step.wager < 1.0


def test_enumeration_fairness_oracle():
    values = [0.3, -1.2, 2.4, 0.0, 5.1, -0.7, 1.1, 0.9, -2.2, 0.4, 1.8, -0.1]

    def make_state():
        return ContinuousState(sched=RampSchedule(1, 4), c_max=0.6)

    def apply_arm(state, j, arm):
        state.step(values[j], arm)

    assert mean_final_wealth(make_state, apply_arm, len(values)) == \
        pytest.approx(1.0, abs=1e-9)


def test_state_dict_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    t, y = continuous_trial(rng, 120, 0.5, 0.0)
    st = ContinuousState()
    for yy, tt in zip(y.tolist(), t.tolist()):
        st.step(yy, tt)
    clone = decode_state(ContinuousState, encode_state(st))
    rng2 = np.random.default_rng(10)
    t2, y2 = continuous_trial(rng2, 80, 0.5, 0.0)
    for yy, tt in zip(y2.tolist(), t2.tolist()):
        st.step(yy, tt)
        clone.step(yy, tt)
    assert clone.ledger.log_wealth == st.ledger.log_wealth


def test_resume_from_arrival_order_checkpoint_bit_exact():
    """A checkpoint whose ``values`` are in arrival order (as older versions
    wrote them) resumes to the same final log-e as an uninterrupted run."""
    rng = np.random.default_rng(21)
    t, y = continuous_trial(rng, 300, 0.3, 0.0)
    events = list(zip(y.tolist(), t.tolist()))
    full = ContinuousState()
    head = ContinuousState()
    for yy, tt in events:
        full.step(yy, tt)
    for yy, tt in events[:170]:
        head.step(yy, tt)
    saved = encode_state(head)
    saved["values"] = [v.hex() for v, _ in events[:170]]
    assert saved["values"] != sorted(saved["values"], key=float.fromhex)
    resumed = decode_state(ContinuousState, saved)
    for yy, tt in events[170:]:
        resumed.step(yy, tt)
    assert resumed.ledger.log_wealth == full.ledger.log_wealth


def test_history_stays_sorted():
    rng = np.random.default_rng(22)
    t, y = continuous_trial(rng, 120, 0.0, 0.0)
    st = ContinuousState(sched=RampSchedule(5, 5))
    for yy, tt in zip(y.tolist(), t.tolist()):
        st.step(yy, tt)
        assert st.values == sorted(st.values)
    assert sorted(st.values) == sorted(y.tolist())
    saved = encode_state(st)
    saved["values"] = [v.hex() for v in y.tolist()]  # arrival order
    clone = decode_state(ContinuousState, saved)
    assert clone.values == sorted(y.tolist())
    clone.step(0.25, 1)
    assert clone.values == sorted(clone.values)


def test_window_hint_never_changes_a_wager():
    """The MAD window's search start is a hint, not state: reset it (as a
    resume does) or set it anywhere partway through a stream, and every
    wager and the final log-e stay bit-identical."""
    rng = np.random.default_rng(23)
    t, y = continuous_trial(rng, 400, 0.3, 0.0)
    events = list(zip(np.round(y, 1).tolist(), t.tolist()))  # rounding makes ties
    plain = ContinuousState(sched=RampSchedule(5, 20), record_steps=True)
    nudged = ContinuousState(sched=RampSchedule(5, 20), record_steps=True)
    assert "mad_start" not in encode_state(nudged)
    hints = np.random.default_rng(24)
    for k, (yy, tt) in enumerate(events):
        if k % 7 == 0:
            nudged.mad_start = 0 if k % 2 else int(hints.integers(0, nudged.i + 2))
        plain.step(yy, tt)
        nudged.step(yy, tt)
    assert plain.ledger.steps and nudged.ledger.steps == plain.ledger.steps
    assert nudged.ledger.log_wealth == plain.ledger.log_wealth
