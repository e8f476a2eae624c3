"""Predictable wagers: a bet reads no later observation.

A test martingale needs each wager to be fixed before the arm it bets on is
revealed (Ramdas, Grünwald, Vovk & Shafer, "Game-theoretic statistics and
safe anytime-valid inference", Statistical Science 2023).  For the binary,
deaths, continuous and multistate kernels the wager at observation i may read
observations 1..i-1 and the outcome that observation i is conditioned on, but
not its arm.  So changing any suffix after observation k, its values and its
length, must leave every wager and multiplier at 1..k bit for bit as they
were, and changing the arm of observation k+1 as well must leave its wager
as it was.  The engine's padded blocks rely on the first property.  Survival
is exempt: its risk sets count the records still to come.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from trialbet.simlab import batch

_FLAG = hs.integers(0, 1)
_OUTCOME = hs.one_of(hs.integers(-3, 3), hs.floats(-100.0, 100.0))  # small ints make ties
# per kernel: one strategy per column (the dtype follows), the column bet on,
# and the replay of a trial's columns at a burn-in and ramp
KERNELS = {
    "binary": ((_FLAG, _FLAG), 0, lambda c, b, r: batch.binary_bet(*c, burn_in=b, ramp=r)),
    "deaths": ((_FLAG,), 0, lambda c, b, r: batch.deaths_bet(*c, burn_in=b, ramp=r)),
    "continuous": ((_FLAG, _OUTCOME), 0, lambda c, b, r: batch.continuous_bet(
        batch.continuous_prepare(*c, burn_in=b), burn_in=b, ramp=r)),
    "multistate": ((_FLAG, _FLAG), 1,
                   lambda c, b, r: batch.multistate_bet(*c, burn_in=b, ramp=r)),
}


def _replay_trial(replay, trial, n_columns, burn_in, ramp):
    """(wager, multiplier) of a trial given as a list of observation tuples."""
    columns = [np.array([obs[j] for obs in trial], dtype=float) for j in range(n_columns)]
    return tuple(np.reshape(x, -1) for x in replay(columns, burn_in, ramp))


def _same(a, b) -> bool:
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", sorted(KERNELS))
@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_a_bet_reads_no_later_observation(variant, data):
    columns, arm, replay = KERNELS[variant]
    observation = hs.tuples(*columns)
    trial = data.draw(hs.lists(observation, max_size=30), label="trial")
    k = data.draw(hs.integers(0, len(trial)), label="k")
    other = trial[:k] + data.draw(hs.lists(observation, max_size=30), label="suffix")
    both = len(trial) > k and len(other) > k
    if both:  # observation k+1 keeps all but its arm, which flips
        other[k] = tuple(1 - x if j == arm else x for j, x in enumerate(trial[k]))
    burn_in, ramp = data.draw(hs.integers(0, 4), label="burn_in"), data.draw(hs.integers(1, 4))
    (wager, mult), (wager2, mult2) = (_replay_trial(replay, t, len(columns), burn_in, ramp)
                                      for t in (trial, other))
    assert _same(wager[:k], wager2[:k]) and _same(mult[:k], mult2[:k])
    if both:
        assert _same(wager[k], wager2[k])
