"""Brute-force fairness of the batch kernels.

Under the null every arm label is a fair coin of the wager, so the expected
final wealth of any replay is exactly 1.  Each test replays every arm
sequence of a short stream as one block, with bets live from the second
observation, and weights each row by its probability; the weighted mean of
the final wealth must be 1.  The streaming monitors are held to the same
identity in C02 (``tests/test_acceptance.py``).
"""

import itertools
import math

import numpy as np
import pytest

from trialbet.simlab import batch

K = 12
SHORT = {"burn_in": 1, "ramp": 3}  # bets from the second observation on
# every arm sequence of length K, one per row
ARMS = np.array(list(itertools.product((0, 1), repeat=K)), dtype=np.int8)
OUTCOMES = [1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
VALUES = [0.3, -1.2, 2.4, 0.0, 5.1, -0.7, 1.1, 0.9, -2.2, 0.4, 1.8, -0.1]
GOODS = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0]


def _mean_final_wealth(bets, weights) -> float:
    assert np.isfinite(bets[0]).any(axis=-1).all()  # every row places a bet
    return float(weights @ np.exp(batch.log_wealth(bets)[:, -1]))


def _weights(p: float) -> np.ndarray:
    """P(row) when each arm is 1 with probability p."""
    ones = ARMS.sum(axis=-1)
    return p ** ones * (1.0 - p) ** (K - ones)


def _tiled(values, dtype=float):
    return np.tile(np.asarray(values, dtype=dtype), (len(ARMS), 1))


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_binary(p):
    bets = batch.binary_bet(ARMS, _tiled(OUTCOMES, np.int8), p, **SHORT)
    assert _mean_final_wealth(bets, _weights(p)) == pytest.approx(1.0, abs=1e-9)


def test_binary_fixed_wager():
    bets = batch.binary_bet(ARMS, _tiled(OUTCOMES, np.int8), 0.3, fixed_dev=-0.1)
    assert _mean_final_wealth(bets, _weights(0.3)) == pytest.approx(1.0, abs=1e-9)


def test_deaths():
    bets = batch.deaths_bet(ARMS, **SHORT)
    assert _mean_final_wealth(bets, _weights(0.5)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("sign_only", [False, True])
def test_continuous(p, sign_only):
    prep = batch.continuous_prepare(ARMS, _tiled(VALUES), SHORT["burn_in"])
    bets = batch.continuous_bet(prep, p, **SHORT, c_max=0.9, sign_only=sign_only)
    assert _mean_final_wealth(bets, _weights(p)) == pytest.approx(1.0, abs=1e-9)


def test_multistate():
    bets = batch.multistate_bet(_tiled(GOODS, np.int8), ARMS, **SHORT)
    assert _mean_final_wealth(bets, _weights(0.5)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bet_rule", ["fixed", "half_kelly"])
def test_survival(bet_rule):
    """A cohort of 5 treated and 5 control patients, all events at times 1..10.

    Under the null the event at each time is treated with probability the
    treated share of the risk set, as ``oracles.mean_final_wealth_survival``
    enumerates; a sequence that is not 5 and 5 has probability 0.
    """
    k, treated = 10, 5
    arms = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int8)
    weights = np.ones(len(arms))
    for row, seq in enumerate(arms):
        risk1, risk = treated, k
        for arm in seq:
            weights[row] *= risk1 / risk if arm else (risk - risk1) / risk
            risk1, risk = risk1 - arm, risk - 1
    assert weights.sum() == pytest.approx(1.0) and (weights > 0).sum() == math.comb(k, treated)
    times = np.tile(np.arange(1.0, k + 1), (len(arms), 1))
    bets = batch.survival_bet(batch.survival_prepare(times, np.ones_like(arms), arms),
                              **SHORT, bet_rule=bet_rule)
    assert _mean_final_wealth(bets, weights) == pytest.approx(1.0, abs=1e-9)
