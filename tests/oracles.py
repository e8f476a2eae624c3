"""Brute-force fairness oracles, and a direct simulation of the state model.

The martingale property says: with the outcome stream frozen, averaging the
final wealth over *all* possible arm-label sequences (weighted by their
randomization probabilities) must give exactly 1.  These enumerators replay
the production bet rules down every branch of the arm tree and accumulate
that expectation directly - no shortcuts shared with the code under test
beyond the bet rules themselves.

``day_horizon_distribution`` draws one arm's cohort through its daily
transition matrix on its own, so the multistate generator's horizon states
can be checked against it and against the matrix power.
"""

from __future__ import annotations

import numpy as np

from trialbet.survival import SurvivalRecord


def mean_final_wealth(make_state, apply_arm, k: int, p: float = 0.5) -> float:
    """E[final wealth] over all 2^k arm sequences with P(arm=1) = p.

    ``make_state()`` returns a fresh monitor; ``apply_arm(state, j, arm)``
    feeds observation ``j`` with the given arm label.
    """
    total = 0.0
    for bits in range(2 ** k):
        state = make_state()
        prob = 1.0
        for j in range(k):
            arm = (bits >> j) & 1
            prob *= p if arm == 1 else (1.0 - p)
            apply_arm(state, j, arm)
        total += prob * state.ledger.wealth
    return total


def mean_final_wealth_survival(make_state, times, k: int) -> float:
    """E[final wealth] over all event-arm sequences for the survival monitor.

    Here the branch probability is not constant: under the null the event at
    step j is treated with probability equal to the treated fraction of the
    current risk set, which the enumerator reads from the evolving state.
    Zero-probability branches (an empty arm) are pruned.
    """
    total = 0.0
    for bits in range(2 ** k):
        state = make_state()
        prob = 1.0
        for j in range(k):
            arm = (bits >> j) & 1
            p_j = state.risk_proportion()
            prob *= p_j if arm == 1 else (1.0 - p_j)
            if prob == 0.0:
                break
            state.step(SurvivalRecord(float(times[j]), 1, arm))
        if prob > 0.0:
            total += prob * state.ledger.wealth
    return total


def day_horizon_distribution(rng, n_patients: int, matrix, start: str = "ICU",
                             horizon: int = 28) -> np.ndarray:
    """Empirical state distribution at the horizon for one arm's matrix."""
    model = matrix.model
    cum = matrix.as_array().cumsum(axis=1)
    n_states = len(model.states)
    states = np.full(n_patients, model.index(start), dtype=np.int8)
    for _ in range(horizon):
        u = rng.random(n_patients)
        drawn = (u[:, None] >= cum[states]).sum(axis=1)
        states = np.minimum(drawn, n_states - 1).astype(np.int8)
    counts = np.bincount(states, minlength=len(model.states))
    return counts / n_patients
