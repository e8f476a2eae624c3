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

``parse_event`` and ``head_to_head_per_trial`` are the plain forms of two
optimised paths, kept as the references those paths are compared against:
``json.loads`` plus two set differences per NDJSON record, and one kernel
call per trial and monitor in the deaths-vs-binary comparison.
"""

from __future__ import annotations

import json

import numpy as np

from trialbet.cli import EventError
from trialbet.deaths import death_coin
from trialbet.simlab import batch, generators
from trialbet.simlab.engine import rep_rng
from trialbet.simlab.sizing import size_two_proportion
from trialbet.survival import SurvivalRecord
from trialbet.variants import flag_field


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


def parse_event(monitor, line: str, line_no: int) -> tuple:
    """One NDJSON record through ``json.loads`` and two set differences."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise EventError(f"line {line_no}: record must be a JSON object")
    missing = monitor.required - set(record)
    if missing:
        raise EventError(f"line {line_no}: missing fields {sorted(missing)}")
    unknown = set(record) - monitor.required - monitor.optional
    if unknown:
        raise EventError(f"line {line_no}: unknown fields {sorted(unknown)}")
    try:
        return monitor.parse(record, flag_field(record, "arm"))
    except ValueError as exc:
        raise EventError(f"line {line_no}: {exc}") from exc


def head_to_head_per_trial(baselines, arr: float, power: float, alpha: float,
                           n_sims: int, seed: int) -> list[tuple]:
    """(baseline, coin, N, mean deaths, binary power, deaths power) per baseline,
    each trial drawn and replayed on its own."""
    rows = []
    for b_idx, baseline in enumerate(baselines):
        p_trt = baseline - arr
        n_pat = size_two_proportion(baseline, p_trt, power, alpha)
        bin_hits = death_hits = total_deaths = 0
        for rep in range(n_sims):
            t, y = generators.binary_trial(rep_rng(seed, b_idx * n_sims + rep), n_pat,
                                           p_trt, baseline)
            bin_hits += batch.first_crossing(batch.binary_log_wealth(t, y), alpha) is not None
            death_arms = t[y == 1]
            total_deaths += death_arms.size
            logw_d = batch.deaths_log_wealth(death_arms)
            death_hits += bool(logw_d.size) and batch.first_crossing(logw_d, alpha) is not None
        rows.append((baseline, death_coin(baseline, p_trt), n_pat, total_deaths / n_sims,
                     bin_hits / n_sims, death_hits / n_sims))
    return rows
