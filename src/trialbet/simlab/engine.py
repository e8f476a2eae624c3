"""Monte Carlo engine: operating characteristics, head-to-head, and wage studies.

Determinism contract: replication ``r`` of a scenario with master seed ``s``
always runs on ``SeedSequence(s, spawn_key=(r,))``, so results are identical
for any worker count and any chunking of the replication range.  Aggregation
uses only order-independent reductions over per-replication arrays.

Replications are replayed in blocks: consecutive trials of one stream length
are stacked into (B, n) arrays of about ``_BLOCK_OBS`` observations, and the
batch kernel runs once per block.  Every row of a block is computed as its
own trial would be, so blocking changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..deaths import death_coin
from . import batch
from .scenario import SIM_VARIANTS, OperatingCharacteristics, SimScenario
from .strategies import BettingStrategy

_E_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)
DESIGN_POWER = 0.80  # the power a wage study sizes each effect's trials for
_BLOCK_OBS = 4096  # observations per replay block; larger blocks add memory more than speed


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-derived RNG for replication ``rep`` of master seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def _exp(log_e) -> float:
    """e-value from log-e; ``inf`` past the float range, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_e))


def _stack(trials: list) -> tuple:
    return tuple(np.stack(arrays) for arrays in zip(*trials))


def _blocks(trials):
    """Stack consecutive trials of one stream length into (B, n) blocks of at
    most ``max(1, _BLOCK_OBS // n)`` rows, in trial order."""
    block: list = []
    for trial in trials:
        n = len(trial[0])
        if block and (n != len(block[0][0]) or len(block) >= max(1, _BLOCK_OBS // max(n, 1))):
            yield _stack(block)
            block = []
        block.append(trial)
    if block:
        yield _stack(block)


def _bet_blocks(sim, prepared, params: dict, alpha: float):
    """(first crossing, final log-e, stream length) per trial of prepared blocks."""
    parts = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))]  # no blocks: no trials
    for prep in prepared:
        logw = batch.log_wealth(sim.bet(prep, params))
        parts.append((*batch.row_outcomes(logw, alpha), np.full(len(logw), logw.shape[-1])))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _replay(sim, trials, params: dict, alpha: float):
    """(first crossing, final log-e, stream length) per trial, replayed in blocks."""
    return _bet_blocks(sim, (sim.prepare(block, params) for block in _blocks(trials)), params,
                       alpha)


def _draw(scenario: SimScenario, start: int, stop: int):
    """The scenario's row and its replications [start, stop), drawn lazily."""
    sim = SIM_VARIANTS[scenario.variant]
    return sim, (sim.generate(rep_rng(scenario.seed, rep), scenario.params)
                 for rep in range(start, stop))


def _run_range(scenario: SimScenario, start: int, stop: int):
    """Replications [start, stop); returns (crossing, final_log_e, stream_len) arrays."""
    sim, trials = _draw(scenario, start, stop)
    return _replay(sim, trials, scenario.params, scenario.alpha)


def trajectories(scenario: SimScenario, n: int) -> list[tuple]:
    """Replications 0..n-1 replayed as ``run_operating_characteristics`` replays
    them; per trial, its (1-based index, wager, multiplier, log-wealth) arrays
    at the bets placed."""
    sim, trials = _draw(scenario, 0, n)
    p = scenario.params
    out = []
    for block in _blocks(trials):
        bets = sim.bet(sim.prepare(block, p), p)
        for wager, mult, logw in zip(*bets, batch.log_wealth(bets)):
            placed = np.flatnonzero(~np.isnan(wager))
            out.append((placed + 1, wager[placed], mult[placed], logw[placed]))
    return out


def _power(crossing, n_sims: int) -> tuple:
    """(trials rejected, rejection rate, its binomial SE, median first crossing
    or None) of one cell's first crossings, NaN where a trial never crossed."""
    hits = crossing[~np.isnan(crossing)]
    rate = hits.size / n_sims
    return (hits.size, rate, math.sqrt(rate * (1.0 - rate) / n_sims),
            float(np.median(hits)) if hits.size else None)


def _chunk_bounds(n: int, n_chunks: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, n, n_chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def run_operating_characteristics(scenario: SimScenario,
                                  n_workers: int = 1) -> OperatingCharacteristics:
    """Estimate rejection rate, crossing time, and final e-value quantiles.

    Deterministic given (scenario, seed): per-replication RNG streams are
    derived by counter from the master seed, and aggregation is
    order-independent, so any ``n_workers`` gives bit-identical results.
    """
    n = scenario.n_sims
    if n_workers <= 1:
        crossing, final, length = _run_range(scenario, 0, n)
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so one-worker runs never load it

        bounds = _chunk_bounds(n, n_workers * 4)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_run_range, [scenario] * len(bounds),
                                  [a for a, _ in bounds], [b for _, b in bounds]))
        crossing, final, length = (np.concatenate(column) for column in zip(*parts))

    n_rejected, rate, se, med_cross = _power(crossing, n)
    median_len = float(np.median(length))
    frac = med_cross / median_len if med_cross is not None and median_len > 0 else None
    log_q = np.quantile(final, _E_QUANTILES)
    quantiles = {f"q{int(q * 100):02d}": _exp(v)
                 for q, v in zip(_E_QUANTILES, log_q)}
    return OperatingCharacteristics(
        variant=scenario.variant,
        n_sims=n,
        alpha=scenario.alpha,
        n_rejected=n_rejected,
        rejection_rate=rate,
        se=se,
        median_first_crossing=med_cross,
        median_crossing_fraction=frac,
        median_stream_length=median_len,
        final_e_median=_exp(np.median(final)),
        final_e_quantiles=quantiles,
        params=dict(scenario.params),
        seed=scenario.seed,
    )


@dataclass(frozen=True)
class HeadToHeadRow:
    """Per-baseline comparison of the two monitors on identical trials."""

    baseline: float
    coin: float
    n_patients: int
    mean_deaths: float
    binary_power: float
    deaths_power: float
    delta_pp: float       # deaths-only minus binary, percentage points
    winner: str


def head_to_head_deaths_vs_binary(baselines, arr: float = 0.05, power: float = 0.80,
                                  alpha: float = 0.05, n_sims: int = 1000,
                                  seed: int = 0) -> list[HeadToHeadRow]:
    """Run both monitors on the same simulated trials across baseline rates.

    The binary monitor sees every patient; the deaths-only monitor sees just
    the arm labels of patients with events, in enrollment order.  Each
    baseline is sized for the frequentist two-proportion design at ``power``;
    its trials are replications ``b_idx * n_sims`` onwards of the binary
    scenario at that size, and both monitors replay them in blocks.
    """
    binary, deaths = SIM_VARIANTS["binary"], SIM_VARIANTS["deaths"]
    rows = []
    for b_idx, baseline in enumerate(baselines):
        p_trt = baseline - arr
        n_pat = binary.size(baseline, p_trt, power, alpha)
        coin = death_coin(baseline, p_trt)
        scenario = SimScenario("binary", {"n_patients": n_pat, "p_ctrl": baseline,
                                          "p_trt": p_trt}, n_sims, alpha, seed)
        trials = list(_draw(scenario, b_idx * n_sims, (b_idx + 1) * n_sims)[1])
        bin_power = _power(_replay(binary, trials, scenario.params, alpha)[0], n_sims)[1]
        # hits and death counts do not depend on trial order, so the death
        # streams are replayed grouped by length, which fills the blocks
        streams = sorted(((t[y == 1],) for t, y in trials), key=lambda d: len(d[0]))
        death_cross, _, n_deaths = _replay(deaths, streams, deaths.defaults, alpha)
        death_power = _power(death_cross, n_sims)[1]
        delta = (death_power - bin_power) * 100.0
        winner = "deaths" if delta > 1.0 else ("binary" if delta < -1.0 else "tied")
        rows.append(HeadToHeadRow(baseline, coin, n_pat, int(n_deaths.sum()) / n_sims,
                                  bin_power, death_power, delta, winner))
    return rows


@dataclass(frozen=True)
class WageCell:
    """Power and final-evidence summary for one (strategy, effect) cell."""

    variant: str
    strategy: str
    effect: float
    n_patients: int
    n_sims: int
    power: float
    se: float
    median_final_e: float
    median_crossing: float | None


def wage_study(variant: str, strategies, effects, n_patients: int | None = None,
               n_sims: int = 1000, alpha: float = 0.05, seed: int = 0) -> list[WageCell]:
    """Compare betting strategies cell by cell on common simulated trials.

    ``effects`` are true hazard ratios (survival), true absolute risk
    reductions (binary, from a 0.40 control rate), or true standardized mean
    differences (continuous): the variant row's ``wage.trial`` turns each
    into scenario parameters.  With ``n_patients=None`` each effect runs at
    its own frequentist design size at ``DESIGN_POWER`` (the convention the
    strategy comparisons are calibrated against); pass an explicit
    ``n_patients`` to hold the trial size fixed across effects.  Within one
    effect, every strategy bets on the same trials, so cell contrasts are
    paired; each block of trials is prepared once and bet once per strategy.
    A cell is the scenario of its effect with the strategy's parameters, over
    replications ``e_idx * n_sims`` onwards.
    """
    replays = [(s.label(), s.params(variant)) for s in strategies]  # validated before sizing
    sim = SIM_VARIANTS[variant]
    if sim.wage is None:
        raise ValueError(f"wage study does not cover variant {variant!r}")
    cells = []
    for e_idx, effect in enumerate(effects):
        trial = sim.wage.trial(effect)
        n = sim.size(*trial.values(), DESIGN_POWER, alpha) if n_patients is None else n_patients
        scenario = SimScenario(variant, {"n_patients": n, **trial}, n_sims, alpha, seed)
        trials = _draw(scenario, e_idx * n_sims, (e_idx + 1) * n_sims)[1]
        prepared = [sim.prepare(block, scenario.params) for block in _blocks(trials)]
        for label, replay in replays:
            crossings, finals = _bet_blocks(sim, prepared, replay, alpha)[:2]
            _, power, se, med_cross = _power(crossings, n_sims)
            cells.append(WageCell(variant, label, effect, n, n_sims, power, se,
                                  _exp(np.median(finals)), med_cross))
    return cells


def _wage_evaluate(variant: str, strategy: BettingStrategy, trials, alpha: float):
    """Replay every trial under one strategy, as the wage study does; returns
    (first crossing or NaN, final log-e) arrays in trial order."""
    sim = SIM_VARIANTS[variant]
    prepared = [sim.prepare(block, sim.defaults) for block in _blocks(trials)]
    return _bet_blocks(sim, prepared, strategy.params(variant), alpha)[:2]
