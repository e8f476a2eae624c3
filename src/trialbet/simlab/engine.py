"""Monte Carlo engine: operating characteristics, head-to-head, and wage studies.

Determinism contract: replication ``r`` of a scenario with master seed ``s``
always runs on ``default_rng(SeedSequence(s, spawn_key=(r,)))``, so results
are identical for any worker count and any chunking of the replication range.
Aggregation uses only order-independent reductions over per-replication
arrays.

The streams of a range of replications are derived in one vectorized pass:
numpy's ``SeedSequence`` hash (O'Neill's ``seed_seq_fe``, NumPy NEP 19) runs
column-wise over the replications' uint32 words, and each replication's PCG64
seeds itself from its four hashed uint64 words.  The hash constants follow the
word position, not the data, so every column gets exactly the words
``SeedSequence`` would give it.  ``tests/oracles.py`` keeps
``default_rng(SeedSequence(...))`` as the reference, so a numpy upgrade that
changes ``SeedSequence`` fails a test rather than silently moving a stream.

Replications are drawn in blocks of ``max(1, 8192 // n)`` consecutive
replications, n the trial size: the generator fills a block's (B, n) arrays in
one call, each row from its own replication's stream, and the batch kernel
runs once per block.  Trials of varying length (multistate transitions, a
head-to-head study's death streams) are split into consecutive groups of at
most 8,192 padded observations, each zero-padded to its longest, with no bet
past a row's real length; as no bet reads a later observation (see ``batch``),
every row is computed as its own trial would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..deaths import death_coin
from . import batch
from .scenario import SIM_VARIANTS, OperatingCharacteristics, SimScenario
from .strategies import BettingStrategy

_E_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90)
DESIGN_POWER = 0.80  # the power a wage study sizes each effect's trials for
# Observations per drawn and replayed block, and replications per stream-derivation
# slice.  Each block pays a fixed numpy dispatch cost, and a larger one holds more
# memory.  The six committed scenarios at perfbench's oc-study sizes, summed best-of-8
# on a shared 2-vCPU host (Python 3.11, numpy 2.4), took 0.64-0.69 s at 4,096,
# 0.57-0.58 s at 8,192, 0.54-0.68 s at 16,384 and 0.69 s at 32,768.
_BLOCK_OBS = 8192


# numpy's SeedSequence hash, on uint32 words held in Python ints or uint64 arrays
_POOL = 4                                     # pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # hashmix: the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # generate_state: the pool out
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _uint32_words(x: int) -> list[int]:
    """``x``'s little-endian uint32 words, as ``SeedSequence`` reads an int."""
    if x < 0:
        raise ValueError(f"expected a non-negative integer, got {x}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One step of the hash: (hashed value, the next hash constant)."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> _XSHIFT, const_next


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _mix_in(pool: tuple, const: int, words) -> tuple[tuple, int]:
    """Each of ``words`` into every pool word, in order: (pool, hash constant)."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return tuple(pool), const


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool of a spawned ``SeedSequence(seed, ...)`` once it has hashed
    its seed words, and the hash constant reached; the spawn key comes next.
    The pool is ``SeedSequence(seed).pool`` (zero padding hashes as absent
    words do); the constant follows the number of hashes: one per pool word and
    per ordered pair of them, then one per pool word for each later seed word."""
    n_hashes = _POOL * _POOL + _POOL * max(0, len(_uint32_words(seed)) - _POOL)
    pool = tuple(int(word) for word in np.random.SeedSequence(seed).pool)
    return pool, _INIT_A * pow(_MULT_A, n_hashes, 1 << 32) & _MASK32


def _spawn_state(seed: int, rep_words: list) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)``.

    ``rep_words`` are ``r``'s uint32 words, each an int, or a uint64 array
    with one entry per replication; the result is (4,) or (len, 4).
    """
    pool, _ = _mix_in(*_seed_pool(seed), rep_words)
    const, out = _INIT_B, []
    for i in range(2 * _POOL):  # eight uint32 words, cycling the pool
        value, const = _hash(pool[i % _POOL], const, _MULT_B)
        out.append(value)
    words = np.array([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])], dtype=np.uint64)
    return np.ascontiguousarray(words.T)  # PCG64 reads each row's four words in place


class _SpawnState(ISeedSequence):
    """A replication's precomputed state words: all PCG64 reads from its seed
    sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"only the 4 uint64 words PCG64 asks for are held, "
                             f"not {n_words} of {dtype}")
        return self.words


def _rng(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SpawnState(words)))


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-derived RNG for replication ``rep`` of master seed ``seed``: the
    stream ``default_rng(SeedSequence(seed, spawn_key=(rep,)))`` gives."""
    return _rng(_spawn_state(seed, _uint32_words(rep)))


def _rep_rngs(seed: int, start: int, stop: int):
    """``rep_rng(seed, r)`` for r in [start, stop), derived in slices of at most
    ``_BLOCK_OBS`` replications that share every uint32 word but the lowest."""
    while start < stop:
        end = min(stop, start + _BLOCK_OBS, (start | _MASK32) + 1)
        low = np.arange(start & _MASK32, (start & _MASK32) + end - start, dtype=np.uint64)
        for words in _spawn_state(seed, [low, *_uint32_words(start)[1:]]):
            yield _rng(words)
        start = end


def _exp(log_e) -> float:
    """e-value from log-e; ``inf`` past the float range, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_e))


def _padded(trials: list) -> tuple:
    """Trials whose lengths vary, zero-padded into one (B, longest) block,
    and each row's real length."""
    lengths = np.array([len(trial[0]) for trial in trials])
    real = np.arange(lengths.max()) < lengths[:, None]
    block = tuple(np.zeros(real.shape, dtype=x.dtype) for x in trials[0])
    for padded, column in zip(block, zip(*trials)):
        padded[real] = np.concatenate(column)  # row by row, as the mask runs
    return block, lengths


def _block(drawn):
    """(block, real lengths) pairs of a drawn block.  A list of trials whose
    lengths vary is split into consecutive groups whose padded size (rows x
    longest) stays within ``_BLOCK_OBS``; a longer trial is a group of its own."""
    if not isinstance(drawn, list):
        yield drawn, np.full(len(drawn[0]), drawn[0].shape[-1])
        return
    start = longest = 0
    for i, trial in enumerate(drawn):
        longest = max(longest, len(trial[0]))
        if i > start and (i + 1 - start) * longest > _BLOCK_OBS:
            yield _padded(drawn[start:i])
            start, longest = i, len(trial[0])
    if drawn:
        yield _padded(drawn[start:])


def _bets(sim, prep, lengths, params: dict, origin: tuple) -> tuple:
    """(wager, multiplier, log-wealth) of a prepared block; past a row's real
    length no bet is placed (a NaN wager, a multiplier of exactly 1.0).

    A row that ends at a NaN log-e (data past the float range, which the
    monitor refuses too) is refused, named by ``origin``: a label and the
    replication of the block's first row."""
    wager, mult = sim.bet(prep, params)
    if lengths.min() < wager.shape[-1]:  # a padded block
        pad = np.arange(wager.shape[-1]) >= lengths[:, None]
        wager, mult = np.where(pad, np.nan, wager), np.where(pad, 1.0, mult)
    logw = batch.log_wealth((wager, mult))
    bad = np.flatnonzero(np.isnan(logw[:, -1:]))  # a NaN carries to the row's end
    if bad.size:
        raise ValueError(f"{origin[0]}: replication {origin[1] + bad[0]} ends at a NaN "
                         f"log e-value; its data overflow the float range")
    return wager, mult, logw


def _bet_blocks(sim, prepared, params: dict, alpha: float, origin: tuple):
    """(first crossing, final log-e, stream length) per trial of (prepared block,
    lengths); ``origin`` is as ``_bets`` takes it for the first block."""
    parts = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))]  # no blocks: no trials
    for prep, lengths in prepared:
        outcomes = batch.row_outcomes(_bets(sim, prep, lengths, params, origin)[2], alpha)
        parts.append((*outcomes, lengths))
        origin = (origin[0], origin[1] + len(lengths))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _replay(sim, blocks, params: dict, alpha: float, origin: tuple = ("replayed trials", 0)):
    """``_bet_blocks`` of drawn (block, real lengths) pairs."""
    return _bet_blocks(sim, ((sim.prepare(b, params), n) for b, n in blocks), params, alpha,
                       origin)


def _origin(scenario: SimScenario, start: int) -> tuple:
    """The label and first replication that name a scenario's replay in a refusal."""
    return f"{scenario.variant} seed {scenario.seed}", start


def _draw(scenario: SimScenario, start: int, stop: int):
    """The scenario's row and its replications [start, stop) as (block, real
    lengths) pairs, drawn lazily, one generator call per block."""
    sim, p = SIM_VARIANTS[scenario.variant], scenario.params
    rngs = _rep_rngs(scenario.seed, start, stop)
    rows = max(1, _BLOCK_OBS // p[sim.trial_size])
    return sim, (pair for b in iter(lambda: list(islice(rngs, rows)), [])
                 for pair in _block(sim.generate(b, p)))


def _run_range(scenario: SimScenario, start: int, stop: int):
    """Replications [start, stop); returns (crossing, final_log_e, stream_len) arrays."""
    sim, blocks = _draw(scenario, start, stop)
    return _replay(sim, blocks, scenario.params, scenario.alpha, _origin(scenario, start))


def trajectories(scenario: SimScenario, n: int) -> list[tuple]:
    """Replications 0..n-1 replayed as ``run_operating_characteristics`` replays
    them; per trial, its (1-based index, wager, multiplier, log-wealth) arrays
    at the bets placed."""
    sim, blocks = _draw(scenario, 0, n)
    p = scenario.params
    out = []
    for block, lengths in blocks:
        for wager, mult, logw in zip(*_bets(sim, sim.prepare(block, p), lengths, p,
                                            _origin(scenario, len(out)))):
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
        blocks = list(_draw(scenario, b_idx * n_sims, (b_idx + 1) * n_sims)[1])
        origin = _origin(scenario, b_idx * n_sims)
        bin_power = _power(_replay(binary, blocks, scenario.params, alpha, origin)[0], n_sims)[1]
        streams = [(t[y == 1],) for block, _ in blocks for t, y in zip(*block)]
        death_cross, _, n_deaths = _replay(deaths, _block(streams), deaths.defaults, alpha,
                                           origin)
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
        blocks = _draw(scenario, e_idx * n_sims, (e_idx + 1) * n_sims)[1]
        prepared = [(sim.prepare(block, scenario.params), lengths) for block, lengths in blocks]
        for label, replay in replays:
            crossings, finals = _bet_blocks(sim, prepared, replay, alpha,
                                            _origin(scenario, e_idx * n_sims))[:2]
            _, power, se, med_cross = _power(crossings, n_sims)
            cells.append(WageCell(variant, label, effect, n, n_sims, power, se,
                                  _exp(np.median(finals)), med_cross))
    return cells


def _wage_evaluate(variant: str, strategy: BettingStrategy, trials, alpha: float):
    """Replay every trial under one strategy, as the wage study does; returns
    (first crossing or NaN, final log-e) arrays in trial order."""
    block = tuple(np.stack(column) for column in zip(*trials))
    return _replay(SIM_VARIANTS[variant], _block(block) if block else [],
                   strategy.params(variant), alpha)[:2]
