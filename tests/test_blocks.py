"""Block replay: a stacked block of trials gives each row's own 1-D result.

The engine replays consecutive replications as one (B, n) block, so every
kernel must treat a row exactly as it treats that trial alone, bit for bit,
and the engine's results must not depend on where a replication range starts
or stops relative to the blocks.  Trials whose lengths vary (multistate
transitions, death streams) are zero-padded to the block's longest row, and
each padded row must still give its own trial's replay.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from trialbet.core import WAGER_MAX, WAGER_MIN
from trialbet.multistate import CONTROL_DAILY, TREATMENT_DAILY
from trialbet.multistate import WAGER_MAX as MS_WAGER_MAX
from trialbet.multistate import WAGER_MIN as MS_WAGER_MIN
from trialbet.simlab import batch, engine, generators
from trialbet.simlab.engine import (
    _BLOCK_OBS,
    _block,
    _replay,
    _run_range,
    head_to_head_deaths_vs_binary,
    rep_rng,
    wage_study,
)
from trialbet.simlab.scenario import SIM_VARIANTS, SimScenario
from trialbet.simlab.strategies import BettingStrategy

ROOT = Path(__file__).parent.parent
LENGTHS = [0, 1, 2, 3, 40, 260]
ROWS = 5
SHORT = {"burn_in": 1, "ramp": 3}  # bets from the second observation on


STEMS = ["binary_alt", "binary_null", "continuous_alt", "deaths_alt", "multistate_alt",
         "survival_alt"]
BLOCK_SIZES = [64, 4096, _BLOCK_OBS]


def _committed(stem, n_sims):
    doc = json.loads((ROOT / "scenarios" / f"{stem}.json").read_text())
    return SimScenario.from_dict({**doc, "n_sims": n_sims})


def _rows(make, n):
    """ROWS trials of length n from ``make(rng, n)``, as a list of tuples."""
    rng = np.random.default_rng(1000 + n)
    return [make(rng, n) for _ in range(ROWS)]


def _stacked(rows):
    return tuple(np.stack(column) for column in zip(*rows))


def _assert_rowwise(kernel, rows, **kwargs):
    """kernel on the stacked rows equals kernel on each row, bit for bit."""
    block = kernel(*_stacked(rows), **kwargs)
    assert block.shape[0] == len(rows)
    for k, row in enumerate(rows):
        alone = kernel(*row, **kwargs)
        assert np.array_equal(block[k], alone.reshape(-1)), (kernel.__name__, kwargs, k)


def _binary(rng, n):
    return generators.binary_trial(rng, n, 0.3, 0.4)


def _survival(rng, n):
    time, status, treatment, _ = generators.survival_trial(rng, n, 0.7, censor_upper=15.0)
    return time, status, treatment


def _tied_survival(rng, n):
    time, status, treatment = _survival(rng, n)
    return np.round(time, 1), status, treatment  # rounding makes ties


def _multistate(rng, n):
    trial = generators.multistate_trial(rng, 300, TREATMENT_DAILY, CONTROL_DAILY)
    return trial.good[:n], trial.arms[:n]


def _deaths(rng, n):
    return (generators.death_stream(rng, n, 0.4),)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("options", [{}, SHORT, {"fixed_dev": 0.08}, {"fixed_dev": -0.1}])
def test_binary_block(n, options):
    _assert_rowwise(batch.binary_log_wealth, _rows(_binary, n), **options)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("options", [{}, SHORT])
def test_deaths_block(n, options):
    rows = _rows(_deaths, n)
    _assert_rowwise(batch.deaths_log_wealth, rows, **options)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("options", [{}, SHORT])
def test_multistate_block(n, options):
    rows = _rows(_multistate, n)
    assert all(row[0].size == n for row in rows)
    _assert_rowwise(batch.multistate_log_wealth, rows, **options)


@pytest.mark.parametrize("lengths", [[0, 1, 2], [2, 0, 1, 0], [0, 0, 0], [0],
                                     [260, 0, 1, 40, 2, 3, 260]])
@pytest.mark.parametrize("variant,make", [("multistate", _multistate), ("deaths", _deaths)])
@pytest.mark.parametrize("options", [{}, SHORT])
@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_a_padded_row_is_its_own_trial(lengths, variant, make, options, alpha):
    """Trials of lengths 0, 1, 2 and mixed, padded into one block: each row's
    first crossing, final log-e and stream length are its own 1-D replay's."""
    sim = SIM_VARIANTS[variant]
    p = {**sim.defaults, **options}
    rng = np.random.default_rng(sum(lengths))
    trials = [make(rng, n) for n in lengths]
    (block, real_lengths), = _block(trials)  # one block: at most 7 x 260 observations
    assert block[0].shape == (len(lengths), max(lengths)) and real_lengths.tolist() == lengths
    crossing, final, length = _replay(sim, [(block, real_lengths)], p, alpha)
    for k, trial in enumerate(trials):
        logw = batch.log_wealth(sim.bet(sim.prepare(trial, p), p))
        alone = batch.row_outcomes(logw[None], alpha)
        assert crossing[k:k + 1].tobytes() == alone[0].tobytes(), k
        assert final[k:k + 1].tobytes() == alone[1].tobytes(), k
        assert length[k] == logw.size == lengths[k]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("make", [_survival, _tied_survival])
@pytest.mark.parametrize("presorted", [False, True])
def test_survival_prepare_block(n, make, presorted):
    rows = _rows(make, n)
    in_order = [tuple(x[np.argsort(row[0], kind="stable")] for x in row) for row in rows]
    if presorted:
        rows = in_order
    block = batch.survival_prepare(*_stacked(rows), presorted=presorted)
    for k, row in enumerate(rows):
        alone = batch.survival_prepare(*row, presorted=presorted)
        # tied times keep their record order, as the streaming monitor sees them
        reference = batch.survival_prepare(*in_order[k], presorted=True)
        for field, stacked, single, ref in zip(alone._fields, block, alone, reference):
            assert np.array_equal(stacked[k], single), (field, k)
            assert np.array_equal(single, ref), (field, k)


def test_time_order_is_the_stable_order():
    """Survival records are sorted by packed keys only where that gives the
    stable order; ties, signed zeros and NaNs fall back to a stable sort."""
    rng = np.random.default_rng(5)
    distinct = rng.exponential(10.0, (6, 300))
    rounded = np.round(distinct)  # many ties in every row
    one_tied_row = distinct.copy()
    one_tied_row[4] = rounded[4]
    zeros = distinct.copy()
    zeros[:, [7, 2]] = [0.0, -0.0]  # equal times of different sign bits
    nans = distinct.copy()
    nans[2, [3, 9, 11]] = np.nan
    for t in (distinct, rounded, one_tied_row, zeros, nans, rounded[0], distinct[:, :1]):
        status, arm = rng.integers(0, 2, (2, *t.shape))
        order = np.argsort(t, axis=-1, kind="stable")
        in_order = (np.take_along_axis(x, order, axis=-1) for x in (t, status, arm))
        reference = batch.survival_prepare(*in_order, presorted=True)
        for got, want in zip(batch.survival_prepare(t, status, arm), reference):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("options", [{}, SHORT, {"lambda_max": 0.6, **SHORT},
                                     {"bet_rule": "half_kelly"},
                                     {"bet_rule": "half_kelly", **SHORT}])
def test_survival_block(n, options):
    rows = _rows(_tied_survival, n)
    _assert_rowwise(batch.survival_log_wealth, rows, **options)
    prepared = [batch.survival_prepare(*row) for row in rows]
    block = batch.survival_bet(batch.survival_prepare(*_stacked(rows)), **options)
    for k, prep in enumerate(prepared):
        for stacked, alone in zip(block, batch.survival_bet(prep, **options)):
            assert np.array_equal(stacked[k], alone, equal_nan=True)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("options", [{}, {"burn_in": 2, "ramp": 3},
                                     {"sign_only": True, "c_max": 0.6},
                                     {"sign_only": True, "burn_in": 0, "ramp": 3}])
def test_continuous_block(n, options):
    rows = _rows(lambda rng, k: generators.continuous_trial(rng, k, 0.4, 0.0), n)
    _assert_rowwise(batch.continuous_log_wealth, rows, **options)
    burn_in = {"burn_in": options["burn_in"]} if "burn_in" in options else {}
    block = batch.continuous_prepare(*_stacked(rows), **burn_in)
    for k, row in enumerate(rows):
        alone = batch.continuous_prepare(*row, **burn_in)
        assert block.n == alone.n
        for field in ("treated", "g", "d_hat"):
            assert np.array_equal(getattr(block, field)[k], getattr(alone, field)[0]), field


@pytest.mark.parametrize("n", LENGTHS)
def test_row_outcomes_match_first_crossing(n):
    rng = np.random.default_rng(n)
    block = np.cumsum(rng.normal(0.2, 1.0, (ROWS, n)), axis=-1)
    crossing, final = batch.row_outcomes(block, 0.05)
    for k, row in enumerate(block):
        hit = batch.first_crossing(row, 0.05)
        assert (np.isnan(crossing[k]) if hit is None else crossing[k] == hit)
        assert final[k] == (row[-1] if n else 0.0)


@pytest.mark.parametrize("stem", STEMS)
def test_run_range_is_independent_of_block_boundaries(stem):
    """A whole range, single replications and odd splits that cut through
    blocks all give the same per-replication results."""
    n = 9 if stem.startswith("multistate") else 45
    sc = _committed(stem, n)
    whole = _run_range(sc, 0, n)
    singles = [_run_range(sc, r, r + 1) for r in range(n)]
    edges = sorted({0, 1, 4, 7, n // 2, n - 3, n})
    splits = [_run_range(sc, a, b) for a, b in zip(edges[:-1], edges[1:])]
    for parts in (singles, splits):
        for column, joined in zip(whole, zip(*parts)):
            assert np.array_equal(column, np.concatenate(joined), equal_nan=True)


@pytest.mark.parametrize("variant", sorted(SIM_VARIANTS))
def test_an_uneven_split_gives_the_whole_range(variant):
    """At a trial size of ``_BLOCK_OBS // 64`` a block holds 64 replications,
    so 133 are two full blocks and a short one.  Ranges cut through them give the whole
    range's arrays, and each replication is what its own stream, drawn and
    replayed alone, gives."""
    sim = SIM_VARIANTS[variant]
    rows, n_sims = 64, 133
    effect = {"binary": {"p_ctrl": 0.4, "p_trt": 0.3}, "continuous": {"mu_trt": 0.3},
              "survival": {"hr": 0.7}}.get(variant, {})
    sc = SimScenario(variant, {sim.trial_size: _BLOCK_OBS // rows, **effect}, n_sims, seed=11)
    whole = _run_range(sc, 0, n_sims)
    parts = [_run_range(sc, a, b) for a, b in ((0, 30), (30, 100), (100, n_sims))]
    for column, joined in zip(whole, zip(*parts)):
        assert np.array_equal(column, np.concatenate(joined), equal_nan=True)
    p = sc.params
    for rep in range(n_sims):
        trial = sim.generate(rep_rng(sc.seed, rep), p)
        logw = batch.log_wealth(sim.bet(sim.prepare(tuple(x[None] for x in trial), p), p))
        crossing, final = batch.row_outcomes(logw, sc.alpha)
        assert np.array_equal(crossing, whole[0][rep:rep + 1], equal_nan=True)
        assert (final[0], logw.shape[-1]) == (whole[1][rep], whole[2][rep])


def _bits(arrays) -> list[tuple]:
    """Each array's dtype, shape and bytes: equal only if equal bit for bit."""
    return [(x.dtype.str, x.shape, x.tobytes()) for x in arrays]


@pytest.mark.parametrize("stem", STEMS)
def test_run_range_does_not_depend_on_the_block_size(stem, monkeypatch):
    """Blocks of 64 observations (one replication each at these trial
    sizes), of 4,096 and of the engine's own size give the same arrays."""
    sc = _committed(stem, 9 if stem.startswith("multistate") else 40)
    results = []
    for size in BLOCK_SIZES:
        monkeypatch.setattr(engine, "_BLOCK_OBS", size)
        results.append(_bits(_run_range(sc, 0, sc.n_sims)))
    assert results[0] == results[1] == results[2]


def test_studies_do_not_depend_on_the_block_size(monkeypatch):
    """The wage study and the head-to-head study report the same cells and
    rows at every block size."""
    results = []
    for size in BLOCK_SIZES:
        monkeypatch.setattr(engine, "_BLOCK_OBS", size)
        results.append((
            wage_study("binary", [BettingStrategy("adaptive"), BettingStrategy("fixed", 0.05)],
                       [0.05, 0.10], 300, n_sims=30, seed=9),
            wage_study("continuous", [BettingStrategy("adaptive"),
                                      BettingStrategy("sign-only", 0.6)], [0.3], 80,
                       n_sims=20, seed=9),
            wage_study("survival", [BettingStrategy("fixed", 0.25),
                                    BettingStrategy("half-kelly")], [0.7], 150,
                       n_sims=20, seed=9),
            head_to_head_deaths_vs_binary([0.15, 0.40], n_sims=30, seed=3)))
    assert repr(results[0]) == repr(results[1]) == repr(results[2])  # floats to the last bit


# Every patient moves daily between Ward and ICU: 28 transitions per patient.
_SHUTTLE = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # Ward, ICU, Home, Dead


@pytest.mark.parametrize("size,n_patients", [(_BLOCK_OBS, 100), (_BLOCK_OBS, 1000), (64, 3)])
def test_multistate_replay_blocks_respect_the_cap(size, n_patients, monkeypatch):
    """Multistate trials are drawn n_patients at a time but replayed in blocks
    of at most ``_BLOCK_OBS`` padded transitions; a longer trial is replayed
    alone.  Every replication is still what its own stream gives alone."""
    monkeypatch.setattr(engine, "_BLOCK_OBS", size)
    shapes = []

    def recorded(drawn):
        for block, lengths in _block(drawn):
            shapes.append(block[0].shape)
            yield block, lengths

    monkeypatch.setattr(engine, "_block", recorded)
    sim = SIM_VARIANTS["multistate"]
    sc = SimScenario("multistate", {"n_patients": n_patients,
                                    "matrices": {"trt": _SHUTTLE, "ctrl": _SHUTTLE}},
                     n_sims=5, seed=17)
    whole = _run_range(sc, 0, sc.n_sims)
    trial_len = 28 * n_patients
    assert whole[2].tolist() == [trial_len] * sc.n_sims
    assert sum(rows for rows, _ in shapes) == sc.n_sims
    assert all(rows * longest <= size or rows == 1 for rows, longest in shapes)
    assert max(rows for rows, _ in shapes) == max(1, size // trial_len)
    p = sc.params
    for rep in range(sc.n_sims):
        trial = sim.generate(rep_rng(sc.seed, rep), p)
        logw = batch.log_wealth(sim.bet(sim.prepare(tuple(x[None] for x in trial), p), p))
        crossing, final = batch.row_outcomes(logw, sc.alpha)
        assert _bits([crossing, final]) == _bits([whole[0][rep:rep + 1], whole[1][rep:rep + 1]])


def _shifted_cumsum(x):
    cum = np.cumsum(x, axis=-1)
    return np.concatenate([np.zeros_like(cum[..., :1]), cum[..., :-1]], axis=-1)


@pytest.mark.parametrize("x", [
    np.ones((3, 300), dtype=np.int8),                           # past int8's 127
    np.ones(300, dtype=bool),                                   # a sum, not a logical or
    np.random.default_rng(1).integers(0, 2, (4, 200)).astype(bool),
    np.random.default_rng(2).integers(-128, 128, (2, 500)).astype(np.int8),
    np.random.default_rng(3).integers(0, 2, (3, 50)),
    np.random.default_rng(4).normal(size=(3, 70)),
    np.ones((2, 1)), np.ones((2, 0), dtype=np.int8), np.ones(0, dtype=bool)])
def test_before_sums_as_cumsum_does(x):
    """``_before`` is ``np.cumsum`` shifted one place, in its dtype: bools and
    small ints summed in int64."""
    assert _bits([batch._before(x)]) == _bits([_shifted_cumsum(x)])
    assert _bits([batch._before(x[..., ::2])]) == _bits([_shifted_cumsum(x[..., ::2])])


def test_clip_is_np_clip():
    """``_clip`` clamps in place to ``np.clip`` bit for bit, at every bound the
    kernels use: signed zeros, NaN, infinities, subnormals and the bounds'
    neighbours."""
    bounds = [(0.0, 1.0), (WAGER_MIN, WAGER_MAX), (MS_WAGER_MIN, MS_WAGER_MAX),
              (-0.5, 0.5), (-1.0, 1.0)]
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, 0.5, -0.5, 1e308, -1e308]
    edges = [v for pair in bounds for b in pair for v in
             (b, -b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf))]
    grid = np.array(special + edges)
    rng = np.random.default_rng(0)
    for x in (grid, rng.permutation(np.tile(grid, 7)).reshape(7, -1), grid[::3], grid[:1]):
        for lo, hi in bounds:
            for clipped in (x.copy(), np.repeat(x, 2, axis=-1)[..., ::2]):  # and strided
                assert batch._clip(clipped, lo, hi) is clipped
                assert _bits([clipped]) == _bits([np.clip(x, lo, hi)]), (lo, hi)
