"""The in-place count kernels and the packed survival sort are their plain forms.

``batch`` divides, clamps and signs its count kernels' wagers inside arrays it
already holds, and sorts a survival block by packed int64 keys where that
gives the stable order.  ``oracles`` keeps the plain forms: a new array per
step and a stable argsort of every block.  On any drawn block, every array a
kernel returns is the reference's, byte for byte, and no numpy warning is
raised.  The goldens replay untied times and labels in {0, 1} only, so the
draws also take in what the engine never feeds: tied times, signed zeros,
subnormals, times near the float maximum, NaN, infinities and labels outside
{0, 1}, each of which must take the stable argsort.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as hs

from trialbet.core import FLOAT_MAX
from trialbet.simlab import batch

import oracles

# times that tie, tie once their two low mantissa bits are dropped, or cannot
# be packed at all (negative, -0.0, NaN and infinite times)
SPECIAL_TIMES = np.array([
    0.0, -0.0, 5e-324, 1e-323, 2e-323, 1e-310, 2.2250738585072014e-308, 1.0,
    np.nextafter(1.0, 2.0), 1.0 + 2 ** -50, 3.0, FLOAT_MAX, np.nextafter(FLOAT_MAX, 0.0),
    FLOAT_MAX / 2, -5e-324, -1.0, -2.0, np.nan, -np.nan, np.inf, -np.inf])
ODD_LABELS = np.array([-1, 2, 3, 7, -128, 127])


@hs.composite
def blocks(draw):
    """(rng, rows, cols): a block's shape, and the generator that fills it."""
    seed = draw(hs.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed), draw(hs.integers(1, 40)), draw(hs.integers(0, 300))


def _labels(rng, rows, cols, lead_runs: bool, dtype=np.int8):
    """0/1 labels; with ``lead_runs`` each row opens with a run of one value,
    of any length up to the whole row."""
    x = (rng.random((rows, cols)) < rng.uniform(0.05, 0.95)).astype(dtype)
    if lead_runs:
        for row, (n, v) in enumerate(zip(rng.integers(0, cols + 1, rows),
                                         rng.integers(0, 2, rows))):
            x[row, :n] = v
    return x


def _survival_blocks(rng, rows, cols, lead_runs):
    """A block of untied times with 0/1 labels, then copies of it with one kind
    of irregularity each: tied times; in about half the rows, one entry set to
    one special time; one status or one arm outside {0, 1}; and all of them
    at once."""
    time = rng.exponential(10.0, (rows, cols))
    status, arm = _labels(rng, rows, cols, False), _labels(rng, rows, cols, lead_runs)
    yield time, status, arm
    for digits in (0, 3):
        yield np.round(time, digits), status, arm
    some = np.flatnonzero(rng.random(rows) < 0.5) if cols else np.empty(0, dtype=int)
    at = (some, rng.integers(0, max(cols, 1), some.size))
    for v in SPECIAL_TIMES:
        special = time.copy()
        special[at] = v
        yield special, status, arm
    for labels in (status, arm):
        odd = labels.astype(np.int64)
        odd[at] = rng.choice(ODD_LABELS, some.size)
        yield time, *((odd, arm) if labels is status else (status, odd))
    swamp = np.round(time, 0)
    hit = rng.random((rows, cols)) < 0.3
    swamp[hit] = rng.choice(SPECIAL_TIMES, hit.sum())
    yield swamp, np.where(hit, rng.choice(ODD_LABELS, (rows, cols)), status), arm


def _assert_same(got, want, case):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), (case, k)
        assert g.tobytes() == w.tobytes(), (case, k)


_BURN_INS = hs.one_of(hs.integers(0, 3), hs.floats(0.0, 3.0), hs.integers(0, 310),
                     hs.floats(0.0, 310.0))


@settings(max_examples=60, deadline=None)
@given(block=blocks(), lead_runs=hs.booleans(), burn_in=_BURN_INS,
       ramp=hs.one_of(hs.integers(1, 3), hs.integers(1, 80)), p=hs.sampled_from([0.5, 0.3, 0.8]),
       fixed_dev=hs.one_of(hs.none(), hs.floats(-0.45, 0.45)))
def test_kernels_return_their_references_bytes(block, lead_runs, burn_in, ramp, p, fixed_dev):
    rng, rows, cols = block
    t, y, arms = (_labels(rng, rows, cols, lead_runs) for _ in range(3))
    good = _labels(rng, rows, cols, lead_runs, bool)
    survival = list(_survival_blocks(rng, rows, cols, lead_runs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [batch._rate_gap(t.astype(float), y.astype(float), burn_in, ramp)[:1],
               batch.binary_bet(t, y, p, burn_in, ramp),
               batch.binary_bet(t, y, p, burn_in, ramp, fixed_dev),
               batch.deaths_bet(arms, burn_in, ramp),
               batch.multistate_bet(good, arms, burn_in, ramp),
               *(batch.survival_prepare(*records) for records in survival)]
        wealth = batch.log_wealth(got[1])
    want = [oracles.rate_gap(t.astype(float), y.astype(float), burn_in, ramp)[:1],
            oracles.binary_bet(t, y, p, burn_in, ramp),
            oracles.binary_bet(t, y, p, burn_in, ramp, fixed_dev),
            oracles.deaths_bet(arms, burn_in, ramp),
            oracles.multistate_bet(good, arms, burn_in, ramp),
            *(oracles.survival_prepare(*records) for records in survival)]
    for k, (g, w) in enumerate(zip(got, want)):
        _assert_same(g, w, k)
    _assert_same([wealth], [np.cumsum(np.log(want[1][1]), axis=-1)], "log_wealth")
