import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from trialbet.simlab import batch
from trialbet.simlab.engine import (
    _BLOCK_OBS,
    _rep_rngs,
    head_to_head_deaths_vs_binary,
    rep_rng,
    run_operating_characteristics,
    trajectories,
    wage_study,
)
from trialbet.simlab.scenario import SIM_VARIANTS, SimScenario
from trialbet.simlab.strategies import BettingStrategy

from cli_cases import SCENARIO_DIR
from oracles import head_to_head_per_trial, seed_sequence_rng, stream_trajectories

# each row's required parameters, and only those
REQUIRED_ONLY = {"binary": {"n_patients": 30, "p_ctrl": 0.4}, "deaths": {"n_deaths": 30},
                 "continuous": {"n_patients": 30}, "survival": {"n_patients": 30},
                 "multistate": {"n_patients": 30}}


def small_scenario(**over):
    base = dict(variant="binary",
                params={"n_patients": 150, "p_ctrl": 0.40, "p_trt": 0.30},
                n_sims=60, seed=42)
    base.update(over)
    return SimScenario(**base)


class TestScenario:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            SimScenario("binary", {"n_patients": 10, "p_ctrl": 0.4, "ramp_up": 3})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            SimScenario("binary", {"p_ctrl": 0.4})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SimScenario("bayesian", {"n_patients": 10})

    @pytest.mark.parametrize("variant,params,message", [
        ("binary", {"n_patients": 10, "p_ctrl": 0.4, "p_trt": 1.2}, "p_trt must be in [0, 1]"),
        ("binary", {"n_patients": 10, "p_ctrl": -0.1}, "p_ctrl must be in [0, 1]"),
        ("binary", {"n_patients": 10, "p_ctrl": 0.4, "p_alloc": 1.0}, "p_alloc must be in (0, 1)"),
        ("continuous", {"n_patients": 10, "sd": 0.0}, "sd must be > 0"),
        ("continuous", {"n_patients": 10, "p_alloc": 0.0}, "p_alloc must be in (0, 1)"),
        ("survival", {"n_patients": 10, "hr": -0.5}, "hr must be > 0"),
        ("survival", {"n_patients": 10, "shape": 0.0}, "shape must be > 0"),
        ("survival", {"n_patients": 10, "scale": float("nan")}, "scale must be > 0"),
        ("survival", {"n_patients": 10, "censor_upper": 0.0}, "censor_upper must be > 0 when set"),
        ("survival", {"n_patients": 10, "recruit_period": -1.0},
         "recruit_period must be > 0 when set"),
        ("deaths", {"n_deaths": 10, "coin": 1.5}, "coin must be in [0, 1]"),
    ])
    def test_impossible_trial_parameters_rejected(self, variant, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SimScenario(variant, params)

    def test_schedule_and_sign_only_values_that_ran_still_run(self):
        """A whole float schedule and a bool ``sign_only`` still run; only the
        values that ran as something else (a bool schedule, a non-bool
        ``sign_only``) are refused."""
        for variant, params in (("binary", {"p_ctrl": 0.4, "burn_in": 5.0, "ramp": 40.0}),
                                ("continuous", {"sign_only": False}),
                                ("continuous", {"sign_only": True})):
            sc = SimScenario(variant, {"n_patients": 30, **params}, n_sims=2)
            assert run_operating_characteristics(sc).n_sims == 2

    def test_null_defaults(self):
        sc = SimScenario("binary", {"n_patients": 10, "p_ctrl": 0.4})
        assert sc.params["p_trt"] == 0.4
        assert sc.params["burn_in"] == 50 and sc.params["ramp"] == 100

    def test_json_round_trip(self):
        """A scenario rebuilds equal to itself from its JSON, and from its own
        filled ``params``: ``simulate --sims`` rebuilds it through
        ``dataclasses.replace``, and perfbench through the constructor."""
        committed = [SimScenario.from_dict(json.loads(path.read_text()))
                     for path in sorted(SCENARIO_DIR.glob("*.json"))]
        assert len(committed) == 6 and REQUIRED_ONLY.keys() == SIM_VARIANTS.keys()
        required_only = [SimScenario(variant, params) for variant, params in REQUIRED_ONLY.items()]
        for sc in (small_scenario(), *committed, *required_only):
            clone = SimScenario.from_dict(json.loads(json.dumps(dataclasses.asdict(sc))))
            assert clone == sc
            assert dataclasses.replace(sc) == sc
            assert SimScenario(sc.variant, dict(sc.params), sc.n_sims, sc.alpha, sc.seed) == sc


@pytest.mark.parametrize("burn_in", [20.0, 19.5])
def test_a_float_continuous_burn_in_bets_where_the_monitor_bets(burn_in):
    """The continuous replay indexes its trials by the burn-in, which a
    scenario may give as a float: its bets are the monitor's, placed once
    i - 1 >= burn_in past outcomes exist."""
    sc = SimScenario("continuous", {"n_patients": 60, "burn_in": burn_in, "ramp": 10}, n_sims=3)
    for (index, wager, _, _), steps in zip(trajectories(sc, 3), stream_trajectories(sc, 3),
                                           strict=True):
        assert index.tolist() == [step.index for step in steps]
        assert np.allclose(wager, [step.wager for step in steps], rtol=1e-12, atol=0.0)


class TestDeterminism:
    def test_identical_runs(self):
        a = run_operating_characteristics(small_scenario())
        b = run_operating_characteristics(small_scenario())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_results(self):
        a = run_operating_characteristics(small_scenario())
        b = run_operating_characteristics(small_scenario(seed=43))
        assert a.to_dict() != b.to_dict()

    def test_worker_count_invariance(self):
        scenario = small_scenario(n_sims=50)
        serial = run_operating_characteristics(scenario, n_workers=1)
        parallel = run_operating_characteristics(scenario, n_workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_worker_count_invariance_continuous(self):
        scenario = SimScenario("continuous",
                               {"n_patients": 120, "mu_trt": 0.4},
                               n_sims=24, seed=7)
        serial = run_operating_characteristics(scenario, n_workers=1)
        parallel = run_operating_characteristics(scenario, n_workers=3)
        assert serial.to_dict() == parallel.to_dict()


def _draws(rng) -> tuple:
    return rng.random(), rng.normal(), rng.uniform()


@settings(max_examples=150, deadline=None)
@given(seed=hs.integers(0, 2**256 - 1),
       rep=hs.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | hs.integers(0, 2**64 - 1))
@example(seed=0, rep=0)
@example(seed=2**96 - 1, rep=2**32)  # three seed words: one of zero padding
@example(seed=2**200 + 17, rep=2**32 + 2)  # seven seed words: three past the pool
def test_replication_stream_is_the_seed_sequence_stream(seed, rep):
    """A replication's generator, alone or as a one-replication range, holds
    the state ``default_rng(SeedSequence(seed, spawn_key=(rep,)))`` holds and
    draws the same numbers."""
    for rng in (rep_rng(seed, rep), next(_rep_rngs(seed, rep, rep + 1))):
        expect = seed_sequence_rng(seed, rep)
        assert rng.bit_generator.state == expect.bit_generator.state
        assert _draws(rng) == _draws(expect)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**130])
@pytest.mark.parametrize("start,stop", [(2**32 - 3, 2**32 + 3),  # one uint32 word, then two
                                        (2**64 - 2, 2**64 + 2),  # two, then three
                                        # two derivation slices; an id free of the block size
                                        pytest.param(0, _BLOCK_OBS + 2, id="0-BLOCK_OBS+2")])
def test_a_range_is_its_replications(seed, start, stop):
    """A range's generators, derived a slice at a time, are each replication's
    own, also where the replications' word count changes."""
    rngs = list(_rep_rngs(seed, start, stop))
    assert len(rngs) == stop - start
    for rep, rng in zip(range(start, stop), rngs):
        assert rng.bit_generator.state == rep_rng(seed, rep).bit_generator.state


def test_a_negative_seed_or_replication_is_refused_as_numpy_refuses_it():
    for seed, rep in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            seed_sequence_rng(seed, rep)
        with pytest.raises(ValueError):
            rep_rng(seed, rep)


class TestOperatingCharacteristics:
    def test_se_consistent_with_rate(self):
        oc = run_operating_characteristics(small_scenario())
        assert oc.se == pytest.approx(
            math.sqrt(oc.rejection_rate * (1 - oc.rejection_rate) / oc.n_sims))
        assert 0.0 <= oc.rejection_rate <= 1.0
        assert oc.n_rejected == round(oc.rejection_rate * oc.n_sims)

    def test_crossing_fraction_of_stream(self):
        oc = run_operating_characteristics(small_scenario(n_sims=200))
        if oc.median_first_crossing is not None:
            assert oc.median_crossing_fraction == pytest.approx(
                oc.median_first_crossing / oc.median_stream_length)

    def test_multistate_custom_matrices(self):
        rows = [[0.880, 0.070, 0.030, 0.020], [0.070, 0.915, 0.000, 0.015],
                [0, 0, 1, 0], [0, 0, 0, 1]]
        sc = SimScenario("multistate",
                         {"n_patients": 40,
                          "matrices": {"trt": rows, "ctrl": rows}},
                         n_sims=8, seed=2)
        oc = run_operating_characteristics(sc)
        assert oc.n_sims == 8
        with pytest.raises(ValueError, match="'trt' and 'ctrl'"):
            SimScenario("multistate", {"n_patients": 40, "matrices": {"trt": rows}})

    def test_multistate_short_trials_never_reject(self):
        # 2 patients rarely produce >= 30 transitions; such trials must not count
        sc = SimScenario("multistate", {"n_patients": 2}, n_sims=30, seed=1)
        oc = run_operating_characteristics(sc)
        assert oc.rejection_rate == 0.0

    def test_quantiles_present(self):
        oc = run_operating_characteristics(small_scenario())
        assert set(oc.final_e_quantiles) == {"q10", "q25", "q50", "q75", "q90"}
        assert oc.final_e_quantiles["q10"] <= oc.final_e_quantiles["q90"]


def test_first_crossing_is_anytime_valid():
    """Crossing is recorded at the first threshold hit even if wealth falls back."""
    logw = np.array([0.0, 1.0, math.log(25.0), 0.5, -2.0])
    assert batch.first_crossing(logw, 0.05) == 3
    assert batch.first_crossing(np.array([0.0, 1.0]), 0.05) is None


def test_head_to_head_smoke():
    rows = head_to_head_deaths_vs_binary([0.15, 0.40], n_sims=40, seed=3)
    assert [r.baseline for r in rows] == [0.15, 0.40]
    assert rows[0].n_patients == 1372 and rows[1].n_patients == 2942
    for r in rows:
        assert 0.0 <= r.binary_power <= 1.0 and 0.0 <= r.deaths_power <= 1.0
        assert r.delta_pp == pytest.approx(100 * (r.deaths_power - r.binary_power))


def test_head_to_head_matches_per_trial_replay():
    """Block replay gives the per-trial loop's rows exactly."""
    rows = head_to_head_deaths_vs_binary([0.10, 0.25, 0.40], n_sims=30, seed=4)
    assert [(r.baseline, r.coin, r.n_patients, r.mean_deaths, r.binary_power,
             r.deaths_power) for r in rows] == head_to_head_per_trial(
        [0.10, 0.25, 0.40], arr=0.05, power=0.80, alpha=0.05, n_sims=30, seed=4)


def test_wage_study_pairs_strategies_on_common_trials():
    cells = wage_study("binary",
                       [BettingStrategy("adaptive"), BettingStrategy("fixed", 0.05)],
                       effects=[0.05], n_patients=400, n_sims=30, seed=9)
    assert {c.strategy for c in cells} == {"adaptive", "fixed(0.05)"}
    for c in cells:
        assert c.n_sims == 30 and c.effect == 0.05


def test_a_study_cell_is_a_scenario():
    """A wage cell and a compare row report what ``run_operating_characteristics``
    reports on the scenario whose replications they draw."""
    trial = SIM_VARIANTS["continuous"].wage.trial(0.4)
    cell = wage_study("continuous", [BettingStrategy("adaptive")], [0.4, 0.2], 150,
                      n_sims=40, seed=6)[0]
    oc = run_operating_characteristics(
        SimScenario("continuous", {"n_patients": 150, **trial}, n_sims=40, seed=6))
    assert oc.median_first_crossing is not None
    assert (cell.power, cell.median_final_e, cell.median_crossing) == (
        oc.rejection_rate, oc.final_e_median, oc.median_first_crossing)
    row = head_to_head_deaths_vs_binary([0.25, 0.40], n_sims=40, seed=6)[0]
    binary = run_operating_characteristics(SimScenario(
        "binary", {"n_patients": row.n_patients, "p_ctrl": 0.25, "p_trt": 0.25 - 0.05},
        n_sims=40, seed=6))
    assert row.binary_power == binary.rejection_rate


def test_wage_study_rejects_bad_strategy():
    with pytest.raises(ValueError, match="not available"):
        wage_study("binary", [BettingStrategy("half-kelly")], [0.05], 100)


@pytest.mark.parametrize("strategies,message", [([BettingStrategy("fixed", 0.2)], "no strategies"),
                                                ([], "does not cover")])
def test_wage_study_refuses_a_variant_without_a_wage_row(strategies, message):
    with pytest.raises(ValueError, match=message):
        wage_study("deaths", strategies, [0.05], 100)


def test_wage_study_sizes_per_effect_when_n_omitted():
    cells = wage_study("survival", [BettingStrategy("fixed", 0.25)],
                       effects=[0.70, 0.80], n_sims=5, seed=1)
    sizes = {c.effect: c.n_patients for c in cells}
    assert sizes == {0.70: 247, 0.80: 631}
