"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Monte Carlo criteria run with the replication counts stated in the criteria
and fixed seeds, so every run is reproducible.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the per-criterion lines.

Known red: criterion 9's power target (33.6% at d=0.40, n=200) is not
producible by the reference betting algorithm; the implementation follows
the reference algorithm exactly (cross-checked against an independent
transliteration) and the honest value is ~42%.  See the decisions ledger.
"""

import math
import time

import numpy as np
import pytest

from trialbet.binary import BinaryState
from trialbet.continuous import ContinuousState
from trialbet.core import RampSchedule, WealthLedger
from trialbet.deaths import DeathsState, death_coin
from trialbet.multistate import (
    CONTROL_DAILY,
    DEFAULT_MODEL,
    TREATMENT_DAILY,
    MultistateState,
)
from trialbet.simlab import batch, generators
from trialbet.simlab.engine import (
    head_to_head_deaths_vs_binary,
    rep_rng,
    run_operating_characteristics,
    wage_study,
)
from trialbet.simlab.scenario import SimScenario
from trialbet.simlab.sizing import (
    deaths_design,
    size_logrank,
    size_t_test,
    size_two_proportion,
)
from trialbet.simlab.strategies import BettingStrategy
from trialbet.survival import SurvivalState

from oracles import (
    day_horizon_distribution,
    mean_final_wealth,
    mean_final_wealth_survival,
    null_expectation,
    survival_records,
)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} - {detail}")


def oc(variant, params, n_sims, seed, alpha=0.05):
    return run_operating_characteristics(
        SimScenario(variant, params, n_sims=n_sims, alpha=alpha, seed=seed))


def test_c01_martingale_identity_grid():
    worst = 0.0
    for lam in np.arange(0.001, 0.9995, 0.001):
        for p in np.arange(0.1, 0.95, 0.1):
            worst = max(worst, abs(null_expectation(float(lam), float(p)) - 1.0))
    ok = worst < 1e-12
    report("C01", ok, f"max |E[multiplier]-1| = {worst:.2e} over 999x9 grid")
    assert ok


def test_c02_brute_force_fairness_all_variants():
    t0 = time.monotonic()
    results = {}

    outcomes = [1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
    results["binary"] = mean_final_wealth(
        lambda: BinaryState(sched=RampSchedule(0, 4)),
        lambda s, j, arm: s.step(outcomes[j], arm), 12)

    results["deaths"] = mean_final_wealth(
        lambda: DeathsState(sched=RampSchedule(2, 3)),
        lambda s, j, arm: s.step(arm), 12)

    values = [0.3, -1.2, 2.4, 0.0, 5.1, -0.7, 1.1, 0.9, -2.2, 0.4, 1.8, -0.1]
    results["continuous"] = mean_final_wealth(
        lambda: ContinuousState(sched=RampSchedule(1, 4)),
        lambda s, j, arm: s.step(values[j], arm), 12)

    goods = [True, False, False, True, True, False, True, False, True, True, False, False]
    results["multistate"] = mean_final_wealth(
        lambda: MultistateState(sched=RampSchedule(2, 3)),
        lambda s, j, arm: s.step_classified(goods[j], arm), 12)

    times = [float(k) for k in range(1, 11)]
    results["survival"] = mean_final_wealth_survival(
        lambda: SurvivalState(risk_trt=5, risk_ctrl=5, sched=RampSchedule(1, 2)),
        times, 10)

    elapsed = time.monotonic() - t0
    worst = max(abs(v - 1.0) for v in results.values())
    ok = worst < 1e-9 and elapsed < 60.0
    report("C02", ok, f"max |E[W]-1| = {worst:.2e} across 5 variants in {elapsed:.1f}s")
    assert ok


def test_c03_worked_examples():
    # Binary monitor, three-patient walkthrough from the stated wagers
    led = WealthLedger(record_steps=True)
    led.bet(0.473, 0, 0.5, 200)
    led.bet(0.530, 1, 0.5, 201)
    led.bet(0.469, 1, 0.5, 202)
    m1, m2, m3 = (step.multiplier for step in led.steps)
    ok = (abs(m1 - 1.054) < 1e-9 and abs(m2 - 1.060) < 1e-9
          and abs(m3 - 0.938) < 1e-9 and round(m1 * m2 * m3, 3) == 1.048)

    # ... and the wagers themselves from the stated counts
    st = BinaryState()
    st.n_trt, st.e_trt, st.n_ctrl, st.e_ctrl, st.i = 100, 35, 99, 40, 199
    ok &= round(st.delta(), 3) == -0.054
    ok &= round(st.wager(1, 200), 3) == 0.473

    # Deaths-only walkthrough: 33 treatment / 47 control deaths, death 81
    d = DeathsState(record_steps=True)
    d.d_trt, d.d_ctrl = 33, 47
    ok &= abs(d.p_hat() - 0.4125) < 1e-12
    ok &= abs(d.wager(81) - 0.4125) < 1e-12
    d.step(0)
    ctrl_mult = d.ledger.steps[-1].multiplier
    d2 = DeathsState(record_steps=True)
    d2.d_trt, d2.d_ctrl = 33, 47
    d2.step(1)
    trt_mult = d2.ledger.steps[-1].multiplier
    ok &= abs(ctrl_mult - 1.175) < 1e-9 and abs(trt_mult - 0.825) < 1e-9

    report("C03", ok, f"binary multipliers ({m1:.3f}, {m2:.3f}, {m3:.3f}), "
                      f"cumulative {m1 * m2 * m3:.3f}; deaths 1.175/0.825")
    assert ok


def test_c04_sample_size_calculators():
    two_prop = [size_two_proportion(0.40, 0.35, 0.80), size_two_proportion(0.40, 0.30, 0.80),
                size_two_proportion(0.40, 0.35, 0.90), size_two_proportion(0.40, 0.30, 0.90)]
    t_sizes = [size_t_test(d, pw) for d, pw in
               [(0.20, 0.80), (0.40, 0.80), (0.60, 0.80),
                (0.20, 0.90), (0.40, 0.90), (0.60, 0.90)]]
    events = size_logrank(0.80, 0.80)
    ok = (two_prop == [2942, 712, 3938, 954]
          and t_sizes == [788, 200, 90, 1054, 266, 120]
          and events == 631)
    report("C04", ok, f"two-proportion {two_prop}, t-test {t_sizes}, log-rank {events}")
    assert ok


def test_c05_signal_concentration_table():
    coins = [round(death_coin(b, b - 0.05), 3) for b in [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]]
    expected = [0.333, 0.400, 0.429, 0.444, 0.455, 0.462, 0.467]
    ok = coins == expected
    report("C05", ok, f"death coins {coins}")
    assert ok


def test_c06_binary_operating_characteristics():
    null = oc("binary", {"n_patients": 712, "p_ctrl": 0.40}, 2000, seed=11)
    alt = oc("binary", {"n_patients": 712, "p_ctrl": 0.40, "p_trt": 0.30}, 2000, seed=1201)
    ok = (null.rejection_rate <= 0.05
          and abs(null.rejection_rate - 0.021) <= 0.015
          and abs(alt.rejection_rate - 0.504) <= 0.03
          and abs(alt.median_first_crossing - 401) <= 0.10 * 401)
    report("C06", ok, f"type I {null.rejection_rate:.4f} (target 0.021+/-1.5pp), "
                      f"power {alt.rejection_rate:.4f} (target 0.504+/-3pp), "
                      f"median crossing {alt.median_first_crossing:.0f} (target 401+/-10%)")
    assert ok


def test_c07_deaths_operating_characteristics():
    # baseline 25%, ARR 10pp: inflated N=1250 -> 313 null / 250 alt deaths, coin 0.375
    design = deaths_design(0.25, 0.15)
    null = oc("deaths", {"n_deaths": design.deaths_null, "coin": 0.5}, 2000, seed=21)
    alt = oc("deaths", {"n_deaths": design.deaths_alt, "coin": design.coin}, 2000, seed=808)
    ok = (design.n_patients == 1250
          and null.rejection_rate <= 0.05
          and abs(alt.rejection_rate - 0.871) <= 0.03
          and abs(alt.median_first_crossing - 123) <= 0.15 * 123)
    report("C07", ok, f"type I {null.rejection_rate:.4f}, "
                      f"power {alt.rejection_rate:.4f} (target 0.871+/-3pp), "
                      f"median crossing {alt.median_first_crossing:.0f} (target 123+/-15%)")
    assert ok


def test_c08_head_to_head_crossover():
    rows = head_to_head_deaths_vs_binary(
        [0.15, 0.20, 0.25, 0.30, 0.35, 0.40], arr=0.05, n_sims=1000, seed=105)
    by_baseline = {r.baseline: r.delta_pp for r in rows}
    ok = (by_baseline[0.15] >= 5.0 and by_baseline[0.20] >= 5.0
          and by_baseline[0.35] <= -5.0 and by_baseline[0.40] <= -5.0
          and by_baseline[0.20] > 0.0 > by_baseline[0.30])
    report("C08", ok, "delta pp by baseline: " +
           ", ".join(f"{b:.2f}: {d:+.1f}" for b, d in sorted(by_baseline.items())))
    assert ok


def test_c09a_continuous_type_i_error():
    null = oc("continuous", {"n_patients": 200}, 2000, seed=51)
    ok = null.rejection_rate <= 0.05
    report("C09a", ok, f"type I {null.rejection_rate:.4f} <= 0.05")
    assert ok


def test_c09b_continuous_power_vs_reported_table():
    """Reported power 33.6% at (d=0.40, n=200) is not producible by the
    reference algorithm; its honest value is ~0.42.  Kept as stated -
    expected to fail.  See decisions ledger."""
    alt = oc("continuous", {"n_patients": 200, "mu_trt": 0.40}, 2000, seed=52)
    ok = abs(alt.rejection_rate - 0.336) <= 0.03
    report("C09b", ok, f"power {alt.rejection_rate:.4f} vs reported 0.336+/-3pp "
                       "(reference algorithm disagrees with the reported table; see ledger)")
    assert ok, (
        f"power {alt.rejection_rate:.4f} is outside 0.336+/-0.03: the reported "
        "table value is inconsistent with the reference betting algorithm "
        "(verified against an independent transliteration and the strategy "
        "study's own adaptive column); see notes/decisions.md")


def test_c09c_continuous_equivariance():
    rng = np.random.default_rng(207)
    worst, compared = 0.0, 0
    for _ in range(8):
        n = int(rng.integers(80, 160))
        t, y = generators.continuous_trial(rng, n, float(rng.normal(0.3, 0.2)), 0.0)
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-100, 100))
        s0 = ContinuousState(sched=RampSchedule(20, 40), record_steps=True)
        s1 = ContinuousState(sched=RampSchedule(20, 40), record_steps=True)
        for yy, tt in zip(y.tolist(), t.tolist()):
            s0.step(yy, tt)
            s1.step(a * yy + b, tt)
        assert [r.index for r in s0.ledger.steps] == [r.index for r in s1.ledger.steps]
        for r0, r1 in zip(s0.ledger.steps, s1.ledger.steps):
            worst = max(worst, abs(r0.wager - r1.wager))
        compared += len(s0.ledger.steps)
        worst = max(worst, abs(s0.ledger.log_wealth - s1.ledger.log_wealth))
    ok = worst < 1e-9 and compared > 0
    report("C09c", ok, f"max wager/log-wealth drift under y -> a*y+b: {worst:.2e}")
    assert ok


def test_c10_survival_operating_characteristics():
    null = oc("survival", {"n_patients": 631, "hr": 1.0}, 1000, seed=31)
    alt = oc("survival", {"n_patients": 631, "hr": 0.8}, 1000, seed=32)
    ok = (null.rejection_rate <= 0.05
          and abs(alt.rejection_rate - 0.628) <= 0.04
          and abs(alt.median_first_crossing - 329) <= 0.10 * 329)

    # staggered vs simultaneous entry: medians of final e-values agree
    fin_sim, fin_stag = [], []
    for rep in range(1000):
        tm, st, tr, en = generators.survival_trial(rep_rng(103, rep), 631, 0.8)
        fin_sim.append(batch.survival_log_wealth(tm, st, tr)[-1])
        tm, st, tr, en = generators.survival_trial(rep_rng(104, rep), 631, 0.8,
                                                   recruit_period=12.0)
        state = SurvivalState(risk_trt=int(tr.sum()), risk_ctrl=int((1 - tr).sum()))
        for rec in survival_records(tm - en, st, tr):
            state.step(rec)
        fin_stag.append(state.ledger.log_wealth)
    med_sim = math.exp(float(np.median(fin_sim)))
    med_stag = math.exp(float(np.median(fin_stag)))
    stag_diff = abs(med_stag - med_sim) / med_sim
    ok = ok and stag_diff < 0.20
    report("C10", ok, f"type I {null.rejection_rate:.4f}, power {alt.rejection_rate:.4f} "
                      f"(target 0.628+/-4pp), median stop {alt.median_first_crossing:.0f} "
                      f"(target 329+/-10%), staggered vs simultaneous median e "
                      f"{med_stag:.1f} vs {med_sim:.1f} ({stag_diff:.1%} < 20%)")
    assert ok


def test_c11_multistate_operating_characteristics():
    null = oc("multistate", {"n_patients": 1000, "effect": "null"}, 1000, seed=41)
    alt = oc("multistate", {"n_patients": 1000}, 1000, seed=42)
    table6 = {
        "control": np.array([0.208, 0.263, 0.188, 0.341]),
        "treatment": np.array([0.169, 0.166, 0.335, 0.330]),
    }
    sim_ctrl = day_horizon_distribution(rep_rng(43, 0), 50_000, CONTROL_DAILY)
    sim_trt = day_horizon_distribution(rep_rng(44, 0), 50_000, TREATMENT_DAILY)
    day28_err = max(np.max(np.abs(sim_ctrl - table6["control"])),
                    np.max(np.abs(sim_trt - table6["treatment"])))
    ok = (null.rejection_rate <= 0.01
          and abs(alt.rejection_rate - 0.893) <= 0.03
          and day28_err <= 0.02
          and abs(alt.median_stream_length - 2017) <= 0.10 * 2017)
    report("C11", ok, f"type I {null.rejection_rate:.4f} <= 1%, "
                      f"power {alt.rejection_rate:.4f} (target 0.893+/-3pp), "
                      f"day-28 max error {100 * day28_err:.2f}pp (<= 2pp), "
                      f"median transitions {alt.median_stream_length:.0f} (target 2017+/-10%)")
    assert ok and DEFAULT_MODEL.states == ("Ward", "ICU", "Home", "Dead")


def test_c12_wage_asymmetry():
    surv = wage_study("survival",
                      [BettingStrategy("fixed", 0.25), BettingStrategy("half-kelly")],
                      [0.80], 631, n_sims=1000, seed=101)
    surv_power = {c.strategy: c.power for c in surv}
    surv_gap = surv_power["fixed(0.25)"] - surv_power["half-kelly"]

    binary = wage_study("binary",
                        [BettingStrategy("adaptive"), BettingStrategy("fixed", 0.10)],
                        [0.05], 2942, n_sims=1000, seed=102)
    bin_cells = {c.strategy: c for c in binary}
    fixed_cell = bin_cells["fixed(0.1)"]

    cont = wage_study("continuous",
                      [BettingStrategy("adaptive"), BettingStrategy("sign-only", 0.6)],
                      [0.20], 788, n_sims=1000, seed=106)
    cont_power = {c.strategy: c.power for c in cont}

    ok = (surv_gap >= 0.10
          and fixed_cell.power < 0.30
          and fixed_cell.median_final_e < 0.01
          and cont_power["sign-only(0.6)"] < 0.25
          and cont_power["adaptive"] > 0.40)
    report("C12", ok,
           f"survival fixed-half-kelly gap {100 * surv_gap:.1f}pp (>= 10pp); "
           f"binary fixed(0.10) power {fixed_cell.power:.3f} (< 0.30), "
           f"median e {fixed_cell.median_final_e:.2e} (< 0.01); "
           f"continuous sign-only {cont_power['sign-only(0.6)']:.3f} (< 0.25) "
           f"vs adaptive {cont_power['adaptive']:.3f} (> 0.40)")
    assert ok


def test_c13_engineering_guarantees():
    # 1. checkpoint resume is bit-exact in log-wealth on fuzz streams
    from trialbet.checkpoint import dump_checkpoint, encode_state, load_checkpoint

    def fuzz_streams(variant, rng):
        if variant == "binary":
            t, y = generators.binary_trial(rng, 140, 0.3, 0.4)
            return [("step", (int(o), int(a))) for o, a in zip(y, t)]
        if variant == "deaths":
            arms = generators.death_stream(rng, 140, 0.4)
            return [("step", (int(a),)) for a in arms]
        if variant == "continuous":
            t, y = generators.continuous_trial(rng, 140, 0.4, 0.0)
            return [("step", (float(v), int(a))) for v, a in zip(y, t)]
        if variant == "survival":
            tm, st, tr, _ = generators.survival_trial(rng, 140, 0.8, censor_upper=25.0)
            return [("step", (r,)) for r in survival_records(tm, st, tr)]
        trial = generators.multistate_trial(rng, 60, TREATMENT_DAILY, CONTROL_DAILY)
        return [("step_classified", (bool(g), int(a)))
                for g, a in zip(trial.good, trial.arms)]

    def fresh_state(variant, events):
        if variant == "binary":
            return BinaryState(sched=RampSchedule(20, 40), record_steps=False)
        if variant == "deaths":
            return DeathsState(sched=RampSchedule(20, 40), record_steps=False)
        if variant == "continuous":
            return ContinuousState(sched=RampSchedule(20, 40), record_steps=False)
        if variant == "survival":
            n_trt = sum(rec.arm for _, (rec,) in events)  # the stream's own cohort
            return SurvivalState(risk_trt=n_trt, risk_ctrl=len(events) - n_trt,
                                 record_steps=False)
        return MultistateState(record_steps=False)

    ckpt_ok = True
    for variant in ("binary", "deaths", "continuous", "survival", "multistate"):
        for trial_seed in range(3):
            rng = rep_rng(900 + trial_seed, trial_seed)
            events = fuzz_streams(variant, rng)
            cut = len(events) // 2
            full = fresh_state(variant, events)
            for meth, args in events:
                getattr(full, meth)(*args)
            half = fresh_state(variant, events)
            for meth, args in events[:cut]:
                getattr(half, meth)(*args)
            doc = dump_checkpoint(variant, half, {"fuzz": trial_seed}, cut)
            resumed, _ = load_checkpoint(doc, variant, {"fuzz": trial_seed})
            for meth, args in events[cut:]:
                getattr(resumed, meth)(*args)
            ckpt_ok &= resumed.ledger.log_wealth == full.ledger.log_wealth

    # 2. prefix purity: mid-stream snapshot equals prefix-only replay
    purity_ok = True
    rng = rep_rng(901, 0)
    events = fuzz_streams("binary", rng)
    k = 70
    full = fresh_state("binary", events)
    snapshot = None
    for i, (meth, args) in enumerate(events, start=1):
        getattr(full, meth)(*args)
        if i == k:
            snapshot = encode_state(full)
    prefix = fresh_state("binary", events)
    for meth, args in events[:k]:
        getattr(prefix, meth)(*args)
    purity_ok = encode_state(prefix) == snapshot

    # 3. (scenario, seed) determinism across worker counts
    scenario = SimScenario("binary", {"n_patients": 150, "p_ctrl": 0.4, "p_trt": 0.3},
                           n_sims=50, seed=77)
    serial = run_operating_characteristics(scenario, n_workers=1)
    parallel = run_operating_characteristics(scenario, n_workers=2)
    workers_ok = serial.to_dict() == parallel.to_dict()

    ok = ckpt_ok and purity_ok and workers_ok
    report("C13", ok, f"checkpoint bit-exact: {ckpt_ok}; prefix purity: {purity_ok}; "
                      f"1-vs-2-worker determinism: {workers_ok}")
    assert ok
