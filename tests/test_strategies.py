import numpy as np
import pytest

from trialbet.simlab import batch
from trialbet.simlab.engine import rep_rng
from trialbet.simlab.generators import survival_trial
from trialbet.simlab.scenario import SIM_VARIANTS, SimScenario
from trialbet.simlab.strategies import BettingStrategy


class TestValidation:
    def test_survival_strategies(self):
        BettingStrategy("fixed", 0.25).validate("survival")
        BettingStrategy("half-kelly").validate("survival")
        with pytest.raises(ValueError):
            BettingStrategy("adaptive").validate("survival")

    def test_parameter_required(self):
        with pytest.raises(ValueError, match="needs a value"):
            BettingStrategy("fixed").validate("binary")
        with pytest.raises(ValueError, match="needs a value"):
            BettingStrategy("sign-only", 1.5).validate("continuous")

    def test_value_refused_where_the_rule_takes_none(self):
        """A value on a rule without one would be reported as a cell of its
        own, identical to the plain rule."""
        with pytest.raises(ValueError, match="'adaptive' takes no value"):
            BettingStrategy("adaptive", 0.3).validate("binary")
        with pytest.raises(ValueError, match="'half-kelly' takes no value"):
            BettingStrategy("half-kelly", 0.2).validate("survival")
        BettingStrategy("adaptive").validate("continuous")

    def test_labels(self):
        assert BettingStrategy("adaptive").label() == "adaptive"
        assert BettingStrategy("fixed", 0.25).label() == "fixed(0.25)"


def test_half_kelly_bet_tracks_log_hazard():
    """On a strong protective stream the half-Kelly survival bet settles near
    half the true log hazard ratio in magnitude."""
    rng = np.random.default_rng(12)
    hr = 0.80
    time, status, t, _ = survival_trial(rng, 4000, hr=hr)
    order = np.argsort(time, kind="stable")
    t_s = t[order]
    n = len(t_s)
    idx = np.arange(1, n + 1)
    risk1 = int(t_s.sum()) - np.concatenate([[0], np.cumsum(t_s)[:-1]])
    risk0 = int((1 - t_s).sum()) - np.concatenate([[0], np.cumsum(1 - t_s)[:-1]])
    p = risk1 / np.maximum(risk1 + risk0, 1)
    u = t_s - p
    z = np.cumsum(u)
    v = np.cumsum(p * (1 - p))
    late = slice(2000, 3500)  # estimator well past its noisy start
    est = 0.5 * z[late] / v[late]
    assert np.median(np.abs(est)) == pytest.approx(0.5 * abs(np.log(hr)), abs=0.06)
    assert idx[-1] == n


def test_half_kelly_rule_is_bounded_and_martingale_safe():
    rng = np.random.default_rng(13)
    time, status, t, _ = survival_trial(rng, 500, hr=0.5)
    logw = batch.survival_log_wealth(time, status, t, bet_rule="half_kelly")
    # multiplier 1 + b*u with |b| <= 0.5, |u| <= 1 keeps wealth positive
    assert np.all(np.isfinite(logw))


def test_unknown_bet_rule_rejected():
    rng = np.random.default_rng(14)
    time, status, t, _ = survival_trial(rng, 50)
    with pytest.raises(ValueError, match="unknown bet_rule"):
        batch.survival_log_wealth(time, status, t, bet_rule="kelly^2")


def _same(a, b) -> bool:
    """Equal prepared trials: tuples (raw trials, prepared records) element by
    element, arrays bit for bit."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


_TRIAL_PARAMS = {"binary": {"n_patients": 300, "p_ctrl": 0.4, "p_trt": 0.3},
                 "survival": {"n_patients": 300, "hr": 0.7, "censor_upper": 20.0},
                 "continuous": {"n_patients": 300, "mu_trt": 0.3}}


@pytest.mark.parametrize("variant,kind", [(v, kind) for v, sim in SIM_VARIANTS.items() if sim.wage
                                          for kind in sim.wage.strategies])
def test_strategy_never_changes_what_is_prepared(variant, kind):
    """The wage study prepares a trial once for all strategies, which holds only
    if no strategy parameter reaches ``prepare``."""
    sim = SIM_VARIANTS[variant]
    params = SimScenario(variant, _TRIAL_PARAMS[variant]).params
    strategy = BettingStrategy(kind, 0.3 if kind in ("fixed", "sign-only") else None)
    overridden = strategy.params(variant)
    for rep in range(3):
        data = sim.generate(rep_rng(5, rep), params)
        assert _same(sim.prepare(data, sim.defaults), sim.prepare(data, overridden))


@pytest.mark.parametrize("variant", sorted(SIM_VARIANTS))
def test_strategy_parameters_belong_to_their_variant(variant):
    """Every key a strategy sets is a scenario parameter of its variant."""
    wage = SIM_VARIANTS[variant].wage
    rules = wage.strategies.values() if wage else ()
    set_keys = {key for rule in rules for key in rule.params(0.3)}
    assert set_keys <= set(SIM_VARIANTS[variant].params)
