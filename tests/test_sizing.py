import pytest

from trialbet.simlab.sizing import (
    deaths_design,
    size_logrank,
    size_t_test,
    size_two_proportion,
)


class TestTwoProportion:
    @pytest.mark.parametrize("p1,p2,power,n", [
        (0.40, 0.35, 0.80, 2942),
        (0.40, 0.30, 0.80, 712),
        (0.40, 0.35, 0.90, 3938),
        (0.40, 0.30, 0.90, 954),
    ])
    def test_design_table(self, p1, p2, power, n):
        assert size_two_proportion(p1, p2, power) == n

    @pytest.mark.parametrize("baseline,n", [
        (0.10, 870), (0.15, 1372), (0.20, 1812), (0.25, 2188),
        (0.30, 2502), (0.35, 2754), (0.40, 2942),
    ])
    def test_head_to_head_designs(self, baseline, n):
        assert size_two_proportion(baseline, baseline - 0.05, 0.80) == n

    def test_degenerate_rates(self):
        with pytest.raises(ValueError):
            size_two_proportion(0.3, 0.3, 0.8)
        with pytest.raises(ValueError):
            size_two_proportion(0.0, 0.3, 0.8)


class TestTTest:
    @pytest.mark.parametrize("d,power,n", [
        (0.20, 0.80, 788),
        (0.40, 0.80, 200),
        (0.60, 0.80, 90),
        (0.20, 0.90, 1054),
        (0.40, 0.90, 266),
        (0.60, 0.90, 120),
    ])
    def test_design_table(self, d, power, n):
        assert size_t_test(d, power) == n

    @pytest.mark.parametrize("d,n", [(1.52, 16), (2.0, 12), (5.0, 6), (20.0, 4), (1e300, 4)])
    def test_large_effect(self, d, n):
        """Sized from 2 per arm up: below it the noncentral t is unsound, and
        an effect that 2 per arm detects (past d ~ 1e10 nct.sf is NaN) is 4."""
        assert size_t_test(d, 0.8) == n

    @pytest.mark.parametrize("d", [0.001, 0.0001, 1e-300])
    def test_effect_past_1e7_per_arm_is_refused(self, d):
        with pytest.raises(ValueError, match=rf"effect size d={d!r} needs more than 1e7 "):
            size_t_test(d, 0.8)

    def test_nonpositive_effect(self):
        with pytest.raises(ValueError):
            size_t_test(0.0, 0.8)
        with pytest.raises(ValueError):
            size_t_test(-0.3, 0.8)


class TestLogrank:
    def test_design_events(self):
        assert size_logrank(0.80, 0.80) == 631

    def test_cross_check_formula(self):
        # 4 * ((1.959964 + 0.841621) / ln 0.8)^2 = 630.5 -> 631
        import math
        from scipy.stats import norm
        raw = 4 * ((norm.ppf(0.975) + norm.ppf(0.80)) / math.log(0.80)) ** 2
        assert math.ceil(raw) == size_logrank(0.80, 0.80)

    def test_unit_hazard_ratio(self):
        with pytest.raises(ValueError):
            size_logrank(1.0, 0.8)


class TestDeathsDesign:
    @pytest.mark.parametrize("p_ctrl,p_trt,n_freq,n_inflated", [
        (0.15, 0.10, 1372, 3430),
        (0.15, 0.05, 282, 705),
        (0.25, 0.20, 2188, 5470),
        (0.25, 0.15, 500, 1250),
        (0.35, 0.30, 2754, 6885),
        (0.35, 0.25, 658, 1645),
    ])
    def test_inflation_table(self, p_ctrl, p_trt, n_freq, n_inflated):
        design = deaths_design(p_ctrl, p_trt)
        assert design.n_freq == n_freq
        assert design.n_patients == n_inflated

    def test_expected_death_streams(self):
        design = deaths_design(0.25, 0.15)
        assert design.deaths_null == 313   # ceil(1250/2 * 0.50)
        assert design.deaths_alt == 250    # ceil(1250/2 * 0.40)
        assert design.coin == pytest.approx(0.375)
