"""Frequentist sample-size calculators used to design the simulated trials.

These reproduce the conventional calculators the simulation studies size
against: the normal-approximation two-proportion test, the two-sample
noncentral-t power calculation, and the Schoenfeld-style event count for a
log-rank design.  Each returns a *total* count (both arms), with the per-arm
count rounded up.  scipy is imported inside the calculators, so a study that
sizes nothing (``simulate``, ``wage --n``) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..deaths import death_coin, expected_deaths

DEATHS_INFLATION = 2.5  # deaths-only design inflation over the frequentist N


def _check_design(power: float, alpha: float) -> None:
    """Power and alpha a two-sided design can be sized at: at alpha <= 2**-53,
    ``1 - alpha/2`` rounds to 1 and the critical value is infinite."""
    if not (0.0 < power < 1.0 and 0.0 < alpha < 1.0):
        raise ValueError("power and alpha must be in (0,1)")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha must be > 2**-53 to size a trial, got {alpha!r}")


def size_two_proportion(p1: float, p2: float, power: float, alpha: float = 0.05) -> int:
    """Total N (both arms) for a two-sided two-proportion z-test.

    Pooled-variance normal approximation; per-arm n is rounded up, matching
    the standard calculator this mirrors.
    """
    from scipy.stats import norm

    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{name} must be in (0,1), got {p}")
    if p1 == p2:
        raise ValueError("rates must differ")
    _check_design(power, alpha)
    z_a = norm.ppf(1.0 - alpha / 2.0)
    z_b = norm.ppf(power)
    d = abs(p1 - p2)
    pbar = (p1 + p2) / 2.0
    n = ((z_a * math.sqrt(2.0 * pbar * (1.0 - pbar))
          + z_b * math.sqrt(p1 * (1.0 - p1) + p2 * (1.0 - p2))) / d) ** 2
    return 2 * math.ceil(n)


def size_t_test(d: float, power: float, alpha: float = 0.05) -> int:
    """Total N (both arms) for a two-sided two-sample t-test at effect size ``d``.

    Solves the exact noncentral-t power equation for the continuous per-arm
    n between 2 (the smallest two-sample t-test) and 1e7, then rounds up.  An
    effect that 2 per arm already detects is sized at 4; one that needs more
    than 1e7 per arm is refused.
    """
    from scipy.optimize import brentq
    from scipy.stats import nct
    from scipy.stats import t as t_dist

    if not 0.0 < d < math.inf:  # NaN included
        raise ValueError(f"effect size must be finite and > 0, got {d}")
    _check_design(power, alpha)

    def achieved(n: float) -> float:
        nu = 2.0 * (n - 1.0)
        t_crit = t_dist.ppf(1.0 - alpha / 2.0, nu)
        return nct.sf(t_crit, nu, math.sqrt(n / 2.0) * d)

    if not achieved(2.0) < power:  # NaN as well: nct.sf fails past d ~ 1e10, where power is 1
        return 4
    if achieved(1e7) < power:
        raise ValueError(f"effect size d={d!r} needs more than 1e7 patients per arm "
                         f"at power {power!r} and alpha {alpha!r}")
    n = brentq(lambda n: achieved(n) - power, 2.0, 1e7, xtol=1e-9, rtol=1e-12)
    return 2 * math.ceil(n)


def size_logrank(target_hr: float, power: float, alpha: float = 0.05) -> int:
    """Total event count for a two-sided log-rank design at the target hazard ratio."""
    from scipy.stats import norm

    if not 0.0 < target_hr < math.inf or target_hr == 1.0:  # NaN included
        raise ValueError(f"hazard ratio must be finite, positive and != 1, got {target_hr}")
    _check_design(power, alpha)
    z_a = norm.ppf(1.0 - alpha / 2.0)
    z_b = norm.ppf(power)
    return math.ceil(4.0 * ((z_a + z_b) / math.log(target_hr)) ** 2)


@dataclass(frozen=True)
class DeathsDesign:
    """Deaths-only design: inflated enrollment and the death streams it implies."""

    n_freq: int          # frequentist two-proportion total N
    n_patients: int      # inflated enrollment for deaths-only monitoring
    deaths_null: int     # expected deaths if both arms sit at the control rate
    deaths_alt: int      # expected deaths under the alternative
    coin: float          # death-coin probability under the alternative

    def __str__(self) -> str:
        return (f"frequentist N       {self.n_freq}\n"
                f"deaths-only N       {self.n_patients}\n"
                f"expected deaths     {self.deaths_alt} (alt) / {self.deaths_null} (null)\n"
                f"death coin          {self.coin:.3f}")


def deaths_design(p_ctrl: float, p_trt: float, power: float = 0.80,
                  alpha: float = 0.05) -> DeathsDesign:
    """Size a deaths-only design by inflating the frequentist N.

    Deaths-only monitoring discards survivor information, so enrollment is
    inflated ``DEATHS_INFLATION`` times over the two-proportion design.
    """
    n_freq = size_two_proportion(p_ctrl, p_trt, power, alpha)
    n_patients = math.ceil(n_freq * DEATHS_INFLATION)
    return DeathsDesign(
        n_freq=n_freq,
        n_patients=n_patients,
        deaths_null=expected_deaths(n_patients, p_ctrl, p_ctrl),
        deaths_alt=expected_deaths(n_patients, p_ctrl, p_trt),
        coin=death_coin(p_ctrl, p_trt),
    )
