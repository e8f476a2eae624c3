"""Betting-strategy policies compared by the wage-asymmetry study.

Every policy is predictable (uses past data only), so each is a valid
monitor; they differ only in power.  The study quantifies the asymmetry:
sparse-update streams (survival, deaths) tolerate aggressive fixed wagers,
dense-update streams (binary, continuous) are destroyed by them.
"""

from __future__ import annotations

from dataclasses import dataclass

# A strategy is a set of scenario parameters for its variant's replay, built
# from the strategy's value; ``adaptive`` keeps the variant's own defaults.
_PARAMS_BY_VARIANT = {
    "survival": {"fixed": lambda v: {"lambda_max": v},
                 "half-kelly": lambda v: {"bet_rule": "half_kelly"}},
    "binary": {"adaptive": lambda v: {},
               "fixed": lambda v: {"fixed_dev": -abs(v)}},
    "continuous": {"adaptive": lambda v: {},
                   "sign-only": lambda v: {"c_max": v, "sign_only": True}},
}


@dataclass(frozen=True)
class BettingStrategy:
    """A wager policy tag plus its parameter (bet cap, deviation, or strength).

    kind:
      * ``adaptive``   - the variant's standard learning wager (no parameter)
      * ``fixed``      - prespecified magnitude: survival bet cap, or binary
                         deviation from 0.5 in the design direction
      * ``half-kelly`` - survival only: half the running score-based
                         log-hazard estimate, adaptive in magnitude
      * ``sign-only``  - continuous only: keep the sign of the running
                         effect estimate but replace its magnitude with a
                         fixed strength ``value``
    """

    kind: str
    value: float | None = None

    def validate(self, variant: str) -> None:
        allowed = _PARAMS_BY_VARIANT.get(variant)
        if allowed is None:
            raise ValueError(f"no strategies defined for variant {variant!r}")
        if self.kind not in allowed:
            raise ValueError(f"strategy {self.kind!r} not available for {variant} "
                             f"(expected one of {sorted(allowed)})")
        if self.kind in ("fixed", "sign-only"):
            if self.value is None or not 0.0 < self.value < 1.0:
                raise ValueError(f"strategy {self.kind!r} needs a value in (0,1)")

    def params(self, variant: str) -> dict:
        """The scenario parameters this strategy sets for ``variant``'s replay."""
        self.validate(variant)
        return _PARAMS_BY_VARIANT[variant][self.kind](self.value)

    def label(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}({self.value:g})"
