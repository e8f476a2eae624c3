"""Betting-strategy policies compared by the wage-asymmetry study.

Every policy is predictable (uses past data only), so each is a valid
monitor; they differ only in power.  The study quantifies the asymmetry:
sparse-update streams (survival, deaths) tolerate aggressive fixed wagers,
dense-update streams (binary, continuous) are destroyed by them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import SIM_VARIANTS


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
        sim = SIM_VARIANTS.get(variant)
        if sim is None or sim.wage is None:
            raise ValueError(f"no strategies defined for variant {variant!r}")
        allowed = sim.wage.strategies
        if self.kind not in allowed:
            raise ValueError(f"strategy {self.kind!r} not available for {variant} "
                             f"(expected one of {sorted(allowed)})")
        if allowed[self.kind].default is None:  # a rule that takes no value
            if self.value is not None:
                raise ValueError(f"strategy {self.kind!r} takes no value")
        elif self.value is None or not 0.0 < self.value < 1.0:
            raise ValueError(f"strategy {self.kind!r} needs a value in (0,1)")

    def params(self, variant: str) -> dict:
        """The scenario parameters of ``variant``'s replay under this strategy:
        the row's defaults, overridden by those the strategy sets."""
        self.validate(variant)
        sim = SIM_VARIANTS[variant]
        return {**sim.defaults, **sim.wage.strategies[self.kind].params(self.value)}

    def label(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}({self.value:g})"
