"""The cost model shared by all planners.

Bundles the three inputs every formulation needs:

* the data dynamics model (monotonic / random walk),
* per-item rate-of-change estimates λ,
* the recomputation cost μ (the paper's ``W``/``mu``) — how many messages
  one DAB recomputation is worth (Section III-A.3 works an example
  arriving at μ = 10 for a 5-source dissemination network).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Union

from repro.exceptions import FilterError
from repro.dynamics.models import DataDynamicsModel, refresh_rate

#: λ for items the estimator knows nothing about.
DEFAULT_RATE = 1.0


@dataclass
class CostModel:
    """Inputs to the GP objectives.

    Parameters
    ----------
    ddm:
        Data dynamics model, a :class:`DataDynamicsModel` or its string value.
    rates:
        ``item -> λ``.  Missing items fall back to ``default_rate`` (the
        λ = 1 configuration of Figure 6 is expressed by passing an empty
        map and ``default_rate=1``).
    recompute_cost:
        μ >= 0 — one recomputation costs this many messages.
    default_rate:
        λ used for unknown items.
    """

    ddm: Union[DataDynamicsModel, str] = DataDynamicsModel.MONOTONIC
    rates: Dict[str, float] = field(default_factory=dict)
    recompute_cost: float = 1.0
    default_rate: float = DEFAULT_RATE

    def __post_init__(self) -> None:
        self.ddm = DataDynamicsModel.from_string(self.ddm)
        if self.recompute_cost < 0.0:
            raise FilterError(f"recomputation cost must be >= 0, got {self.recompute_cost!r}")
        if self.default_rate <= 0.0:
            raise FilterError(f"default rate must be positive, got {self.default_rate!r}")
        cleaned = {}
        for name, value in self.rates.items():
            rate = float(value)
            if rate < 0.0:
                raise FilterError(f"rate for {name!r} must be >= 0, got {value!r}")
            cleaned[name] = rate
        self.rates = cleaned

    # -- lookups -----------------------------------------------------------------

    def rate_of(self, item: str) -> float:
        """λ for ``item`` (the default for unknown items, floored > 0)."""
        rate = self.rates.get(item, self.default_rate)
        # Zero-rate items would make the GP objective ignore their DABs and
        # drive bounds to infinity; floor keeps them harmless but present.
        return max(rate, 1e-9)

    # -- numeric estimates -----------------------------------------------------------

    def estimated_refresh_rate(self, primary: Mapping[str, float]) -> float:
        """Model-predicted refreshes per unit time for a primary-DAB map."""
        return sum(
            refresh_rate(self.ddm, self.rate_of(name), bound)
            for name, bound in primary.items()
        )

    def estimated_recompute_rate(self, secondary: Mapping[str, float]) -> float:
        """Model-predicted recomputations per unit time (max over items)."""
        if not secondary:
            return 0.0
        return max(
            refresh_rate(self.ddm, self.rate_of(name), bound)
            for name, bound in secondary.items()
        )

    def total_cost(self, refreshes: float, recomputations: float) -> float:
        """The paper's total-cost metric: refreshes + μ · recomputations."""
        return refreshes + self.recompute_cost * recomputations

    def with_recompute_cost(self, recompute_cost: float) -> "CostModel":
        """A copy of this model with a different μ (rates shared by value)."""
        return CostModel(
            ddm=self.ddm,
            rates=dict(self.rates),
            recompute_cost=recompute_cost,
            default_rate=self.default_rate,
        )
