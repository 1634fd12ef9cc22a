"""Data dynamics models (ddms) and their refresh-rate estimates.

The paper (Section III-A.1 and III-A.5) estimates how many refreshes a DAB
``b`` will cause per unit time for an item with rate-of-change ``λ``:

* **monotonic** drift at uniform rate: the value crosses a width-``b``
  filter every ``b/λ`` time units ⇒ rate ``λ / b``;
* **random walk** with per-step deviation ``λ``: first exit time of a
  width-``b`` interval scales as ``(b/λ)^2`` ⇒ rate ``λ² / b²``
  (as derived in Olston & Widom's adaptive-filters work, which the paper
  cites for this model).

These estimates shape the GP objective; the simulation then measures the
*actual* refresh counts against real traces, which is how the paper shows
its "reliance on the accuracy of the ddm is low".
"""

from __future__ import annotations

import enum

from repro.exceptions import FilterError


class DataDynamicsModel(enum.Enum):
    """How data is assumed to change when estimating refresh rates."""

    MONOTONIC = "monotonic"
    RANDOM_WALK = "random_walk"

    @classmethod
    def from_string(cls, value: "DataDynamicsModel | str") -> "DataDynamicsModel":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise FilterError(f"unknown data dynamics model {value!r}; expected one of {names}")


def refresh_rate(model: DataDynamicsModel, rate_of_change: float, dab: float) -> float:
    """Estimated refreshes per unit time for one item.

    Parameters
    ----------
    model:
        The assumed ddm.
    rate_of_change:
        The item's λ (>= 0).
    dab:
        The (primary) DAB ``b > 0``.
    """
    if dab <= 0.0:
        raise FilterError(f"DAB must be positive, got {dab!r}")
    if rate_of_change < 0.0:
        raise FilterError(f"rate of change must be >= 0, got {rate_of_change!r}")
    if model is DataDynamicsModel.MONOTONIC:
        return rate_of_change / dab
    if model is DataDynamicsModel.RANDOM_WALK:
        return (rate_of_change / dab) ** 2
    raise FilterError(f"unhandled ddm {model!r}")


def refresh_rate_coefficient(model: DataDynamicsModel,
                             rate_of_change: float) -> float:
    """Coefficient of the refresh-rate monomial ``coefficient · b^exponent``
    of the GP objective: ``λ`` for the monotonic model, ``λ²`` for the
    random walk.  λ is floored at a tiny positive value so that static
    items stay inside the GP's positivity requirements without influencing
    the optimum."""
    lam = max(float(rate_of_change), 1e-12)
    if model is DataDynamicsModel.MONOTONIC:
        return lam
    if model is DataDynamicsModel.RANDOM_WALK:
        return lam * lam
    raise FilterError(f"unhandled ddm {model!r}")


def refresh_rate_exponent(model: DataDynamicsModel) -> float:
    """Exponent of the DAB in the refresh-rate monomial: ``-1`` for the
    monotonic model, ``-2`` for the random walk."""
    return -1.0 if model is DataDynamicsModel.MONOTONIC else -2.0
