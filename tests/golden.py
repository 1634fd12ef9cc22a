"""Golden ``SimulationMetrics`` of the reference implementation.

``tests/simulation/golden_reference_metrics.json`` holds, one scenario a
line, the full metrics dataclass that the scalar reference path
(``vectorize=False``: per-query ``PolynomialQuery.evaluate``, per-query
``DABAssignment.window_contains``, per-item ``Trace.at`` source loop)
produced at the commit named under ``_recorded_at`` — the last one that
shipped that path, and where the suites proved it equal to the compiled
one.  JSON floats round-trip through ``repr``, so equality is exact.

Those runs answered every window breach with the full multi-start solve,
so they record ``delta_patches == delta_fallbacks == 0``; today a breach is
patched first.  The two counters say *how* a breach was answered, not what
was served, and are the only fields a run may differ on.

The records also carry ``bank_templates`` / ``bank_dedup_ratio``, the
structure counts of the ``shared`` bank index that no longer exists; they
are ``0`` / ``0.0`` in every record and are dropped on load
(:data:`RETIRED_FIELDS`), so the file itself never changes.
"""

import dataclasses
import json
import pathlib

from repro.simulation.metrics import SimulationMetrics

_GOLDEN = json.loads((pathlib.Path(__file__).parent / "simulation"
                      / "golden_reference_metrics.json").read_text())


#: How a breach was answered (Newton-KKT patch / full-solve fallback).
HOW_FIELDS = ("delta_patches", "delta_fallbacks")

#: Recorded fields ``SimulationMetrics`` no longer has; dropped on load
#: after checking that nothing but a zero is being thrown away.
RETIRED_FIELDS = ("bank_templates", "bank_dedup_ratio")


def reference_metrics(golden_id):
    record = dict(_GOLDEN[golden_id])
    for name in RETIRED_FIELDS:
        assert record.pop(name) == 0, (golden_id, name)
    return SimulationMetrics(**record)


def assert_matches_reference(metrics, golden_id):
    """``metrics`` equals the recorded reference run on every field but
    :data:`HOW_FIELDS`."""
    want = reference_metrics(golden_id)
    # Field by field so a divergence names the metric that drifted.
    for field in dataclasses.fields(want):
        if field.name in HOW_FIELDS:
            continue
        assert getattr(metrics, field.name) == getattr(want, field.name), (
            f"{golden_id}: run diverged from the reference on {field.name!r}")
