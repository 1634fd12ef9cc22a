"""Golden ``SimulationMetrics`` of the reference implementation.

``tests/simulation/golden_reference_metrics.json`` holds, one scenario a
line, the full metrics dataclass that the scalar reference path
(``vectorize=False``: per-query ``PolynomialQuery.evaluate``, per-query
``DABAssignment.window_contains``, per-item ``Trace.at`` source loop)
produced at the commit named under ``_recorded_at`` — the last one that
shipped that path, and where the suites proved it equal to the compiled
one.  JSON floats round-trip through ``repr``, so equality is exact.
"""

import dataclasses
import json
import pathlib

from repro.simulation.metrics import SimulationMetrics

_GOLDEN = json.loads((pathlib.Path(__file__).parent / "simulation"
                      / "golden_reference_metrics.json").read_text())


def assert_matches_reference(metrics, golden_id):
    """``metrics`` equals the recorded reference run, every field."""
    want = SimulationMetrics(**_GOLDEN[golden_id])
    # Field by field so a divergence names the metric that drifted.
    for field in dataclasses.fields(want):
        assert getattr(metrics, field.name) == getattr(want, field.name), (
            f"{golden_id}: run diverged from the reference on {field.name!r}")
    assert metrics == want
