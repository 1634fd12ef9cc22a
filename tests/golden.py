"""Golden ``SimulationMetrics`` of the shipped simulator.

``tests/simulation/golden_reference_metrics.json`` holds, one scenario a
line, the full metrics dataclass of each pinned run, recorded from the
compiled evaluation path once every planner stack priced each item at its
per-update λ (the whole-trace mean of ``|Δvalue|`` sampled at every
update, not every 60 ticks) and planned at the item values it was given:
no quantising plan cache in front of any stack, dual-DAB plans patched
through their start ladder, and Optimal-Refresh plans patched from each
query's last optimum.  ``_recorded_at`` names that tree.  Earlier records
came from the scalar reference path behind a plan cache that solved at
values rounded up to a 2 % grid; that path's one cache-free record equaled
the 60-tick-λ tree's ``dual-dab-13`` on every field but the two below.
``faulted`` was re-recorded once more, when the simulator took on the live
server's source-plane rules (one set of lease/retry tables, DESIGN.md
§7.2); every move in it comes from re-probing on every heartbeat whose
sequence number is ahead of the coordinator's.  ``dissemination-pareto-
faulted`` was re-recorded when the Fig. 8(c) root began applying each
child's bounds newest-epoch-first (the DAB receiver rule, DESIGN.md
§7.2): refreshes 4 812 → 4 811, recomputations 39 → 40 (``portfolio2``
6 → 7), user notifications 747 → 723, and four per-query losses traded
two fidelity samples each way at an unchanged mean.
JSON floats round-trip through ``repr``, so equality is exact.

``delta_patches`` / ``delta_fallbacks`` say *how* a recompute was answered
(Newton-KKT patch / full solve), not what was served, and are the only
fields a run may differ on.
"""

import dataclasses
import json
import pathlib

from repro.simulation.metrics import SimulationMetrics

_GOLDEN = json.loads((pathlib.Path(__file__).parent / "simulation"
                      / "golden_reference_metrics.json").read_text())


#: How a recompute was answered (Newton-KKT patch / full-solve fallback).
HOW_FIELDS = ("delta_patches", "delta_fallbacks")


def reference_metrics(golden_id):
    return SimulationMetrics(**_GOLDEN[golden_id])


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
