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
two fidelity samples each way at an unchanged mean.  Every record
but ``optimal-refresh-13``/``-29`` and ``core-extraction`` (Optimal
Refresh: no μ·R row) was re-recorded when the coordinator began planning
a query's μ·R row at μ/2 until its secondary window is first left, then
at μ (DESIGN.md §4).  What moved: ``dual-dab-13`` refreshes 264 → 254
and user notifications 7 → 5; ``dual-dab-29`` refreshes 286 → 279;
``zero-delay`` refreshes 264 → 254, notifications 7 → 6; ``random-walk``
recomputations 7 → 8 (``portfolio1`` 1 → 2), DAB changes 17 → 18;
``arbitrage`` refreshes 765 → 760 (the Different-Sum mirror takes the
query's price), notifications 45 → 31; ``faulted`` refreshes 260 → 246
with its fault counters following the traffic; ``recompute-full``
refreshes 2 447 → 2 446, recomputations 48 → 56, fidelity loss
0.219 % → 0.0 %; ``dissemination-pareto`` recomputations 39 → 41,
fidelity loss 1.61 % → 2.15 %; ``dissemination-pareto-faulted``
refreshes 4 811 → 4 802, recomputations 40 → 46, fidelity loss
23.7 % → 29.6 %.  CHANGES.md has the per-field table.
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
