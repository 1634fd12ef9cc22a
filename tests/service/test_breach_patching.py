"""Window breaches through a real ``CoordinatorServer``.

The Newton-KKT patch is what answers a breach in production and the full
multi-start solve only its fallback, so both are driven here at the
service level: agents replay a 10x-volatility scenario (the
``test_recompute_modes`` shape — default traces barely break a window)
over ``connect_loopback`` links into one server, and the served values are
judged by the shared oracle, :func:`repro.invariants.check_served`, at
checkpoints along the run.  Once with the planner as shipped (first plans
and breaches patch), once with ``newton_patch`` monkeypatched to
``kkt_tol=0`` before the server is built (every patch rung declines, every
plan is the full solve's): the served-value contract is the same.
"""

import asyncio
import functools

from repro.dynamics.estimation import estimate_rates
from repro.filters import dual_dab
from repro.filters.cost_model import CostModel
from repro.filters.delta_recompute import newton_patch
from repro.invariants import check_served
from repro.service.agent import agents_for_scenario
from repro.service.client import ServiceClient
from repro.service.server import CoordinatorServer
from repro.simulation.harness import SimulationConfig, build_planner
from repro.simulation.source import assign_items_to_sources
from repro.workloads import scaled_scenario

SOURCES = 4
STEPS = 150
AUDIT_EVERY = 25


def build_server():
    """One coordinator over the volatile scenario, planned exactly as
    ``build_scenario_server`` plans (which cannot set the volatility)."""
    scenario = scaled_scenario(query_count=6, item_count=20,
                               trace_length=STEPS + 1, source_count=SOURCES,
                               seed=13, volatility=0.02)
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=5.0, source_count=SOURCES,
                              seed=13)
    items = config.used_items
    cost_model = CostModel(
        ddm=config.ddm, recompute_cost=config.recompute_cost,
        rates=estimate_rates(config.traces, config.rate_estimator, items))
    planner = build_planner(config, cost_model)
    item_to_source = assign_items_to_sources(items, SOURCES)
    server = CoordinatorServer(
        queries=config.queries, planner=planner,
        initial_values=config.traces.initial_values(items),
        item_to_source=item_to_source,
        recompute_cost=config.recompute_cost)
    return server, scenario, item_to_source


async def drive(server, scenario, item_to_source):
    """Replay the traces in ``AUDIT_EVERY``-step legs, auditing every
    served value after each; returns ``(violations, server stats)``."""
    agents = agents_for_scenario(scenario, item_to_source)
    for agent in agents.values():
        await agent.connect(server.connect_loopback())
    violations = []
    for start in range(1, STEPS + 1, AUDIT_EVERY):
        await asyncio.gather(*[
            agent.replay(scenario.traces, start_step=start,
                         max_steps=AUDIT_EVERY)
            for agent in agents.values()])
        await asyncio.sleep(0.05)      # in-flight refreshes reach the core
        auditor = ServiceClient(server.connect_loopback())
        served = await auditor.subscribe("*")
        await auditor.close()
        truth = {}
        for agent in agents.values():
            truth.update(agent.values)
        # Fault-free: nothing may be excused as degraded.
        unexcused, _, _ = check_served(truth, served, {}, scenario.queries)
        violations.extend(unexcused)
    stats = server.server_stats()
    for agent in agents.values():
        await agent.close()
    await server.close()
    return violations, stats


def test_breaches_are_patched_and_served_values_hold():
    server, scenario, item_to_source = build_server()
    violations, stats = asyncio.run(drive(server, scenario, item_to_source))
    assert violations == []
    delta = stats["delta_recompute"]
    breaches = delta["patches"] + delta["fallbacks"]
    assert breaches >= 50
    assert breaches == stats["recomputations"]
    assert delta["patches"] > 0
    assert delta["fallbacks"] <= 0.05 * breaches
    # Every first plan was answered by the linear-anchor rung, and only a
    # fallback reaches the multi-start solve.
    assert delta["cold_solves"] == len(scenario.queries)
    assert delta["multistart_solves"] == delta["fallbacks"]
    # Declined attempts: two per fallback, one per breach the anchor rung
    # answered after the last optimum declined.
    rescued = delta["reanchors"] - delta["cold_solves"]
    assert rescued >= 0
    assert sum(delta["declines"].values()) == (2 * delta["fallbacks"]
                                               + rescued)
    # Ten times newton_patch's default KKT tolerance.
    assert delta["max_residual"] <= 1e-6


def test_every_patch_declining_serves_the_same_contract(monkeypatch):
    monkeypatch.setattr(dual_dab, "newton_patch",
                        functools.partial(newton_patch, kkt_tol=0.0))
    server, scenario, item_to_source = build_server()
    violations, stats = asyncio.run(drive(server, scenario, item_to_source))
    assert violations == []
    delta = stats["delta_recompute"]
    assert delta["patches"] == 0 and delta["reanchors"] == 0
    assert delta["fallbacks"] >= 50
    assert delta["fallbacks"] == stats["recomputations"]
    assert delta["cold_solves"] == len(scenario.queries)
    assert delta["multistart_solves"] == (delta["cold_solves"]
                                          + delta["fallbacks"])
    # One declined rung per first plan (the linear anchor), two per breach
    # (the last optimum, then the anchor).
    assert delta["declines"] == {
        "main_kkt": delta["cold_solves"] + 2 * delta["fallbacks"]}
    assert delta["max_residual"] == 0.0
