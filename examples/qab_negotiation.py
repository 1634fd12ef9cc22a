"""QAB renegotiation via GP sensitivity analysis (extension).

Operators face the question the paper's framework poses but never
automates: *which user's accuracy bound is worth renegotiating?*  The GP
duality answer is free at solve time — the multiplier of a query's QAB
constraint is the percentage message-rate saving per percent of bound
relaxation.

This example plans several portfolio queries, ranks them by that
elasticity, then verifies the top prediction by actually re-planning with
a relaxed bound.

Run:  python examples/qab_negotiation.py
"""

from repro import CostModel, estimate_rates, scaled_scenario
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.gp.sensitivity import analyze_compiled


def main() -> None:
    scenario = scaled_scenario(query_count=6, item_count=30, trace_length=201,
                               seed=99)
    values = scenario.initial_values
    model = CostModel(rates=estimate_rates(scenario.traces), recompute_cost=5.0)

    print("per-query QAB elasticity (message-rate % saved per % of bound "
          "relaxation):\n")
    print(f"{'query':>12s} {'objective':>11s} {'qab multiplier':>15s}")
    elasticities = {}
    solutions = {}
    for query in scenario.queries:
        template = CompiledDualDabTemplate(query, values, model)
        solution = template.solve(values)
        report = analyze_compiled(template.compiled, solution.values)
        nu = report.multipliers.get("qab", 0.0)
        elasticities[query.name] = nu
        solutions[query.name] = (solution, report)
        print(f"{query.name:>12s} {solution.objective:11.4f} {nu:15.4f}")

    best = max(elasticities, key=elasticities.get)
    solution, report = solutions[best]
    print(f"\nmost renegotiable bound: {best} "
          f"(multiplier {elasticities[best]:.3f})")

    # Verify the first-order prediction against an actual re-solve.
    query = next(q for q in scenario.queries if q.name == best)
    relaxed = query.with_qab(query.qab * 1.25, name=f"{best}_relaxed")
    relaxed_solution = CompiledDualDabTemplate(relaxed, values, model).solve(values)
    predicted = report.predicted_relative_change("qab", 1.25)
    actual = relaxed_solution.objective / solution.objective - 1.0
    print(f"relax {best}'s QAB by 25%:")
    print(f"  predicted objective change: {100 * predicted:+.2f}%")
    print(f"  actual objective change:    {100 * actual:+.2f}%")
    print("\nGP duality prices every accuracy bound — no sweep needed.")


if __name__ == "__main__":
    main()
