"""The benchmark's one command.

    python3 -m benchmarks.perf.run [--workload W] [--seed N] [--seconds S]
                                   [--trace 0|1] [--traced] [--smoke]
                                   [--out FILE]

Without ``--workload`` every workload runs.  Each run audits
correctness, prints every metric by name with its unit, and the whole
invocation is written as one JSON to ``--out`` (default
``benchmarks/perf/results/latest.json``).  ``--trace 1`` makes the traced
pass instead of the end-to-end one; ``--traced`` makes both.  With exactly
one workload the last line of standard output is the driver's JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).

Exit status: 0 on success; 1 when an audit found a QAB violation (the
result is still printed); 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: Phase seconds and workloads of the quick check.
SMOKE_SECONDS = 6.0
SMOKE_WORKLOADS = ("steady_fanout", "breach_storm")


def _default_seconds() -> float:
    manifest = HERE.parents[1] / "BENCHMARK.json"
    return float(json.loads(manifest.read_text())["run_seconds"])


def _write_trace(raw: Dict[str, Any]) -> Path:
    from . import report

    path = RESULTS / f"trace-{raw['workload']}.json"
    report.write_json(path, {
        "workload": raw["workload"], "seed": raw["seed"],
        "clock": "time.perf_counter() seconds, shared by both processes",
        "traced_window": [raw["open"]["before"]["t"],
                          raw["open"]["after"]["t"]],
        "processes": raw["spans"],
    }, compact=True)
    return path


def run_one(name: str, seed: int, seconds: float, traced: bool,
            setups: int) -> Dict[str, Any]:
    """Run one pass of one workload, print it, return its record."""
    from . import harness, report
    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    raw = harness.run_workload(workload, seed, seconds, traced=traced,
                               setups=setups)
    result = report.outcome(raw)
    if traced:
        metrics = report.PER_LAYER
        values, counts = report.layer_values(raw)
        measured = None
        trace_file = str(_write_trace(raw))
    else:
        metrics = report.END_TO_END
        values, counts, measured = report.end_to_end_values(raw)
        trace_file = None
    late = report.late_tail_ms(raw["open"])
    valid = late is not None and late <= 1000.0 / workload.tick_rate
    title = (f"{name} seed={seed} "
             f"{'traced' if traced else 'end-to-end'} "
             f"({workload.tick_rate} ticks/s, amp {workload.amp:g}, "
             f"period {workload.period})")
    report.print_metrics(title, metrics, values, counts)
    if measured:
        print("  as measured (the timings above are at reference speed): "
              + ", ".join(f"{name} {report.format_value(value)}"
                          for name, value in measured.items()))
    print(f"  audit: {result['audit_pairs']} pairs, "
          f"{len(result['violations'])} QAB violations; operations: "
          f"{result['failed']} failed of {result['attempted']}; "
          f"generator late tail {report.format_value(late)} ms"
          f"{'' if valid else '  ** INVALID: generator fell behind **'}")
    if trace_file:
        print(f"  spans: {trace_file}")
    for violation in result["violations"][:5]:
        print(f"  VIOLATION {violation}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "parameters": {"tick_rate": workload.tick_rate, "amp": workload.amp,
                       "period": workload.period,
                       "query_count": workload.query_count,
                       "shards": workload.shards},
        "metrics": {m.name: {"value": values.get(m.name), "unit": m.unit,
                             "n": counts.get(m.name)} for m in metrics},
        "failed_share": result["failed_share"],
        "as_measured": measured,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "violations": result["violations"][:20],
        "valid": valid, "gen_late_tail_ms": late, "trace_file": trace_file,
        "setup_samples_s": [sample["seconds"]
                            for sample in raw["setup_samples"]],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="both passes: end-to-end, then traced")
    parser.add_argument("--smoke", action="store_true",
                        help="quick check: steady_fanout + breach_storm, "
                             "3 s phases, one set-up")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401  (the program under test)
        from . import harness, report
        from .workloads import WORKLOADS
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}; run "
              "from a checkout that holds src/repro", file=sys.stderr)
        return 2

    names = args.workload or list(SMOKE_WORKLOADS if args.smoke else WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {sorted(WORKLOADS)}")
    seconds = (args.seconds if args.seconds is not None
               else SMOKE_SECONDS if args.smoke else _default_seconds())
    passes = [False, True] if args.traced else [bool(args.trace)]

    # A terminated run still unwinds, so the server child is killed and
    # reaped on that path out too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    records: List[Dict[str, Any]] = []
    try:
        for name in names:
            for traced in passes:
                records.append(run_one(name, args.seed, seconds, traced,
                                       setups=1 if args.smoke else 3))
    except harness.BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report.write_json(args.out, {"runs": records})
    print(f"\nwrote {args.out}")
    if len(records) == 1:
        record = records[0]
        metrics = report.PER_LAYER if record["traced"] else report.END_TO_END
        try:
            print(report.contract_line(
                metrics, {k: v["value"] for k, v in record["metrics"].items()},
                record["correct"], record["attempted"], record["failed"]))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
