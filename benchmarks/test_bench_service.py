"""Live-service throughput and notify latency, in process.

Runs the ``repro loadgen`` flow fully in process — protocol messages over
``connect_loopback()`` links (no bytes), the same
:class:`CoordinatorServer` the TCP path uses — and records ticks/sec, notify-latency percentiles and
refresh/recompute counts in ``benchmarks/results/BENCH_service.json``.

The run must finish with **zero QAB violations**: every served query
value within its accuracy bound of the ground truth evaluated at the
sources' live values — the paper's guarantee, audited end to end.  A
violation fails the bench.

``REPRO_BENCH_SERVICE=smoke`` (the CI job) runs a reduced point and
leaves the committed full-scale entry untouched.
"""

from __future__ import annotations

import json
import os

from repro.service.journal import Journal
from repro.service.loadgen import run_loadgen

RESULT_NAME = "BENCH_service.json"

POINTS = {
    "smoke": dict(sources=4, queries=20, items=30, duration=20, subscribers=2),
    "full": dict(sources=8, queries=100, items=40, duration=30, subscribers=4),
}

MODE = os.environ.get("REPRO_BENCH_SERVICE", "full")
NAMES = ("smoke",) if MODE == "smoke" else ("smoke", "full")

#: records per fsync-policy point in the journal overhead micro-bench.
JOURNAL_RECORDS = 500 if MODE == "smoke" else 5000


def test_bench_service(results_dir):
    path = results_dir / RESULT_NAME
    existing = json.loads(path.read_text()) if path.exists() else {}
    for name in NAMES:
        report = run_loadgen(seed=0, **POINTS[name])
        assert report["qab_violations"] == 0, report["qab_violation_detail"]
        assert report["ticks"] > 0 and report["refreshes_sent"] > 0
        existing[name] = report
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    summary = ", ".join(
        f"{name}: {existing[name]['ticks_per_second']:.0f} ticks/s"
        for name in NAMES)
    print(f"\nservice bench ({MODE}): {summary} -> {path}")


def test_bench_journal_write_overhead(results_dir, tmp_path):
    """The durability tax: per-append wall time with fsync on vs off —
    the number a deployment trades against machine-crash durability."""
    path = results_dir / RESULT_NAME
    existing = json.loads(path.read_text()) if path.exists() else {}
    record = {"t": "refresh", "item": "x0", "value": 123.456789, "seq": 1}
    entry = {"records_per_policy": JOURNAL_RECORDS}
    for policy in ("always", "interval", "off"):
        journal = Journal(str(tmp_path / policy), fsync=policy).open()
        for seq in range(JOURNAL_RECORDS):
            journal.append(dict(record, seq=seq + 1))
        stats = journal.stats()
        journal.close()
        assert stats["records"] == JOURNAL_RECORDS
        entry[policy] = {"append_ms": stats["append_ms"],
                         "fsyncs": stats["fsyncs"],
                         "wal_bytes": stats["wal_bytes"]}
    existing["journal_write_overhead"] = entry
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    rendered = ", ".join(
        f"{policy}: p50={entry[policy]['append_ms']['p50']:.3f}ms"
        for policy in ("always", "interval", "off"))
    print(f"\njournal write overhead ({JOURNAL_RECORDS} records): "
          f"{rendered} -> {path}")
