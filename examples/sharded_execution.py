#!/usr/bin/env python3
"""Sharded scatter-gather execution: break the GIL ceiling.

Builds a small synthetic mSEED repository and opens the same lazy
warehouse twice — single-process and with ``shards=2``.  With sharding
on, the corpus is hash-partitioned across warm worker *processes*, each
owning a full lazy warehouse over its slice.  Decomposable aggregates
run as per-shard partials plus a parent-side combine (watch EXPLAIN
render the fan-out); everything else runs the parent's own plan with
only extraction scattered to the owning shards.  Both paths answer
bit-for-bit identically to the single-process engine.

Run:  python examples/sharded_execution.py

NOTE the ``__main__`` guard below is mandatory: shard workers are
spawned (not forked), and spawn re-imports the launching module.
"""

import tempfile

from repro import SeismicWarehouse, build_repository
from repro.mseed.synthesize import RepositorySpec

SQL = """SELECT F.network, COUNT(*) AS n,
       MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi
FROM mseed.dataview GROUP BY F.network ORDER BY F.network"""


def main() -> None:
    root = tempfile.mkdtemp(prefix="lazyetl-shards-")
    print(f"1. synthesising an mSEED repository under {root} ...")
    build_repository(root, RepositorySpec(files_per_stream=2))

    print("\n2. single-process baseline ...")
    with SeismicWarehouse(root, mode="lazy") as baseline:
        expected = baseline.query(SQL).rows()
        print(f"   {expected}")

    print("\n3. the same warehouse at shards=2 "
          "(two worker processes spawn and harvest) ...")
    with SeismicWarehouse(root, mode="lazy", shards=2) as wh:
        rows = wh.query(SQL).rows()
        print(f"   {rows}")
        print(f"   identical to single-process: {rows == expected}")

        print("\n4. EXPLAIN shows the scatter-gather fan-out:")
        plan = wh.explain(SQL)
        for line in plan.splitlines():
            if "sharded" in line or line.startswith(("scatter",
                                                     "gather", "combine")):
                print(f"   {line}")

        print("\n5. sys.shards — one row per worker process:")
        for row in wh.query("SELECT shard_id, pid, alive, files, queries "
                            "FROM sys.shards ORDER BY shard_id").rows():
            print(f"   {row}")

        run = wh.db.open_query(SQL)
        run.drain()
        report = run.report
        print(f"\n6. worker-side work folds into the parent report: "
              f"rows_extracted={report.rows_extracted}")
    print("\ndone — workers drained and joined before storage teardown.")


if __name__ == "__main__":
    main()
