"""Run one workload of the lazy-warehouse benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
its ``src/``.  Prints every metric by name with its unit, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics listed in ``BENCHMARK.json``
for an untraced run, its per-layer metrics for a traced one.  The full
record (all metrics, provenance, failures, spans) goes to
``.perfbench_out/``.  Workloads: explore, archive, serve, ingest.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lazybench import env  # noqa: E402

# The metrics the final JSON line carries; they match BENCHMARK.json.
END_TO_END = ["setup_s", "first_answer_s", "query_p50_ms", "throughput_qps",
              "scan_msamples_s", "peak_rss_mb"]
PER_LAYER = ["db.compile_ms", "db.plan_cache_hit_ratio",
             "db.exec.execute_self_ms", "db.recycler.hit_ratio",
             "etl.cache.hit_ratio", "etl.cache.get_calls_per_query",
             "etl.cache.evictions", "etl.mseed_adapter.extract_s"]
WORKLOADS = ("explore", "archive", "serve", "ingest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # On SIGTERM, unwind normally so that servers this run started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        env.require_program()
    except env.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from lazybench.corpus import corpus_seed, generate
    from lazybench.results import emit

    corpus = generate(args.workload, corpus_seed(args.seed), env.CACHE_DIR)
    trace = bool(args.trace)
    if args.workload == "serve":
        from lazybench.serve import serve as workload
    elif args.workload == "ingest":
        from lazybench.ingest import ingest as workload
    else:
        from lazybench import inprocess

        workload = getattr(inprocess, args.workload)
    run = workload(corpus, args.seed, args.seconds, trace)
    emit(run, args.seed, trace, PER_LAYER if trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
