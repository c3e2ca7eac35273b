"""The experiment harness: one ``run_eN`` per DESIGN.md experiment.

All functions are pure "build → measure → tabulate"; they create their
warehouses on the shared workload repositories and return an
:class:`~repro.bench.reporting.ExperimentTable` whose rows carry the same
quantities the paper (and its companion BIRTE'12 evaluation) reports.
Absolute numbers depend on this Python substrate; the *shapes* are the
reproduction target.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.bench.reporting import ExperimentTable
from repro.bench.workload import (
    SCALES,
    RepoScale,
    build_scaled_repo,
    full_stream_query,
    shared_demo_repo,
    stream_window_queries,
)
from repro.etl.metadata import Granularity
from repro.mseed.synthesize import RepositoryManifest, WaveformSynthesizer
from repro.seismology.queries import analytical_suite, fig1_query1, fig1_query2
from repro.seismology.warehouse import SeismicWarehouse
from repro.util.human import format_bytes, format_duration


def _timed(fn: Callable) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


# ---------------------------------------------------------------------------
# E1 — initial loading & time-to-first-answer
# ---------------------------------------------------------------------------


def run_e1(scales: list[str] | None = None) -> ExperimentTable:
    """Initial-load time and time-to-first-answer across repository sizes."""
    table = ExperimentTable(
        "E1", "initial loading and time to first answer (§1, §4 items 1/3)",
        ["scale", "files", "samples", "mode", "load", "first query",
         "time-to-answer"],
    )
    for name in scales or list(SCALES):
        scale = SCALES[name]
        root, manifest = build_scaled_repo(scale)
        station = manifest.entries[0].station
        channel = manifest.entries[0].channel
        probe = full_stream_query(station, channel)
        for mode in ("lazy", "eager", "external"):
            load_s, wh = _timed(lambda m=mode: SeismicWarehouse(root, mode=m))
            query_s, _ = _timed(lambda w=wh: w.query(probe))
            table.add_row(
                scale.name, scale.n_files, manifest.total_samples, mode,
                format_duration(load_s), format_duration(query_s),
                format_duration(load_s + query_s),
            )
    table.add_note(
        "lazy loads only metadata: near-instant readiness; eager pays full "
        "extraction up front; external loads nothing but re-extracts the "
        "whole repository per query."
    )
    return table


# ---------------------------------------------------------------------------
# E2 / E3 — the Figure-1 queries
# ---------------------------------------------------------------------------


def _fig1_experiment(eid: str, sql: str, title: str) -> ExperimentTable:
    root, _manifest = shared_demo_repo()
    table = ExperimentTable(
        eid, title, ["mode", "latency", "rows extracted", "files touched"],
    )
    lazy = SeismicWarehouse(root, mode="lazy")
    cold_s, _ = _timed(lambda: lazy.query(sql))
    cold_extracted = lazy.db.last_report.rows_extracted
    table.attach_report("lazy cold", lazy.db.last_report)
    cold_files = len(lazy.files_extracted_by_last_query())
    warm_s, _ = _timed(lambda: lazy.query(sql))
    warm_extracted = lazy.db.last_report.rows_extracted
    table.attach_report("lazy warm", lazy.db.last_report)

    # Cache-hit path without the plan-level recycler: extraction cache only.
    nocache = SeismicWarehouse(root, mode="lazy", enable_recycler=False)
    nocache.query(sql)
    cachehit_s, _ = _timed(lambda: nocache.query(sql))
    cachehit_extracted = nocache.db.last_report.rows_extracted

    eager = SeismicWarehouse(root, mode="eager")
    eager_s, _ = _timed(lambda: eager.query(sql))

    external = SeismicWarehouse(root, mode="external")
    external_s, _ = _timed(lambda: external.query(sql))
    external_extracted = external.db.last_report.rows_extracted

    table.add_row("lazy (cold)", format_duration(cold_s), cold_extracted,
                  cold_files)
    table.add_row("lazy (warm, recycler)", format_duration(warm_s),
                  warm_extracted, 0)
    table.add_row("lazy (warm, cache only)", format_duration(cachehit_s),
                  cachehit_extracted, 0)
    table.add_row("eager (post-load)", format_duration(eager_s), 0, 0)
    table.add_row("external", format_duration(external_s),
                  external_extracted, "all")
    table.add_note(
        "eager excludes its initial load (see E1); external re-extracts "
        "everything on every query."
    )
    return table


def run_e2() -> ExperimentTable:
    """Figure 1 Q1: the 2-second STA window at ISK.BHE."""
    return _fig1_experiment("E2", fig1_query1(),
                            "Figure 1 Q1 — short-term average (ISK, BHE)")


def run_e3() -> ExperimentTable:
    """Figure 1 Q2: min/max per NL station on BHZ."""
    return _fig1_experiment("E3", fig1_query2(),
                            "Figure 1 Q2 — min/max per NL station (BHZ)")


# ---------------------------------------------------------------------------
# E4 — storage blow-up
# ---------------------------------------------------------------------------


def run_e4() -> ExperimentTable:
    """Warehouse storage vs. the compressed repository (the ~10x claim)."""
    root, manifest = shared_demo_repo()
    table = ExperimentTable(
        "E4", "storage footprint vs repository size (§4: 'up to 10 times')",
        ["configuration", "bytes", "x repository"],
    )
    repo_bytes = manifest.total_bytes
    table.add_row("repository (Steim-2 mSEED)", format_bytes(repo_bytes), "1.00x")

    lazy = SeismicWarehouse(root, mode="lazy")
    meta_bytes = lazy.warehouse_bytes()
    table.add_row("lazy warehouse (metadata only)", format_bytes(meta_bytes),
                  f"{meta_bytes / repo_bytes:.2f}x")

    eager = SeismicWarehouse(root, mode="eager")
    eager_bytes = eager.warehouse_bytes()
    table.add_row("eager warehouse (fully loaded)", format_bytes(eager_bytes),
                  f"{eager_bytes / repo_bytes:.2f}x")

    # Lazy after the workload has touched everything: cache holds actual data.
    lazy.query(fig1_query2(network="NL"))
    lazy.query(fig1_query2(network="KO"))
    lazy.query(fig1_query2(network="GE"))
    touched_bytes = lazy.warehouse_bytes()
    table.add_row("lazy warehouse + extraction cache (after BHZ workload)",
                  format_bytes(touched_bytes),
                  f"{touched_bytes / repo_bytes:.2f}x")
    table.add_note(
        "eager materialises 8-byte timestamps plus 8-byte values per sample "
        "for ~1.3 compressed bytes per sample in the repository — the "
        "paper's order-of-magnitude blow-up."
    )
    return table


# ---------------------------------------------------------------------------
# E5 — extraction cache behaviour
# ---------------------------------------------------------------------------


def run_e5(*, queries: int = 24, policies: tuple[str, ...] = ("lru", "fifo", "cost")
           ) -> ExperimentTable:
    """Cache hit rates and latency under budget pressure and policies."""
    root, manifest = shared_demo_repo()
    workload = stream_window_queries(manifest, queries, seed=11)
    # Size the budget relative to the fully-extracted data footprint.
    probe = SeismicWarehouse(root, mode="lazy")
    for sql in workload:
        probe.query(sql)
    full_bytes = max(probe.cache.used_bytes, 1)

    table = ExperimentTable(
        "E5", "extraction cache: budget pressure and eviction policy (§3.3)",
        ["policy", "budget", "pass-1 time", "pass-2 time", "hit rate",
         "evictions"],
    )
    for policy in policies:
        for fraction in (1.0, 0.25, 0.05):
            budget = max(int(full_bytes * fraction), 64 * 1024)
            wh = SeismicWarehouse(root, mode="lazy",
                                  cache_budget_bytes=budget,
                                  cache_policy=policy,
                                  enable_recycler=False)
            pass1, _ = _timed(lambda: [wh.query(q) for q in workload])
            pass2, _ = _timed(lambda: [wh.query(q) for q in workload])
            stats = wh.cache.stats
            table.add_row(
                policy, f"{fraction:.0%}", format_duration(pass1),
                format_duration(pass2), f"{stats.hit_rate:.0%}",
                stats.evictions,
            )
    table.add_note(
        "at 100% budget the second pass is pure cache hits ('no ETL process "
        "needs to be performed'); shrinking the budget forces re-extraction."
    )
    return table


# ---------------------------------------------------------------------------
# E6 — refresh after repository updates
# ---------------------------------------------------------------------------


def _modify_files(manifest: RepositoryManifest, repo_root: str,
                  count: int) -> list[str]:
    """Overwrite ``count`` files with freshly synthesised content."""
    from repro.mseed.files import write_mseed_file
    from repro.mseed.inventory import DEFAULT_INVENTORY
    import os

    synth = WaveformSynthesizer([], seed=99)
    stations = {s.code: s for s in DEFAULT_INVENTORY}
    touched = []
    for entry in manifest.entries[:count]:
        station = stations[entry.station]
        channel = next(c for c in station.channels if c.code == entry.channel)
        samples = synth.synthesize(
            station, channel, entry.start_time_us, entry.n_samples
        )
        write_mseed_file(
            entry.path,
            network=entry.network, station=entry.station,
            location=entry.location, channel=entry.channel,
            start_time_us=entry.start_time_us,
            sample_rate=entry.sample_rate, samples=samples,
        )
        stat = os.stat(entry.path)
        os.utime(entry.path, ns=(stat.st_atime_ns,
                                 stat.st_mtime_ns + 1_000_000_000))
        touched.append(os.path.relpath(entry.path, repo_root))
    return touched


def run_e6(*, modified_files: int = 4) -> ExperimentTable:
    """Refresh cost after updating files: lazy vs eager."""
    import shutil
    import tempfile

    source_root, manifest = shared_demo_repo()
    # Private copy: this experiment mutates the repository.
    root = tempfile.mkdtemp(prefix="lazyetl-e6-")
    shutil.copytree(source_root, root, dirs_exist_ok=True)
    private = RepositoryManifest(
        root=root, spec=manifest.spec,
        entries=[
            type(e)(**{**e.__dict__,
                       "path": e.path.replace(source_root, root)})
            for e in manifest.entries
        ],
        events=manifest.events,
    )

    table = ExperimentTable(
        "E6", f"refresh after modifying {modified_files} files (§1, §3.3)",
        ["mode", "refresh", "next Q2", "rows refetched (cache+extract)"],
    )
    lazy = SeismicWarehouse(root, mode="lazy")
    eager = SeismicWarehouse(root, mode="eager")
    q2 = fig1_query2()
    lazy.query(q2)  # warm the cache so staleness has something to catch
    eager.query(q2)

    _modify_files(private, root, modified_files)

    sync_s, sync_report = _timed(lazy.sync)
    lazy_q_s, _ = _timed(lambda: lazy.query(q2))
    lazy_re = lazy.db.last_report.rows_extracted
    table.add_row("lazy (metadata sync + staleness re-extract)",
                  format_duration(sync_s), format_duration(lazy_q_s), lazy_re)

    refresh_s, refresh_report = _timed(eager.sync)
    eager_q_s, _ = _timed(lambda: eager.query(q2))
    table.add_row("eager (full re-extract of changed files)",
                  format_duration(refresh_s), format_duration(eager_q_s),
                  refresh_report.samples_reloaded)

    # Lazy without an explicit sync: the cache's mtime check alone.
    lazy2 = SeismicWarehouse(root, mode="lazy")
    lazy2.query(q2)
    _modify_files(private, root, modified_files)
    implicit_s, _ = _timed(lambda: lazy2.query(q2))
    table.add_row("lazy (no sync: query-time staleness only)",
                  "0 s", format_duration(implicit_s),
                  lazy2.db.last_report.rows_extracted)
    table.add_note(
        "lazy refresh touches only metadata and the changed files actually "
        "queried; eager must re-extract every changed file immediately."
    )
    shutil.rmtree(root, ignore_errors=True)
    return table


# ---------------------------------------------------------------------------
# E7 — cumulative crossover
# ---------------------------------------------------------------------------


def run_e7() -> ExperimentTable:
    """Cumulative time vs queries: where eager loading amortises (§3.1)."""
    root, manifest = shared_demo_repo()
    streams = sorted({(e.station, e.channel) for e in manifest.entries})
    queries = [full_stream_query(st, ch) for st, ch in streams]

    lazy_load_s, lazy = _timed(lambda: SeismicWarehouse(root, mode="lazy"))
    eager_load_s, eager = _timed(lambda: SeismicWarehouse(root, mode="eager"))

    table = ExperimentTable(
        "E7", "cumulative time to answer k distinct full-stream queries",
        ["k", "lazy cumulative", "eager cumulative", "leader"],
    )
    lazy_total = lazy_load_s
    eager_total = eager_load_s
    crossover = None
    checkpoints = {1, 2, 4, 8, 12, 18, 27, len(queries)}
    for k, sql in enumerate(queries, start=1):
        lazy_s, _ = _timed(lambda q=sql: lazy.query(q))
        eager_s, _ = _timed(lambda q=sql: eager.query(q))
        lazy_total += lazy_s
        eager_total += eager_s
        if crossover is None and eager_total < lazy_total:
            crossover = k
        if k in checkpoints:
            table.add_row(
                k, format_duration(lazy_total), format_duration(eager_total),
                "lazy" if lazy_total <= eager_total else "eager",
            )
    if crossover is None:
        table.add_note(
            "eager never catches up within this workload: every query was "
            "answered lazily before eager finished loading."
        )
    else:
        table.add_note(
            f"eager overtakes lazy after {crossover} distinct full-stream "
            "queries — the paper's worst case (§3.1) where the required "
            "subset approaches the entire repository."
        )
    return table


# ---------------------------------------------------------------------------
# E8 — the analytical suite
# ---------------------------------------------------------------------------


def run_e8() -> ExperimentTable:
    """Per-query latency for the BIRTE'12-style suite in all modes."""
    from repro.seismology.queries import suite_for_external

    root, _manifest = shared_demo_repo()
    suite = analytical_suite()
    lazy = SeismicWarehouse(root, mode="lazy")
    eager = SeismicWarehouse(root, mode="eager")
    external = SeismicWarehouse(root, mode="external")
    ext_suite = suite_for_external(suite)

    table = ExperimentTable(
        "E8", "analytical suite latency (lazy cold/warm vs eager vs external)",
        ["query", "lazy cold", "lazy warm", "eager", "external"],
    )
    for spec, ext_spec in zip(suite, ext_suite):
        cold_s, _ = _timed(lambda s=spec: lazy.query(s.sql))
        table.attach_report(f"{spec.qid} lazy cold", lazy.db.last_report)
        warm_s, _ = _timed(lambda s=spec: lazy.query(s.sql))
        table.attach_report(f"{spec.qid} lazy warm", lazy.db.last_report)
        eager_s, _ = _timed(lambda s=spec: eager.query(s.sql))
        ext_s, _ = _timed(lambda s=ext_spec: external.query(s.sql))
        table.add_row(f"{spec.qid} {spec.title[:38]}",
                      format_duration(cold_s), format_duration(warm_s),
                      format_duration(eager_s), format_duration(ext_s))
    table.add_note(
        "Q8 is metadata-only: lazy answers it without touching a single "
        "payload, external must still scan everything."
    )
    return table


# ---------------------------------------------------------------------------
# E9 — metadata granularity ablation
# ---------------------------------------------------------------------------


def run_e9() -> ExperimentTable:
    """Granularity ablation: filename vs file-header vs per-record."""
    root, _manifest = shared_demo_repo()
    q1 = fig1_query1()
    table = ExperimentTable(
        "E9", "metadata granularity: load cost vs extraction selectivity",
        ["granularity", "load", "metadata rows", "Q1 cold", "rows extracted"],
    )
    for granularity in (Granularity.FILENAME, Granularity.FILE,
                        Granularity.RECORD):
        load_s, wh = _timed(
            lambda g=granularity: SeismicWarehouse(root, mode="lazy",
                                                   granularity=g)
        )
        meta_rows = wh.query(
            "SELECT COUNT(*) FROM mseed.records").scalar()
        q1_s, _ = _timed(lambda w=wh: w.query(q1))
        table.add_row(
            granularity.value, format_duration(load_s), meta_rows,
            format_duration(q1_s), wh.db.last_report.rows_extracted,
        )
    table.add_note(
        "filename metadata is free but extracts whole files; per-record "
        "metadata costs a header scan at load time and prunes extraction "
        "down to the exact records overlapping the query window (§3)."
    )
    return table


# ---------------------------------------------------------------------------
# E10 — format micro-benchmarks
# ---------------------------------------------------------------------------


def run_e10() -> ExperimentTable:
    """Why metadata is cheap: header scans vs full decode, codec speed.

    Also measures the SQL compile path: parse/bind/optimise split for a
    cold Figure-1-style query vs a plan-cache hit, and prepared
    re-execution with rebound parameters — the hot path of repeat
    interactive queries.
    """
    import os

    from repro.mseed import steim
    from repro.mseed.files import read_file, scan_file_headers
    from repro.seismology.queries import fig1_query2_template

    root, manifest = shared_demo_repo()
    paths = [e.path for e in manifest.entries[:6]]
    total_bytes = sum(os.path.getsize(p) for p in paths)
    total_samples = sum(e.n_samples for e in manifest.entries[:6])

    scan_s, _ = _timed(lambda: [scan_file_headers(p) for p in paths])
    full_s, _ = _timed(lambda: [read_file(p) for p in paths])

    rng = np.random.default_rng(3)
    wave = np.cumsum(rng.integers(-80, 80, 200_000)).astype(np.int32)
    enc_s, _ = _timed(lambda: steim.encode_steim2(wave, 10_000))
    payload, count = steim.encode_steim2(wave, 10_000)
    dec_s, _ = _timed(lambda: steim.decode_steim2(payload, count))

    table = ExperimentTable(
        "E10", "format micro-costs: header-only scan vs full decode",
        ["operation", "volume", "time", "throughput"],
    )
    table.add_row("header-only scan (metadata path)",
                  f"{len(paths)} files / {format_bytes(total_bytes)}",
                  format_duration(scan_s),
                  f"{total_samples / max(scan_s, 1e-9):,.0f} samples/s eq.")
    table.add_row("full decode (actual-data path)",
                  f"{len(paths)} files / {total_samples} samples",
                  format_duration(full_s),
                  f"{total_samples / max(full_s, 1e-9):,.0f} samples/s")
    table.add_row("Steim-2 encode", f"{count} samples",
                  format_duration(enc_s),
                  f"{count / max(enc_s, 1e-9):,.0f} samples/s")
    table.add_row("Steim-2 decode", f"{count} samples",
                  format_duration(dec_s),
                  f"{count / max(dec_s, 1e-9):,.0f} samples/s")

    # SQL compile costs: cold parse+bind+optimise vs a plan-cache hit,
    # prepared re-execution across parameter sets (unified API tentpole).
    wh = SeismicWarehouse(root, mode="lazy")
    template = fig1_query2_template()
    cold = wh.db.open_query(template, {"network": "NL", "channel": "BHZ"})
    cold.drain()
    cold = cold.report
    warm_plans = []
    exec_times = []
    for network in ("KO", "GE", "NL"):
        run = wh.db.open_query(template,
                               {"network": network, "channel": "BHZ"})
        run.drain()
        rep = run.report
        warm_plans.append(rep.plan_s)
        exec_times.append(rep.execute_s)
    warm_plan = sum(warm_plans) / len(warm_plans)
    speedup = cold.plan_s / max(warm_plan, 1e-9)
    table.add_row(
        "SQL compile, cold (Fig-1 Q2, parameterised)",
        f"parse {cold.parse_s * 1e3:.2f} ms / bind {cold.bind_s * 1e3:.2f} ms"
        f" / optimise {cold.optimize_s * 1e3:.2f} ms",
        format_duration(cold.plan_s), "1x (baseline)",
    )
    table.add_row(
        "SQL compile, plan-cache hit (prepared re-execution)",
        f"3 re-executions, execute {format_duration(sum(exec_times))}",
        format_duration(warm_plan), f"{speedup:,.0f}x faster",
    )
    table.add_note(
        f"header scanning is {full_s / max(scan_s, 1e-9):.0f}x cheaper than "
        "decoding — the asymmetry metadata-only initial loading exploits."
    )
    table.add_note(
        f"plan-cached re-execution skips parse+bind+optimise entirely: "
        f"{speedup:,.0f}x faster on the compile portion (acceptance "
        "threshold: >= 3x); one compiled plan serves every parameter set."
    )
    return table


# ---------------------------------------------------------------------------
# E11 — persistent storage: warm starts, compression, lazy I/O
# ---------------------------------------------------------------------------


def run_e11() -> ExperimentTable:
    """Storage engine: cold vs warm start, compression ratio, page pruning."""
    import shutil
    import tempfile

    from repro.seismology.queries import fig1_query1

    root, _manifest = shared_demo_repo()
    ckpt = tempfile.mkdtemp(prefix="repro-e11-")
    try:
        table = ExperimentTable(
            "E11", "persistent storage: warm starts, compression, lazy I/O",
            ["phase", "ready-in", "query", "rows extracted",
             "pages read/skipped", "cache hits"],
        )
        q1 = fig1_query1()

        # Cold: harvest + first-query extraction, then checkpoint.
        load_s, cold = _timed(
            lambda: SeismicWarehouse(root, mode="lazy", storage_path=ckpt)
        )
        q_s, _ = _timed(lambda: cold.query(q1))
        table.add_row(
            "cold start", format_duration(load_s), format_duration(q_s),
            cold.db.last_report.rows_extracted,
            "-", cold.cache.stats.hits,
        )
        ckpt_s, entries = _timed(cold.checkpoint)

        # Warm: attach the checkpoint, answer the same query from cache.
        warm_s, warm = _timed(
            lambda: SeismicWarehouse(root, mode="lazy", storage_path=ckpt)
        )
        wq_s, _ = _timed(lambda: warm.query(q1))
        extracted_files = warm.files_extracted_by_last_query()
        report = warm.db.last_report
        table.attach_report("warm start q1", report)
        table.add_row(
            "warm start", format_duration(warm_s), format_duration(wq_s),
            f"{len(extracted_files)} files re-extracted",
            f"{report.pages_read}/{report.pages_skipped}",
            warm.cache.stats.hits,
        )

        # Column pruning: project 1 column of the file-metadata table.
        warm.query("SELECT count(*) FROM mseed.files")
        narrow = warm.db.last_report
        warm.query("SELECT * FROM mseed.files")
        wide = warm.db.last_report
        table.add_row(
            "1-column scan", "-", "-", "-",
            f"{narrow.pages_read}/{narrow.pages_skipped}", "-",
        )
        table.add_row(
            "all-column scan", "-", "-", "-",
            f"{wide.pages_read}/{wide.pages_skipped}", "-",
        )

        # Compression: checkpoint footprint vs resident warehouse bytes.
        disk = warm.store.disk_bytes()
        resident = cold.warehouse_bytes()
        table.add_row(
            "checkpoint", format_duration(ckpt_s), "-",
            f"{entries} cache entries", "-", "-",
        )
        ratio = resident / max(disk, 1)
        table.add_note(
            f"checkpoint footprint: {format_bytes(disk)} on disk vs "
            f"{format_bytes(resident)} resident — "
            + (f"{ratio:.1f}x smaller on disk." if ratio >= 1
               else f"{1 / max(ratio, 1e-9):.1f}x LARGER on disk.")
        )
        table.add_note(
            "warm start restores prior extractions from the segment "
            "snapshot: the repeated query is pure cache fetch — zero "
            "re-extraction after a process restart (§3.3: materialisation "
            "is simply caching, now durable)."
        )
        table.add_note(
            "pages read/skipped counts segment pages: a narrow projection "
            "reads only the projected columns' pages — lazy ETL extended "
            "into lazy I/O."
        )
        return table
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)


# ---------------------------------------------------------------------------
# E12 — concurrent serving: throughput, tail latency, coalescing
# ---------------------------------------------------------------------------


def _e12_queries(streams: list[tuple[str, str]], agg: str) -> list[str]:
    """One session's workload: ``agg`` over every stream (multi-file)."""
    return [
        (f"SELECT {agg}(D.sample_value), COUNT(*) FROM mseed.dataview "
         f"WHERE F.station = '{station}' AND F.channel = '{channel}'")
        for station, channel in streams
    ]


def _e12_percentile(latencies: list[float], q: float) -> float:
    from repro.service.service import latency_percentile

    return latency_percentile(latencies, q)


def run_e12(*, smoke: bool = False) -> ExperimentTable:
    """Concurrent query service: sessions share one warehouse.

    Each session runs a *distinct* aggregate (so the plan-level recycler
    cannot dedupe the work) over the *same* streams (so the record-level
    extraction ranges overlap completely).  The extraction cache budget is
    deliberately smaller than one query's extraction footprint — the
    working-set-larger-than-memory regime — which makes the single-flight
    coalescer the only mechanism that can share extraction work between
    sessions.  Serial execution is the same total workload, one query at
    a time, streams adjacent (the kindest possible ordering for a cache).
    """
    from repro.seismology.warehouse import SeismicWarehouse

    root, manifest = shared_demo_repo()
    streams = sorted({(e.station, e.channel) for e in manifest.entries})
    streams = streams[: (2 if smoke else 6)]
    aggs = ["MIN", "MAX", "AVG", "SUM"]
    tiny_budget = 64 * 1024  # << one stream's extracted footprint

    table = ExperimentTable(
        "E12",
        "concurrent serving: throughput / p99 under coalesced lazy extraction",
        ["configuration", "sessions", "queries", "throughput",
         "p50", "p99", "rows extracted", "rows shared"],
    )

    def measure_serial(cache_budget: int) -> dict:
        wh = SeismicWarehouse(root, mode="lazy",
                              cache_budget_bytes=cache_budget)
        latencies, extracted, shared, n = [], 0, 0, 0
        started = time.perf_counter()
        # Stream-adjacent order: all aggregates of one stream in a row,
        # the most cache-friendly serial schedule.
        for stream in streams:
            for agg in aggs:
                sql = _e12_queries([stream], agg)[0]
                q_s, _ = _timed(lambda s=sql: wh.query(s))
                latencies.append(q_s)
                extracted += wh.db.last_report.rows_extracted_here
                shared += wh.db.last_report.rows_coalesced
                n += 1
        return {"elapsed": time.perf_counter() - started, "n": n,
                "latencies": latencies, "extracted": extracted,
                "shared": shared}

    def measure_service(sessions: int, *, coalesce: bool, cache_budget: int,
                        extract_workers: int = 0, prewarm: bool = False
                        ) -> dict:
        wh = SeismicWarehouse(root, mode="lazy",
                              cache_budget_bytes=cache_budget)
        if prewarm:
            for agg in aggs:
                for sql in _e12_queries(streams, agg):
                    wh.query(sql)
        with wh.serve(max_workers=min(sessions, 16), coalesce=coalesce,
                      queue_depth=4096,
                      extract_workers=extract_workers) as svc:
            handles = [svc.session(f"s{i}") for i in range(sessions)]
            started = time.perf_counter()
            futures = []
            # Interleave submissions stream-major so concurrent sessions'
            # overlapping ranges are actually in flight together.
            for qi in range(len(streams)):
                for si, session in enumerate(handles):
                    sql = _e12_queries([streams[qi]], aggs[si % len(aggs)])[0]
                    futures.append(session.submit(sql))
            outcomes = [f.result() for f in futures]
            elapsed = time.perf_counter() - started
            stats = svc.stats()
        return {
            "elapsed": elapsed, "n": len(outcomes),
            "latencies": stats.latencies_s,
            "extracted": sum(o.rows_extracted_here for o in outcomes),
            "shared": sum(o.rows_coalesced for o in outcomes),
        }

    def add_row(label: str, sessions: object, run: dict) -> float:
        qps = run["n"] / max(run["elapsed"], 1e-9)
        table.add_row(
            label, sessions, run["n"], f"{qps:.1f} q/s",
            format_duration(_e12_percentile(run["latencies"], 50)),
            format_duration(_e12_percentile(run["latencies"], 99)),
            run["extracted"], run["shared"],
        )
        return qps

    serial = measure_serial(tiny_budget)
    serial_qps = add_row("serial, constrained cache", 1, serial)
    add_row("service, no coalescing, constrained cache", 4,
            measure_service(4, coalesce=False, cache_budget=tiny_budget))
    coalesced_qps = add_row(
        "service, coalescing, constrained cache", 4,
        measure_service(4, coalesce=True, cache_budget=tiny_budget))
    if not smoke:
        add_row("service, coalescing, constrained cache", 16,
                measure_service(16, coalesce=True, cache_budget=tiny_budget))
        add_row("service, coalescing + parallel extraction", 4,
                measure_service(4, coalesce=True, cache_budget=tiny_budget,
                                extract_workers=4))
    add_row("service, coalescing, warm cache", 4,
            measure_service(4, coalesce=True,
                            cache_budget=256 * 1024 * 1024, prewarm=True))
    speedup = coalesced_qps / max(serial_qps, 1e-9)
    table.add_note(
        f"4 coalesced sessions vs serial on multi-file queries: "
        f"{speedup:.1f}x throughput.  Sessions run distinct aggregates "
        "(the recycler cannot help) over the same streams; with the cache "
        "budget below one query's footprint, single-flight coalescing is "
        "the only sharing mechanism — in-flight results travel through "
        "the flight, no cache residency required."
    )
    table.add_note(
        "'rows extracted' is work done by the reporting session itself; "
        "'rows shared' arrived by waiting on another session's in-flight "
        "extraction (the per-session QueryReport distinction)."
    )
    return table


# ---------------------------------------------------------------------------
# E13 — adaptive lazy→eager promotion under a skewed workload
# ---------------------------------------------------------------------------


def run_e13(*, smoke: bool = False, rounds: int | None = None
            ) -> ExperimentTable:
    """Adaptive promotion trajectory: skewed workload, lazy vs adaptive.

    Both warehouses get an extraction cache deliberately smaller than the
    hot set (the working-set-larger-than-memory regime where pure lazy
    re-extracts every repeat) and run the same skewed workload: a small
    hot set of streams queried repeatedly plus a rotating cold query per
    round.  The adaptive side additionally owns storage and runs one
    promotion cycle per round — the heat tracker notices the hot units
    and the promoter materializes them into promoted segments, so the
    steady-state hot queries become disk-page reads instead of
    re-extraction.  The plan-level recycler is disabled on *both* sides:
    it would hide the extraction path this experiment isolates.

    Acceptance (ISSUE 5): steady-state hot-set speedup >= 2x over pure
    lazy; cold start (first query, nothing promoted yet) within 1.2x of
    pure lazy; promotion state survives checkpoint() -> warm start with
    zero re-extraction of promoted ranges.
    """
    import shutil
    import tempfile

    root, manifest = shared_demo_repo()
    streams = sorted({(e.station, e.channel) for e in manifest.entries})
    hot_streams = streams[:2]
    cold_streams = streams[2:4] if smoke else streams[2:]
    hot_sqls = [full_stream_query(st, ch) for st, ch in hot_streams]
    cold_sqls = [full_stream_query(st, ch) for st, ch in cold_streams]
    tiny_budget = 64 * 1024  # << the hot set's extracted footprint
    n_rounds = rounds if rounds is not None else (3 if smoke else 5)

    # One throwaway pass so the OS file cache is warm before any
    # measurement — both sides then see identical I/O conditions.
    prewarm = SeismicWarehouse(root, mode="lazy",
                               cache_budget_bytes=tiny_budget,
                               enable_recycler=False)
    for sql in hot_sqls:
        prewarm.query(sql)

    store_path = tempfile.mkdtemp(prefix="repro-e13-")
    try:
        lazy = SeismicWarehouse(root, mode="lazy",
                                cache_budget_bytes=tiny_budget,
                                enable_recycler=False)
        adaptive = SeismicWarehouse(root, mode="lazy",
                                    cache_budget_bytes=tiny_budget,
                                    enable_recycler=False,
                                    storage_path=store_path)

        table = ExperimentTable(
            "E13",
            "adaptive lazy→eager promotion: skewed-workload trajectory",
            ["phase", "lazy hot-set", "adaptive hot-set",
             "adaptive eager rows", "promoted units", "promoted bytes"],
        )

        # Cold start: first queries, nothing promoted yet — the adaptive
        # side must not tax the lazy grade it inherits.  Both sides do
        # the same fresh extraction and differ only by heat-tracker
        # bookkeeping, so the gate is timing-noise-dominated: take the
        # min over the hot streams on the trajectory warehouses PLUS a
        # second disposable pair, interleaved so a scheduler hiccup on a
        # shared CI runner cannot land on one side's every sample.
        lazy_samples = [_timed(lambda s=sql: lazy.query(s))[0]
                        for sql in hot_sqls]
        adaptive_samples = [_timed(lambda s=sql: adaptive.query(s))[0]
                            for sql in hot_sqls]
        spare_store = tempfile.mkdtemp(prefix="repro-e13-spare-")
        try:
            lazy2 = SeismicWarehouse(root, mode="lazy",
                                     cache_budget_bytes=tiny_budget,
                                     enable_recycler=False)
            adaptive2 = SeismicWarehouse(root, mode="lazy",
                                         cache_budget_bytes=tiny_budget,
                                         enable_recycler=False,
                                         storage_path=spare_store)
            for sql in hot_sqls:
                lazy_samples.append(_timed(lambda s=sql: lazy2.query(s))[0])
                adaptive_samples.append(
                    _timed(lambda s=sql: adaptive2.query(s))[0])
        finally:
            shutil.rmtree(spare_store, ignore_errors=True)
        lazy_cold_s = min(lazy_samples)
        adaptive_cold_s = min(adaptive_samples)
        table.add_row(
            "cold start (first query)", format_duration(lazy_cold_s),
            format_duration(adaptive_cold_s),
            adaptive.db.last_report.rows_served_eager, 0, "0 B",
        )

        def hot_pass(wh: SeismicWarehouse) -> tuple[float, int]:
            total, eager = 0.0, 0
            for sql in hot_sqls * 2:   # each hot stream hit twice a round
                q_s, _ = _timed(lambda s=sql: wh.query(s))
                total += q_s
                eager += wh.db.last_report.rows_served_eager
            return total / (2 * len(hot_sqls)), eager

        lazy_steady = adaptive_steady = 0.0
        for rnd in range(1, n_rounds + 1):
            lazy_hot_s, _ = hot_pass(lazy)
            adaptive_hot_s, eager_rows = hot_pass(adaptive)
            # The skew: one cold stream per round, then promote.
            cold_sql = cold_sqls[(rnd - 1) % len(cold_sqls)]
            lazy.query(cold_sql)
            adaptive.query(cold_sql)
            promo = adaptive.promote(budget_bytes=64 * 1024 * 1024,
                                     min_score=1.5)
            table.add_row(
                f"round {rnd} (hot x2 + 1 cold, then promote)",
                format_duration(lazy_hot_s), format_duration(adaptive_hot_s),
                eager_rows, promo.live_units, format_bytes(promo.disk_bytes),
            )
            lazy_steady, adaptive_steady = lazy_hot_s, adaptive_hot_s

        # Restart durability: promoted ranges answer with zero
        # re-extraction in a fresh process.
        adaptive.checkpoint()
        warm_s, warm = _timed(lambda: SeismicWarehouse(
            root, mode="lazy", cache_budget_bytes=tiny_budget,
            enable_recycler=False, storage_path=store_path))
        warm_q_s, _ = _timed(lambda: warm.query(hot_sqls[0]))
        warm_report = warm.db.last_report
        table.add_row(
            "warm start (new process, hot query)", "-",
            format_duration(warm_q_s), warm_report.rows_served_eager,
            len(warm.promoted), format_bytes(warm.promoted.disk_bytes()),
        )

        speedup = lazy_steady / max(adaptive_steady, 1e-9)
        cold_ratio = adaptive_cold_s / max(lazy_cold_s, 1e-9)
        table.add_note(
            f"steady-state hot-set speedup: {speedup:.1f}x vs pure lazy "
            "(acceptance: >= 2x) — promoted units serve from disk pages "
            "through the buffer pool instead of re-extracting."
        )
        table.add_note(
            f"cold-start ratio (adaptive/lazy first query): "
            f"{cold_ratio:.2f}x (acceptance: <= 1.2x) — heat tracking "
            "costs noise; nothing is promoted until the workload proves "
            "hot."
        )
        table.add_note(
            f"warm start re-extracted {warm_report.rows_extracted_here} "
            f"rows and served {warm_report.rows_served_eager} rows from "
            "promoted segments (acceptance: zero re-extraction of "
            "promoted ranges)."
        )
        table.add_note(
            "recycler disabled on both sides; extraction cache budget "
            f"{format_bytes(tiny_budget)} — far below the hot set, so "
            "pure lazy re-extracts every repeat (E7's eager-wins regime, "
            "now closed adaptively at runtime)."
        )
        # Machine-checkable acceptance values (BENCH_E13.json):
        table.add_row(
            "acceptance: speedup / cold ratio / warm re-extraction",
            f"{speedup:.2f}", f"{cold_ratio:.3f}",
            warm_report.rows_served_eager,
            warm_report.rows_extracted_here, "-",
        )
        return table
    finally:
        shutil.rmtree(store_path, ignore_errors=True)


# ---------------------------------------------------------------------------
# E15 — vectorised batch executor vs the row-at-a-time baseline
# ---------------------------------------------------------------------------


def run_e15(*, smoke: bool = False, repeats: int | None = None
            ) -> ExperimentTable:
    """Vectorised end-to-end execution vs the pre-vectorised row path.

    Baseline: ``Database.query_rowpath`` — the tuple-at-a-time reference
    interpreter (scalar expression evaluation, dict joins and grouping,
    no recycler, no zone maps) — with the Steim decoder routed through
    its scalar reference implementation.  Together they model the
    pre-vectorised engine.  The vectorised side is the ordinary query
    path: table-driven Steim decode, column-batch operators, zone-map
    page skipping.

    Workloads mirror the acceptance gates: E1's cold full-stream load
    and the two filter-heavy Figure-1 queries (E2/E3).  Every pair runs
    on fresh warehouses so both sides pay cold extraction; both sides'
    results are cross-checked row for row before timing counts.

    Acceptance (ISSUE 6): >= 5x on each workload.
    """
    from repro.mseed import steim

    root, manifest = shared_demo_repo()
    station = manifest.entries[0].station
    channel = manifest.entries[0].channel
    workloads = [
        ("cold load, full stream (E1)", full_stream_query(station, channel)),
        ("fig1 Q1 — STA window (E2)", fig1_query1()),
        ("fig1 Q2 — min/max per station (E3)", fig1_query2()),
    ]
    n_repeats = repeats if repeats is not None else (1 if smoke else 2)

    table = ExperimentTable(
        "E15",
        "vectorised batch executor vs row-at-a-time baseline (ISSUE 6)",
        ["workload", "rowpath baseline", "vectorised", "speedup", "rows"],
    )

    def fresh() -> SeismicWarehouse:
        # No recycler on either side: repeats must measure execution,
        # not result caching.
        return SeismicWarehouse(root, mode="lazy", enable_recycler=False)

    speedups: list[float] = []
    for label, sql in workloads:
        base_s = vec_s = float("inf")
        base_rows = vec_rows = None
        for _ in range(n_repeats):
            base_wh = fresh()
            with steim.reference_decoding():
                sample_s, (result, report, _trace) = _timed(
                    lambda w=base_wh, s=sql: w.db.query_rowpath(s))
            base_s = min(base_s, sample_s)
            base_rows = result.rows()
            vec_wh = fresh()
            sample_s, result = _timed(lambda w=vec_wh, s=sql: w.query(s))
            vec_s = min(vec_s, sample_s)
            vec_rows = result.rows()
        # The bench doubles as a coarse oracle: a speedup on wrong
        # answers is worthless.
        assert base_rows == vec_rows, f"row/batch divergence on {label!r}"
        speedup = base_s / max(vec_s, 1e-9)
        speedups.append(speedup)
        table.add_row(label, format_duration(base_s),
                      format_duration(vec_s), f"{speedup:.1f}x",
                      len(vec_rows))

    table.add_note(
        "baseline = query_rowpath (tuple-at-a-time interpreter) with the "
        "scalar reference Steim decoder — the pre-vectorised engine; "
        "vectorised = batch executor with table-driven Steim decode and "
        "zone maps.  Fresh warehouses per measurement: both sides pay "
        "cold extraction."
    )
    table.add_note(
        f"acceptance (ISSUE 6): >= 5x per workload; measured "
        f"{', '.join(f'{s:.1f}x' for s in speedups)}."
    )
    # Machine-checkable acceptance values (BENCH_E15.json):
    table.add_row(
        "acceptance: cold-load / Q1 / Q2 speedups",
        f"{speedups[0]:.2f}", f"{speedups[1]:.2f}", f"{speedups[2]:.2f}",
        "-",
    )
    return table


def run_e16(*, smoke: bool = False, connections: int | None = None,
            queries_per_conn: int | None = None) -> ExperimentTable:
    """The wire protocol under load: 100+ real TCP connections.

    Serves the shared demo warehouse over TCP
    (``serve(tcp_port=0, auth_tokens=...)``) and drives it with real
    concurrent connections from the asyncio client — every query pays
    framing, auth, admission, server-side cursors and codec transport —
    against an in-process baseline where the same sessions submit
    through :meth:`WarehouseService.session` directly (no socket).
    Reports p50/p95/p99 latency and aggregate throughput for both
    paths, then verifies graceful drain *under load*: live streaming
    cursors opened before ``close()`` must run to completion through
    the drain window.

    Acceptance (ISSUE 9): >= 100 concurrent connections sustained,
    zero dropped queries, drain clean under load.
    """
    import asyncio
    import threading

    from repro.net import connect_tcp, connect_tcp_async

    n_conns = connections if connections is not None else 100
    n_queries = queries_per_conn if queries_per_conn is not None \
        else (1 if smoke else 4)
    token = "bench-e16-secret"

    root, manifest = shared_demo_repo()
    station = manifest.entries[0].station
    sql = ("SELECT station, COUNT(*) AS n FROM mseed.files "
           f"WHERE station <> '{station}' GROUP BY station ORDER BY station")
    drain_sql = "SELECT sample_time, sample_value FROM mseed.dataview"

    table = ExperimentTable(
        "E16",
        "wire protocol at 100+ concurrent TCP connections (ISSUE 9)",
        ["path", "connections", "queries", "wall", "throughput",
         "p50", "p95", "p99"],
    )

    wh = SeismicWarehouse(root, mode="lazy")
    wh.query(sql)  # warm: measure serving, not first-touch extraction
    drain_rows = wh.query(drain_sql).row_count
    # A streaming cursor pins a worker while its backpressure window is
    # full, so the drain phase needs fewer live cursors than workers.
    n_drain = 6
    service = wh.serve(max_workers=8, queue_depth=4 * n_conns,
                       tcp_port=0, auth_tokens=[token],
                       tcp_drain_s=60.0)
    dropped = 0
    try:
        # -- in-process baseline: same sessions, no socket ------------------
        local_latencies: list[float] = []
        lock = threading.Lock()

        def local_worker(i: int) -> None:
            session = service.session(f"e16-local-{i}")
            mine = []
            for _ in range(n_queries):
                started = time.perf_counter()
                session.query(sql)
                mine.append(time.perf_counter() - started)
            with lock:
                local_latencies.extend(mine)

        threads = [threading.Thread(target=local_worker, args=(i,))
                   for i in range(n_conns)]
        wall_local, _ = _timed(lambda: [
            [t.start() for t in threads], [t.join() for t in threads]])

        # -- remote: real concurrent TCP connections ------------------------
        async def remote_all() -> tuple[list[float], int]:
            conns = await asyncio.gather(*[
                connect_tcp_async("127.0.0.1", service.tcp_port,
                                  token=token)
                for _ in range(n_conns)])
            failures = 0
            latencies: list[float] = []

            async def drive(conn) -> None:
                nonlocal failures
                for _ in range(n_queries):
                    started = time.perf_counter()
                    try:
                        cursor = await conn.execute(sql)
                        await cursor.fetchall()
                    except Exception:
                        failures += 1
                    else:
                        latencies.append(time.perf_counter() - started)
                await conn.close()

            # Every connection is open before the first query fires, so
            # the peak concurrency really is n_conns.
            await asyncio.gather(*[drive(c) for c in conns])
            return latencies, failures

        started = time.perf_counter()
        remote_latencies, dropped = asyncio.run(remote_all())
        wall_remote = time.perf_counter() - started

        def add_path(label: str, wall: float, lat: list[float]) -> None:
            p50, p95, p99 = np.percentile(lat, [50, 95, 99])
            table.add_row(label, n_conns, len(lat),
                          format_duration(wall),
                          f"{len(lat) / wall:.0f} q/s",
                          format_duration(p50), format_duration(p95),
                          format_duration(p99))

        add_path("in-process sessions", wall_local, local_latencies)
        add_path("remote TCP (asyncio)", wall_remote, remote_latencies)

        # -- graceful drain under load --------------------------------------
        drain_conns = [connect_tcp("127.0.0.1", service.tcp_port,
                                   token=token) for _ in range(n_drain)]
        drain_batch = 4096
        cursors = []
        for conn in drain_conns:
            cursor = conn.cursor(batch_rows=drain_batch)
            cursor.execute(drain_sql)
            # one batch fetched: the stream is live when close() lands
            first = len(cursor.fetchmany(drain_batch))
            cursors.append((cursor, first))
        fetched: list[object] = [None] * len(cursors)

        def finish(i: int) -> None:
            cursor, first = cursors[i]
            try:
                fetched[i] = first + len(cursor.fetchall())
            except Exception as exc:  # noqa: BLE001 - recorded, asserted below
                fetched[i] = exc

        finishers = [threading.Thread(target=finish, args=(i,))
                     for i in range(len(cursors))]
        for thread in finishers:
            thread.start()
        service.close()  # drain: in-flight cursors finish, then stop
        for thread in finishers:
            thread.join(timeout=120)
        for conn in drain_conns:
            conn.close()
        drain_clean = all(count == drain_rows for count in fetched)
    finally:
        service.close()
        wh.close()

    overhead = (np.percentile(remote_latencies, 50)
                / max(np.percentile(local_latencies, 50), 1e-9))
    table.add_note(
        "remote = asyncio client, every query over a real authenticated "
        "TCP connection with codec-compressed batches; baseline = the "
        "same session count submitting in-process.  Warm warehouse: "
        "both paths measure serving, not extraction."
    )
    table.add_note(
        f"wire overhead at p50: {overhead:.1f}x the in-process path; "
        f"drain under load: {len(cursors)} live streaming cursors "
        f"{'all finished' if drain_clean else 'DID NOT finish'} through "
        "close()."
    )
    table.add_note(
        f"acceptance (ISSUE 9): >= 100 concurrent connections, 0 dropped, "
        f"graceful drain under load; measured {n_conns} connections, "
        f"{dropped} dropped, drain_clean={str(drain_clean).lower()}."
    )
    # Machine-checkable acceptance values (BENCH_E16.json):
    table.add_row(
        "acceptance: connections / dropped / drain_clean",
        n_conns, dropped, str(drain_clean).lower(), "-", "-", "-", "-",
    )
    return table


# ---------------------------------------------------------------------------
# E17 — sharded scatter-gather execution (ISSUE 10)
# ---------------------------------------------------------------------------


def run_e17(*, smoke: bool = False,
            shard_counts: "tuple[int, ...] | None" = None,
            repeats: "int | None" = None) -> ExperimentTable:
    """Multi-process sharding vs the single-process engine.

    Runs one CPU-bound decomposable aggregation — full-corpus Steim
    decoding plus grouped MIN/MAX/SUM/COUNT — cold (all extraction
    caches dropped) and warm, at each shard count, and verifies every
    configuration returns the single-process result exactly (same rows,
    same float values).  The acceptance row reports the cold-path
    speedup at the highest shard count; the >= 2.5x gate only binds on
    machines with >= 4 cores (``os.cpu_count()``), since worker
    processes cannot beat the GIL without cores to run on.
    """
    import os

    counts = tuple(shard_counts) if shard_counts else (1, 2, 4)
    n_repeats = repeats if repeats is not None else (1 if smoke else 3)
    root, _manifest = shared_demo_repo()
    sql = ("SELECT F.network, COUNT(*) AS n, "
           "MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi, "
           "SUM(D.sample_value) AS total "
           "FROM mseed.dataview GROUP BY F.network ORDER BY F.network")

    table = ExperimentTable(
        "E17",
        "sharded scatter-gather execution vs single process (ISSUE 10)",
        ["configuration", "cold", "warm", "extracted", "rows/s cold",
         "identical"],
    )

    baseline_rows = None
    baseline_cold = None
    last_speedup = 1.0
    all_identical = True
    for n in counts:
        wh = SeismicWarehouse(root, mode="lazy", shards=n)
        try:
            cold_times, warm_times = [], []
            extracted = 0
            result = None
            for _ in range(n_repeats):
                if wh.sharding is not None:
                    wh.sharding.clear_caches()
                if wh.cache is not None:
                    wh.cache.clear()
                wh.db.clear_plan_cache()
                started = time.perf_counter()
                run = wh.db.open_query(sql)
                result = run.drain()
                cold_times.append(time.perf_counter() - started)
                extracted = run.report.rows_extracted
                warm, _ = _timed(lambda: wh.query(sql))
                warm_times.append(warm)
            rows = result.rows()
            if baseline_rows is None:
                baseline_rows = rows
                baseline_cold = min(cold_times)
            identical = rows == baseline_rows
            all_identical = all_identical and identical
            cold = min(cold_times)
            last_speedup = baseline_cold / cold if cold > 0 else 1.0
            table.add_row(
                f"shards={n}" + (" (single process)" if n == 1 else ""),
                format_duration(cold), format_duration(min(warm_times)),
                f"{extracted:,}",
                f"{extracted / cold:,.0f}" if cold > 0 else "-",
                "true" if identical else "FALSE",
            )
        finally:
            wh.close()

    cpu = os.cpu_count() or 1
    table.add_row(
        f"acceptance: {counts[-1]}-shard cold speedup / cpus / identical",
        f"{last_speedup:.2f}", str(cpu),
        "true" if all_identical else "FALSE", "", "")
    table.add_note(
        "cold = every extraction cache dropped (workers included); the "
        "speedup gate (>= 2.5x) binds only when os.cpu_count() >= 4")
    return table


ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentTable]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E15": run_e15,
    "E16": run_e16,
    "E17": run_e17,
}

# Reduced-parameter variants for CI smoke runs; experiments not listed
# here run at full size even in smoke mode (they are already fast).
SMOKE_EXPERIMENTS: dict[str, Callable[[], ExperimentTable]] = {
    **ALL_EXPERIMENTS,
    "E1": lambda: run_e1(["S"]),
    "E5": lambda: run_e5(queries=8, policies=("lru",)),
    "E6": lambda: run_e6(modified_files=2),
    "E12": lambda: run_e12(smoke=True),
    "E13": lambda: run_e13(smoke=True),
    "E15": lambda: run_e15(smoke=True),
    "E16": lambda: run_e16(smoke=True),
    "E17": lambda: run_e17(smoke=True),
}
