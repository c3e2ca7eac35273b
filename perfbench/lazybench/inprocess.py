"""The in-process workloads: explore, archive and ingest.

Each drives the warehouse only through ``SeismicWarehouse``,
``connect()`` cursors, ``sync()`` and ``checkpoint()``.  Answers are
recorded during the run and checked against the reference afterwards,
outside every timed region; peak memory is read before the reference is
built so it counts only the program's own work.

In a traced run, rounds alternate between untraced and traced, so the
tracing overhead is measured on the same stream, and the per-layer
figures come from the traced rounds only.
"""

from __future__ import annotations

import gc
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from lazybench import queries as Q
from lazybench.corpus import SPECS
from lazybench.reference import Reference, decode_tree, normalize
from lazybench.results import Run
from lazybench.trace import Recorder

# Explore: query rounds run between two cold samples.
ROUNDS_PER_CYCLE = 2
# Cache budget for archive: well below the ~125 MB extracted working set,
# so the broad scans evict as they go.
ARCHIVE_CACHE_BYTES = 32 * 1024 * 1024


def settle() -> None:
    """Collect garbage left by earlier steps so that a timed step does not
    pay for it (run before every timed set-up and loop)."""
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- instrumentation (traced runs) ---------------------------------------------


def instrument(rec: Recorder) -> None:
    """Wrap each layer's public functions so calls record spans/counts."""
    from repro.etl.cache import ExtractionCache
    from repro.etl.heat import HeatUnit
    from repro.etl.lazy import LazyDataBinding, LazyETL
    from repro.etl.mseed_adapter import MSeedAdapter
    from repro.etl.refresh import MetadataSync
    from repro.mseed import encodings, files, records
    from repro.storage.store import TableStore

    def harvested(result):
        rec.counts["etl.metadata.records_harvested"] += len(result[1])
        if rec.inside("etl.refresh.sync") or \
                rec.inside("etl.refresh.reharvest"):
            rec.counts["etl.refresh.files_reharvested"] += 1

    def fetched(columns):
        if columns:
            rec.counts["etl.lazy.rows_fetched"] += len(
                next(iter(columns.values())))

    def decoded(samples):
        rec.counts["mseed.samples_decoded"] += len(samples)

    extract = "etl.mseed_adapter.extract"
    rec.wrap_span(MSeedAdapter, "harvest_file", "etl.metadata.harvest",
                  on_result=harvested)
    rec.wrap_span(LazyDataBinding, "fetch", "etl.lazy.fetch",
                  on_result=fetched)
    rec.wrap_span(MSeedAdapter, "extract", extract)
    rec.wrap_span(encodings, "decode_payload", "mseed.steim_decode",
                  on_result=decoded)
    # files.py and records.py each bind decode_header/decode_record by
    # name.  Header decodes count during extraction only (harvest decodes
    # one header per record it harvests).
    rec.wrap_count(files, "decode_header", "mseed.header_decodes",
                   within=extract)
    rec.wrap_count(records, "decode_header", "mseed.header_decodes",
                   within=extract)
    rec.wrap_count(files, "decode_record", "mseed.records_read",
                   within=extract)
    rec.wrap_count(ExtractionCache, "get", "etl.cache.get", timed=True)
    rec.wrap_count(ExtractionCache, "put", "etl.cache.put", timed=True)
    rec.wrap_count(HeatUnit, "decayed", "etl.heat.decayed")
    rec.wrap_span(MetadataSync, "sync", "etl.refresh.sync")
    rec.wrap_span(LazyETL, "refresh_file_metadata", "etl.refresh.reharvest")
    rec.wrap_span(TableStore, "commit", "storage.commit")
    rec.wrap_span(LazyETL, "warm_start", "storage.restore")


class Tracing:
    """Turns span recording on and off between rounds of one run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rec = Recorder() if enabled else None
        self.on = False
        self.queries = 0
        self.reports: list = []
        # Cache and recycler counter changes over the traced queries.
        self.deltas: dict[str, int] = {}

    def toggle(self, on: bool) -> None:
        if not self.enabled or on == self.on:
            return
        if on:
            instrument(self.rec)
        else:
            self.rec.unwrap()
        self.on = on

    def stop(self) -> None:
        self.toggle(False)


def _snap(wh) -> dict:
    out = dict(wh.cache.snapshot()) if wh.cache is not None else {}
    stats = wh.recycler.stats if wh.recycler is not None else None
    out["recycler_lookups"] = stats.lookups if stats else 0
    out["recycler_hits"] = stats.hits if stats else 0
    return out


class Session:
    """One closed-loop client over one warehouse."""

    def __init__(self, wh, run: Run, tracing: Tracing) -> None:
        self.wh = wh
        self.conn = wh.connect()
        self.run = run
        self.tracing = tracing

    def query(self, q: Q.Query, *, timed_kind: str = "query"):
        """Run one query to its last row; returns latency in seconds
        (``None`` if it raised)."""
        tracing = self.tracing
        traced = tracing.on
        if traced:
            before = _snap(self.wh)
            tracing.rec.qid = tracing.queries
        start = time.perf_counter()
        try:
            if traced:
                rows, report = tracing.rec.span("db.query", self._execute,
                                                q.sql)
            else:
                rows, report = self._execute(q.sql)
        except Exception as exc:  # recorded as a failed operation
            self.run.fail(q, f"{type(exc).__name__}: {exc}")
            return None
        latency = time.perf_counter() - start
        if traced:
            tracing.queries += 1
            tracing.reports.append(report)
            after = _snap(self.wh)
            for key, value in after.items():
                if isinstance(value, int) and key in before:
                    tracing.deltas[key] = tracing.deltas.get(key, 0) \
                        + value - before[key]
        self.run.answer(q, normalize(q.spec, rows), latency, timed_kind,
                        traced)
        return latency

    def _execute(self, sql: str):
        cur = self.conn.cursor()
        cur.execute(sql)
        rows = cur.fetchall()
        report = cur.report
        cur.close()
        return rows, report


def layer_metrics(tracing: Tracing, repo_bytes: int,
                  ckpt_bytes: int = 0) -> dict:
    """Per-layer figures from the traced rounds of an in-process run."""
    rec = tracing.rec
    deltas = tracing.deltas
    n = max(tracing.queries, 1)
    reports = tracing.reports
    counts = rec.counts
    records_read = counts.get("mseed.records_read", 0)
    rows_out = sum(r.rows_out for r in reports)
    execute_s = sum(r.execute_s for r in reports)
    fetch_in_exec = rec.child_total("db.query", "etl.lazy.fetch")
    harvest_s = rec.total("etl.metadata.harvest")
    harvested = counts.get("etl.metadata.records_harvested", 0)
    lookups = deltas.get("lookups", 0)
    r_lookups = deltas.get("recycler_lookups", 0)
    split = {f"split.{name}.self_s": (seconds, "s")
             for name, seconds in rec.self_split().items()}
    return split | {
        "etl.metadata.harvest_s": (harvest_s, "s"),
        "etl.metadata.records_harvested": (harvested, "count"),
        "etl.metadata.us_per_record": (
            harvest_s / harvested * 1e6 if harvested else 0.0, "us"),
        "db.compile_ms": (sum(r.plan_s for r in reports) / n * 1e3, "ms"),
        "db.plan_cache_hit_ratio": (
            sum(1 for r in reports if r.plan_cache_hit) / n, "ratio"),
        "etl.lazy.fetch_s": (rec.total("etl.lazy.fetch"), "s"),
        "etl.lazy.fetch_calls": (rec.calls("etl.lazy.fetch"), "count"),
        "etl.mseed_adapter.extract_s": (
            rec.total("etl.mseed_adapter.extract"), "s"),
        "mseed.header_decodes": (counts.get("mseed.header_decodes", 0),
                                 "count"),
        "mseed.header_decodes_per_record_read": (
            counts.get("mseed.header_decodes", 0) / records_read
            if records_read else 0.0, "ratio"),
        "mseed.steim_decode_s": (rec.total("mseed.steim_decode"), "s"),
        "mseed.samples_decoded": (counts.get("mseed.samples_decoded", 0),
                                  "count"),
        "etl.cache.get_calls_per_query": (
            counts.get("etl.cache.get", 0) / n, "count"),
        "etl.cache.hit_ratio": (
            deltas.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "etl.cache.evictions": (deltas.get("evictions", 0), "count"),
        "etl.cache.stale_drops": (deltas.get("stale_drops", 0), "count"),
        "etl.cache.busy_s": (rec.busy.get("etl.cache.get", 0.0)
                             + rec.busy.get("etl.cache.put", 0.0), "s"),
        "etl.heat.decayed_calls_per_query": (
            counts.get("etl.heat.decayed", 0) / n, "count"),
        "db.exec.execute_self_ms": (
            (execute_s - fetch_in_exec) / n * 1e3, "ms"),
        "db.exec.rows_fetched_per_row_out": (
            counts.get("etl.lazy.rows_fetched", 0) / rows_out
            if rows_out else 0.0, "ratio"),
        "db.recycler.hit_ratio": (
            deltas.get("recycler_hits", 0) / r_lookups if r_lookups
            else 0.0, "ratio"),
        "storage.checkpoint_bytes_per_repo_byte": (
            ckpt_bytes / repo_bytes if repo_bytes else 0.0, "ratio"),
        "storage.commit_s": (rec.total("storage.commit"), "s"),
        "storage.restore_s": (rec.total("storage.restore"), "s"),
        "etl.refresh.sync_s": (rec.total("etl.refresh.sync"), "s"),
        "etl.refresh.files_reharvested": (
            counts.get("etl.refresh.files_reharvested", 0), "count"),
        "trace.queries": (tracing.queries, "count"),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- explore -------------------------------------------------------------------------


def explore(corpus, seed: int, seconds: float, trace: bool) -> Run:
    """Cold samples (a fresh warehouse answering its first broad query)
    are interleaved with query rounds on one warm warehouse, so that every
    metric is sampled across the whole run."""
    from repro import SeismicWarehouse

    run = Run("explore", corpus)
    layout = Q.layout_for(SPECS["explore"])
    tracing = Tracing(trace)
    first = Q.explore_first(layout)
    rng = np.random.default_rng(seed)
    history: list[Q.Query] = []
    wh = SeismicWarehouse(corpus.root)
    run.op_ok()
    session = Session(wh, run, tracing)
    session.query(first, timed_kind="warmup")
    for q in Q.explore_round(rng, layout, history):
        session.query(q, timed_kind="warmup")

    setups, firsts = [], []
    round_time = 0.0
    cycles = 0
    loop_start = time.perf_counter()
    while cycles < 2 or time.perf_counter() - loop_start < seconds:
        tracing.toggle(trace and cycles % 2 == 1)
        settle()
        start = time.perf_counter()
        cold = SeismicWarehouse(corpus.root)
        ready = time.perf_counter() - start
        run.op_ok()
        latency = Session(cold, run, tracing).query(first,
                                                     timed_kind="first")
        cold.close()
        del cold
        setups.append(ready)
        if latency is not None:
            firsts.append(ready + latency)
        settle()
        start = time.perf_counter()
        for _ in range(ROUNDS_PER_CYCLE):
            for q in Q.explore_round(rng, layout, history):
                session.query(q)
        round_time += time.perf_counter() - start
        cycles += 1
    tracing.stop()
    run.set_loop(round_time)
    run.e2e["setup_s"] = (float(np.median(setups)), "s")
    run.e2e["first_answer_s"] = (float(np.median(firsts)), "s")
    run.e2e["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.e2e["warehouse_bytes_ratio"] = (
        wh.warehouse_bytes() / wh.repository_bytes(), "ratio")
    if trace:
        run.layer.update(layer_metrics(tracing, wh.repository_bytes()))
        run.trace_overhead()
        run.spans = tracing.rec.dump()
    wh.close()
    run.check(Reference(decode_tree(corpus.root)))
    return run


# -- archive -------------------------------------------------------------------------


def archive(corpus, seed: int, seconds: float, trace: bool) -> Run:
    """Repeats set-up -> broad scans -> checkpoint -> restart -> one
    verification query, each time on a fresh warehouse: twice, and
    more often if further repetitions fit in ``seconds``.
    Extra set-up samples (construct and close) are taken after each
    checkpoint and restart, so set-up is sampled across the run."""
    from repro import SeismicWarehouse

    run = Run("archive", corpus)
    layout = Q.layout_for(SPECS["archive"])
    rng = np.random.default_rng(seed)
    tracing = Tracing(trace)
    work = Path(tempfile.mkdtemp(prefix="archive-", dir=run.scratch_dir()))
    kw = {"cache_budget_bytes": ARCHIVE_CACHE_BYTES}

    def setup_sample() -> float:
        settle()
        start = time.perf_counter()
        SeismicWarehouse(corpus.root, **kw).close()
        run.op_ok()
        return time.perf_counter() - start

    setups: dict[bool, list[float]] = {False: [], True: []}
    passes: dict[bool, list[float]] = {False: [], True: []}
    firsts, checkpoints, restarts = [], [], []
    n_scans = 0
    ckpt_bytes = 0
    reps = 0
    loop_start = time.perf_counter()
    # At least two repetitions; another starts only if it should end
    # within ``seconds``.
    while reps < 2 or \
            (time.perf_counter() - loop_start) * (reps + 1) / reps <= seconds:
        # A traced run alternates untraced and traced repetitions.
        traced = trace and reps % 2 == 1
        tracing.toggle(traced)
        settle()
        start = time.perf_counter()
        wh = SeismicWarehouse(corpus.root, **kw)
        ready = time.perf_counter() - start
        run.op_ok()
        setups[traced].append(ready)
        session = Session(wh, run, tracing)
        scans = Q.archive_pass(rng, layout)
        pass_start = time.perf_counter()
        for index, q in enumerate(scans):
            latency = session.query(q)
            if index == 0 and latency is not None:
                firsts.append(ready + latency)
        passes[traced].append(time.perf_counter() - pass_start)
        n_scans += len(scans)
        store = work / f"ckpt{reps}"
        start = time.perf_counter()
        try:
            wh.checkpoint(storage_path=store)
            checkpoints.append(time.perf_counter() - start)
            run.op_ok()
        except Exception as exc:
            run.op_failed("checkpoint", exc)
        ratio = wh.warehouse_bytes() / wh.repository_bytes()
        repo_bytes = wh.repository_bytes()
        wh.close()
        del wh, session
        setups[traced].append(setup_sample())
        if store.exists():
            ckpt_bytes = _dir_bytes(store)
            settle()
            start = time.perf_counter()
            try:
                warm = SeismicWarehouse(corpus.root, storage_path=store, **kw)
                restarts.append(time.perf_counter() - start)
                run.op_ok()
                _net, station, channel = layout.streams[0]
                lo = layout.start_us + 600 * Q.US
                Session(warm, run, tracing).query(
                    Q.window_avg(station, channel, lo, lo + 15 * Q.US,
                                 layout), timed_kind="verify")
                warm.close()
            except Exception as exc:
                run.op_failed("restart", exc)
        setups[traced].append(setup_sample())
        reps += 1
    tracing.stop()
    run.set_loop(sum(passes[False]) + sum(passes[True]), queries=n_scans)
    run.e2e["setup_s"] = (float(np.median(setups[False])), "s")
    run.e2e["first_answer_s"] = (float(np.median(firsts)), "s")
    run.e2e["checkpoint_s"] = (float(np.median(checkpoints)), "s")
    run.e2e["restart_s"] = (float(np.median(restarts)), "s")
    run.e2e["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.e2e["warehouse_bytes_ratio"] = (ratio, "ratio")
    if trace:
        run.layer.update(layer_metrics(tracing, repo_bytes, ckpt_bytes))
        run.layer["trace.overhead_pass_pct"] = (
            (np.median(passes[True]) / np.median(passes[False]) - 1.0)
            * 100, "%")
        run.spans = tracing.rec.dump()
    shutil.rmtree(work, ignore_errors=True)
    run.check(Reference(decode_tree(corpus.root)))
    return run
