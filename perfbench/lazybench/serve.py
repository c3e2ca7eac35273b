"""The serve workload: ``repro-serve`` over TCP with shard workers.

The server runs as ``python -m repro.net.cli --workers 2 --shards 2``
over its own corpus.  One load process (this one) drives ``nproc``
connections made with ``connect_tcp_async`` from a single asyncio loop,
each a closed loop over its own seeded stream.  It is the only workload
that crosses admission control, wire frames and codecs, server-side
cursors and the shard transport.

Per-layer figures come from outside the server: ``sys.queries``,
``sys.shards`` and ``sys.connections`` read over the wire, and
``/metrics`` read over HTTP, each before and after the timed loop, plus
client-side spans around the network client calls.
"""

from __future__ import annotations

import asyncio
import os
import secrets
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

from lazybench import env
from lazybench import queries as Q
from lazybench.corpus import SPECS
from lazybench.reference import Reference, decode_tree, normalize
from lazybench.results import Run
from lazybench.trace import Recorder

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
CONNECTIONS = max(2, min(os.cpu_count() or 2, 4))


class Server:
    """One ``repro-serve`` subprocess."""

    def __init__(self, repo: Path, token: str, log: Path) -> None:
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.cli", "--repo", str(repo),
             "--workers", "2", "--shards", "2", "--tcp-port", "0",
             "--http-port", "0", "--auth-token", f"bench={token}"],
            env=env.child_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        self.tcp = self.http = None

    def wait_ready(self) -> float:
        """Seconds from launch to the ready line."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("repro-serve: ready"):
                ready = time.perf_counter() - self.started
                fields = dict(part.split("=", 1) for part in line.split()
                              if "=" in part)
                host, port = fields["tcp"].rsplit(":", 1)
                self.tcp = (host, int(port))
                self.http = fields["http"]
                return ready
        self.stop()
        raise RuntimeError("repro-serve exited before its ready line")

    def metrics(self) -> dict[str, float]:
        """``/metrics`` as ``{series: value}`` (label sets summed)."""
        with urllib.request.urlopen(f"http://{self.http}/metrics",
                                    timeout=30) as resp:
            text = resp.read().decode()
        out: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            try:
                value = float(line.rsplit(" ", 1)[1])
            except ValueError:
                continue
            out[name] = out.get(name, 0.0) + value
        return out

    def peak_rss_mb(self, pids: list[int]) -> float:
        """High-water RSS of the server and its shard workers."""
        total_kb = 0
        for pid in [self.proc.pid] + pids:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


async def _connect(server: Server, token: str):
    from repro import connect_tcp_async

    host, port = server.tcp
    return await connect_tcp_async(host, port, token=token)


async def _sys_rows(conn, sql: str) -> list[tuple]:
    cur = await conn.execute(sql)
    rows = await cur.fetchall()
    await cur.close()
    return rows


class Client:
    """One closed-loop connection."""

    def __init__(self, conn, run: Run, rec: Recorder | None) -> None:
        self.conn = conn
        self.run = run
        self.rec = rec
        self.traced = False
        self.rows = 0
        self.queries = 0

    async def query(self, q: Q.Query, kind: str = "query"):
        traced = self.traced and self.rec is not None
        start = time.perf_counter()
        try:
            cur = await self.conn.execute(q.sql)
            opened = time.perf_counter()
            rows = await cur.fetchall()
            end = time.perf_counter()
            await cur.close()
        except Exception as exc:  # recorded as a failed operation
            self.run.fail(q, f"{type(exc).__name__}: {exc}")
            return None
        if traced:
            self.rec.add_span("net.client_execute", start, opened)
            self.rec.add_span("net.client_fetch", opened, end)
        if kind == "query":
            self.rows += len(rows)
            self.queries += 1
        self.run.answer(q, normalize(q.spec, rows), end - start, kind,
                        traced)
        return end - start


async def _first_answer(server: Server, token: str, q: Q.Query,
                        run: Run) -> float:
    conn = await _connect(server, token)
    try:
        latency = await Client(conn, run, None).query(q, kind="first")
    finally:
        await conn.close()
    if latency is None:
        raise RuntimeError("the first query over the wire failed")
    return time.perf_counter() - server.started


async def _load(server, token, run, seed, seconds, layout, rec, trace):
    clients = [Client(await _connect(server, token), run, rec)
               for _ in range(CONNECTIONS)]
    rngs = [np.random.default_rng([seed, i]) for i in range(CONNECTIONS)]
    try:
        await asyncio.gather(*(
            _warm(c, Q.serve_round(rng, layout))
            for c, rng in zip(clients, rngs)))
        admin = await _connect(server, token)
        before = await _snapshot(server, admin)
        start = time.perf_counter()
        await asyncio.gather(*(
            _closed_loop(c, rng, layout, start, seconds, trace)
            for c, rng in zip(clients, rngs)))
        elapsed = time.perf_counter() - start
        after = await _snapshot(server, admin)
        queries = await _sys_rows(
            admin, "SELECT id, sql, queued_s, parse_s, bind_s, optimize_s, "
                   "execute_s, plan_cache_hit, rows_coalesced "
                   "FROM sys.queries")
        await admin.close()
    finally:
        for c in clients:
            await c.conn.close()
    return clients, elapsed, before, after, queries


async def _warm(client: Client, stream):
    for q in stream:
        await client.query(q, kind="warmup")


async def _closed_loop(client, rng, layout, start, seconds, trace):
    rounds = 0
    while time.perf_counter() - start < seconds:
        client.traced = trace and rounds % 2 == 1
        for q in Q.serve_round(rng, layout):
            await client.query(q)
        rounds += 1


async def _snapshot(server: Server, admin) -> dict:
    metrics = await asyncio.to_thread(server.metrics)
    shards = await _sys_rows(
        admin, "SELECT shard_id, pid, extracts, rows_extracted, restarts "
               "FROM sys.shards")
    conns = await _sys_rows(admin, "SELECT bytes_out FROM sys.connections")
    [(max_id,)] = await _sys_rows(admin, "SELECT MAX(id) FROM sys.queries")
    return {"metrics": metrics, "shards": shards,
            "bytes_out": sum(r[0] for r in conns), "max_id": max_id or 0}


def _launch(corpus, token, log, first, run) -> tuple[Server, float, float]:
    """Start a server; returns it with its set-up and first-answer times."""
    server = Server(corpus.root, token, log)
    try:
        ready = server.wait_ready()
        answered = asyncio.run(_first_answer(server, token, first, run))
    except Exception:
        server.stop()
        raise
    run.op_ok()
    return server, ready, answered


def serve(corpus, seed: int, seconds: float, trace: bool) -> Run:
    """Launches are sampled before and after the load: a throwaway
    server, then the server under load, then another throwaway."""
    run = Run("serve", corpus)
    layout = Q.layout_for(SPECS["serve"])
    token = secrets.token_hex(16)
    log = Run.scratch_dir() / f"serve-s{seed}.log"
    first = Q.explore_first(layout)
    setups, firsts = [], []

    def sample() -> None:
        server, ready, answered = _launch(corpus, token, log, first, run)
        server.stop()
        setups.append(ready)
        firsts.append(answered)

    sample()
    server, ready, answered = _launch(corpus, token, log, first, run)
    setups.append(ready)
    firsts.append(answered)
    rec = Recorder() if trace else None
    try:
        if rec is not None:
            from repro.net.aio import AsyncConnection

            rec.wrap_count(AsyncConnection, "_request_fetch",
                           "net.fetch_round_trips")
        clients, elapsed, before, after, journal = asyncio.run(
            _load(server, token, run, seed, seconds, layout, rec, trace))
        rss = server.peak_rss_mb([row[1] for row in after["shards"]])
    finally:
        if rec is not None:
            rec.unwrap()
        server.stop()
    sample()
    run.set_loop(elapsed, queries=sum(c.queries for c in clients))
    run.e2e["setup_s"] = (float(np.median(setups)), "s")
    run.e2e["first_answer_s"] = (float(np.median(firsts)), "s")
    run.e2e["peak_rss_mb"] = (rss, "MiB")
    if trace:
        run.layer.update(_layer_metrics(rec, clients, before, after,
                                        journal))
        run.trace_overhead()
        run.spans = rec.dump()
    run.check(Reference(decode_tree(corpus.root)))
    return run


def _layer_metrics(rec, clients, before, after, journal) -> dict:
    m0, m1 = before["metrics"], after["metrics"]

    def delta(name: str) -> float:
        return m1.get(name, 0.0) - m0.get(name, 0.0)

    rows = [r for r in journal
            if r[0] > before["max_id"] and "sys." not in r[1]]
    n = max(len(rows), 1)
    client_queries = max(sum(c.queries for c in clients), 1)
    client_rows = sum(c.rows for c in clients)
    extract_s = delta("repro_extract_seconds_sum")
    execute_s = sum(r[6] for r in rows)
    lookups = delta("repro_cache_lookups_total")
    r_lookups = delta("repro_recycler_lookups_total")
    decomposed = delta("repro_shard_plans_decomposed_total")
    fallback = delta("repro_shard_plans_fallback_total")
    shard0 = {r[0]: r for r in before["shards"]}
    shard_extracts = sum(r[2] - shard0.get(r[0], r)[2] for r in after["shards"])
    shard_rows = sum(r[3] - shard0.get(r[0], r)[3] for r in after["shards"])
    restarts = sum(r[4] - shard0.get(r[0], r)[4] for r in after["shards"])
    traced = rec.calls("net.client_fetch")
    return {
        "db.compile_ms": (sum(r[3] + r[4] + r[5] for r in rows) / n * 1e3,
                          "ms"),
        "db.plan_cache_hit_ratio": (sum(1 for r in rows if r[7]) / n,
                                    "ratio"),
        "db.exec.execute_self_ms": ((execute_s - extract_s) / n * 1e3, "ms"),
        "db.recycler.hit_ratio": (
            delta("repro_recycler_hits_total") / r_lookups
            if r_lookups else 0.0, "ratio"),
        "etl.cache.hit_ratio": (delta("repro_cache_hits_total") / lookups
                                if lookups else 0.0, "ratio"),
        "etl.cache.get_calls_per_query": (lookups / n, "count"),
        "etl.cache.evictions": (delta("repro_cache_evictions_total"),
                                "count"),
        "etl.cache.stale_drops": (delta("repro_cache_stale_drops_total"),
                                  "count"),
        "etl.mseed_adapter.extract_s": (extract_s, "s"),
        "service.queued_ms": (sum(r[2] for r in rows) / n * 1e3, "ms"),
        "service.rows_coalesced": (sum(r[8] for r in rows), "count"),
        "service.rejected": (delta("repro_service_rejected_total"), "count"),
        "net.bytes_per_row": (
            (after["bytes_out"] - before["bytes_out"]) / client_rows
            if client_rows else 0.0, "bytes"),
        "net.fetch_round_trips_per_query": (
            rec.counts.get("net.fetch_round_trips", 0) / client_queries,
            "count"),
        "net.client_fetch_ms": (
            rec.total("net.client_fetch") / traced * 1e3 if traced else 0.0,
            "ms"),
        "shard.decomposed_ratio": (
            decomposed / (decomposed + fallback)
            if decomposed + fallback else 0.0, "ratio"),
        "shard.extracts_per_query": (shard_extracts / n, "count"),
        "shard.rows_shipped": (shard_rows, "count"),
        "shard.restarts": (restarts, "count"),
        "trace.queries": (len(rows), "count"),
    }
