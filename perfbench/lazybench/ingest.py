"""The ingest workload: a live archive that grows while it is queried.

Three streams land record by record, the way archivers grow day files.
Between queries the generator appends a few records to the current file
of a stream; when a file is complete it rolls over to a new file and
calls ``sync()`` — the API requires ``sync()`` for new files and claims
that files modified in place need none.  Every write stamps the file's
mtime from a logical clock that moves at least one second per write, so
staleness outcomes do not depend on timestamp resolution.

Queries hit the newest data and windows that span grown files.  Each
answer is checked against the files as they stood when it was asked.
Answers that differ (the known grown-in-place defect, see RATIONALE.md)
count as failed operations; the schedule does not steer around them.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import numpy as np

from lazybench import queries as Q
from lazybench.corpus import SPECS
from lazybench.inprocess import (Session, Tracing, layer_metrics,
                                 peak_rss_mb, settle)
from lazybench.reference import Reference, decode_tree, mismatch
from lazybench.results import Run

RECORD_BYTES = 512  # RepositorySpec.record_length of the staged corpus
CHUNK_RECORDS = 4  # records landed per append
START_FILES = 2  # files per stream already complete when the run starts
FRESHNESS_TRIES = 3
SETUP_REPEATS = 5


class LiveReference(Reference):
    """Answers a spec against the repository state it was asked in."""

    def __init__(self, staged: dict, states: list[dict[str, int]]) -> None:
        super().__init__({})
        self.staged = staged
        self.states = states
        self._state = None

    def _use(self, spec: dict) -> None:
        state = spec["state"]
        if state != self._state:
            landed = self.states[state]
            self.files = {uri: self.staged[uri].prefix(n)
                          for uri, n in landed.items()}
            self._state = state

    def answer(self, spec: dict):
        self._use(spec)
        return super().answer(spec)

    def covered_samples(self, spec: dict) -> int:
        self._use(spec)
        return super().covered_samples(spec)


class Archive:
    """The live repository: staged files landing into ``root``."""

    def __init__(self, staged_root: Path, root: Path, staged: dict) -> None:
        self.staged_root = staged_root
        self.root = root
        self.staged = staged
        self.landed: dict[str, int] = {}
        self.clock_ns = time.time_ns() + 10**9
        streams: dict[tuple, list[str]] = {}
        for uri, data in sorted(staged.items()):
            streams.setdefault((data.network, data.station, data.channel),
                               []).append(uri)
        self.streams = streams
        self.current = {key: START_FILES for key in streams}
        for key, uris in streams.items():
            for uri in uris[:START_FILES]:
                self._land(uri, len(staged[uri].rec_start))
            self._land(uris[START_FILES], CHUNK_RECORDS)

    def _land(self, uri: str, n_records: int) -> None:
        """Grow ``uri`` to its first ``n_records`` records."""
        have = self.landed.get(uri, 0)
        target = self.root / uri
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(self.staged_root / uri, "rb") as src:
            src.seek(have * RECORD_BYTES)
            blob = src.read((n_records - have) * RECORD_BYTES)
        with open(target, "ab") as out:
            out.write(blob)
        self.clock_ns += 10**9
        os.utime(target, ns=(self.clock_ns, self.clock_ns))
        self.landed[uri] = n_records

    def append(self, key) -> tuple[str, bool]:
        """Land the next chunk of ``key``'s current file; when that file
        is complete, start the next one.  Returns (uri, rolled_over)."""
        uris = self.streams[key]
        uri = uris[self.current[key]]
        total = len(self.staged[uri].rec_start)
        have = self.landed[uri]
        if have < total:
            self._land(uri, min(have + CHUNK_RECORDS, total))
            return uri, False
        if self.current[key] + 1 >= len(uris):
            return uri, False
        self.current[key] += 1
        nxt = uris[self.current[key]]
        self._land(nxt, CHUNK_RECORDS)
        return nxt, True

    def exhausted(self) -> bool:
        return all(self.current[k] == len(u) - 1
                   and self.landed[u[-1]] == len(self.staged[u[-1]].rec_start)
                   for k, u in self.streams.items())

    def landed_end(self, uri: str) -> int:
        """One millisecond past the last landed sample of ``uri``."""
        data = self.staged[uri]
        n = self.landed[uri]
        return int(data.times[int(data.rec_count[:n].sum()) - 1]) + 1000


def ingest(corpus, seed: int, seconds: float, trace: bool) -> Run:
    from repro import SeismicWarehouse

    run = Run("ingest", corpus)
    staged = decode_tree(corpus.root)  # the future, decoded up front
    live = Run.scratch_dir() / f"ingest-live-s{seed}"
    if live.exists():
        shutil.rmtree(live)
    archive = Archive(corpus.root, live, staged)
    states: list[dict[str, int]] = []

    def state() -> int:
        if not states or states[-1] != archive.landed:
            states.append(dict(archive.landed))
        return len(states) - 1

    layout = Q.layout_for(SPECS["ingest"])
    tracing = Tracing(trace)
    setups, firsts = [], []
    wh = None
    for _ in range(SETUP_REPEATS):
        if wh is not None:
            wh.close()
        settle()
        start = time.perf_counter()
        wh = SeismicWarehouse(live)
        setups.append(time.perf_counter() - start)
        first = _stamped(Q.counts(layout.day_lo_us, layout.day_hi_us),
                         state())
        latency = Session(wh, run, tracing).query(first, timed_kind="first")
        if latency is not None:
            firsts.append(setups[-1] + latency)
    run.op_ok(SETUP_REPEATS)

    rng = np.random.default_rng(seed)
    session = Session(wh, run, tracing)
    keys = list(archive.streams)
    freshness = []
    steps = 0
    settle()
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds \
            and not archive.exhausted():
        tracing.toggle(trace and (steps // 10) % 2 == 1)
        key = keys[int(rng.integers(len(keys)))]
        landed_at = time.perf_counter()
        uri, rolled = archive.append(key)
        if rolled:
            try:
                wh.sync()
                run.op_ok()
            except Exception as exc:
                run.op_failed("sync", exc)
            fresh = _freshness(session, archive, uri, key, state(),
                               staged, landed_at)
            if fresh is not None:
                freshness.append(fresh)
        _net, station, channel = key
        end = archive.landed_end(uri)
        session.query(_stamped(Q.window_agg(station, channel,
                                            end - 90 * Q.US, end), state()))
        other = keys[int(rng.integers(len(keys)))]
        other_end = archive.landed_end(
            archive.streams[other][archive.current[other]])
        lo = Q.instant(rng, max(layout.start_us, other_end - 1200 * Q.US),
                   other_end - 15 * Q.US)
        session.query(_stamped(Q.window_avg(other[1], other[2], lo,
                                            lo + 15 * Q.US, layout),
                               state()))
        steps += 1
    elapsed = time.perf_counter() - loop_start
    tracing.stop()
    run.set_loop(elapsed)
    run.e2e["setup_s"] = (float(np.median(setups)), "s")
    run.e2e["first_answer_s"] = (float(np.median(firsts)), "s")
    if freshness:
        run.e2e["freshness_ms"] = (float(np.median(freshness)) * 1e3, "ms")
    run.e2e["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.e2e["warehouse_bytes_ratio"] = (
        wh.warehouse_bytes() / wh.repository_bytes(), "ratio")
    run.notes["ingest"] = (f"{steps} appends, {len(freshness)} rollovers, "
                           f"{len(states)} repository states")
    if trace:
        run.layer.update(layer_metrics(tracing, wh.repository_bytes()))
        run.trace_overhead()
        run.spans = tracing.rec.dump()
    wh.close()
    run.check(LiveReference(staged, states))
    shutil.rmtree(live, ignore_errors=True)
    return run


def _stamped(q: Q.Query, state: int) -> Q.Query:
    return Q.Query(q.kind, q.sql, {**q.spec, "state": state}, q.repeat)


def _freshness(session, archive, uri, key, state, staged, landed_at):
    """Seconds from ``uri`` landing (and the sync after it) to the first
    correct answer covering it; ``None`` if no try was correct."""
    _net, station, channel = key
    data = staged[uri]
    lo = int(data.rec_start[0])
    q = _stamped(Q.window_agg(station, channel, lo,
                              archive.landed_end(uri)), state)
    view = LiveReference(staged, [dict(archive.landed)])
    expected = view.answer({**q.spec, "state": 0})
    for _ in range(FRESHNESS_TRIES):
        before = len(session.run.outcomes)
        latency = session.query(q, timed_kind="fresh")
        if latency is None or len(session.run.outcomes) == before:
            continue
        answer = session.run.outcomes[-1][1]
        if mismatch(expected, answer) is None:
            return time.perf_counter() - landed_at
    return None

