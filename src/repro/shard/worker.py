"""The shard worker process: one warehouse over one shard of the corpus.

``worker_main`` is the (spawn-safe, picklable) process target.  Each
worker builds a full ``SeismicWarehouse`` in lazy mode over a
:class:`~repro.shard.partition.ShardRepositoryView` restricted to its
shard's files — so it harvests only its shard's metadata, owns its
shard's extraction cache, and runs its own staleness detection.  It then
serves a tiny command loop over the control pipe:

``ping``
    liveness + identity (pid, file count).
``partial``
    compile the parent's statement text through the shard's own plan
    cache and run its partial aggregate
    (:func:`~repro.shard.gather.partial_plan`) over the shard, with the
    parent's parameter values keyed by slot; the partial states ship as
    a codec-encoded batch (:mod:`repro.net.frames`) through shared
    memory, plus the worker-side :class:`QueryReport` as ``to_dict()``.
``extract``
    decode specific records of one owned file
    (``LazyDataBinding.fetch_file``, the remote half of the parent's
    scattered extraction); pieces ship codec-encoded through shared
    memory.
``stats``
    live cache snapshot + served-command counters (tests and
    ``sys.shards``).
``clear_cache``
    drop the shard's extraction cache and plan cache (cold benchmarks).
``release``
    unlink shared-memory blocks the parent has finished reading.
``close``
    drain and exit.

Replies are ``{"ok": True, ...}`` or ``{"ok": False, "error": <type>,
"message": <str>}``; a worker never dies from a request error.
"""

from __future__ import annotations

import os
import traceback

from repro.etl.metadata import Granularity
from repro.shard.partition import ShardRepositoryView
from repro.shard.transport import INLINE_LIMIT, BlobShipper, encode_pieces


class _ShardServer:
    """The live state of one worker: warehouse, shipper, counters."""

    def __init__(self, spec: dict) -> None:
        from repro.seismology.warehouse import SeismicWarehouse

        self.spec = spec
        self.repo = ShardRepositoryView(
            spec["root"], spec["uris"], extension=spec["extension"])
        self.warehouse = SeismicWarehouse(
            self.repo,
            mode="lazy",
            schema=spec["schema"],
            granularity=Granularity(spec["granularity"]),
            cache_budget_bytes=spec["cache_budget_bytes"],
        )
        self.shipper = BlobShipper(spec.get("inline_limit", INLINE_LIMIT))
        self.queries = 0
        self.extracts = 0

    def handle(self, message: dict) -> dict:
        cmd = message.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "files": len(self.spec["uris"])}
        if cmd == "partial":
            return self._partial(message)
        if cmd == "extract":
            return self._extract(message)
        if cmd == "stats":
            return self._stats()
        if cmd == "clear_cache":
            cache = self.warehouse.cache
            if cache is not None:
                cache.clear()
            self.warehouse.db.clear_plan_cache()
            return {"ok": True}
        if cmd == "release":
            freed = self.shipper.release(message.get("names", []))
            return {"ok": True, "freed": freed}
        raise ValueError(f"unknown shard command {cmd!r}")

    def _partial(self, message: dict) -> dict:
        from repro.db.exec.engine import StreamingQuery
        from repro.net.frames import encode_result_batch
        from repro.shard.gather import partial_plan

        self.queries += 1
        db = self.warehouse.db
        _kind, entry, report = db._compile_sql(message["sql"])
        # Slot-keyed values back into the caller's shape: positional
        # slots are 0..n-1, named slots are the names.
        values = message["params"]
        params = ([values[slot] for slot in range(len(values))]
                  if entry.spec.style == "positional" else values)
        run = StreamingQuery(db, partial_plan(entry, db.recycler),
                             message["sql"], params, report, None)
        result = run.drain()
        return {
            "ok": True,
            "names": result.names,
            "rows": result.row_count,
            "blob": self.shipper.ship(encode_result_batch(0, result)),
            "report": run.report.to_dict(),
        }

    def _extract(self, message: dict) -> dict:
        self.extracts += 1
        binding = self.warehouse.pipeline.binding
        trace: list[dict] = []
        pieces = binding.fetch_file(
            message["uri"],
            [int(seq) for seq in message["seqs"]],
            list(message["data_cols"]),
            (None, None),
            trace,
        )
        rows = sum(piece_rows for _u, _s, _c, piece_rows in pieces)
        payload = encode_pieces(
            [(seq, columns) for _uri, seq, columns, _rows in pieces])
        return {"ok": True, "blob": self.shipper.ship(payload),
                "records": len(pieces), "rows": rows}

    def _stats(self) -> dict:
        cache = self.warehouse.cache
        return {
            "ok": True,
            "pid": os.getpid(),
            "files": len(self.spec["uris"]),
            "queries": self.queries,
            "extracts": self.extracts,
            "cache": cache.snapshot() if cache is not None else {},
            "shipped_blocks": self.shipper.shipped_blocks,
            "shipped_bytes": self.shipper.shipped_bytes,
        }

    def close(self) -> None:
        self.shipper.close()
        self.warehouse.close()


def worker_main(conn, spec: dict) -> None:
    """Process entrypoint: build the shard warehouse, serve the pipe."""
    server = _ShardServer(spec)
    try:
        conn.send({"ok": True, "event": "ready", "pid": os.getpid(),
                   "files": len(spec["uris"])})
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message.get("cmd") == "close":
                conn.send({"ok": True})
                break
            try:
                reply = server.handle(message)
            except Exception as exc:  # reply, never die, on request errors
                reply = {"ok": False, "error": type(exc).__name__,
                         "message": str(exc),
                         "detail": traceback.format_exc(limit=4)}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        server.close()
        conn.close()
