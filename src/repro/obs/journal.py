"""The query journal behind ``sys.queries``.

A :class:`QueryJournal` is a bounded, thread-safe ring buffer of
finished executions — one JSON-friendly entry per query, fed from the
engine's :class:`~repro.db.exec.engine.QueryReport` for every SELECT
run (EXPLAIN ANALYZE included), successes and failures alike.  The
``sys.queries`` and ``sys.sessions`` system tables are views over it,
and :meth:`export_state` / :meth:`import_state` round-trip it through
the table-store manifest so query history survives a checkpoint →
warm-start cycle the same way promoted segments do.

Enrichment that only the *serving* layer knows (which session issued
the query, how long it queued) travels through a context variable:
:func:`query_context` wraps an execution, and the engine reads
:func:`current_context` when it records the entry.  Direct, unserved
connections fall back to the ``"local"`` session.
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional

DEFAULT_JOURNAL_CAPACITY = 1024

DEFAULT_SESSION = "local"
"""Session attributed to queries running outside a service worker."""

ENTRY_FIELDS = (
    "id", "session", "sql", "params_hash", "status", "error",
    "started_at", "queued_s",
    "parse_s", "bind_s", "optimize_s", "execute_s", "total_s",
    "plan_cache_hit",
    "rows_out", "rows_extracted", "rows_extracted_here", "rows_coalesced",
    "rows_served_eager", "pages_read", "pages_skipped_zone",
)
"""Every journal entry key, in ``sys.queries`` column order."""

_ENTRY_DEFAULTS = {
    "session": DEFAULT_SESSION, "sql": "", "params_hash": "",
    "status": "ok", "error": "",
    "started_at": 0.0, "queued_s": 0.0,
    "parse_s": 0.0, "bind_s": 0.0, "optimize_s": 0.0, "execute_s": 0.0,
    "total_s": 0.0,
    "plan_cache_hit": False,
    "rows_out": 0, "rows_extracted": 0, "rows_extracted_here": 0,
    "rows_coalesced": 0, "rows_served_eager": 0,
    "pages_read": 0, "pages_skipped_zone": 0,
}
"""Per-field defaults backfilled by :meth:`QueryJournal.append`, so
hand-appended entries aggregate (and scan) like engine-recorded ones."""

_ERROR_MAX_CHARS = 500

_query_context: contextvars.ContextVar[Optional[dict]] = \
    contextvars.ContextVar("repro_query_context", default=None)


@contextmanager
def query_context(session: str, *, queued_s: float = 0.0) -> Iterator[None]:
    """Attribute every query recorded inside to ``session``."""
    token = _query_context.set(
        {"session": str(session), "queued_s": float(queued_s)}
    )
    try:
        yield
    finally:
        _query_context.reset(token)


def current_context() -> dict:
    """The active attribution, or the local-connection default."""
    ctx = _query_context.get()
    if ctx is None:
        return {"session": DEFAULT_SESSION, "queued_s": 0.0}
    return ctx


def params_hash(values: "Mapping | None") -> str:
    """A short, stable hash of bound parameter values ("" for none).

    Joinable correlation id, not cryptography: the same parameter
    binding always hashes the same, so a slow-log line or log message
    carrying it groups with its `sys.queries` entry and with every
    other execution of the same binding.
    """
    if not values:
        return ""
    if isinstance(values, Mapping):
        canonical = repr(sorted(values.items(), key=lambda kv: repr(kv[0])))
    else:
        canonical = repr(values)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


class QueryJournal:
    """Bounded ring buffer of finished query executions.

    Appends are O(1) and lock-scoped to an id bump plus a deque append,
    so journaling adds no measurable cost to the query path.  When the
    buffer is full the oldest entry is evicted (ring semantics); ids
    keep rising monotonically across evictions *and* across
    :meth:`import_state` restores, so an id never refers to two
    different queries within one journal lineage.
    """

    STATE_VERSION = 1

    def __init__(self, capacity: int = DEFAULT_JOURNAL_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_id = 1
        self._recorded = 0
        self._errors = 0

    # -- recording ------------------------------------------------------------

    def append(self, entry: dict) -> int:
        """Append one entry (copied); returns its assigned id."""
        entry = {**_ENTRY_DEFAULTS, **entry}
        with self._lock:
            entry["id"] = self._next_id
            self._next_id += 1
            self._entries.append(entry)
            self._recorded += 1
            if entry.get("status", "ok") != "ok":
                self._errors += 1
        return entry["id"]

    def record_report(self, report, *, status: str = "ok",
                      error: str = "") -> int:
        """Journal one finished execution from its QueryReport."""
        ctx = current_context()
        entry = {
            "session": ctx["session"],
            "sql": report.sql,
            "params_hash": getattr(report, "params_hash", ""),
            "status": status,
            "error": str(error)[:_ERROR_MAX_CHARS],
            "started_at": time.time() - report.total_s,
            "queued_s": ctx["queued_s"],
            "parse_s": report.parse_s,
            "bind_s": report.bind_s,
            "optimize_s": report.optimize_s,
            "execute_s": report.execute_s,
            "total_s": report.total_s,
            "plan_cache_hit": bool(report.plan_cache_hit),
            "rows_out": report.rows_out,
            "rows_extracted": report.rows_extracted,
            "rows_extracted_here": report.rows_extracted_here,
            "rows_coalesced": report.rows_coalesced,
            "rows_served_eager": report.rows_served_eager,
            "pages_read": report.pages_read,
            "pages_skipped_zone": report.pages_skipped_zone,
        }
        return self.append(entry)

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[dict]:
        """Oldest-first copies of every retained entry."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "recorded_total": self._recorded,
                "evicted_total": self._recorded - len(self._entries),
                "errors_total": self._errors,
            }

    def session_summary(self) -> list[dict]:
        """Per-session aggregates over retained entries (sys.sessions)."""
        summaries: dict[str, dict] = {}
        for entry in self.entries():
            agg = summaries.get(entry["session"])
            if agg is None:
                agg = summaries[entry["session"]] = {
                    "session": entry["session"],
                    "queries": 0, "errors": 0,
                    "rows_out": 0, "rows_coalesced": 0,
                    "rows_served_eager": 0, "pages_read": 0,
                    "execute_s": 0.0, "total_s": 0.0,
                    "first_at": entry["started_at"],
                    "last_at": entry["started_at"],
                }
            agg["queries"] += 1
            agg["errors"] += 1 if entry["status"] != "ok" else 0
            agg["rows_out"] += entry["rows_out"]
            agg["rows_coalesced"] += entry["rows_coalesced"]
            agg["rows_served_eager"] += entry["rows_served_eager"]
            agg["pages_read"] += entry["pages_read"]
            agg["execute_s"] += entry["execute_s"]
            agg["total_s"] += entry["total_s"]
            agg["first_at"] = min(agg["first_at"], entry["started_at"])
            agg["last_at"] = max(agg["last_at"], entry["started_at"])
        return [summaries[name] for name in sorted(summaries)]

    # -- durability -----------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe snapshot for the table-store manifest."""
        with self._lock:
            return {
                "version": self.STATE_VERSION,
                "next_id": self._next_id,
                "recorded_total": self._recorded,
                "errors_total": self._errors,
                "entries": [dict(entry) for entry in self._entries],
            }

    def import_state(self, state: Optional[dict]) -> int:
        """Restore a spilled snapshot; returns entries restored.

        Restored entries keep their original ids; fresh ids continue
        strictly above everything restored, so history and new queries
        interleave without collisions.  Tolerates ``None`` / unknown
        versions (cold start, or a manifest from before the journal
        existed) by restoring nothing.
        """
        if not state or state.get("version") != self.STATE_VERSION:
            return 0
        entries = [dict(entry) for entry in state.get("entries", ())]
        entries = entries[-self.capacity:]
        with self._lock:
            self._entries.clear()
            self._entries.extend(entries)
            top = max((entry.get("id", 0) for entry in entries), default=0)
            self._next_id = max(int(state.get("next_id", 1)), top + 1,
                                self._next_id)
            self._recorded = int(state.get("recorded_total",
                                           len(entries)))
            self._errors = int(state.get("errors_total", 0))
        return len(entries)
