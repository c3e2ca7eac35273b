"""One run's operations, answers, metrics and provenance."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

from lazybench import env, stats
from lazybench.reference import Reference, mismatch

MAX_LOGGED_MISMATCHES = 5


class Run:
    """Accumulates every operation of one workload run."""

    def __init__(self, workload: str, corpus) -> None:
        self.workload = workload
        self.corpus = corpus.provenance()
        self.outcomes: list[tuple] = []  # (query, answer, latency, kind)
        self.latencies_traced: list[tuple[float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.e2e: dict[str, tuple] = {}
        self.layer: dict[str, tuple] = {}
        self.notes: dict[str, object] = {}
        self.spans: Optional[list[dict]] = None
        self.loop_elapsed = 0.0
        self.loop_queries: Optional[int] = None

    @staticmethod
    def scratch_dir() -> Path:
        env.OUT_DIR.mkdir(parents=True, exist_ok=True)
        return env.OUT_DIR

    # -- recording -------------------------------------------------------------

    def answer(self, query, answer, latency: float, kind: str,
               traced: bool = False) -> None:
        self.attempted += 1
        self.outcomes.append((query, answer, latency, kind))
        if kind == "query":
            self.latencies_traced.append((latency, traced))

    def fail(self, query, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._log(f"{query.kind} raised {message} :: {query.sql[:160]}")

    def op_ok(self, n: int = 1) -> None:
        self.attempted += n

    def op_failed(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._log(f"{what} raised {type(exc).__name__}: {exc}")

    def _log(self, line: str) -> None:
        if len(self.mismatches) < MAX_LOGGED_MISMATCHES:
            self.mismatches.append(line)

    def set_loop(self, elapsed: float, queries: Optional[int] = None) -> None:
        self.loop_elapsed = elapsed
        self.loop_queries = queries

    # -- checking and metrics --------------------------------------------------

    def check(self, reference: Reference) -> None:
        """Compare every recorded answer with the reference and derive
        the latency, throughput and scan-rate metrics."""
        expected_of: dict[tuple, object] = {}
        covered_of: dict[tuple, int] = {}
        covered = 0.0
        busy = 0.0
        for query, answer, latency, kind in self.outcomes:
            key = (query.sql, reference.state_of(query.spec))
            if key not in expected_of:
                expected_of[key] = reference.answer(query.spec)
                covered_of[key] = reference.covered_samples(query.spec)
            problem = mismatch(expected_of[key], answer)
            if problem is not None:
                self.failed += 1
                self._log(f"{query.kind} wrong answer: {problem} :: "
                          f"{query.sql[:160]}")
            if kind == "query":
                covered += covered_of[key]
                busy += latency
        plain = [s for s, traced in self.latencies_traced if not traced]
        latencies_ms = [s * 1e3 for s in plain]
        if latencies_ms:
            self.e2e["query_p50_ms"] = (stats.median(latencies_ms), "ms")
            try:
                label, value, beyond = stats.tail(latencies_ms)
                self.e2e["query_tail_ms"] = (value, "ms")
                self.notes["query_tail"] = (
                    f"{label}, {beyond} samples beyond it, "
                    f"n={len(latencies_ms)}")
            except stats.InsufficientSamples as exc:
                self.notes["query_tail"] = f"not reported: {exc}"
        n_timed = self.loop_queries if self.loop_queries is not None \
            else len(self.latencies_traced)
        if self.loop_elapsed > 0:
            self.e2e["throughput_qps"] = (n_timed / self.loop_elapsed,
                                          "queries/s")
        if busy > 0:
            self.e2e["scan_msamples_s"] = (covered / busy / 1e6,
                                           "Msamples/s")
        self.e2e["error_rate"] = (
            self.failed / self.attempted if self.attempted else 0.0,
            "fraction")

    def trace_overhead(self) -> None:
        """Tracing overhead: median latency of the traced rounds against
        the untraced rounds of the same stream."""
        plain = [s for s, traced in self.latencies_traced if not traced]
        traced = [s for s, t in self.latencies_traced if t]
        if plain and traced:
            self.layer["trace.overhead_p50_pct"] = (
                (stats.median(traced) / stats.median(plain) - 1.0) * 100,
                "%")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def provenance(seed: int, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "trace": bool(trace),
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(run: Run, seed: int, trace: bool, gated: list[str]) -> None:
    """Print every metric by name with its unit, write the full record
    under ``.perfbench_out/``, and print the one-line JSON result last."""
    prov = provenance(seed, trace)
    print(f"perfbench workload={run.workload} " + " ".join(
        f"{k}={v}" for k, v in prov.items()))
    print("corpus " + " ".join(f"{k}={v}" for k, v in run.corpus.items()))
    section = run.layer if trace else run.e2e
    title = "per-layer (traced run)" if trace else "end-to-end (untraced)"
    print(f"-- {title}")
    for name, (value, unit) in sorted(section.items()):
        note = run.notes.get(name.removesuffix("_ms"))
        extra = f"  ({note})" if note else ""
        print(f"{name:44s} {_fmt(value):>14s} {unit}{extra}")
    if not trace and "query_tail_ms" not in run.e2e \
            and "query_tail" in run.notes:
        print(f"{'query_tail_ms':44s} {'n/a':>14s} ms  "
              f"({run.notes['query_tail']})")
    for key, note in run.notes.items():
        if key != "query_tail":
            print(f"note {key}: {note}")
    print(f"operations: attempted={run.attempted} failed={run.failed}")
    for line in run.mismatches:
        print(f"  failure: {line}")

    missing = [name for name in gated if name not in section]
    metrics = {name: {"value": section[name][0], "unit": section[name][1]}
               for name in gated if name in section}
    record = {
        "provenance": prov, "workload": run.workload,
        "corpus": run.corpus, "attempted": run.attempted,
        "failed": run.failed, "failures": run.mismatches,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in run.e2e.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in run.layer.items()},
        "notes": run.notes,
    }
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = env.OUT_DIR / f"{run.workload}-s{seed}-t{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1,
                                                    default=str))
    if run.spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(run.spans))
    if missing:
        print(f"missing metrics: {missing}")
    result = {"correct": run.correct and not missing,
              "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
