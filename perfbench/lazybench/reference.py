"""Reference answers computed without the SQL engine.

Corpus files are decoded record by record under
``repro.mseed.steim.reference_decoding()`` (the scalar reference Steim
decoder, not the vectorized one the warehouse uses) and every answer is
computed with numpy over the decoded arrays.  Nothing here parses,
plans or executes SQL, so a planner or executor bug cannot cancel out.

Row sets are compared through a digest of their exact int64 values;
aggregates compare exactly for integers and within ``FLOAT_RTOL`` for
floating-point AVG/STDDEV.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-9


@dataclass
class FileData:
    """One corpus file, decoded: per-record headers and per-sample arrays."""

    uri: str
    network: str
    station: str
    channel: str
    rec_start: np.ndarray  # int64, record start times (us)
    rec_count: np.ndarray  # int64, samples per record
    times: np.ndarray  # int64, every sample's time (us)
    values: np.ndarray  # int64, every sample's value

    def prefix(self, n_records: int) -> "FileData":
        """The file as it stands after only its first records landed."""
        n_samples = int(self.rec_count[:n_records].sum())
        return FileData(self.uri, self.network, self.station, self.channel,
                        self.rec_start[:n_records], self.rec_count[:n_records],
                        self.times[:n_samples], self.values[:n_samples])


def decode_file(path: Path, uri: str) -> FileData:
    from repro.mseed import steim
    from repro.mseed.files import read_file

    with steim.reference_decoding():
        records = read_file(path)
    starts, counts, times, values = [], [], [], []
    for record in records:
        header = record.header
        n = len(record.samples)
        offsets = np.round(np.arange(n, dtype=np.float64)
                           * (1e6 / header.sample_rate)).astype(np.int64)
        starts.append(header.start_time_us)
        counts.append(n)
        times.append(header.start_time_us + offsets)
        values.append(record.samples.astype(np.int64))
    first = records[0].header
    return FileData(uri, first.network, first.station, first.channel,
                    np.asarray(starts, dtype=np.int64),
                    np.asarray(counts, dtype=np.int64),
                    np.concatenate(times), np.concatenate(values))


def decode_tree(root: Path) -> dict[str, FileData]:
    """Decode every ``*.mseed`` file under ``root``, keyed by its URI
    (path relative to ``root``)."""
    out = {}
    for path in sorted(root.rglob("*.mseed")):
        uri = path.relative_to(root).as_posix()
        out[uri] = decode_file(path, uri)
    return out


def rows_digest(rows) -> str:
    """Exact digest of a row set of integers (order-sensitive)."""
    array = np.asarray(rows, dtype=np.int64).reshape(len(rows), -1) \
        if len(rows) else np.zeros((0, 0), dtype=np.int64)
    return hashlib.sha256(array.tobytes()).hexdigest()[:24]


class Reference:
    """Answers query specs (see ``queries.py``) over decoded files."""

    def __init__(self, files: dict[str, FileData]) -> None:
        self.files = files

    def _streams(self, *, network=None, station=None, channel=None):
        for data in self.files.values():
            if network is not None and data.network != network:
                continue
            if station is not None and data.station != station:
                continue
            if channel is not None and data.channel != channel:
                continue
            yield data

    def _samples(self, spec: dict):
        """(file, mask) per matching file: the samples the spec's
        record-start and sample-time bounds select."""
        match = {k: spec[k] for k in ("network", "station", "channel")
                 if spec.get(k) is not None}
        for data in self._streams(**match):
            keep = np.ones(len(data.times), dtype=bool)
            if "rec_lo" in spec:
                rec_ok = ((data.rec_start > spec["rec_lo"])
                          & (data.rec_start < spec["rec_hi"]))
                keep &= np.repeat(rec_ok, data.rec_count)
            if "lo" in spec:
                if spec.get("open_interval"):
                    keep &= (data.times > spec["lo"]) & (data.times < spec["hi"])
                else:
                    keep &= (data.times >= spec["lo"]) & (data.times < spec["hi"])
            yield data, keep

    def state_of(self, spec: dict):
        """Which repository state a spec was asked against (``None`` for
        a corpus that never changes)."""
        return spec.get("state")

    def answer(self, spec: dict):
        return getattr(self, f"_{spec['kind']}")(spec)

    def covered_samples(self, spec: dict) -> int:
        """Samples the query's predicate selects (the work it covers)."""
        if spec["kind"] == "metadata":
            return 0
        return sum(int(keep.sum()) for _data, keep in self._samples(spec))

    def _values(self, spec) -> np.ndarray:
        parts = [data.values[keep] for data, keep in self._samples(spec)]
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)

    def _grouped(self, spec, key: str) -> list[tuple[str, np.ndarray]]:
        """Selected values per group, non-empty groups only, by key."""
        groups: dict[str, list[np.ndarray]] = {}
        for data, keep in self._samples(spec):
            groups.setdefault(getattr(data, key), []).append(data.values[keep])
        merged = {g: np.concatenate(parts) for g, parts in groups.items()}
        return sorted((g, v) for g, v in merged.items() if len(v))

    # -- one method per query kind ------------------------------------------

    def _window_avg(self, spec):
        vals = self._values(spec)
        return [(float(vals.mean()) if len(vals) else None,)]

    def _window_agg(self, spec):
        vals = self._values(spec)
        if not len(vals):
            return [(0, None, None, None)]
        return [(len(vals), int(vals.min()), int(vals.max()),
                 int(vals.sum()))]

    def _records(self, spec):
        times, values = [], []
        for data, keep in self._samples(spec):
            times.append(data.times[keep])
            values.append(data.values[keep])
        t = np.concatenate(times) if times else np.zeros(0, np.int64)
        v = np.concatenate(values) if values else np.zeros(0, np.int64)
        order = np.argsort(t, kind="stable")
        rows = np.stack([t[order], v[order]], axis=1)
        return {"rows": len(rows), "digest": rows_digest(rows)}

    def _minmax(self, spec):
        return [(station, int(vals.min()), int(vals.max()))
                for station, vals in self._grouped(spec, "station")]

    def _stddev(self, spec):
        return [(station, float(np.std(vals.astype(np.float64), ddof=1))
                 if len(vals) > 1 else None)
                for station, vals in self._grouped(spec, "station")]

    def _counts(self, spec):
        return [(network, len(vals))
                for network, vals in self._grouped(spec, "network")]

    def _station_counts(self, spec):
        return [(station, len(vals))
                for station, vals in self._grouped(spec, "station")]

    def _metadata(self, spec):
        merged: dict[tuple[str, str], list[int]] = {}
        for data in self._streams(network=spec["network"]):
            acc = merged.setdefault((data.station, data.channel), [0, 0])
            acc[0] += len(data.rec_start)
            acc[1] += int(data.rec_count.sum())
        return [(s, c, r, n) for (s, c), (r, n) in sorted(merged.items())]


def normalize(spec: dict, rows) -> object:
    """Actual rows in the reference's shape: row sets become a digest,
    unordered GROUP BY results are sorted, numpy scalars become Python
    numbers."""
    if spec["kind"] == "records":
        return {"rows": len(rows), "digest": rows_digest(rows)}
    plain = [tuple(_plain(v) for v in row) for row in rows]
    if spec["kind"] in ("window_avg", "window_agg"):
        return plain
    return sorted(plain, key=lambda row: tuple(str(v) for v in row[:-1]))


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def mismatch(expected, actual) -> Optional[str]:
    """``None`` when the answers agree, else a one-line description."""
    if isinstance(expected, dict) or isinstance(actual, dict):
        return None if expected == actual else \
            f"row set differs: expected {expected}, got {actual}"
    if len(expected) != len(actual):
        return f"expected {len(expected)} rows, got {len(actual)}: " \
               f"{expected[:3]} vs {actual[:3]}"
    for want_row, got_row in zip(expected, actual):
        if len(want_row) != len(got_row):
            return f"row width differs: {want_row} vs {got_row}"
        for want, got in zip(want_row, got_row):
            if not _same(want, got):
                return f"expected {want_row}, got {got_row}"
    return None


def _same(want, got) -> bool:
    if want is None or got is None:
        return want is None and got is None
    if isinstance(want, float) or isinstance(got, float):
        try:
            return math.isclose(float(want), float(got),
                                rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
        except (TypeError, ValueError):
            return False
    return want == got
