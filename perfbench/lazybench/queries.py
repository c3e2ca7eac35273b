"""Seeded query streams: analytical-suite shapes with random constants.

Every query is a SQL string plus a *spec*, the same question in plain
data, which ``reference.py`` answers without the engine.  Streams are
built in rounds of fixed composition (only the order and the constants
are random) so that two seeds load the system alike and per-run
throughput does not hinge on how many heavy scans a seed happened to
draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

VIEW = "mseed.dataview"
US = 1_000_000


@dataclass(frozen=True)
class Query:
    kind: str
    sql: str
    spec: dict = field(compare=False)
    repeat: bool = False


@dataclass(frozen=True)
class Layout:
    """What the query generator may know about a corpus: its streams and
    time span, derived from the corpus spec (never from the files)."""

    streams: tuple[tuple[str, str, str], ...]  # (network, station, channel)
    start_us: int
    end_us: int
    day_lo_us: int
    day_hi_us: int

    @property
    def networks(self) -> list[str]:
        return sorted({n for n, _s, _c in self.streams})

    @property
    def channels(self) -> list[str]:
        return sorted({c for _n, _s, c in self.streams})


def layout_for(spec: dict) -> Layout:
    from repro.mseed.inventory import DEFAULT_INVENTORY

    channels = spec.get("channels", ["BHE", "BHN", "BHZ"])
    stations = [s for s in DEFAULT_INVENTORY
                if spec["stations"] is None or s.code in spec["stations"]]
    streams = tuple((s.network, s.code, c.code) for s in stations
                    for c in s.channels if c.code in channels)
    day = datetime(2010, 1, 12, tzinfo=timezone.utc)
    day_lo = int(day.timestamp()) * US
    start = day_lo + spec["start_hour"] * 3600 * US
    span = spec["files_per_stream"] * spec["file_span_minutes"] * 60 * US
    return Layout(streams, start, start + span, day_lo,
                  day_lo + 86400 * US - 1000)


def ts(us: int) -> str:
    """ISO-8601 literal with millisecond precision."""
    if us % 1000:
        raise ValueError(f"{us} us is not a whole millisecond")
    moment = datetime.fromtimestamp(us // US, tz=timezone.utc)
    return f"{moment:%Y-%m-%dT%H:%M:%S}.{(us % US) // 1000:03d}"


# -- query shapes ---------------------------------------------------------------


def window_avg(station, channel, lo, hi, layout: Layout) -> Query:
    """Figure 1, Q1 (STA/LTA): AVG over a short open window."""
    sql = (f"SELECT AVG(D.sample_value) FROM {VIEW} "
           f"WHERE F.station = '{station}' AND F.channel = '{channel}' "
           f"AND R.start_time > '{ts(layout.day_lo_us)}' "
           f"AND R.start_time < '{ts(layout.day_hi_us)}' "
           f"AND D.sample_time > '{ts(lo)}' AND D.sample_time < '{ts(hi)}'")
    return Query("window_avg", sql, {
        "kind": "window_avg", "station": station, "channel": channel,
        "rec_lo": layout.day_lo_us, "rec_hi": layout.day_hi_us,
        "lo": lo, "hi": hi, "open_interval": True})


def window_agg(station, channel, lo, hi) -> Query:
    """Short-window COUNT/MIN/MAX/SUM (decomposable across shards)."""
    sql = (f"SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value), "
           f"SUM(D.sample_value) FROM {VIEW} "
           f"WHERE F.station = '{station}' AND F.channel = '{channel}' "
           f"AND D.sample_time >= '{ts(lo)}' AND D.sample_time < '{ts(hi)}'")
    return Query("window_agg", sql, {
        "kind": "window_agg", "station": station, "channel": channel,
        "lo": lo, "hi": hi})


def records(station, channel, lo, hi) -> Query:
    """Analytical Q4: one window's samples for visual analysis."""
    sql = (f"SELECT D.sample_time, D.sample_value FROM {VIEW} "
           f"WHERE F.station = '{station}' AND F.channel = '{channel}' "
           f"AND D.sample_time >= '{ts(lo)}' AND D.sample_time < '{ts(hi)}' "
           f"ORDER BY D.sample_time")
    return Query("records", sql, {
        "kind": "records", "station": station, "channel": channel,
        "lo": lo, "hi": hi})


def minmax(network, channel=None, lo=None, hi=None) -> Query:
    """Figure 1, Q2: MIN/MAX per station of one network."""
    where = [f"F.network = '{network}'"]
    spec = {"kind": "minmax", "network": network, "channel": channel}
    if channel is not None:
        where.append(f"F.channel = '{channel}'")
    if lo is not None:
        where.append(f"D.sample_time >= '{ts(lo)}' "
                     f"AND D.sample_time < '{ts(hi)}'")
        spec.update(lo=lo, hi=hi)
    sql = (f"SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) "
           f"FROM {VIEW} WHERE {' AND '.join(where)} GROUP BY F.station")
    return Query("minmax", sql, spec)


def stddev(network=None, channel=None) -> Query:
    """Analytical Q7: amplitude spread (STDDEV_SAMP) per station."""
    where = []
    if network is not None:
        where.append(f"F.network = '{network}'")
    if channel is not None:
        where.append(f"F.channel = '{channel}'")
    clause = f" WHERE {' AND '.join(where)}" if where else ""
    sql = (f"SELECT F.station, STDDEV_SAMP(D.sample_value) FROM {VIEW}"
           f"{clause} GROUP BY F.station")
    return Query("stddev", sql, {"kind": "stddev", "network": network,
                                 "channel": channel})


def counts(rec_lo, rec_hi, channel=None) -> Query:
    """Analytical Q6: sample counts per network over a record-time range."""
    extra = f" AND F.channel = '{channel}'" if channel else ""
    sql = (f"SELECT F.network, COUNT(*) FROM {VIEW} "
           f"WHERE R.start_time > '{ts(rec_lo)}' "
           f"AND R.start_time < '{ts(rec_hi)}'{extra} GROUP BY F.network")
    return Query("counts", sql, {"kind": "counts", "channel": channel,
                                 "rec_lo": rec_lo, "rec_hi": rec_hi})


def station_counts(network, lo, hi) -> Query:
    """Per-station sample counts of one network over a time range."""
    sql = (f"SELECT F.station, COUNT(*) FROM {VIEW} "
           f"WHERE F.network = '{network}' AND D.sample_time >= '{ts(lo)}' "
           f"AND D.sample_time < '{ts(hi)}' GROUP BY F.station")
    return Query("station_counts", sql, {
        "kind": "station_counts", "network": network, "lo": lo, "hi": hi})


def metadata(network) -> Query:
    """Analytical Q8: metadata browsing, records per stream (no data)."""
    sql = ("SELECT F.station, F.channel, COUNT(*), SUM(R.sample_count) "
           "FROM mseed.files AS F, mseed.records AS R "
           "WHERE F.file_location = R.file_location "
           f"AND F.network = '{network}' GROUP BY F.station, F.channel")
    return Query("metadata", sql, {"kind": "metadata", "network": network})


# -- streams ------------------------------------------------------------------------


def instant(rng: np.random.Generator, lo: int, hi: int) -> int:
    """A millisecond-aligned instant in [lo, hi)."""
    return lo + int(rng.integers(0, max((hi - lo) // 1000, 1))) * 1000


def _window(rng, layout: Layout, seconds: float) -> tuple[int, int]:
    length = int(seconds * US)
    lo = instant(rng, layout.start_us, layout.end_us - length)
    return lo, lo + length


def _stream(rng, layout: Layout):
    return layout.streams[int(rng.integers(len(layout.streams)))]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


# Explore: per round of 20, this many of each shape (3 are exact repeats).
EXPLORE_ROUND = {"sta": 3, "lta": 3, "records": 3, "minmax": 2,
                 "stddev": 2, "counts": 2, "metadata": 2, "repeat": 3}


def explore_round(rng, layout: Layout, history: list[Query]) -> list[Query]:
    """One round of the explore stream; ``history`` feeds the repeats."""
    slots = [kind for kind, n in EXPLORE_ROUND.items() for _ in range(n)]
    rng.shuffle(slots)
    out: list[Query] = []
    for slot in slots:
        _net, station, channel = _stream(rng, layout)
        if slot == "repeat" and (history or out):
            pool = history + out
            q = pool[int(rng.integers(len(pool)))]
            out.append(Query(q.kind, q.sql, q.spec, repeat=True))
            continue
        if slot in ("sta", "lta", "repeat"):
            lo, hi = _window(rng, layout, 2.0 if slot != "lta" else 15.0)
            out.append(window_avg(station, channel, lo, hi, layout))
        elif slot == "records":
            out.append(records(station, channel,
                               *_window(rng, layout, 10.0)))
        elif slot == "minmax":
            out.append(minmax(_pick(rng, layout.networks),
                              _pick(rng, layout.channels)))
        elif slot == "stddev":
            out.append(stddev(_pick(rng, layout.networks),
                              _pick(rng, layout.channels)))
        elif slot == "counts":
            lo = instant(rng, layout.start_us - 60 * US, layout.start_us)
            hi = instant(rng, (layout.start_us + layout.end_us) // 2,
                     layout.end_us + 60 * US)
            out.append(counts(lo, hi, _pick(rng, layout.channels)))
        else:
            out.append(metadata(_pick(rng, layout.networks)))
    history.extend(q for q in out if not q.repeat)
    return out


def explore_first(layout: Layout) -> Query:
    """The fixed first broad query whose answer time is ``first_answer_s``."""
    return counts(layout.day_lo_us, layout.day_hi_us)


def archive_pass(rng, layout: Layout) -> list[Query]:
    """The broad-scan pass: per-network counts over every sample (the
    first broad query), then, for one seeded channel as in Figure 1 Q2
    and analytical Q7, per-station MIN/MAX for each network and STDDEV
    per station.  The order is fixed: with a cache smaller than the
    working set, what each scan finds cached depends on the scans before
    it, and that should not change from seed to seed."""
    channel = _pick(rng, layout.channels)
    return ([counts(layout.day_lo_us, layout.day_hi_us)]
            + [minmax(network, channel) for network in layout.networks]
            + [stddev(channel=channel)])


# Serve: per round, per connection.
SERVE_ROUND = {"records": 3, "window_agg": 4, "station_counts": 1,
               "minmax": 1, "stddev": 1}


def serve_round(rng, layout: Layout) -> list[Query]:
    slots = [kind for kind, n in SERVE_ROUND.items() for _ in range(n)]
    rng.shuffle(slots)
    out = []
    for slot in slots:
        _net, station, channel = _stream(rng, layout)
        if slot == "records":
            out.append(records(station, channel,
                               *_window(rng, layout, 60.0)))
        elif slot == "window_agg":
            seconds = float(rng.integers(2, 16))
            out.append(window_agg(station, channel,
                                  *_window(rng, layout, seconds)))
        elif slot == "station_counts":
            out.append(station_counts(_pick(rng, layout.networks),
                                      *_window(rng, layout, 300.0)))
        elif slot == "minmax":
            out.append(minmax(_pick(rng, layout.networks),
                              _pick(rng, layout.channels),
                              *_window(rng, layout, 120.0)))
        else:
            out.append(stddev(_pick(rng, layout.networks),
                              _pick(rng, layout.channels)))
    return out
