"""Synthetic seismic waveforms and repository generation.

The paper demonstrates on ORFEUS/KNMI mSEED archives which we cannot ship,
so this module builds the closest synthetic equivalent: deterministic,
seeded waveforms per ``(network, station, channel, window)`` with

* band-limited background noise (microseism),
* injected **seismic events** — exponentially decaying wave trains whose
  arrival at each station is delayed/attenuated by epicentral distance,
* Steim-2-encoded multi-record files named ``NET.STA.LOC.CHA.YEAR.DOY.HHMM``.

Generation is keyed on the seed through a stable digest, so the same
seed and spec write byte-identical files in any process, whatever its
``PYTHONHASHSEED``; the returned :class:`RepositoryManifest` carries the
ground-truth event catalogue for detector validation.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mseed import encodings
from repro.mseed.files import write_mseed_file
from repro.mseed.inventory import DEFAULT_INVENTORY, Channel, Station
from repro.util.timefmt import MICROS_PER_SECOND, day_of_year, from_ymd, to_datetime

_P_WAVE_KM_PER_S = 6.0
_EARTH_RADIUS_KM = 6371.0


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon points in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class SeismicEvent:
    """A ground-truth event injected into the synthetic waveforms."""

    event_id: int
    origin_time_us: int
    latitude: float
    longitude: float
    magnitude: float  # controls amplitude
    duration_s: float = 20.0
    dominant_freq_hz: float = 2.0

    def arrival_time_us(self, station: Station) -> int:
        """P-wave arrival at ``station`` (origin + distance / 6 km/s)."""
        dist = _haversine_km(self.latitude, self.longitude,
                             station.latitude, station.longitude)
        return self.origin_time_us + round(dist / _P_WAVE_KM_PER_S * MICROS_PER_SECOND)

    def amplitude_at(self, station: Station) -> float:
        """Peak amplitude in counts at ``station`` (distance-attenuated)."""
        dist = _haversine_km(self.latitude, self.longitude,
                             station.latitude, station.longitude)
        base = 10 ** (self.magnitude + 2.0)  # counts at the source
        return base / (1.0 + dist / 50.0)


class WaveformSynthesizer:
    """Deterministic waveform generation for one repository."""

    def __init__(self, events: list[SeismicEvent], *, seed: int = 0,
                 noise_counts: float = 250.0) -> None:
        self.events = events
        self.seed = seed
        self.noise_counts = noise_counts

    def _rng(self, station: Station, channel: Channel, start_us: int) -> np.random.Generator:
        # A digest, not hash(): string hashing is salted per process.
        key = repr((self.seed, station.network, station.code, channel.code,
                    start_us)).encode()
        digest = hashlib.blake2b(key, digest_size=4).digest()
        return np.random.default_rng(
            int.from_bytes(digest, "little") & 0x7FFFFFFF)

    def synthesize(self, station: Station, channel: Channel,
                   start_us: int, n_samples: int) -> np.ndarray:
        """Generate ``n_samples`` int32 counts starting at ``start_us``."""
        rng = self._rng(station, channel, start_us)
        rate = channel.sample_rate
        # Background: white noise low-passed by a short moving average plus a
        # slow microseism swell; amplitude a few hundred counts.
        white = rng.normal(0.0, self.noise_counts, n_samples + 8)
        kernel = np.ones(8) / 8.0
        noise = np.convolve(white, kernel, mode="valid")[:n_samples]
        t = np.arange(n_samples, dtype=np.float64) / rate
        swell_phase = rng.uniform(0, 2 * math.pi)
        noise += 0.4 * self.noise_counts * np.sin(2 * math.pi * 0.12 * t + swell_phase)

        end_us = start_us + round(n_samples * MICROS_PER_SECOND / rate)
        for event in self.events:
            arrival = event.arrival_time_us(station)
            tail_us = round(event.duration_s * MICROS_PER_SECOND)
            if arrival >= end_us or arrival + tail_us <= start_us:
                continue
            offset = (arrival - start_us) / MICROS_PER_SECOND
            rel = t - offset
            active = rel >= 0
            envelope = np.zeros(n_samples)
            envelope[active] = np.exp(-rel[active] / (event.duration_s / 3.0))
            # Slight per-channel phase decorrelation, like real 3-component data.
            phase = rng.uniform(0, 2 * math.pi)
            carrier = np.sin(2 * math.pi * event.dominant_freq_hz * rel + phase)
            noise += event.amplitude_at(station) * envelope * carrier
        clipped = np.clip(noise, -2**26, 2**26 - 1)
        return np.round(clipped).astype(np.int32)


@dataclass(frozen=True)
class RepositorySpec:
    """Shape of a synthetic repository.

    Defaults mirror the paper's demo day (2010-01-12, the Figure-1 date):
    per stream, ``files_per_stream`` consecutive windows of
    ``file_span_minutes`` starting at ``start_hour`` UTC.
    """

    stations: tuple[Station, ...] = DEFAULT_INVENTORY
    channel_codes: tuple[str, ...] = ("BHE", "BHN", "BHZ")
    year: int = 2010
    month: int = 1
    day: int = 12
    start_hour: int = 22
    file_span_minutes: int = 10
    files_per_stream: int = 1
    n_events: int = 3
    record_length: int = 512
    encoding: int = encodings.ENC_STEIM2
    noise_counts: float = 250.0
    location: str = ""

    def streams(self) -> list[tuple[Station, Channel]]:
        out = []
        for station in self.stations:
            for channel in station.channels:
                if channel.code in self.channel_codes:
                    out.append((station, channel))
        return out

    @property
    def start_us(self) -> int:
        return from_ymd(self.year, self.month, self.day, self.start_hour)


@dataclass(frozen=True)
class ManifestEntry:
    """Ground truth for one generated file."""

    path: str
    network: str
    station: str
    location: str
    channel: str
    start_time_us: int
    end_time_us: int
    sample_rate: float
    n_samples: int
    n_records: int


@dataclass
class RepositoryManifest:
    """Everything a test needs to know about a generated repository."""

    root: str
    spec: RepositorySpec
    entries: list[ManifestEntry] = field(default_factory=list)
    events: list[SeismicEvent] = field(default_factory=list)

    @property
    def total_samples(self) -> int:
        return sum(e.n_samples for e in self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(os.path.getsize(e.path) for e in self.entries)

    def entries_for(self, station: str | None = None,
                    channel: str | None = None) -> list[ManifestEntry]:
        out = self.entries
        if station is not None:
            out = [e for e in out if e.station == station]
        if channel is not None:
            out = [e for e in out if e.channel == channel]
        return out


def make_filename(network: str, station: str, location: str, channel: str,
                  start_us: int) -> str:
    """Canonical file name: ``NET.STA.LOC.CHA.YEAR.DOY.HHMM.mseed``.

    Encoding stream and start time in the name is what lets the metadata
    layer harvest file-level metadata "without even reading the file" (§3).
    """
    year, doy = day_of_year(start_us)
    moment = to_datetime(start_us)
    stamp = f"{moment.hour:02d}{moment.minute:02d}"
    return f"{network}.{station}.{location}.{channel}.{year}.{doy:03d}.{stamp}.mseed"


def parse_filename(name: str) -> dict[str, str] | None:
    """Inverse of :func:`make_filename`; ``None`` when the name is foreign."""
    base = name[:-6] if name.endswith(".mseed") else name
    parts = base.split(".")
    if len(parts) != 7:
        return None
    network, station, location, channel, year, doy, stamp = parts
    if not (year.isdigit() and doy.isdigit() and stamp.isdigit()):
        return None
    return {
        "network": network,
        "station": station,
        "location": location,
        "channel": channel,
        "year": year,
        "doy": doy,
        "hhmm": stamp,
    }


class RepositoryBuilder:
    """Generates a full mSEED repository under a root directory."""

    def __init__(self, root: str | os.PathLike, spec: RepositorySpec,
                 *, seed: int = 20130826) -> None:  # VLDB'13 opening day
        self.root = Path(root)
        self.spec = spec
        self.seed = seed

    def _make_events(self) -> list[SeismicEvent]:
        rng = np.random.default_rng(self.seed)
        events = []
        window_us = (self.spec.files_per_stream
                     * self.spec.file_span_minutes * 60 * MICROS_PER_SECOND)
        for event_id in range(self.spec.n_events):
            # Epicentres drawn near the inventory's geographic spread.
            lat = float(rng.uniform(36.0, 53.0))
            lon = float(rng.uniform(4.0, 31.0))
            origin = self.spec.start_us + int(rng.uniform(0.1, 0.9) * window_us)
            events.append(
                SeismicEvent(
                    event_id=event_id,
                    origin_time_us=origin,
                    latitude=lat,
                    longitude=lon,
                    magnitude=float(rng.uniform(2.0, 3.2)),
                    duration_s=float(rng.uniform(10.0, 30.0)),
                    dominant_freq_hz=float(rng.uniform(1.0, 4.0)),
                )
            )
        return events

    def build(self) -> RepositoryManifest:
        """Write every file and return the ground-truth manifest."""
        self.root.mkdir(parents=True, exist_ok=True)
        events = self._make_events()
        synth = WaveformSynthesizer(events, seed=self.seed,
                                    noise_counts=self.spec.noise_counts)
        manifest = RepositoryManifest(root=str(self.root), spec=self.spec,
                                      events=events)
        span_us = self.spec.file_span_minutes * 60 * MICROS_PER_SECOND
        for station, channel in self.spec.streams():
            directory = self.root / station.network / station.code
            directory.mkdir(parents=True, exist_ok=True)
            for index in range(self.spec.files_per_stream):
                start = self.spec.start_us + index * span_us
                n_samples = int(self.spec.file_span_minutes * 60 * channel.sample_rate)
                samples = synth.synthesize(station, channel, start, n_samples)
                name = make_filename(station.network, station.code,
                                     self.spec.location, channel.code, start)
                path = directory / name
                n_records = write_mseed_file(
                    path,
                    network=station.network,
                    station=station.code,
                    location=self.spec.location,
                    channel=channel.code,
                    start_time_us=start,
                    sample_rate=channel.sample_rate,
                    samples=samples,
                    encoding=self.spec.encoding,
                    record_length=self.spec.record_length,
                )
                end = start + round(n_samples * MICROS_PER_SECOND / channel.sample_rate)
                manifest.entries.append(
                    ManifestEntry(
                        path=str(path),
                        network=station.network,
                        station=station.code,
                        location=self.spec.location,
                        channel=channel.code,
                        start_time_us=start,
                        end_time_us=end,
                        sample_rate=channel.sample_rate,
                        n_samples=n_samples,
                        n_records=n_records,
                    )
                )
        return manifest


def build_repository(root: str | os.PathLike,
                     spec: RepositorySpec | None = None,
                     *, seed: int = 20130826) -> RepositoryManifest:
    """Convenience wrapper: build a repository with the default spec."""
    return RepositoryBuilder(root, spec or RepositorySpec(), seed=seed).build()
