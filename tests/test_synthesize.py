"""Tests for the synthetic repository generator."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.mseed.files import read_file, scan_file_headers
from repro.mseed.inventory import DEFAULT_INVENTORY, find_station
from repro.mseed.synthesize import (
    RepositorySpec,
    SeismicEvent,
    WaveformSynthesizer,
    build_repository,
    make_filename,
    parse_filename,
)
from repro.util.timefmt import from_ymd


def test_filename_roundtrip():
    start = from_ymd(2010, 1, 12, 22, 10)
    name = make_filename("NL", "HGN", "", "BHZ", start)
    assert name == "NL.HGN..BHZ.2010.012.2210.mseed"
    parsed = parse_filename(name)
    assert parsed == {
        "network": "NL", "station": "HGN", "location": "", "channel": "BHZ",
        "year": "2010", "doy": "012", "hhmm": "2210",
    }


def test_parse_filename_rejects_foreign_names():
    assert parse_filename("random.mseed") is None
    assert parse_filename("a.b.c.d.e.f.g.h.mseed") is None
    assert parse_filename("NL.HGN..BHZ.year.012.2210.mseed") is None


def test_manifest_matches_files(tiny_repo):
    for entry in tiny_repo.entries:
        headers = scan_file_headers(entry.path)
        assert len(headers) == entry.n_records
        assert headers[0].station == entry.station
        assert headers[0].start_time_us == entry.start_time_us
        assert sum(h.sample_count for h in headers) == entry.n_samples


def test_deterministic_generation(tmp_path):
    spec = RepositorySpec(stations=DEFAULT_INVENTORY[:1],
                          channel_codes=("BHZ",), file_span_minutes=1)
    m1 = build_repository(tmp_path / "a", spec, seed=13)
    m2 = build_repository(tmp_path / "b", spec, seed=13)
    data1 = read_file(m1.entries[0].path)
    data2 = read_file(m2.entries[0].path)
    assert np.array_equal(
        np.concatenate([r.samples for r in data1]),
        np.concatenate([r.samples for r in data2]),
    )


_BUILD_AND_DIGEST = """
import hashlib, sys
from pathlib import Path
from repro.mseed.inventory import DEFAULT_INVENTORY
from repro.mseed.synthesize import RepositorySpec, build_repository

root = Path(sys.argv[1])
spec = RepositorySpec(stations=DEFAULT_INVENTORY[:2], channel_codes=("BHZ",),
                      file_span_minutes=1)
build_repository(root, spec, seed=13)
digest = hashlib.sha256()
for path in sorted(root.rglob("*.mseed")):
    digest.update(str(path.relative_to(root)).encode())
    digest.update(path.read_bytes())
print(digest.hexdigest())
"""


def test_generation_is_identical_across_processes(tmp_path):
    # String hashing is salted per process: a waveform keyed on hash()
    # would differ between these two builds.
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_DIGEST,
             str(tmp_path / hash_seed)],
            env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_different_seeds_differ(tmp_path):
    spec = RepositorySpec(stations=DEFAULT_INVENTORY[:1],
                          channel_codes=("BHZ",), file_span_minutes=1)
    m1 = build_repository(tmp_path / "a", spec, seed=1)
    m2 = build_repository(tmp_path / "b", spec, seed=2)
    s1 = np.concatenate([r.samples for r in read_file(m1.entries[0].path)])
    s2 = np.concatenate([r.samples for r in read_file(m2.entries[0].path)])
    assert not np.array_equal(s1, s2)


def test_event_visible_above_noise():
    station = find_station("HGN")
    channel = station.channels[0]
    t0 = from_ymd(2010, 1, 12, 22, 0)
    event = SeismicEvent(
        event_id=0, origin_time_us=t0 + 60_000_000,
        latitude=station.latitude, longitude=station.longitude,
        magnitude=3.0, duration_s=20.0,
    )
    synth = WaveformSynthesizer([event], seed=4, noise_counts=100.0)
    wave = synth.synthesize(station, channel, t0, 40 * 180)
    quiet = np.abs(wave[: 40 * 50]).max()
    loud = np.abs(wave[40 * 60: 40 * 80]).max()
    assert loud > 5 * quiet


def test_event_arrival_delay_grows_with_distance():
    event = SeismicEvent(event_id=0, origin_time_us=0, latitude=52.0,
                         longitude=5.0, magnitude=2.5)
    near = find_station("DBN")   # ~ (52.1, 5.2)
    far = find_station("ISK")    # Istanbul
    assert event.arrival_time_us(far) > event.arrival_time_us(near)
    assert event.amplitude_at(far) < event.amplitude_at(near)


def test_spec_streams_filter_channels():
    spec = RepositorySpec(stations=DEFAULT_INVENTORY[:2],
                          channel_codes=("BHZ",))
    streams = spec.streams()
    assert all(ch.code == "BHZ" for _st, ch in streams)
    assert len(streams) == 2


def test_manifest_totals(tiny_repo):
    assert tiny_repo.total_samples == sum(
        e.n_samples for e in tiny_repo.entries
    )
    assert tiny_repo.total_bytes > 0
    by_station = tiny_repo.entries_for(station="HGN")
    assert all(e.station == "HGN" for e in by_station)
