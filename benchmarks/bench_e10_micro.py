"""E10 — format micro-benchmarks: the asymmetry lazy loading exploits.

Also covers the SQL compile path: parse/plan/execute split and the
plan-cache speedup for prepared re-execution (unified API tentpole).
"""

import numpy as np

from repro.bench.harness import run_e10
from repro.bench.workload import shared_demo_repo
from repro.mseed import steim
from repro.mseed.files import read_file, scan_file_headers
from repro.seismology.queries import fig1_query2_template
from repro.seismology.warehouse import SeismicWarehouse


def test_e10_header_scan(benchmark):
    _root, manifest = shared_demo_repo()
    path = manifest.entries[0].path
    headers = benchmark(lambda: scan_file_headers(path))
    assert len(headers) == manifest.entries[0].n_records
    table = run_e10()
    print("\n" + table.render())


def test_e10_full_decode(benchmark):
    _root, manifest = shared_demo_repo()
    path = manifest.entries[0].path
    records = benchmark(lambda: read_file(path))
    assert sum(len(r.samples) for r in records) == \
        manifest.entries[0].n_samples


def test_e10_steim2_decode(benchmark):
    rng = np.random.default_rng(17)
    wave = np.cumsum(rng.integers(-60, 60, 100_000)).astype(np.int32)
    payload, count = steim.encode_steim2(wave, 20_000)
    decoded = benchmark(lambda: steim.decode_steim2(payload, count))
    assert np.array_equal(decoded, wave[:count])


def test_e10_steim2_encode(benchmark):
    rng = np.random.default_rng(18)
    wave = np.cumsum(rng.integers(-60, 60, 20_000)).astype(np.int32)
    payload, count = benchmark(lambda: steim.encode_steim2(wave, 10_000))
    assert count == len(wave)


def test_e10_plan_cache_speedup():
    """Prepared + plan-cached re-execution: >= 3x on the compile portion."""
    root, _manifest = shared_demo_repo()
    wh = SeismicWarehouse(root, mode="lazy")
    template = fig1_query2_template()
    run = wh.db.open_query(template, {"network": "NL", "channel": "BHZ"})
    run.drain()
    cold = run.report
    assert not cold.plan_cache_hit
    run = wh.db.open_query(template, {"network": "KO", "channel": "BHZ"})
    run.drain()
    warm = run.report
    assert warm.plan_cache_hit
    assert warm.bind_s == 0.0 and warm.optimize_s == 0.0
    assert cold.plan_s / max(warm.plan_s, 1e-9) >= 3.0


def test_e10_prepared_reexecution(benchmark):
    """Steady-state latency of a prepared, parameterised aggregate."""
    root, _manifest = shared_demo_repo()
    wh = SeismicWarehouse(root, mode="lazy")
    conn = wh.connect()
    stmt = conn.prepare(fig1_query2_template())
    params = {"network": "NL", "channel": "BHZ"}
    stmt.query(params)  # warm: plan cache + extraction cache + recycler
    rows = benchmark(lambda: stmt.query(params).rows())
    assert rows
