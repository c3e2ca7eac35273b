"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q

(from the checkout root).  They cover the generator's determinism, the
answer checker, the percentile helper and span self-time arithmetic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from lazybench import env  # noqa: E402

env.require_program()

from lazybench import corpus, queries, stats  # noqa: E402
from lazybench.reference import (FileData, Reference, mismatch,  # noqa: E402
                                 normalize, rows_digest)
from lazybench.trace import Recorder, Span, covered, self_times  # noqa: E402

TINY = {"files_per_stream": 1, "file_span_minutes": 1, "start_hour": 22,
        "stations": ["ISK", "HGN"], "channels": ["BHZ"]}


# -- generator -------------------------------------------------------------------


def test_corpus_is_deterministic_per_seed(tmp_path):
    a = corpus.generate("tiny", 7, tmp_path / "a", spec=TINY)
    b = corpus.generate("tiny", 7, tmp_path / "b", spec=TINY)
    c = corpus.generate("tiny", 8, tmp_path / "c", spec=TINY)
    assert a.sha256 == b.sha256
    assert a.sha256 != c.sha256
    assert (a.files, a.records, a.samples) == (b.files, b.records, b.samples)
    assert a.files == 2 and a.samples == 2 * 60 * 40
    assert corpus.tree_digest(a.root) == a.sha256


def test_corpus_cache_is_reused(tmp_path):
    first = corpus.generate("tiny", 3, tmp_path, spec=TINY)
    marker = first.root.parent / "corpus.json"
    stamp = marker.stat().st_mtime_ns
    again = corpus.generate("tiny", 3, tmp_path, spec=TINY)
    assert again == first
    assert marker.stat().st_mtime_ns == stamp


def test_query_streams_are_deterministic_per_seed():
    layout = queries.layout_for(corpus.SPECS["explore"])

    def stream(seed):
        rng = np.random.default_rng(seed)
        history: list = []
        return [q.sql for _ in range(3)
                for q in queries.explore_round(rng, layout, history)]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    one_round = queries.explore_round(np.random.default_rng(5), layout, [])
    assert len(one_round) == sum(queries.EXPLORE_ROUND.values())


def test_timestamps_must_be_whole_milliseconds():
    assert queries.ts(1263334500_000_000) == "2010-01-12T22:15:00.000"
    with pytest.raises(ValueError):
        queries.ts(1263334500_000_001)


# -- checker -----------------------------------------------------------------------


def _toy_reference() -> Reference:
    times = 1_000_000 + np.arange(8, dtype=np.int64) * 25_000
    data = FileData("KO/ISK/x.mseed", "KO", "ISK", "BHZ",
                    rec_start=np.array([times[0], times[4]]),
                    rec_count=np.array([4, 4]), times=times,
                    values=np.array([5, -3, 8, 1, 0, 7, -2, 4],
                                    dtype=np.int64))
    return Reference({data.uri: data})


def test_checker_accepts_the_right_answers():
    ref = _toy_reference()
    agg = {"kind": "window_agg", "station": "ISK", "channel": "BHZ",
           "lo": 1_000_000, "hi": 1_100_000}
    assert ref.answer(agg) == [(4, -3, 8, 11)]
    assert mismatch(ref.answer(agg), normalize(agg, [(4, -3, 8, 11)])) is None
    avg = {**agg, "kind": "window_avg"}
    assert mismatch(ref.answer(avg), [(11 / 4,)]) is None
    assert ref.covered_samples(agg) == 4


def test_checker_rejects_a_perturbed_answer():
    ref = _toy_reference()
    agg = {"kind": "window_agg", "station": "ISK", "channel": "BHZ",
           "lo": 1_000_000, "hi": 1_100_000}
    assert mismatch(ref.answer(agg), [(4, -3, 8, 12)]) is not None
    assert mismatch(ref.answer(agg), [(3, -3, 8, 11)]) is not None
    assert mismatch(ref.answer(agg), []) is not None
    avg = {**agg, "kind": "window_avg"}
    assert mismatch(ref.answer(avg), [(11 / 4 * (1 + 1e-7),)]) is not None
    assert mismatch(ref.answer(avg), [(None,)]) is not None
    rows = {**agg, "kind": "records"}
    good = [(int(t), int(v)) for t, v in zip(ref.files["KO/ISK/x.mseed"].times[:4],
                                            [5, -3, 8, 1])]
    assert mismatch(ref.answer(rows), normalize(rows, good)) is None
    bad = good[:-1] + [(good[-1][0], good[-1][1] + 1)]
    assert mismatch(ref.answer(rows), normalize(rows, bad)) is not None
    assert rows_digest(good) != rows_digest(bad)


def test_group_by_answers_are_compared_unordered():
    ref = _toy_reference()
    spec = {"kind": "minmax", "network": "KO", "channel": None}
    assert mismatch(ref.answer(spec),
                    normalize(spec, [(np.str_("ISK"), np.int64(-3),
                                      np.int64(8))])) is None


# -- percentiles -------------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(999)), 99)


def test_tail_picks_the_highest_supported_percentile():
    assert stats.tail(list(range(1000)))[0] == "p99"
    label, value, beyond = stats.tail(list(range(300)))
    assert (label, beyond) == ("p95", 15)
    assert value == 284
    assert stats.tail(list(range(150)))[0] == "p90"
    with pytest.raises(stats.InsufficientSamples):
        stats.tail(list(range(50)))


# -- spans --------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(0, "query", 0.0, 10.0, None, 1),
             Span(1, "fetch", 1.0, 3.0, 0, 1),
             Span(2, "fetch", 2.0, 5.0, 0, 1),  # overlaps its sibling
             Span(3, "fetch", 8.0, 12.0, 0, 1),  # runs past its parent
             Span(4, "decode", 1.5, 2.5, 1, 1)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_and_restores_wrapped_functions():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec = Recorder()
    rec.wrap_span(Layer, "outer", "outer")
    rec.wrap_span(Layer, "inner", "inner")
    rec.qid = 9
    assert Layer().outer() == 2
    inner, outer = rec.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.qid == outer.qid == 9
    assert rec.child_total("outer", "inner") == pytest.approx(inner.duration)
    rec.unwrap()
    Layer().outer()
    assert len(rec.spans) == 2


def test_recorder_counts_calls_only_within_a_span():
    class Layer:
        def outer(self):
            return self.leaf()

        def leaf(self):
            return 0

    rec = Recorder()
    rec.wrap_span(Layer, "outer", "outer")
    rec.wrap_count(Layer, "leaf", "leaf_in_outer", within="outer")
    layer = Layer()
    layer.leaf()
    layer.outer()
    layer.outer()
    rec.unwrap()
    assert rec.counts["leaf_in_outer"] == 2


# -- contract -----------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
