"""Percentiles that state their support, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_PERCENTILES = (99.0, 95.0, 90.0)


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to mean anything."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses unless at least
    ``MIN_BEYOND`` samples lie beyond it."""
    ordered = sorted(values)
    beyond = samples_beyond(len(ordered), q)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return ordered[max(math.ceil(len(ordered) * q / 100.0) - 1, 0)]


def tail(values) -> tuple[str, float, int]:
    """The highest of p99/p95/p90 with enough samples beyond it, as
    ``(label, value, samples_beyond)``."""
    for q in TAIL_PERCENTILES:
        try:
            value = percentile(values, q)
        except InsufficientSamples:
            continue
        return f"p{q:g}", value, samples_beyond(len(values), q)
    raise InsufficientSamples(
        f"{len(values)} samples: no tail percentile has "
        f"{MIN_BEYOND} samples beyond it")


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
