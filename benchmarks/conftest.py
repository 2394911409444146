"""Shared benchmark configuration.

Each benchmark module regenerates one table/figure of the paper's Section 6
(see DESIGN.md's per-experiment index).  Axes are scaled down by default so
``pytest benchmarks/ --benchmark-only`` completes in minutes on a laptop;
set ``REPRO_BENCH_FULL=1`` for the paper-scale axes (card(Σ) up to 2000,
m up to 50, K up to 8000), which is what EXPERIMENTS.md records.

Benchmarks print their result tables; run with ``-s`` (or read the
captured output) to see the regenerated figures.

``REPRO_BENCH_TINY=1`` shrinks every axis to smoke-test scale (seconds of
runtime): CI uses it to run the JSON-emitting benchmarks on every push and
schema-check their output (``benchmarks/check_bench_json.py``) without
caring about timing.
"""

from __future__ import annotations

import os

import pytest

#: Full-scale axes (paper-shaped, minutes of runtime).
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Smoke-test axes (CI: schema/regression checks only, no timing claims).
TINY = bool(int(os.environ.get("REPRO_BENCH_TINY", "0")))


def fig8a_cards():
    return tuple(range(200, 2001, 200)) if FULL else (200, 600, 1000)


def fig8_y_lengths():
    return (6, 8, 10, 12) if FULL else (6, 10)


def fig8b_ms():
    return tuple(range(5, 51, 5)) if FULL else (5, 20, 35, 50)


def fig8b_card():
    return 2000 if FULL else 600

def matching_sizes():
    if TINY:
        return (200,)
    return (1000, 2000, 4000, 8000) if FULL else (500, 1000, 2000)


def engine_stream_size():
    if TINY:
        return 150
    return 2000 if FULL else 500


def kernel_size():
    if TINY:
        return 250
    return 2000 if FULL else 1000


def overhead_size():
    if TINY:
        return 300
    return 4000 if FULL else 1500


def factorised_size():
    if TINY:
        return 250
    return 4000 if FULL else 1000


def sn_index_size():
    if TINY:
        return 300
    return 4000 if FULL else 1500


def serve_size():
    if TINY:
        return 300
    return 1200 if FULL else 600


@pytest.fixture(scope="session")
def bench_sizes():
    return matching_sizes()
