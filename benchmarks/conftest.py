"""Benchmark-suite pytest options.

``--workers N`` controls the replay worker-pool size for the
replay-heavy benches (Fig. 8, Table IV, speedup); it defaults to
``os.cpu_count()`` so benches exercise the parallel path wherever the
host has cores to offer.  ``--batch-lanes N`` sets the bit-lane width
the batched-replay bench measures (default: the full 64 lanes; CI
smoke runs pass a smaller width to stay quick).  ``--trace-dir DIR``
makes the benches that support it record Chrome-trace JSON files
(see :mod:`repro.obs`) into ``DIR`` alongside their measurements
(``--trace`` itself is taken by pytest's debugger hook).
``--gl-backend NAME`` picks the gate-level evaluation backend the
native-replay bench reports as its headline mode (default ``auto``:
the best rung the host supports — C where a compiler exists).
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--workers", type=int, default=None,
        help="replay worker processes (default: os.cpu_count())")
    parser.addoption(
        "--batch-lanes", type=int, default=64,
        help="bit lanes for the batched-replay bench (default: 64)")
    parser.addoption(
        "--trace-dir", type=str, default=None, metavar="DIR",
        help="write Chrome-trace JSON files for traced benches "
             "into DIR (default: tracing off)")
    parser.addoption(
        "--gl-backend", type=str, default="auto",
        choices=["interp", "c", "auto"],
        help="gate-level backend for the compiled-replay bench "
             "(default: auto)")


@pytest.fixture
def workers(request):
    value = request.config.getoption("--workers")
    return value if value is not None else (os.cpu_count() or 1)


@pytest.fixture
def batch_lanes(request):
    return request.config.getoption("--batch-lanes")


@pytest.fixture
def trace_dir(request):
    value = request.config.getoption("--trace-dir")
    if value is not None:
        os.makedirs(value, exist_ok=True)
    return value


@pytest.fixture
def gl_backend(request):
    return request.config.getoption("--gl-backend")
