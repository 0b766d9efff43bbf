"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.engine.pool as pool_module
from repro import core
from repro.algorithms import all_algorithms, get
from repro.core.rules import clear_compiled_guards
from repro.engine.matcher import process_cache


@pytest.fixture(autouse=True)
def fresh_match_tables():
    """Start every test on an empty process-wide match table.

    Every entry point matches against :func:`repro.engine.matcher.process_cache`
    unless given ``cache=``, and fork-started pool workers inherit it, so a
    table warmed by an earlier test would change the hit/miss counters a
    later one asserts (never its results: memoization only skips work).
    The worker-side transition systems hold matchers on that table, so
    they go too, and the compiled guards are dropped with them.
    """
    process_cache().clear()
    pool_module._SYSTEMS.clear()
    clear_compiled_guards()


@pytest.fixture(scope="session")
def algorithms():
    """All registered algorithms keyed by name."""
    return all_algorithms()


@pytest.fixture(scope="session")
def fsync_algorithms(algorithms):
    """The eight FSYNC rows of Table 1."""
    return [a for a in algorithms.values() if a.synchrony == "FSYNC"]


@pytest.fixture(scope="session")
def async_algorithms(algorithms):
    """The SSYNC/ASYNC rows of Table 1."""
    return [a for a in algorithms.values() if a.synchrony == "ASYNC"]


@pytest.fixture
def small_grid():
    return core.Grid(3, 4)


@pytest.fixture
def algorithm1():
    """Algorithm 1 of the paper (the quickstart algorithm)."""
    return get("fsync_phi2_l2_chir_k2")


def pytest_addoption(parser):
    parser.addoption(
        "--thorough",
        action="store_true",
        default=False,
        help="run the larger verification sweeps (slower)",
    )


@pytest.fixture(scope="session")
def thorough(request):
    return request.config.getoption("--thorough")
