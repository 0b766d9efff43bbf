"""The process-wide match table every default route shares."""

from __future__ import annotations

import multiprocessing
import threading

from repro.algorithms import get
from repro.checking import check_terminating_exploration
from repro.core import Grid
from repro.engine import AlgorithmTransitionSystem, MatcherCache, explore, explore_sharded
from repro.engine.campaign import verify_one


def _spy_get_context(monkeypatch) -> list:
    """Record every ``multiprocessing.get_context`` call (each pool starts with one)."""
    calls = []
    real = multiprocessing.get_context

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return calls


class TestDefaultRoutes:
    def test_second_identical_check_evaluates_no_guard(self):
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 4)
        first = check_terminating_exploration(algorithm, grid, model="ASYNC")
        second = check_terminating_exploration(algorithm, grid, model="ASYNC")
        assert first.matcher_stats["misses"] > 0
        assert second.matcher_stats["misses"] == 0
        assert second == first

    def test_walks_share_the_table_with_checks(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        check_terminating_exploration(algorithm, Grid(4, 5), model="FSYNC")
        report = verify_one(algorithm, 4, 5, model="FSYNC")
        assert report.ok
        assert report.cache_misses == 0  # every view the walk meets was checked already

    def test_explicit_cache_overrides_the_table(self):
        algorithm = get("fsync_phi2_l2_chir_k2")
        grid = Grid(3, 4)
        check_terminating_exploration(algorithm, grid, model="FSYNC")
        isolated = check_terminating_exploration(algorithm, grid, model="FSYNC", cache=MatcherCache())
        assert isolated.matcher_stats["misses"] > 0

    def test_default_explore_sharded_runs_serially(self, monkeypatch):
        algorithm = get("async_phi2_l2_nochir_k4")
        grid = Grid(4, 4)
        reference = explore(AlgorithmTransitionSystem(algorithm, grid, "ASYNC"))
        calls = _spy_get_context(monkeypatch)
        exploration = explore_sharded(algorithm, grid, "ASYNC")
        assert calls == []  # no process pool was started
        assert exploration == reference


class TestThreadSafety:
    def test_concurrent_checks_with_eviction_match_serial_verdicts(self):
        names = [
            "fsync_phi2_l2_chir_k2",
            "fsync_phi1_l2_nochir_k5",
            "async_phi2_l3_chir_k2",
            "async_phi2_l2_nochir_k4",
        ]
        specs = [(get(name), Grid(3, 4)) for name in names]
        expected = [
            check_terminating_exploration(a, g, model=a.synchrony, cache=MatcherCache())
            for a, g in specs
        ]
        cache = MatcherCache(max_entries=16)  # far below what one check fills
        barrier = threading.Barrier(len(specs))
        results: dict = {}
        errors: list = []

        def run(index: int) -> None:
            algorithm, grid = specs[index]
            try:
                barrier.wait()
                results[index] = [
                    check_terminating_exploration(algorithm, grid, model=algorithm.synchrony, cache=cache)
                    for _ in range(4)
                ]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        for index, want in enumerate(expected):
            assert results[index] == [want] * 4
        assert cache.stats.evictions > 0
