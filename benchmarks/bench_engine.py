"""Benchmark: engine exploration throughput, caches and sharding.

Tracks the perf trajectory of the exhaustive checker across PRs in a
machine-readable ledger, ``BENCH_engine.json`` at the repo root:

* **seed vs engine** (PR 1 trajectory) — a faithful copy of the pre-engine
  model checker (one ad-hoc successor generator materialising a ``World``
  per expansion, no memoization) against the unified kernel, on the 3x3
  suites;
* **4x4 FSYNC exhaustive check** (PR 2 trajectory) — the cold public path
  (fresh transition system and matcher per check) against the persistent
  :class:`~repro.engine.matcher.MatcherCache` fast path and against the
  sharded explorer with ``workers=4``;
* **cross-size cache reuse** — hit rates of one shared cache swept across
  a family of grid sizes (the matcher's keys are grid-size independent);
* **pooled reuse** (PR 3 trajectory) — two consecutive small-grid checks on
  one persistent :class:`~repro.engine.pool.ExplorationPool` against two
  cold ``explore_sharded`` calls that each pay pool startup; the pooled
  case must be faster and its second check must hit the worker caches
  warmed by the first;
* **reduction quotients** (PR 4 trajectory) — the suite ASYNC case
  (:data:`repro.engine.suites.REDUCTION_BENCH_CASE`) checked unreduced,
  under ``reduction="grid"`` and under ``reduction="grid+color+por"``:
  the composed pipeline must explore strictly fewer states than the grid
  quotient alone with byte-identical verdicts, and the quotient ratios and
  wall times land in the ledger;
* **distributed campaigns** (PR 5 trajectory) — one exhaustive sweep run
  through a persistent pool and through two local TCP worker daemons
  (:class:`~repro.engine.distributed.DistributedBackend`); reports must be
  identical to the serial engine's both ways, and the pooled-vs-distributed
  ratio is recorded honestly (on one core the TCP hop is pure overhead);
* **stateful waves** (PR 8 trajectory) — the suite ASYNC case explored
  through the same two TCP daemons on the stateless ``map_shards`` route
  and on the stateful session route
  (``DistributedBackend.open_exploration``); both merges are
  parity-enforced against the serial explorer, and the session route must
  move strictly fewer bytes on the wire per wave (resident frontiers +
  delta-only exchange), with the bytes-per-wave ratio in the ledger;
* **verdict store** (PR 9 trajectory) — the same exhaustive sweep run
  twice against one on-disk :class:`~repro.engine.store.VerdictStore`:
  the cold pass computes and durably records every verdict, the warm pass
  must be answered entirely from the store; both passes are
  parity-enforced against a store-less serial engine and the cold/warm
  wall ratio (the re-check speedup every later consumer inherits) lands
  in the ledger with a >= 10x gate;
* **packed kernel** (PR 6 trajectory) — the packed successor kernel
  (:mod:`repro.engine.packed`) against the object kernel on warm
  FSYNC/SSYNC/ASYNC cases, parity-enforced field by field before any
  number is recorded; plus the ``SchedulerState.from_records`` sort-key
  cache micro-benchmark (re-sorting already-seen records, the kernel's
  hottest object-path operation).

Run directly:

* ``python benchmarks/bench_engine.py`` — full pass; prints the tables,
  rewrites ``BENCH_engine.json``, and fails loudly unless the engine beats
  the seed checker by >= 2x on 3x3 FSYNC *and* the cache fast path beats
  the cold path by >= 2x on the 4x4 FSYNC exhaustive check;
* ``python benchmarks/bench_engine.py --smoke`` — quick pass wired into
  ``make verify``: re-measures the 3x3 FSYNC check and fails if it has
  regressed more than 3x against the recorded ``BENCH_engine.json``
  baseline (nothing is rewritten).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from itertools import combinations, product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import get
from repro.checking import check_terminating_exploration, explore_state_space
from repro.core import Grid
from repro.core.algorithm import Action, Algorithm, Match
from repro.core.rules import occ
from repro.engine import (
    REDUCTION_BENCH_CASE,
    AlgorithmTransitionSystem,
    DistributedBackend,
    ExplorationPool,
    MatcherCache,
    ParallelCampaignEngine,
    SchedulerState,
    VerdictStore,
    WorkerDaemon,
    exhaustive_check_tasks,
    explore,
    explore_sharded,
    initial_state,
)
from repro.engine.packed import PackedTransitionSystem
from repro.engine.states import AsyncRobotState, world_from_state

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The case the ``--smoke`` regression guard is keyed on.
SMOKE_CASE = "fsync_phi2_l2_chir_k2 3x3 [FSYNC] kernel"
#: ``make verify`` fails when the smoke case is more than this factor slower
#: than the recorded baseline.
SMOKE_REGRESSION_FACTOR = 3.0
#: The same-machine reference the smoke guard normalizes by: the seed
#: checker runs the identical workload, so the *ratio* kernel/seed is
#: comparable across machines while absolute states/s are not.
SMOKE_REFERENCE_CASE = "fsync_phi2_l2_chir_k2 3x3 [FSYNC] seed"

#: Packed-vs-object kernel cases (warm-repetition protocol, one per model).
PACKED_BENCH_CASES = (
    ("fsync_phi1_l2_nochir_k5", 4, 4, "FSYNC"),
    ("fsync_phi2_l1_nochir_k4", 5, 5, "SSYNC"),
    ("async_phi2_l2_nochir_k4", 4, 4, "ASYNC"),
)

#: The packed-vs-object case the smoke guard re-measures (the FSYNC one —
#: smallest, so the guard stays cheap).
PACKED_SMOKE_CASE = PACKED_BENCH_CASES[0]

#: Warm verdict-store hits must beat the cold computing pass by at least
#: this factor on the exhaustive sweep (a same-machine ratio, so the gate
#: is hardware-independent like ``kernel_vs_seed``).
STORE_WARM_SPEEDUP_FLOOR = 10.0


# ---------------------------------------------------------------------------
# The seed checker, reproduced verbatim (pre-engine implementation)
# ---------------------------------------------------------------------------
def _seed_matches(algorithm: Algorithm, world, robot) -> List[Match]:
    """Rule matching as the seed did it: every guard interpreted cell by cell.

    Kept apart from ``Algorithm.matches_for_robot``, whose guards are now
    compiled, so this reference keeps the seed's cost and the smoke guard's
    kernel/seed ratio keeps measuring the engine alone.
    """
    snapshot = world.snapshot(robot.pos, algorithm.phi)
    matches = []
    for rule in algorithm.rules_for_color(robot.color):
        for symmetry in algorithm.symmetries():
            if rule.guard.matches(snapshot, symmetry, center_default=occ(rule.self_color)):
                action = Action(new_color=rule.new_color, world_move=rule.world_move(symmetry))
                matches.append(Match(rule=rule, symmetry=symmetry, action=action))
    return matches


def _seed_enabled_choices(algorithm: Algorithm, grid: Grid, state: SchedulerState):
    world = world_from_state(grid, state)
    choices = []
    for index, robot in enumerate(world.robots):
        actions = algorithm.distinct_actions(_seed_matches(algorithm, world, robot))
        if actions:
            choices.append((index, actions))
    return choices


def _seed_apply_synchronous(
    state: SchedulerState, moves: Sequence[Tuple[int, Optional[str], Optional[Tuple[int, int]]]]
) -> SchedulerState:
    records = list(state.robots)
    for index, new_color, world_move in moves:
        record = records[index]
        pos = record.pos
        if world_move is not None:
            pos = (pos[0] + world_move[0], pos[1] + world_move[1])
        records[index] = AsyncRobotState(pos=pos, color=new_color if new_color else record.color)
    return SchedulerState.from_records(records)


def _seed_successors(algorithm: Algorithm, grid: Grid, state: SchedulerState, model: str):
    choices = _seed_enabled_choices(algorithm, grid, state)
    if not choices:
        return []
    successors = []
    if model == "FSYNC":
        for combo in product(*[actions for _, actions in choices]):
            moves = [
                (index, action.new_color, action.world_move)
                for (index, _), action in zip(choices, combo)
            ]
            successors.append(_seed_apply_synchronous(state, moves))
        return successors
    # SSYNC
    indices = [index for index, _ in choices]
    by_index = dict(choices)
    for size in range(1, len(indices) + 1):
        for subset in combinations(indices, size):
            for combo in product(*[by_index[index] for index in subset]):
                moves = [
                    (index, action.new_color, action.world_move)
                    for index, action in zip(subset, combo)
                ]
                successors.append(_seed_apply_synchronous(state, moves))
    return successors


def seed_explore(algorithm: Algorithm, grid: Grid, model: str) -> Dict[SchedulerState, List[SchedulerState]]:
    """The pre-engine state-space exploration (DFS stack, no memoization)."""
    root = initial_state(algorithm, grid)
    graph: Dict[SchedulerState, List[SchedulerState]] = {}
    stack = [root]
    while stack:
        state = stack.pop()
        if state in graph:
            continue
        succ = _seed_successors(algorithm, grid, state, model)
        graph[state] = succ
        for nxt in succ:
            if nxt not in graph:
                stack.append(nxt)
    return graph


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------
def _measure(run, repetitions: int) -> Tuple[float, int]:
    """(seconds per run, states per run) over ``repetitions`` full checks."""
    states = run()  # warm-up, also yields the per-run state count
    start = time.perf_counter()
    for _ in range(repetitions):
        run()
    elapsed = time.perf_counter() - start
    return elapsed / repetitions, states


def _case(
    name: str,
    wall_s: float,
    states: int,
    *,
    cache_hit_rate: Optional[float] = None,
    workers: Optional[int] = None,
) -> dict:
    row = {
        "case": name,
        "states": states,
        "wall_s": wall_s,
        "states_per_s": states / wall_s if wall_s else float("inf"),
    }
    if cache_hit_rate is not None:
        row["cache_hit_rate"] = cache_hit_rate
    if workers is not None:
        row["workers"] = workers
    return row


# ---------------------------------------------------------------------------
# Benchmark sections
# ---------------------------------------------------------------------------
def bench_seed_vs_engine(name: str, model: str, repetitions: int) -> List[dict]:
    """The PR-1 trajectory: seed checker vs cold engine vs reused kernel (3x3)."""
    algorithm = get(name)
    grid = Grid(3, 3)
    label = f"{name} 3x3 [{model}]"

    seed_s, states = _measure(lambda: len(seed_explore(algorithm, grid, model)), repetitions)
    cold_s, _ = _measure(
        lambda: len(explore_state_space(algorithm, grid, model=model, cache=MatcherCache())), repetitions
    )
    kernel = AlgorithmTransitionSystem(algorithm, grid, model)
    kernel_s, _ = _measure(lambda: explore(kernel).num_states, repetitions)
    return [
        _case(f"{label} seed", seed_s, states),
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} kernel", kernel_s, states),
    ]


def bench_fsync_4x4(repetitions: int, workers: int) -> List[dict]:
    """The PR-2 trajectory: the 4x4 FSYNC exhaustive check, three ways.

    *cold* rebuilds the transition system and gives each check empty match
    tables (a fresh :class:`MatcherCache`; the public default shares the
    process-wide one), *cached* threads one persistent :class:`MatcherCache` through
    repeated checks (the campaign/sweep fast path), *sharded* fans the
    frontier over a ``workers``-process pool.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(4, 4)
    label = "fsync_phi2_l2_chir_k2 4x4 [FSYNC]"

    cold_s, states = _measure(
        lambda: check_terminating_exploration(
            algorithm, grid, model="FSYNC", cache=MatcherCache()
        ).states_explored,
        repetitions,
    )

    cache = MatcherCache()

    def cached_check() -> int:
        return check_terminating_exploration(
            algorithm, grid, model="FSYNC", cache=cache
        ).states_explored

    cached_s, _ = _measure(cached_check, repetitions)
    hit_rate = cache.stats.hit_rate

    # One sharded pass (pool startup dominates repetition timing; a single
    # timed run is how the checker is actually invoked).
    start = time.perf_counter()
    sharded_states = explore_sharded(algorithm, grid, "FSYNC", workers=workers).num_states
    sharded_s = time.perf_counter() - start
    # RuntimeError, not assert: parity must hold even under ``python -O``,
    # or a diverging run could be recorded as a passing baseline.
    if sharded_states != states:
        raise RuntimeError("sharded explorer diverged from the serial check")

    return [
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} cached", cached_s, states, cache_hit_rate=hit_rate),
        _case(f"{label} sharded", sharded_s, states, workers=workers),
    ]


def bench_cross_size_cache() -> Tuple[List[dict], float]:
    """Hit rates of one shared cache swept across grid sizes.

    Returns the per-size rows plus the hit rate observed on the *last* size
    — reached with a cache warmed purely on other sizes, so any nonzero
    value demonstrates cross-size reuse.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(3, 3), (3, 4), (4, 3), (3, 5), (4, 4), (4, 5), (5, 5)]
    cache = MatcherCache()
    rows: List[dict] = []
    final_rate = 0.0
    for m, n in sizes:
        grid = Grid(m, n)
        before = cache.stats.snapshot()
        start = time.perf_counter()
        result = check_terminating_exploration(algorithm, grid, model="FSYNC", cache=cache)
        wall = time.perf_counter() - start
        delta = cache.stats.delta_since(before)
        rows.append(
            _case(
                f"cross-size sweep {m}x{n} [FSYNC]",
                wall,
                result.states_explored,
                cache_hit_rate=delta.hit_rate,
            )
        )
        final_rate = delta.hit_rate
    return rows, final_rate


def bench_pooled_reuse(workers: int) -> Tuple[List[dict], float, float]:
    """The PR-3 trajectory: two consecutive checks, pooled vs cold sharded.

    The cold case runs ``explore_sharded`` twice, each call spawning and
    tearing down its own process pool — the regime where pool startup
    dominates small grids.  The pooled case runs the same two checks on one
    persistent :class:`ExplorationPool` (``serial_threshold=0`` so the
    workers are actually exercised): startup is paid once and the second
    check hits the worker caches warmed by the first.  Returns the rows
    plus the pooled-vs-cold speedup and the second check's hit rate.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(3, 3)
    label = "fsync_phi2_l2_chir_k2 3x3 [FSYNC]"
    serial_check = check_terminating_exploration(algorithm, grid, model="FSYNC")
    states = serial_check.states_explored

    start = time.perf_counter()
    for _ in range(2):
        explore_sharded(algorithm, grid, "FSYNC", workers=workers)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    with ExplorationPool(workers=workers, serial_threshold=0) as pool:
        first = check_terminating_exploration(algorithm, grid, model="FSYNC", pool=pool)
        second = check_terminating_exploration(algorithm, grid, model="FSYNC", pool=pool)
    pooled_s = time.perf_counter() - start
    if first != serial_check or second != serial_check:
        raise RuntimeError("pooled check diverged from the serial check")

    reuse_rate = second.matcher_stats["hit_rate"]
    return (
        [
            _case(f"{label} 2x cold sharded", cold_s, 2 * states, workers=workers),
            _case(
                f"{label} 2x pooled",
                pooled_s,
                2 * states,
                cache_hit_rate=reuse_rate,
                workers=workers,
            ),
        ],
        cold_s / pooled_s if pooled_s else float("inf"),
        reuse_rate,
    )


def _reduction_case(repetitions: int = 1) -> Dict[str, Tuple[float, "object"]]:
    """Wall time and CheckResult of the reduction bench case per spec."""
    name, m, n, model = REDUCTION_BENCH_CASE
    algorithm = get(name)
    grid = Grid(m, n)
    outcomes: Dict[str, Tuple[float, object]] = {}
    for spec in ("none", "grid", "grid+color+por"):
        # The verdict run is itself the first timed run, so the smoke guard
        # (repetitions=1) pays exactly one exploration per spec.
        start = time.perf_counter()
        result = check_terminating_exploration(algorithm, grid, model=model, reduction=spec)
        for _ in range(repetitions - 1):
            check_terminating_exploration(algorithm, grid, model=model, reduction=spec)
        wall = (time.perf_counter() - start) / repetitions
        outcomes[spec] = (wall, result)
    base = outcomes["none"][1]
    for spec, (_, result) in outcomes.items():
        if (result.terminates, result.explores, result.ok, result.counterexample) != (
            base.terminates,
            base.explores,
            base.ok,
            base.counterexample,
        ):
            # RuntimeError, not assert: verdict parity must hold even under
            # ``python -O`` or a diverging reduction becomes the baseline.
            raise RuntimeError(f"reduction={spec!r} changed the verdict of the bench case")
    return outcomes


def bench_reduction(repetitions: int) -> Tuple[List[dict], float, float]:
    """The PR-4 trajectory: the suite ASYNC case across reduction pipelines.

    Checks :data:`REDUCTION_BENCH_CASE` unreduced, under the grid quotient
    and under the full ``grid+color+por`` pipeline; verdicts must agree
    (enforced) and the composed pipeline must explore strictly fewer states
    than the grid quotient (gated by the caller).  Returns the rows plus
    the state quotient ratios none/grid and grid/(grid+color+por).
    """
    name, m, n, model = REDUCTION_BENCH_CASE
    label = f"{name} {m}x{n} [{model}]"
    outcomes = _reduction_case(repetitions)
    rows = [
        _case(f"{label} reduction={spec}", wall, result.states_explored)
        for spec, (wall, result) in outcomes.items()
    ]
    grid_states = outcomes["grid"][1].states_explored
    full_states = outcomes["grid+color+por"][1].states_explored
    none_states = outcomes["none"][1].states_explored
    return (
        rows,
        none_states / grid_states if grid_states else float("inf"),
        grid_states / full_states if full_states else float("inf"),
    )


def bench_distributed(daemon_workers: int = 2) -> Tuple[List[dict], float]:
    """The PR-5 trajectory: one exhaustive sweep, pooled vs TCP daemons.

    Runs the identical ``kind="check"`` task list through a persistent
    :class:`ExplorationPool` and through a :class:`DistributedBackend` fed
    by ``daemon_workers`` local TCP worker daemons (the same worker loop
    ``python -m repro.engine.distributed worker`` drives).  Both must
    reproduce the serial engine's reports exactly (enforced); the recorded
    ratio is honest — on a single-core container the TCP hop is pure
    overhead, and the number says by how much.  Returns the rows plus the
    pooled-vs-distributed wall ratio (> 1 means distributed was faster).
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(3, 3), (3, 4), (4, 3), (4, 4)]
    tasks = exhaustive_check_tasks(algorithm, sizes=sizes, reduction="grid")
    label = f"fsync_phi2_l2_chir_k2 exhaustive sweep x{len(tasks)} [FSYNC]"
    serial_reports = ParallelCampaignEngine(workers=1).run_tasks(algorithm, tasks)
    states = sum(report.steps for report in serial_reports)

    start = time.perf_counter()
    with ExplorationPool(workers=daemon_workers) as pool:
        pooled_reports = ParallelCampaignEngine(pool=pool).run_tasks(algorithm, tasks)
    pooled_s = time.perf_counter() - start

    start = time.perf_counter()
    with DistributedBackend(min_workers=daemon_workers) as backend:
        with WorkerDaemon(backend.host, backend.port, workers=daemon_workers).start():
            distributed_reports = ParallelCampaignEngine(backend=backend).run_tasks(
                algorithm, tasks
            )
    distributed_s = time.perf_counter() - start

    # RuntimeError, not assert: parity must hold even under ``python -O``,
    # or a diverging backend could be recorded as a passing baseline.
    if pooled_reports != serial_reports:
        raise RuntimeError("pooled campaign diverged from the serial engine")
    if distributed_reports != serial_reports:
        raise RuntimeError("distributed campaign diverged from the serial engine")

    return (
        [
            _case(f"{label} pooled", pooled_s, states, workers=daemon_workers),
            _case(f"{label} distributed", distributed_s, states, workers=daemon_workers),
        ],
        pooled_s / distributed_s if distributed_s else float("inf"),
    )


def bench_stateful_waves(daemon_workers: int = 2) -> Tuple[List[dict], float, dict]:
    """The PR-8 trajectory: bytes on the wire, stateless jobs vs sessions.

    Explores :data:`REDUCTION_BENCH_CASE` under the grid quotient through
    the same two TCP daemons twice — once on the stateless ``map_shards``
    route (every wave re-ships the shard payloads in full) and once on the
    stateful session route (frontiers stay resident worker-side; waves
    exchange intern-table references and only never-seen states travel
    whole).  Both merges are parity-enforced against the serial explorer
    before any number is recorded.  Returns the rows, the bytes-per-wave
    ratio (> 1 means the session route moved strictly fewer bytes), and
    the session's raw ``wire_stats``.
    """
    name, m, n, model = REDUCTION_BENCH_CASE
    algorithm = get(name)
    grid = Grid(m, n)
    label = f"{name} {m}x{n} [{model}] waves"
    serial = explore_sharded(algorithm, grid, model, workers=1, reduction="grid")

    start = time.perf_counter()
    with DistributedBackend(min_workers=daemon_workers, sessions=False) as backend:
        with WorkerDaemon(backend.host, backend.port, workers=daemon_workers).start():
            stateless = explore_sharded(algorithm, grid, model, backend=backend, reduction="grid")
        stateless_bytes = backend.stats["bytes_sent"] + backend.stats["bytes_received"]
    stateless_s = time.perf_counter() - start

    start = time.perf_counter()
    with DistributedBackend(min_workers=daemon_workers) as backend:
        with WorkerDaemon(backend.host, backend.port, workers=daemon_workers).start():
            stateful = explore_sharded(algorithm, grid, model, backend=backend, reduction="grid")
        stateful_bytes = backend.stats["bytes_sent"] + backend.stats["bytes_received"]
    stateful_s = time.perf_counter() - start

    # RuntimeError, not assert: parity must hold even under ``python -O``.
    # matcher_stats aggregates the remote workers' cache counters and is
    # the one documented difference between the routes; the graph fields
    # must be byte-identical.
    from dataclasses import replace

    if replace(stateless, matcher_stats=None) != replace(serial, matcher_stats=None):
        raise RuntimeError("stateless wave exploration diverged from the serial explorer")
    if replace(stateful, matcher_stats=None) != replace(serial, matcher_stats=None):
        raise RuntimeError("stateful wave exploration diverged from the serial explorer")
    wire = stateful.wire_stats
    if not wire or wire["waves"] < 1:
        raise RuntimeError("the stateful route recorded no session wire stats")

    # Both routes run the identical wave loop, so per-wave bytes compare on
    # the same denominator; the heartbeat traffic both routes carry rides
    # in the totals and only dilutes the ratio.
    waves = wire["waves"]
    rows = [
        _case(f"{label} stateless", stateless_s, stateless.num_states, workers=daemon_workers),
        _case(f"{label} stateful", stateful_s, stateful.num_states, workers=daemon_workers),
    ]
    rows[0]["bytes_on_wire"] = stateless_bytes
    rows[0]["bytes_per_wave"] = stateless_bytes / waves
    rows[1]["bytes_on_wire"] = stateful_bytes
    rows[1]["bytes_per_wave"] = stateful_bytes / waves
    ratio = stateless_bytes / stateful_bytes if stateful_bytes else float("inf")
    return rows, ratio, dict(wire)


def _store_sweep(store_path: Path) -> Tuple[int, int, float, float, dict]:
    """One exhaustive sweep cold (computing) then warm (store hits only).

    Runs the :func:`bench_distributed` task list through a serial engine
    backed by an on-disk :class:`VerdictStore` twice and returns
    ``(task_count, states, cold_s, warm_s, store_stats)``.  Both passes
    are parity-enforced against a store-less serial engine, and the warm
    pass must be answered entirely from the store.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(3, 3), (3, 4), (4, 3), (4, 4)]
    tasks = exhaustive_check_tasks(algorithm, sizes=sizes, reduction="grid")
    serial_reports = ParallelCampaignEngine(workers=1).run_tasks(algorithm, tasks)
    states = sum(report.steps for report in serial_reports)

    with VerdictStore(store_path) as store:
        engine = ParallelCampaignEngine(workers=1, store=store)
        start = time.perf_counter()
        cold_reports = engine.run_tasks(algorithm, tasks)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_reports = engine.run_tasks(algorithm, tasks)
        warm_s = time.perf_counter() - start
        stats = store.stats

    # RuntimeError, not assert: cached verdicts must stay byte-identical
    # to computed ones even under ``python -O``; ``store_stats`` rides
    # ``compare=False``, so ``==`` checks exactly the verdict fields.
    if cold_reports != serial_reports:
        raise RuntimeError("store-backed cold sweep diverged from the serial engine")
    if warm_reports != serial_reports:
        raise RuntimeError("warm store sweep diverged from the serial engine")
    if any(report.store_stats["outcome"] != "hit" for report in warm_reports):
        raise RuntimeError("warm sweep was not answered entirely from the store")
    return len(tasks), states, cold_s, warm_s, stats


def bench_store() -> Tuple[List[dict], float, dict]:
    """The PR-9 trajectory: the exhaustive sweep, cold vs warm verdict store.

    The cold pass computes and durably records every verdict of the
    :func:`bench_distributed` task list; the warm pass re-requests the
    identical tasks and must be served entirely from the store with
    byte-identical reports (enforced inside :func:`_store_sweep`).  The
    cold/warm ratio is the re-check speedup every later consumer of an
    already-checked spec inherits.  Returns the rows, that ratio, and the
    store's counter snapshot.
    """
    with tempfile.TemporaryDirectory(prefix="bench-verdict-store-") as root:
        task_count, states, cold_s, warm_s, stats = _store_sweep(Path(root) / "verdicts")
    label = f"fsync_phi2_l2_chir_k2 exhaustive sweep x{task_count} [FSYNC]"
    rows = [
        _case(f"{label} store cold", cold_s, states),
        _case(f"{label} store warm", warm_s, states),
    ]
    return rows, cold_s / warm_s if warm_s else float("inf"), stats


#: Warm requests timed per ``bench_service`` run (enough to average out
#: socket jitter without dominating the suite's wall clock).
SERVICE_WARM_REQUESTS = 50


def bench_service() -> Tuple[List[dict], float, float, dict]:
    """Warm-hit ``POST /v1/check`` latency through the HTTP service.

    Starts the in-process threaded server over a throwaway on-disk store,
    issues one cold check (computes and records the verdict), then times
    :data:`SERVICE_WARM_REQUESTS` warm requests end-to-end through real
    loopback HTTP.  Two gates are enforced as RuntimeErrors (they survive
    ``python -O``): every warm response must be served from the store —
    ``store_stats.outcome == "hit"`` and a frozen miss counter, i.e. a
    warm hit never re-enters the engine — and its verdict bytes must be
    identical to the cold response's.  Returns
    ``(rows, warm_latency_s, cold_s, store_stats)``.
    """
    from repro.engine.spec import canonical_json
    from repro.service import VerificationService, start_in_thread
    from repro.service.client import ServiceClient

    spec = {
        "algorithm": "fsync_phi2_l2_chir_k2",
        "m": 3,
        "n": 3,
        "model": "FSYNC",
        "reduction": "grid",
    }
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        store = VerdictStore(Path(root) / "verdicts")
        service = VerificationService(store)
        server, _ = start_in_thread(service)
        try:
            client = ServiceClient(server.url)
            start = time.perf_counter()
            cold = client.check(spec)
            cold_s = time.perf_counter() - start
            cold_verdict = canonical_json(cold["verdict"])
            misses_after_cold = store.stats["misses"]
            latencies = []
            for _ in range(SERVICE_WARM_REQUESTS):
                start = time.perf_counter()
                warm = client.check(spec)
                latencies.append(time.perf_counter() - start)
                if warm["observability"]["store_stats"]["outcome"] != "hit":
                    raise RuntimeError("a warm service check re-entered the engine")
                if canonical_json(warm["verdict"]) != cold_verdict:
                    raise RuntimeError("a warm HTTP verdict diverged from the cold one")
            if store.stats["misses"] != misses_after_cold:
                raise RuntimeError("the store recorded new misses during the warm requests")
            stats = store.stats
            states = cold["verdict"]["states_explored"]
        finally:
            server.shutdown()
            service.close()
    warm_s = sum(latencies) / len(latencies)
    label = "service POST /v1/check fsync_phi2_l2_chir_k2 3x3 [FSYNC]"
    rows = [
        _case(f"{label} cold", cold_s, states),
        _case(f"{label} warm hit", warm_s, states),
    ]
    return rows, warm_s, cold_s, stats


def _require_kernel_parity(reference, candidate, label: str) -> None:
    """RuntimeError (survives ``python -O``) unless the explorations match."""
    for field in ("model", "reduced", "states", "index", "succ", "edge_syms",
                  "root", "root_sym", "reduction", "reduction_stats"):
        if getattr(candidate, field) != getattr(reference, field):
            raise RuntimeError(f"packed kernel diverged from the object kernel on {label} ({field})")


def bench_packed(repetitions: int) -> Tuple[List[dict], Dict[str, float]]:
    """The PR-6 trajectory: packed vs object successor kernel, warm.

    Both kernels are measured under the same warm-repetition protocol the
    other "kernel" rows use (one warm-up run on a persistent transition
    system, then timed repetitions — the pool/daemon/sweep regime both
    kernels actually serve), and the packed exploration is parity-checked
    field by field against the object one before any number is recorded.
    Returns the rows plus the per-model speedup factors.
    """
    rows: List[dict] = []
    speedups: Dict[str, float] = {}
    for name, m, n, model in PACKED_BENCH_CASES:
        algorithm = get(name)
        grid = Grid(m, n)
        label = f"{name} {m}x{n} [{model}]"
        object_ts = AlgorithmTransitionSystem(algorithm, grid, model)
        packed_ts = PackedTransitionSystem(algorithm, grid, model)
        _require_kernel_parity(explore(object_ts), explore(packed_ts), label)
        # The larger state spaces need fewer repetitions to amortize noise.
        reps = repetitions if model == "FSYNC" else max(1, repetitions // 10)
        object_s, states = _measure(lambda: explore(object_ts).num_states, reps)
        packed_s, _ = _measure(lambda: explore(packed_ts).num_states, reps)
        speedups[model] = object_s / packed_s if packed_s else float("inf")
        rows.append(_case(f"{label} object kernel", object_s, states))
        rows.append(_case(f"{label} packed kernel", packed_s, states))
    return rows, speedups


def bench_from_records(repetitions: int) -> Tuple[List[dict], float]:
    """The ``SchedulerState.from_records`` sort-key cache micro-benchmark.

    Re-sorts the record tuples of a real ASYNC exploration two ways: with
    the records it already holds (whose :meth:`AsyncRobotState.key` caches
    are warm — the explorer's steady state, where successor construction
    reuses parent records) and with freshly constructed copies (cold
    caches, the pre-PR-6 cost).  Returns the rows plus warm-vs-cold
    speedup; "states" counts the states rebuilt per run.
    """
    name, m, n, model = PACKED_BENCH_CASES[2]
    algorithm = get(name)
    exploration = explore(AlgorithmTransitionSystem(algorithm, Grid(m, n), model))
    record_sets = [state.robots for state in exploration.states]

    def warm() -> int:
        for robots in record_sets:
            SchedulerState.from_records(robots)
        return len(record_sets)

    def cold() -> int:
        for robots in record_sets:
            SchedulerState.from_records(
                AsyncRobotState(r.pos, r.color, r.phase, r.snapshot, r.pending_color, r.pending_move)
                for r in robots
            )
        return len(record_sets)

    warm_s, states = _measure(warm, repetitions)
    cold_s, _ = _measure(cold, repetitions)
    label = f"from_records x{states} [{model} records]"
    return (
        [
            _case(f"{label} cached keys", warm_s, states),
            _case(f"{label} fresh records", cold_s, states),
        ],
        cold_s / warm_s if warm_s else float("inf"),
    )


def bench_sharded_wide(workers: int) -> List[dict]:
    """Serial vs sharded on the widest shared workload (8x8 SSYNC, k=3)."""
    algorithm = get("fsync_phi2_l2_nochir_k3")
    grid = Grid(8, 8)
    label = "fsync_phi2_l2_nochir_k3 8x8 [SSYNC]"

    start = time.perf_counter()
    serial = explore(AlgorithmTransitionSystem(algorithm, grid, "SSYNC")).num_states
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = explore_sharded(algorithm, grid, "SSYNC", workers=workers).num_states
    sharded_s = time.perf_counter() - start
    if sharded != serial:
        raise RuntimeError("sharded explorer diverged from the serial exploration")

    return [
        _case(f"{label} serial", serial_s, serial),
        _case(f"{label} sharded", sharded_s, sharded, workers=workers),
    ]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def _by_case(rows: List[dict]) -> Dict[str, dict]:
    return {row["case"]: row for row in rows}


def _print_table(rows: List[dict]) -> None:
    header = f"{'case':52s} {'states':>7s} {'wall ms':>9s} {'states/s':>10s} {'cache':>6s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        cache = f"{row['cache_hit_rate']:.0%}" if "cache_hit_rate" in row else "-"
        print(
            f"{row['case']:52s} {row['states']:7d} {row['wall_s'] * 1e3:9.2f}"
            f" {row['states_per_s']:10.0f} {cache:>6s}"
        )


def run_full(repetitions: int, workers: int, output: Path) -> int:
    rows: List[dict] = []
    rows += bench_seed_vs_engine("fsync_phi2_l2_chir_k2", "FSYNC", repetitions)
    rows += bench_seed_vs_engine("fsync_phi2_l2_chir_k2", "SSYNC", repetitions)
    rows += bench_seed_vs_engine("fsync_phi1_l2_chir_k3", "SSYNC", repetitions)
    rows += bench_fsync_4x4(repetitions, workers)
    cross_rows, cross_rate = bench_cross_size_cache()
    rows += cross_rows
    pooled_rows, pooled_x, pooled_reuse_rate = bench_pooled_reuse(workers)
    rows += pooled_rows
    rows += bench_sharded_wide(workers)
    reduction_rows, grid_quotient_x, por_quotient_x = bench_reduction(max(1, repetitions // 10))
    rows += reduction_rows
    distributed_rows, distributed_x = bench_distributed()
    rows += distributed_rows
    stateful_rows, stateful_wire_x, session_wire = bench_stateful_waves()
    rows += stateful_rows
    store_rows, store_x, store_stats = bench_store()
    rows += store_rows
    service_rows, service_warm_s, service_cold_s, service_store_stats = bench_service()
    rows += service_rows
    packed_rows, packed_x = bench_packed(repetitions)
    rows += packed_rows
    records_rows, records_x = bench_from_records(max(1, repetitions // 10))
    rows += records_rows

    by_case = _by_case(rows)
    engine_x = (
        by_case["fsync_phi2_l2_chir_k2 3x3 [FSYNC] seed"]["wall_s"]
        / by_case["fsync_phi2_l2_chir_k2 3x3 [FSYNC] kernel"]["wall_s"]
    )
    fsync44_x = (
        by_case["fsync_phi2_l2_chir_k2 4x4 [FSYNC] cold"]["wall_s"]
        / by_case["fsync_phi2_l2_chir_k2 4x4 [FSYNC] cached"]["wall_s"]
    )
    sharded_x = (
        by_case["fsync_phi2_l2_nochir_k3 8x8 [SSYNC] serial"]["wall_s"]
        / by_case["fsync_phi2_l2_nochir_k3 8x8 [SSYNC] sharded"]["wall_s"]
    )

    _print_table(rows)
    print(f"\n3x3 FSYNC: engine kernel is {engine_x:.2f}x the seed checker")
    print(f"4x4 FSYNC exhaustive check: persistent-cache fast path is {fsync44_x:.2f}x the cold path")
    print(
        f"8x8 SSYNC: sharded (workers={workers}) is {sharded_x:.2f}x serial"
        f" on {os.cpu_count()} CPU core(s)"
    )
    print(f"cross-size matcher-cache hit rate on the final sweep size: {cross_rate:.0%}")
    print(
        f"3x3 FSYNC twice: persistent pool is {pooled_x:.2f}x two cold sharded calls"
        f" ({pooled_reuse_rate:.0%} cache hits on the second check)"
    )
    reduction_label = "{} {}x{} [{}]".format(*REDUCTION_BENCH_CASE)
    print(
        f"{reduction_label}: grid+color+por explores {por_quotient_x:.2f}x fewer states"
        f" than the grid quotient (grid is {grid_quotient_x:.2f}x vs unreduced)"
    )
    print(
        f"exhaustive sweep over 2 TCP worker daemons: {distributed_x:.2f}x the pooled"
        " engine (identical reports; <1 means the TCP hop cost more than it bought)"
    )
    print(
        f"{reduction_label} over 2 TCP daemons: stateful sessions moved"
        f" {stateful_wire_x:.2f}x fewer bytes per wave than stateless jobs"
        f" ({session_wire['waves']} waves, {session_wire['rows_exchanged']} rows exchanged)"
    )
    print(
        f"exhaustive sweep against the verdict store: warm hits are {store_x:.2f}x"
        f" the cold computing pass ({store_stats['hits']} hits,"
        f" {store_stats['misses']} misses, byte-identical reports)"
    )
    print(
        f"HTTP service: warm /v1/check hits answer in {service_warm_s * 1e3:.2f} ms"
        f" end-to-end ({service_cold_s / service_warm_s:.1f}x the cold request,"
        f" {service_store_stats['hits']} hits, verdicts byte-identical, engine never re-entered)"
    )
    print(
        "packed kernel vs object kernel (warm): "
        + ", ".join(f"{model} {factor:.1f}x" for model, factor in packed_x.items())
    )
    print(f"from_records with cached sort keys: {records_x:.2f}x fresh records")

    ok = True
    if engine_x < 2.0:
        print("FAIL: expected >= 2x engine-vs-seed improvement on 3x3 FSYNC", file=sys.stderr)
        ok = False
    if fsync44_x < 2.0:
        print(
            "FAIL: expected >= 2x cached-vs-cold improvement on the 4x4 FSYNC exhaustive check",
            file=sys.stderr,
        )
        ok = False
    if cross_rate <= 0.0:
        print("FAIL: expected a nonzero cross-size matcher-cache hit rate", file=sys.stderr)
        ok = False
    if pooled_x <= 1.0:
        print(
            "FAIL: expected two pooled checks to beat two cold sharded calls on 3x3 FSYNC",
            file=sys.stderr,
        )
        ok = False
    if pooled_reuse_rate <= 0.0:
        print(
            "FAIL: expected a nonzero cross-exploration hit rate on the second pooled check",
            file=sys.stderr,
        )
        ok = False
    if por_quotient_x <= 1.0:
        print(
            "FAIL: expected grid+color+por to explore strictly fewer states than the"
            " grid quotient on the reduction bench case",
            file=sys.stderr,
        )
        ok = False
    if stateful_wire_x <= 1.0:
        print(
            "FAIL: expected the stateful session route to move strictly fewer bytes"
            " per wave than the stateless route on the reduction bench case",
            file=sys.stderr,
        )
        ok = False
    if store_x < STORE_WARM_SPEEDUP_FLOOR:
        print(
            f"FAIL: expected warm verdict-store hits to beat the cold pass by"
            f" >= {STORE_WARM_SPEEDUP_FLOOR:.0f}x on the exhaustive sweep"
            f" (measured {store_x:.1f}x)",
            file=sys.stderr,
        )
        ok = False
    if service_warm_s >= service_cold_s:
        print(
            "FAIL: expected a warm HTTP check (store hit) to answer faster than the"
            " cold computing request",
            file=sys.stderr,
        )
        ok = False
    for model in ("FSYNC", "SSYNC"):
        if packed_x[model] < 10.0:
            print(
                f"FAIL: expected the packed kernel to beat the object kernel by >= 10x"
                f" on the warm {model} bench case (measured {packed_x[model]:.1f}x)",
                file=sys.stderr,
            )
            ok = False
    if records_x <= 1.0:
        print(
            "FAIL: expected cached sort keys to beat fresh records in from_records",
            file=sys.stderr,
        )
        ok = False
    if not ok:
        # Leave the previously recorded baseline in place: a failing run
        # must never become the yardstick future smoke passes are held to.
        print(f"not updating {output} (gates failed)", file=sys.stderr)
        return 1

    payload = {
        "schema": 2,
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workers": workers,
        "repetitions": repetitions,
        "cases": rows,
        "headline": {
            "engine_vs_seed_3x3_fsync": engine_x,
            "fsync_4x4_exhaustive_speedup": fsync44_x,
            "sharded_vs_serial_8x8_ssync": sharded_x,
            "cross_size_cache_hit_rate": cross_rate,
            "pooled_vs_cold_sharded_3x3_fsync_x2": pooled_x,
            "pooled_cross_exploration_hit_rate": pooled_reuse_rate,
            "reduction_bench_case": reduction_label,
            "reduction_grid_quotient_vs_unreduced": grid_quotient_x,
            "reduction_grid_color_por_vs_grid": por_quotient_x,
            "distributed_2daemons_vs_pooled_sweep": distributed_x,
            "stateful_vs_stateless_bytes_per_wave": stateful_wire_x,
            "stateful_session_wire": session_wire,
            "store_warm_vs_cold_sweep": store_x,
            "store_stats": store_stats,
            "service_warm_hit_latency_s": service_warm_s,
            "service_cold_check_s": service_cold_s,
            "service_warm_requests": SERVICE_WARM_REQUESTS,
            "service_store_stats": service_store_stats,
            "packed_vs_object": {
                "{} {}x{} [{}]".format(name, m, n, model): packed_x[model]
                for name, m, n, model in PACKED_BENCH_CASES
            },
            "from_records_cached_keys_vs_fresh": records_x,
        },
        # The guard compares the machine-independent *ratio* of the kernel
        # to the same-machine seed reference, not absolute states/s.
        "smoke_guard": {
            "case": SMOKE_CASE,
            "reference_case": SMOKE_REFERENCE_CASE,
            "kernel_vs_seed": engine_x,
            "states_per_s": by_case[SMOKE_CASE]["states_per_s"],
            "max_regression_factor": SMOKE_REGRESSION_FACTOR,
            # The packed-kernel floor the smoke guard re-measures: the
            # packed/object ratio on the FSYNC bench case, same-machine
            # normalized like kernel_vs_seed.
            "packed_case": "{} {}x{} [{}]".format(*PACKED_SMOKE_CASE),
            "packed_vs_object": packed_x["FSYNC"],
            # The verdict-store floor the smoke guard re-measures: warm
            # hits vs the cold computing pass on the exhaustive sweep,
            # gated on the absolute (machine-independent) ratio floor.
            "store_warm_vs_cold": store_x,
            "store_warm_floor": STORE_WARM_SPEEDUP_FLOOR,
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    print("OK: all benchmark gates passed")
    return 0


def run_smoke(repetitions: int, baseline_path: Path) -> int:
    """The ``make verify`` guard: 3x3 FSYNC regression + reduction soundness.

    Both the kernel case and the seed reference are re-measured on the
    *current* machine and compared as a ratio against the recorded ratio,
    so the guard tracks code regressions rather than hardware differences.
    The reduction guard then re-checks the suite ASYNC bench case: the
    ``grid+color+por`` pipeline must still explore strictly fewer states
    than the ``grid`` quotient with an unchanged verdict (the verdict
    parity is enforced inside :func:`_reduction_case`).  Finally the
    packed-kernel guard re-measures :data:`PACKED_SMOKE_CASE`: the packed
    exploration must stay field-identical to the object one (hard failure)
    and its warm speedup must stay within ``max_regression_factor`` of the
    recorded ``packed_vs_object`` baseline.  Last the verdict-store guard
    re-runs the exhaustive sweep cold and warm against a throwaway on-disk
    store: warm hits must stay byte-identical to computed reports
    (enforced inside :func:`_store_sweep`) and keep the absolute
    :data:`STORE_WARM_SPEEDUP_FLOOR` speedup.
    """
    algorithm = get("fsync_phi2_l2_chir_k2")
    grid = Grid(3, 3)
    seed_s, states = _measure(lambda: len(seed_explore(algorithm, grid, "FSYNC")), repetitions)
    kernel = AlgorithmTransitionSystem(algorithm, grid, "FSYNC")
    kernel_s, _ = _measure(lambda: explore(kernel).num_states, repetitions)
    current_ratio = seed_s / kernel_s
    print(
        f"smoke: {SMOKE_CASE}: {states / kernel_s:.0f} states/s,"
        f" {current_ratio:.1f}x the seed reference ({states} states)"
    )

    outcomes = _reduction_case()  # raises on a verdict divergence
    grid_states = outcomes["grid"][1].states_explored
    full_states = outcomes["grid+color+por"][1].states_explored
    print(
        "smoke: {} {}x{} [{}]: grid+color+por {} states vs grid {} states,"
        " verdict unchanged".format(*REDUCTION_BENCH_CASE, full_states, grid_states)
    )
    if full_states >= grid_states:
        print(
            "FAIL: grid+color+por no longer explores strictly fewer states than the"
            f" grid quotient on the reduction bench case ({full_states} >= {grid_states})",
            file=sys.stderr,
        )
        return 1

    # Packed-kernel guard: parity is enforced unconditionally; the speed
    # floor (below) additionally needs a recorded baseline.
    packed_name, packed_m, packed_n, packed_model = PACKED_SMOKE_CASE
    packed_algorithm = get(packed_name)
    packed_grid = Grid(packed_m, packed_n)
    packed_label = f"{packed_name} {packed_m}x{packed_n} [{packed_model}]"
    object_ts = AlgorithmTransitionSystem(packed_algorithm, packed_grid, packed_model)
    packed_ts = PackedTransitionSystem(packed_algorithm, packed_grid, packed_model)
    _require_kernel_parity(explore(object_ts), explore(packed_ts), packed_label)
    object_s, packed_states = _measure(lambda: explore(object_ts).num_states, repetitions)
    packed_s, _ = _measure(lambda: explore(packed_ts).num_states, repetitions)
    packed_ratio = object_s / packed_s if packed_s else float("inf")
    print(
        f"smoke: {packed_label} packed kernel: {packed_states / packed_s:.0f} states/s,"
        f" {packed_ratio:.1f}x the object kernel (parity verified)"
    )

    # Verdict-store guard: warm hits must stay byte-identical to computed
    # reports (enforced inside ``_store_sweep``) and keep the absolute
    # speedup floor — a same-machine ratio, so no baseline is needed.
    with tempfile.TemporaryDirectory(prefix="smoke-verdict-store-") as root:
        task_count, _, store_cold_s, store_warm_s, _ = _store_sweep(Path(root) / "verdicts")
    store_ratio = store_cold_s / store_warm_s if store_warm_s else float("inf")
    print(
        f"smoke: verdict store, exhaustive sweep x{task_count}: warm hits"
        f" {store_ratio:.1f}x the cold pass (parity verified)"
    )
    if store_ratio < STORE_WARM_SPEEDUP_FLOOR:
        print(
            f"FAIL: warm verdict-store hits fell below the"
            f" {STORE_WARM_SPEEDUP_FLOOR:.0f}x floor on the exhaustive sweep"
            f" ({store_ratio:.1f}x)",
            file=sys.stderr,
        )
        return 1

    if not baseline_path.exists():
        print(f"smoke: no baseline at {baseline_path}; run `make bench` to record one")
        return 0
    baseline = json.loads(baseline_path.read_text())
    guard = baseline.get("smoke_guard", {})
    recorded_ratio = guard.get("kernel_vs_seed")
    if not recorded_ratio:
        print("smoke: baseline has no kernel_vs_seed entry; run `make bench` to refresh it")
        return 0
    factor = guard.get("max_regression_factor", SMOKE_REGRESSION_FACTOR)
    floor = recorded_ratio / factor
    print(f"smoke: baseline ratio {recorded_ratio:.1f}x, regression floor {floor:.1f}x")
    if current_ratio < floor:
        print(
            f"FAIL: 3x3 FSYNC check regressed more than {factor:.0f}x against the"
            f" recorded baseline ({current_ratio:.1f}x < {floor:.1f}x vs seed)",
            file=sys.stderr,
        )
        return 1
    recorded_packed = guard.get("packed_vs_object")
    if recorded_packed:
        packed_floor = recorded_packed / factor
        print(
            f"smoke: packed baseline {recorded_packed:.1f}x,"
            f" regression floor {packed_floor:.1f}x"
        )
        if packed_ratio < packed_floor:
            print(
                f"FAIL: packed kernel regressed more than {factor:.0f}x against the"
                f" recorded baseline ({packed_ratio:.1f}x < {packed_floor:.1f}x vs object)",
                file=sys.stderr,
            )
            return 1
    else:
        print("smoke: baseline has no packed_vs_object entry; run `make bench` to refresh it")
    print("OK: within the regression budget")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="quick regression guard only")
    parser.add_argument("--repetitions", type=int, default=None, help="explicit repetition count")
    parser.add_argument("--workers", type=int, default=4, help="shard count for the sharded cases")
    parser.add_argument(
        "--output", type=Path, default=BENCH_PATH, help="where to write BENCH_engine.json"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        repetitions = args.repetitions if args.repetitions is not None else 20
        return run_smoke(repetitions, args.output)
    repetitions = args.repetitions if args.repetitions is not None else 100
    return run_full(repetitions, args.workers, args.output)


if __name__ == "__main__":
    raise SystemExit(main())
