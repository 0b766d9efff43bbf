"""Campaign execution: verification work items, serial and parallel engines.

A verification campaign is a flat list of independent work items
(:class:`CampaignTask`).  A ``"walk"`` task runs one bounded execution
through the walk engine (:mod:`repro.engine.walk`) and scores it against
Definition 1; a ``"check"`` task runs the exhaustive model checker
(:mod:`repro.checking.model_checker`) under a configurable reduction
pipeline (``reduction=``, see :mod:`repro.engine.reduction`).  Because the
items are independent and fully described by picklable primitives, the
same list can be executed

* serially (:func:`execute_tasks` with an ``Algorithm`` in hand), or
* fanned across a ``multiprocessing`` pool (:class:`ParallelCampaignEngine`),
  with results returned in task order — so the two paths produce
  **identical** reports for identical task lists.

Determinism: every randomized run is driven by the explicit seed carried in
its task (never by shared RNG state), so a campaign's outcome is a pure
function of its task list.  :func:`derive_seed` turns a base seed plus any
hashable coordinates into a stable per-task seed for callers that want many
distinct-but-reproducible seeds without enumerating them by hand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.algorithm import Algorithm
from ..core.errors import VerificationError
from ..core.execution import ExecutionResult
from ..core.grid import Grid
from .matcher import LocalMatcher, MatcherCache, matcher_for
from .pool import ExplorationPool, default_workers, registered
from .reduction import normalize_reduction
from .suites import default_grid_suite
from .walk import TieBreak, run_async, run_fsync, run_ssync

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a module cycle)
    from .backend import ExecutionBackend
    from .store import VerdictStore

__all__ = [
    "VerificationReport",
    "GridSweepReport",
    "CampaignTask",
    "verify_one",
    "check_one",
    "run_task",
    "execute_tasks",
    "grid_sweep_tasks",
    "stress_test_tasks",
    "exhaustive_check_tasks",
    "derive_seed",
    "task_store_key",
    "ParallelCampaignEngine",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
@dataclass
class VerificationReport:
    """Outcome of a single verification run.

    For ``kind="walk"`` reports ``steps``/``moves`` are the scheduler
    rounds and robot moves of the bounded execution; for ``kind="check"``
    reports (exhaustive model-checking tasks) they carry the explored and
    terminal state counts of the (possibly reduced) state space, and
    ``seed`` is ``None`` (exhaustive checks quantify over every schedule).
    """

    algorithm: str
    model: str
    m: int
    n: int
    #: The seed that actually drove the run (:func:`verify_one` normalizes
    #: ``None`` to ``0`` before executing), so replaying with
    #: ``seed=report.seed`` reproduces the run exactly.  ``None`` only on
    #: reports built by hand and on exhaustive-check reports.
    seed: Optional[int]
    ok: bool
    steps: int
    moves: int
    reason: str
    #: Matcher-cache counters observed *during this run*.  Excluded from
    #: equality (``compare=False``): the numbers depend on how warm the
    #: run's matcher happened to be — a serial campaign shares one cache
    #: across the whole task list while each pool worker warms its own —
    #: and must not break the serial-vs-parallel report parity guarantee.
    cache_hits: Optional[int] = field(default=None, compare=False)
    cache_misses: Optional[int] = field(default=None, compare=False)
    #: ``"walk"`` (bounded execution) or ``"check"`` (exhaustive check).
    kind: str = "walk"
    #: For ``kind="check"``: the active reduction spec the check ran under.
    reduction: Optional[str] = None
    #: For ``kind="check"``: per-component reduction statistics (orbit
    #: collapses, interleavings pruned).  Deterministic, but excluded from
    #: equality like the cache counters — observability, not verdict.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None, compare=False)
    #: Verdict-store counters observed when this report was served through
    #: a :class:`~repro.engine.store.VerdictStore` (``None`` when no store
    #: was involved).  Excluded from equality like the cache counters: a
    #: cached report must compare equal to a freshly computed one.
    store_stats: Optional[Dict[str, object]] = field(default=None, compare=False)

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED ({self.reason})"
        if self.kind == "check":
            reduced = f", reduction={self.reduction}" if self.reduction else ""
            return f"{self.algorithm} {self.m}x{self.n} [{self.model} exhaustive{reduced}]: {status}"
        seed = "" if self.seed is None else f", seed={self.seed}"
        return f"{self.algorithm} {self.m}x{self.n} [{self.model}{seed}]: {status}"

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of this run's matcher lookups served from the cache."""
        if self.cache_hits is None or self.cache_misses is None:
            return None
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class GridSweepReport:
    """Aggregated outcome of a verification campaign."""

    algorithm: str
    reports: List[VerificationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every individual run succeeded."""
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> List[VerificationReport]:
        return [report for report in self.reports if not report.ok]

    def raise_on_failure(self) -> "GridSweepReport":
        """Raise :class:`VerificationError` if any run failed; return self."""
        if not self.ok:
            raise VerificationError(
                f"{self.algorithm}: {len(self.failures)} verification failures, e.g. {self.failures[0]}"
            )
        return self

    def summary(self) -> str:
        cache = ""
        hits = sum(report.cache_hits or 0 for report in self.reports)
        misses = sum(report.cache_misses or 0 for report in self.reports)
        if hits + misses:
            cache = f" (match cache: {hits / (hits + misses):.0%} hits over {hits + misses} lookups)"
        return (
            f"{self.algorithm}: {len(self.reports) - len(self.failures)}/{len(self.reports)}"
            f" verification runs succeeded{cache}"
        )


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------
def _execute(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    seed: int,
    tie_break: str,
    max_steps: Optional[int],
    matcher: Optional[LocalMatcher] = None,
) -> ExecutionResult:
    """Run one bounded execution; ``seed`` must already be normalized.

    The seed passes through ``run_*`` (which builds the default
    RandomSubset / RandomAsync scheduler from it) instead of a scheduler
    constructed here, so the seed recorded on the ExecutionResult is the
    one that actually drove the run and replays it exactly.
    """
    if model == "FSYNC":
        return run_fsync(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    if model == "SSYNC":
        return run_ssync(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    if model == "ASYNC":
        return run_async(
            algorithm, grid, seed=seed, tie_break=tie_break, max_steps=max_steps, matcher=matcher
        )
    raise VerificationError(f"unknown model {model!r}")


def verify_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
    max_steps: Optional[int] = None,
    cache: Optional[MatcherCache] = None,
    store: Optional["VerdictStore"] = None,
) -> VerificationReport:
    """Check Definition 1 on one bounded execution.

    Matching runs on the process-wide table unless ``cache`` (a
    :class:`~repro.engine.matcher.MatcherCache`) is given; the run's own
    hit/miss delta is recorded on the report.

    ``seed=None`` is normalized to ``0`` *before* the run, and the report
    records the normalized value: the seed on a
    :class:`VerificationReport` is always the seed that actually drove the
    run, so re-running with ``seed=report.seed`` replays it exactly.

    ``store`` (a :class:`~repro.engine.store.VerdictStore`) memoizes the
    report for registered algorithms, keyed by the normalized seed, the
    tie-break policy and the step budget alongside the grid coordinates —
    a cached report is the report of *exactly* this run.
    """
    seed = 0 if seed is None else seed
    if store is not None and registered(algorithm):
        from .spec import walk_task_key  # local import: spec imports this module

        key = walk_task_key(algorithm.name, m, n, model, seed, tie_break, max_steps)
        return store.fetch(
            key,
            lambda: _run_verify_one(algorithm, m, n, model, seed, tie_break, max_steps, cache),
        )
    return _run_verify_one(algorithm, m, n, model, seed, tie_break, max_steps, cache)


def _run_verify_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str,
    seed: int,
    tie_break: str,
    max_steps: Optional[int],
    cache: Optional[MatcherCache],
) -> VerificationReport:
    """The uncached body of :func:`verify_one` (seed already normalized)."""
    grid = Grid(m, n)
    matcher = matcher_for(algorithm, grid, cache)
    stats_before = matcher.stats.snapshot()
    try:
        result = _execute(algorithm, grid, model, seed, tie_break, max_steps, matcher=matcher)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return VerificationReport(
            algorithm=algorithm.name,
            model=model,
            m=m,
            n=n,
            seed=seed,
            ok=False,
            steps=0,
            moves=0,
            reason=f"{type(exc).__name__}: {exc}",
        )
    ok = result.is_terminating_exploration
    reason = "ok"
    if not result.terminated:
        reason = f"did not terminate within {result.steps} steps"
    elif not result.explored:
        reason = f"terminated with {len(result.unvisited)} unvisited nodes"
    delta = matcher.stats.delta_since(stats_before)
    return VerificationReport(
        algorithm=algorithm.name,
        model=model,
        m=m,
        n=n,
        seed=seed,
        ok=ok,
        steps=result.steps,
        moves=result.total_moves,
        reason=reason,
        cache_hits=delta.hits,
        cache_misses=delta.misses,
    )


def check_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
    cache: Optional[MatcherCache] = None,
    kernel: Optional[str] = None,
    store: Optional["VerdictStore"] = None,
) -> VerificationReport:
    """Exhaustively model-check one ``(algorithm, grid, model)`` triple.

    The campaign-shaped wrapper around
    :func:`repro.checking.check_terminating_exploration`: the verdict (and
    its reason), the explored/terminal state counts, the matcher-cache
    delta and the per-component reduction statistics all land on a
    :class:`VerificationReport` with ``kind="check"``, so exhaustive checks
    ride the same serial/parallel campaign machinery as bounded walks.  A
    tripped state budget (or any other failure) is reported, not raised.

    ``store`` (a :class:`~repro.engine.store.VerdictStore`) memoizes the
    report for registered algorithms — ``max_states`` is part of the key,
    so a budget-tripped verdict never masquerades as a full one — and is
    forwarded to the checker, which caches the underlying
    :class:`~repro.checking.model_checker.CheckResult` and exploration
    under their own keys.
    """
    if store is not None and registered(algorithm):
        from .spec import check_task_key  # local import: spec imports this module

        key = check_task_key(algorithm.name, m, n, model, reduction, max_states, kernel)
        return store.fetch(
            key,
            lambda: _run_check_one(algorithm, m, n, model, reduction, max_states, cache, kernel, store),
        )
    return _run_check_one(algorithm, m, n, model, reduction, max_states, cache, kernel, store)


def _run_check_one(
    algorithm: Algorithm,
    m: int,
    n: int,
    model: str,
    reduction: Optional[str],
    max_states: int,
    cache: Optional[MatcherCache],
    kernel: Optional[str],
    store: Optional["VerdictStore"],
) -> VerificationReport:
    """The uncached body of :func:`check_one`."""
    from ..checking.model_checker import (  # local import: avoids a layering cycle
        check_terminating_exploration,
    )

    grid = Grid(m, n)
    try:
        result = check_terminating_exploration(
            algorithm,
            grid,
            model=model,
            max_states=max_states,
            reduction=reduction,
            cache=cache,
            kernel=kernel,
            store=store,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return VerificationReport(
            algorithm=algorithm.name,
            model=model,
            m=m,
            n=n,
            seed=None,
            ok=False,
            steps=0,
            moves=0,
            reason=f"{type(exc).__name__}: {exc}",
            kind="check",
            reduction=normalize_reduction(reduction),
        )
    stats = result.matcher_stats
    return VerificationReport(
        algorithm=algorithm.name,
        model=model,
        m=m,
        n=n,
        seed=None,
        ok=result.ok,
        steps=result.states_explored,
        moves=result.terminal_states,
        reason="ok" if result.ok else (result.counterexample or "check failed"),
        cache_hits=int(stats["hits"]) if stats is not None else None,
        cache_misses=int(stats["misses"]) if stats is not None else None,
        kind="check",
        reduction=result.reduction,
        reduction_stats=result.reduction_stats,
    )


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignTask:
    """One independent, picklable verification work item.

    ``algorithm`` is a registry name so the task can cross a process
    boundary (rule sets carry lambdas and cannot be pickled).  ``kind``
    selects the execution engine: ``"walk"`` runs one bounded execution
    (driven by ``seed``/``tie_break``/``max_steps``), ``"check"`` runs the
    exhaustive model checker (driven by ``reduction``/``max_states`` — both
    picklable primitives, so reduced exhaustive checks fan out across
    process pools like any other task).
    """

    algorithm: str
    m: int
    n: int
    model: str = "FSYNC"
    seed: Optional[int] = None
    tie_break: str = TieBreak.ERROR
    max_steps: Optional[int] = None
    kind: str = "walk"
    #: ``kind="check"`` only: the reduction spec string for the exhaustive
    #: exploration (``None`` falls back to the checker's default quotient).
    reduction: Optional[str] = "grid"
    #: ``kind="check"`` only: the exploration state budget.
    max_states: int = 200_000
    #: ``kind="check"`` only: the successor kernel for the exploration
    #: (``"object"`` / ``"packed"`` / ``"auto"``; see
    #: :mod:`repro.engine.packed`).  Appended last so task tuples pickled
    #: by pre-kernel coordinators keep unpickling.
    kernel: str = "object"


def run_task(task: CampaignTask) -> VerificationReport:
    """Execute one task, resolving its algorithm through the registry.

    This is the worker entry point of the parallel engine; it must stay a
    module-level function so ``multiprocessing`` can pickle it.  Matching
    runs against the worker's
    :func:`~repro.engine.matcher.process_cache` — the very cache the sharded
    explorer warms in the same worker, so on a long-lived
    :class:`~repro.engine.pool.ExplorationPool` campaign tasks and
    explorations keep each other warm across an entire session.
    """
    from ..algorithms import registry  # local import: avoids a layering cycle

    algorithm = registry.get(task.algorithm)
    if task.kind == "check":
        return check_one(
            algorithm,
            task.m,
            task.n,
            model=task.model,
            reduction=task.reduction,
            max_states=task.max_states,
            kernel=task.kernel,
        )
    return verify_one(
        algorithm,
        task.m,
        task.n,
        model=task.model,
        seed=task.seed,
        tie_break=task.tie_break,
        max_steps=task.max_steps,
    )


def task_store_key(task: CampaignTask) -> Tuple[object, ...]:
    """The verdict-store spec of a task — shared by every execution route.

    :func:`verify_one` / :func:`check_one` build the identical tuples from
    their arguments (and the HTTP service builds them from request
    payloads), so a report cached by any route is a hit for every other —
    the tuple spellings live in :mod:`repro.engine.spec`.  Normalizations
    mirror execution: a walk's ``seed=None`` runs as ``0``, a check's
    reduction and kernel specs resolve through their canonical spellings.
    """
    from .spec import check_task_key, walk_task_key  # local import: spec imports this module

    if task.kind == "check":
        return check_task_key(
            task.algorithm, task.m, task.n, task.model,
            task.reduction, task.max_states, task.kernel,
        )
    return walk_task_key(
        task.algorithm, task.m, task.n, task.model,
        task.seed, task.tie_break, task.max_steps,
    )


def execute_tasks(
    algorithm: Algorithm,
    tasks: Iterable[CampaignTask],
    cache: Optional[MatcherCache] = None,
    store: Optional["VerdictStore"] = None,
) -> List[VerificationReport]:
    """Run tasks serially against an in-hand algorithm object.

    Unlike :func:`run_task` this works for algorithms that are not in the
    registry (ad-hoc/test algorithms); the results are identical to the
    parallel path for registered ones because both routes call
    :func:`verify_one` / :func:`check_one` per task kind.  Every task
    matches on ``cache`` when given, else on the process-wide table, so
    each starts warm on the patterns already seen — at any grid size.
    ``store`` forwards to :func:`verify_one` / :func:`check_one` per task,
    so repeated task lists are served from the verdict store.
    """
    reports = []
    for task in tasks:
        if task.kind == "check":
            reports.append(
                check_one(
                    algorithm,
                    task.m,
                    task.n,
                    model=task.model,
                    reduction=task.reduction,
                    max_states=task.max_states,
                    cache=cache,
                    kernel=task.kernel,
                    store=store,
                )
            )
        else:
            reports.append(
                verify_one(
                    algorithm,
                    task.m,
                    task.n,
                    model=task.model,
                    seed=task.seed,
                    tie_break=task.tie_break,
                    max_steps=task.max_steps,
                    cache=cache,
                    store=store,
                )
            )
    return reports


def grid_sweep_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    seed: Optional[int] = None,
    tie_break: str = TieBreak.ERROR,
) -> List[CampaignTask]:
    """The task list of a grid sweep (one run per supported size)."""
    sizes = list(sizes) if sizes is not None else default_grid_suite(algorithm)
    return [
        CampaignTask(algorithm=algorithm.name, m=m, n=n, model=model, seed=seed, tie_break=tie_break)
        for m, n in sizes
        if algorithm.supports_grid(m, n)
    ]


def stress_test_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    models: Sequence[str] = ("SSYNC", "ASYNC"),
    seeds: Sequence[int] = tuple(range(10)),
    tie_break: str = TieBreak.FIRST,
) -> List[CampaignTask]:
    """The task list of a randomized-scheduler stress campaign."""
    sizes = list(sizes) if sizes is not None else default_grid_suite(algorithm, max_side=7)
    return [
        CampaignTask(algorithm=algorithm.name, m=m, n=n, model=model, seed=seed, tie_break=tie_break)
        for m, n in sizes
        if algorithm.supports_grid(m, n)
        for model in models
        for seed in seeds
    ]


def exhaustive_check_tasks(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    reduction: Optional[str] = "grid",
    max_states: int = 200_000,
    kernel: str = "object",
) -> List[CampaignTask]:
    """The task list of an exhaustive model-checking sweep.

    One ``kind="check"`` task per supported grid size, each running the
    full state-space exploration under ``reduction``.  The default size
    family stays small (``max_side=4``): exhaustive checks grow
    exponentially with the grid, so sweeping them across the walk-campaign
    suite would be a budget trip, not a campaign.
    """
    sizes = list(sizes) if sizes is not None else default_grid_suite(algorithm, max_side=4)
    return [
        CampaignTask(
            algorithm=algorithm.name,
            m=m,
            n=n,
            model=model,
            kind="check",
            reduction=reduction,
            max_states=max_states,
            kernel=kernel,
        )
        for m, n in sizes
        if algorithm.supports_grid(m, n)
    ]


def derive_seed(base: int, *coordinates) -> int:
    """A stable 63-bit seed derived from a base seed and any coordinates.

    Pure function of its arguments (SHA-256 over their repr), so campaigns
    that need one distinct seed per ``(grid, model, run)`` cell stay fully
    reproducible without enumerating seeds by hand.
    """
    digest = hashlib.sha256(repr((base,) + coordinates).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# The parallel engine
# ---------------------------------------------------------------------------
class ParallelCampaignEngine:
    """Fans campaign work items across a ``multiprocessing`` pool.

    Results come back in task order, and every run is driven purely by the
    seed in its task, so ``workers=N`` produces reports identical to the
    serial path.  Algorithms are shipped to workers by registry name;
    unregistered (ad-hoc) algorithms fall back to in-process execution.

    ``pool`` — a persistent :class:`~repro.engine.pool.ExplorationPool` —
    makes the engine execute its task lists on those long-lived workers
    instead of spawning an ephemeral pool per call: startup is amortised
    across campaigns, and the workers' matcher caches stay warm from one
    task list (and from any sharded exploration run on the same pool) to
    the next.  ``workers`` defaults to the pool's worker count, else to
    the affinity-aware :func:`~repro.engine.pool.default_workers`.

    ``backend`` — any :class:`~repro.engine.backend.ExecutionBackend` —
    supersedes both: task lists go to ``backend.run_tasks`` verbatim, so
    the same engine drives the serial, pooled and TCP-distributed
    (:class:`~repro.engine.distributed.DistributedBackend`) execution
    paths.  Reports are identical whichever backend runs them (every
    report is a pure function of its task and results return in task
    order); unregistered ad-hoc algorithms still fall back to in-process
    execution, since their rule sets cannot cross a process boundary.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunksize: int = 4,
        pool: Optional[ExplorationPool] = None,
        backend: Optional["ExecutionBackend"] = None,
        store: Optional["VerdictStore"] = None,
    ) -> None:
        if workers is None and backend is None:
            workers = pool.workers if pool is not None else default_workers()
        # ``None`` with a backend means "the backend's current parallelism":
        # re-read per use (see :attr:`workers`) instead of frozen here, so
        # worker daemons that enroll after the engine is built still widen
        # campaign waves.
        self._workers = workers
        self.chunksize = max(1, chunksize)
        self.pool = pool
        self.backend = backend
        #: A :class:`~repro.engine.store.VerdictStore` consulted *before*
        #: dispatch: tasks whose reports are already stored never reach the
        #: pool/backend at all, and fresh reports are recorded on the way
        #: back.  The store lives on the coordinator (it holds locks and
        #: file handles, so it never crosses a process boundary).
        self.store = store

    @property
    def workers(self) -> int:
        """The engine's fan-out width.

        Explicitly passed ``workers`` are fixed; when the width was left to
        a backend, the backend's *live* ``parallelism`` is re-read on every
        access — a :class:`~repro.engine.distributed.DistributedBackend`
        whose daemons joined after construction reports them here.
        """
        if self._workers is not None:
            return self._workers
        return max(1, int(getattr(self.backend, "parallelism", 1) or 1))

    # -- execution -----------------------------------------------------
    def run_tasks(
        self,
        algorithm: Algorithm,
        tasks: Sequence[CampaignTask],
        *,
        journal=None,
        resume: bool = True,
        store: Optional["VerdictStore"] = None,
    ) -> List[VerificationReport]:
        """Execute ``tasks`` in task order, optionally journalled.

        ``journal`` — a :class:`~repro.engine.journal.CampaignJournal` or a
        path to open one at — makes the run *durable*: every completed
        report is appended (and fsynced) to the journal before the call
        returns, keyed by a content hash of its task.  With ``resume=True``
        (the default) journaled verdicts are replayed instead of
        re-executed, so a campaign killed mid-run and re-pointed at the
        same journal finishes the remainder and returns reports identical
        to an uninterrupted run's (every report is a pure function of its
        task).  ``resume=False`` truncates a path-opened journal first.
        A journal opened here is closed here; a passed-in instance stays
        open (the caller owns its lifecycle).

        ``store`` (defaulting to the engine's own) prefilters the list
        against the verdict store: stored reports are returned directly
        (annotated with ``store_stats``), only the remainder is dispatched,
        and every fresh report is recorded before the call returns —
        except poisoned ones, whose outcome is fault-injected rather than
        a function of the task.
        """
        tasks = list(tasks)
        store = self.store if store is None else store
        if store is not None and registered(algorithm):
            from .store import HIT, MISS  # local import: keeps the store optional

            keys = [task_store_key(task) for task in tasks]
            results: List[Optional[VerificationReport]] = []
            for key in keys:
                cached = store.get(key)
                results.append(store.annotate(cached, HIT) if cached is not None else None)
            pending = [index for index, report in enumerate(results) if report is None]
            if pending:
                fresh = self._run_tasks(
                    algorithm, [tasks[index] for index in pending], journal=journal, resume=resume
                )
                for index, report in zip(pending, fresh):
                    if not report.reason.startswith("poison task: "):
                        store.put(keys[index], report)
                    results[index] = store.annotate(report, MISS)
            return results  # type: ignore[return-value]
        return self._run_tasks(algorithm, tasks, journal=journal, resume=resume)

    def _run_tasks(
        self,
        algorithm: Algorithm,
        tasks: List[CampaignTask],
        *,
        journal,
        resume: bool,
    ) -> List[VerificationReport]:
        """Dispatch (store already consulted), optionally journalled."""
        if journal is None:
            return self._dispatch(algorithm, tasks)
        from .journal import CampaignJournal  # local import: keeps import cheap

        owned = not isinstance(journal, CampaignJournal)
        jnl = CampaignJournal(journal, fresh=not resume) if owned else journal
        try:
            keys = [CampaignJournal.task_key(task) for task in tasks]
            results: List[Optional[VerificationReport]] = [
                jnl.get(key) if resume else None for key in keys
            ]
            pending = [index for index, report in enumerate(results) if report is None]
            if pending:
                self._run_journaled(algorithm, tasks, keys, results, pending, jnl)
            return results  # type: ignore[return-value]
        finally:
            if owned:
                jnl.close()

    def _run_journaled(
        self,
        algorithm: Algorithm,
        tasks: List[CampaignTask],
        keys: List[str],
        results: List[Optional[VerificationReport]],
        pending: List[int],
        jnl,
    ) -> None:
        """Execute the pending items, journalling each completed report.

        Routing mirrors :meth:`_dispatch`, but execution is granular so
        durability is too: serial runs journal per task, pooled runs
        journal per result as ``imap`` streams them back, and backend runs
        journal per wave of ``workers * chunksize`` items (a backend call
        is all-or-nothing, so the wave is the durability quantum).
        """

        def commit(index: int, report: VerificationReport) -> None:
            results[index] = report
            jnl.put(keys[index], report)

        if self.backend is not None and registered(algorithm):
            wave = max(1, self.workers * self.chunksize)
            for start in range(0, len(pending), wave):
                ids = pending[start : start + wave]
                for index, report in zip(ids, self.backend.run_tasks([tasks[i] for i in ids])):
                    commit(index, report)
            return
        workers = min(self.workers, self.pool.workers) if self.pool is not None else self.workers
        if workers <= 1 or len(pending) <= 1 or not registered(algorithm):
            cache = self._fallback_cache()
            for index in pending:
                commit(index, execute_tasks(algorithm, [tasks[index]], cache=cache)[0])
            return
        pending_tasks = [tasks[index] for index in pending]
        if self.pool is not None:
            reports = self.pool.imap(run_task, pending_tasks, chunksize=self.chunksize)
            for index, report in zip(pending, reports):
                commit(index, report)
            return
        import multiprocessing

        context = multiprocessing.get_context()
        with context.Pool(processes=min(self.workers, len(pending_tasks))) as pool:
            reports = pool.imap(run_task, pending_tasks, chunksize=self.chunksize)
            for index, report in zip(pending, reports):
                commit(index, report)

    def _fallback_cache(self) -> Optional[MatcherCache]:
        """The cache of in-process runs: the pool's (or backend's) coordinator
        cache when the engine has one, else ``None`` (the process-wide table)."""
        if self.pool is not None:
            return self.pool.cache
        if self.backend is not None:
            from .backend import backend_cache  # local import: module cycle

            return backend_cache(self.backend)
        return None

    def _dispatch(self, algorithm: Algorithm, tasks: List[CampaignTask]) -> List[VerificationReport]:
        if self.backend is not None and tasks and registered(algorithm):
            # Even a single task ships: a remote backend's workers are not
            # this process, and their caches are the ones worth warming.
            return self.backend.run_tasks(tasks)
        # A pool can never offer more parallelism than it has workers.
        workers = min(self.workers, self.pool.workers) if self.pool is not None else self.workers
        if workers <= 1 or len(tasks) <= 1 or not registered(algorithm):
            return execute_tasks(algorithm, tasks, cache=self._fallback_cache())
        if self.pool is not None:
            return self.pool.map(run_task, tasks, chunksize=self.chunksize)
        import multiprocessing

        # The platform-default start method (fork on Linux, spawn on macOS/
        # Windows) is the safe choice: tasks and run_task are picklable and
        # re-import everything they need, so they are spawn-safe, and forcing
        # fork on macOS can deadlock threaded parents.
        context = multiprocessing.get_context()
        with context.Pool(processes=min(self.workers, len(tasks))) as pool:
            return pool.map(run_task, tasks, chunksize=self.chunksize)

    # -- campaign shapes (mirroring the serial entry points) ------------
    def grid_sweep(
        self,
        algorithm: Algorithm,
        sizes: Optional[Iterable[Tuple[int, int]]] = None,
        model: str = "FSYNC",
        seed: Optional[int] = None,
        tie_break: str = TieBreak.ERROR,
        journal=None,
        resume: bool = True,
    ) -> GridSweepReport:
        tasks = grid_sweep_tasks(algorithm, sizes=sizes, model=model, seed=seed, tie_break=tie_break)
        return GridSweepReport(
            algorithm=algorithm.name,
            reports=self.run_tasks(algorithm, tasks, journal=journal, resume=resume),
        )

    def stress_test(
        self,
        algorithm: Algorithm,
        sizes: Optional[Iterable[Tuple[int, int]]] = None,
        models: Sequence[str] = ("SSYNC", "ASYNC"),
        seeds: Sequence[int] = tuple(range(10)),
        tie_break: str = TieBreak.FIRST,
        journal=None,
        resume: bool = True,
    ) -> GridSweepReport:
        tasks = stress_test_tasks(algorithm, sizes=sizes, models=models, seeds=seeds, tie_break=tie_break)
        return GridSweepReport(
            algorithm=algorithm.name,
            reports=self.run_tasks(algorithm, tasks, journal=journal, resume=resume),
        )

    def exhaustive_sweep(
        self,
        algorithm: Algorithm,
        sizes: Optional[Iterable[Tuple[int, int]]] = None,
        model: str = "FSYNC",
        reduction: Optional[str] = "grid",
        max_states: int = 200_000,
        kernel: str = "object",
        journal=None,
        resume: bool = True,
    ) -> GridSweepReport:
        """Exhaustive model checks over a family of grid sizes.

        Each task runs the full (reduced) state-space exploration; the
        reports carry the verdicts plus per-component reduction statistics.
        ``kernel`` selects the successor kernel per task (reports are
        kernel-independent).  ``journal``/``resume`` make the sweep
        durable and resumable — see :meth:`run_tasks`.
        """
        tasks = exhaustive_check_tasks(
            algorithm, sizes=sizes, model=model, reduction=reduction,
            max_states=max_states, kernel=kernel,
        )
        return GridSweepReport(
            algorithm=algorithm.name,
            reports=self.run_tasks(algorithm, tasks, journal=journal, resume=resume),
        )

    def verify_algorithm(
        self,
        algorithm: Algorithm,
        sizes: Optional[Iterable[Tuple[int, int]]] = None,
        seeds: Sequence[int] = tuple(range(5)),
        journal=None,
        resume: bool = True,
    ) -> GridSweepReport:
        """The full campaign appropriate for an algorithm's claimed model."""
        tasks = grid_sweep_tasks(algorithm, sizes=sizes, model="FSYNC")
        if algorithm.synchrony == "ASYNC":
            tasks.extend(stress_test_tasks(algorithm, sizes=sizes, seeds=seeds))
        return GridSweepReport(
            algorithm=algorithm.name,
            reports=self.run_tasks(algorithm, tasks, journal=journal, resume=resume),
        )
