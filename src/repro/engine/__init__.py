"""The unified transition-system kernel.

``repro.engine`` is the one place the Look-Compute-Move semantics of the
paper are implemented; every other layer consumes it:

* :mod:`repro.engine.states` — canonical, hashable scheduler states;
* :mod:`repro.engine.matcher` — memoized snapshot/rule-match computation;
* :mod:`repro.engine.transition` — the :class:`TransitionSystem` protocol
  and the authoritative FSYNC/SSYNC/ASYNC successor generator;
* :mod:`repro.engine.packed` — the packed successor kernel: states as
  flat integer tuples, table-driven expansion, an order of magnitude more
  serial states/s, parity-gated against the object kernel (selected by a
  ``kernel=`` spec on the exploration entry points);
* :mod:`repro.engine.profile` — opt-in (``REPRO_PROFILE=1``) per-phase
  wall-clock split attached to ``Exploration.profile``;
* :mod:`repro.engine.symmetry` — the grid-automorphism group (rotations
  and, for chirality-free algorithms, reflections);
* :mod:`repro.engine.reduction` — the composable reduction subsystem:
  grid-symmetry quotient x detected color-permutation symmetry x ASYNC
  partial-order reduction, selected by a ``reduction=`` spec;
* :mod:`repro.engine.explorer` — frontier search, interning, cycle and
  coverage analyses (the model checker's substrate);
* :mod:`repro.engine.sharded` — hash-partitioned parallel exploration over
  a process pool, merge-identical to the serial explorer;
* :mod:`repro.engine.pool` — the persistent :class:`ExplorationPool`:
  long-lived workers with surviving matcher caches, adaptive
  serial/sharded routing;
* :mod:`repro.engine.backend` — the :class:`ExecutionBackend` protocol
  (serial / pooled / distributed execution of campaign tasks and
  exploration shards, all result-identical);
* :mod:`repro.engine.distributed` — TCP worker daemons and the
  length-prefixed-pickle coordinator (:class:`DistributedBackend`) that
  fans the same payloads out beyond one machine, including stateful
  shard sessions (:class:`ShardSession`) with resident worker frontiers
  and delta-only wave exchange;
* :mod:`repro.engine.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan`) for chaos-testing the distributed stack;
* :mod:`repro.engine.journal` — the durable, resumable campaign verdict
  journal (:class:`CampaignJournal`) and the checkpointed shard-snapshot
  store (:class:`ShardSnapshotStore`) session recovery restores from;
* :mod:`repro.engine.store` — the persistent content-addressed
  :class:`VerdictStore`: explorations, check results and campaign
  reports cached on disk by content hash, with in-flight request
  coalescing;
* :mod:`repro.engine.spec` — work-item spec parsing/validation, the one
  spelling of every verdict-store key, and the canonical JSON wire forms
  the HTTP service (:mod:`repro.service`) exchanges;
* :mod:`repro.engine.walk` — the lazy single-path simulator;
* :mod:`repro.engine.suites` — shared grid-size suites;
* :mod:`repro.engine.campaign` — batched serial/parallel campaign runner.

See ``docs/architecture.md`` for the full layering diagram.
"""

from .campaign import (
    CampaignTask,
    GridSweepReport,
    ParallelCampaignEngine,
    VerificationReport,
    check_one,
    derive_seed,
    execute_tasks,
    exhaustive_check_tasks,
    grid_sweep_tasks,
    run_task,
    stress_test_tasks,
    task_store_key,
    verify_one,
)
from .backend import (
    ExecutionBackend,
    FallbackBackend,
    FleetLostError,
    NoWorkersError,
    PoisonedItemError,
    PoolBackend,
    SerialBackend,
    ShardSession,
    backend_cache,
)
from .explorer import Exploration, explore, guaranteed_nodes, has_cycle, topological_order
from .faults import Fault, FaultInjected, FaultPlan
from .journal import CampaignJournal, ShardSnapshotStore
from .matcher import LocalMatcher, MatcherCache, MatcherStats, matcher_for, process_cache
from .packed import (
    HAS_NUMPY,
    KERNELS,
    PackedSpace,
    PackedTransitionSystem,
    build_transition_system,
    normalize_kernel,
)
from .pool import (
    PACKED_SERIAL_FACTOR,
    SERIAL_THRESHOLD,
    ExplorationPool,
    default_workers,
    estimate_states,
)
from .profile import PROFILE_ENV, KernelProfile, profiling_enabled
from .reduction import (
    ColorPermutation,
    ProductWitness,
    Reduction,
    ReductionPipeline,
    apriori_reduction_factor,
    detect_color_permutations,
    normalize_reduction,
    resolve_reduction,
    transform_state_colors,
)
from .sharded import explore_sharded
from .spec import (
    CheckSpec,
    SpecError,
    campaign_id,
    canonical_json,
    check_store_key,
    explore_store_key,
    exploration_payload,
    parse_campaign,
    parse_check_spec,
    parse_task,
    result_payload,
)
from .store import VerdictStore
from .states import (
    AsyncRobotState,
    FrozenSnapshot,
    SchedulerState,
    freeze_snapshot,
    initial_state,
    thaw_snapshot,
    world_from_state,
)
from .suites import (
    REDUCTION_BENCH_CASE,
    default_grid_suite,
    reduction_parity_suite,
    scaling_suite,
)
from .symmetry import GridSymmetry, canonicalize, grid_symmetries, transform_state
from .transition import MODELS, AlgorithmTransitionSystem, TransitionSystem
from .walk import TieBreak, default_step_budget, run, run_async, run_fsync, run_ssync

#: Lazily re-exported from :mod:`repro.engine.distributed` (PEP 562): the
#: daemon CLI runs ``python -m repro.engine.distributed``, and importing
#: that module eagerly here would make ``runpy`` execute it twice.
_DISTRIBUTED_EXPORTS = frozenset(
    {"DistributedBackend", "WorkerDaemon", "WorkerStatus", "run_worker", "send_message", "recv_message"}
)


def __getattr__(name):
    if name in _DISTRIBUTED_EXPORTS:
        from . import distributed

        return getattr(distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # states
    "AsyncRobotState",
    "SchedulerState",
    "FrozenSnapshot",
    "initial_state",
    "world_from_state",
    "freeze_snapshot",
    "thaw_snapshot",
    # matcher / transition
    "LocalMatcher",
    "MatcherCache",
    "MatcherStats",
    "MODELS",
    "TransitionSystem",
    "AlgorithmTransitionSystem",
    # symmetry
    "GridSymmetry",
    "grid_symmetries",
    "transform_state",
    "canonicalize",
    # reduction
    "Reduction",
    "ReductionPipeline",
    "ColorPermutation",
    "ProductWitness",
    "detect_color_permutations",
    "transform_state_colors",
    "normalize_reduction",
    "resolve_reduction",
    "apriori_reduction_factor",
    # packed kernel
    "KERNELS",
    "HAS_NUMPY",
    "PackedSpace",
    "PackedTransitionSystem",
    "build_transition_system",
    "normalize_kernel",
    # profiling
    "PROFILE_ENV",
    "KernelProfile",
    "profiling_enabled",
    # explorer
    "Exploration",
    "explore",
    "explore_sharded",
    # pool
    "ExplorationPool",
    "SERIAL_THRESHOLD",
    "PACKED_SERIAL_FACTOR",
    "default_workers",
    "estimate_states",
    "process_cache",
    "matcher_for",
    # backends
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "DistributedBackend",
    "FallbackBackend",
    "ShardSession",
    "WorkerDaemon",
    "WorkerStatus",
    "backend_cache",
    "run_worker",
    "send_message",
    "recv_message",
    # resilience
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "CampaignJournal",
    "ShardSnapshotStore",
    "VerdictStore",
    "FleetLostError",
    "NoWorkersError",
    "PoisonedItemError",
    "has_cycle",
    "topological_order",
    "guaranteed_nodes",
    # walk
    "TieBreak",
    "default_step_budget",
    "run",
    "run_fsync",
    "run_ssync",
    "run_async",
    # suites
    "default_grid_suite",
    "scaling_suite",
    "reduction_parity_suite",
    "REDUCTION_BENCH_CASE",
    # campaign
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
    "ParallelCampaignEngine",
    # specs / wire forms
    "SpecError",
    "CheckSpec",
    "parse_check_spec",
    "parse_task",
    "parse_campaign",
    "campaign_id",
    "canonical_json",
    "check_store_key",
    "explore_store_key",
    "result_payload",
    "exploration_payload",
    "task_store_key",
]
