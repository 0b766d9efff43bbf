"""The packed fast-path successor kernel.

The object kernel (:class:`~repro.engine.transition.AlgorithmTransitionSystem`)
spends most of a serial exploration *shuffling objects*: every successor
allocates ``k`` :class:`~repro.engine.states.AsyncRobotState` records, sorts
them with tuple keys, hashes strings, and probes dictionaries keyed on nested
tuples.  The matcher memo tables already made rule evaluation cheap, so object
churn — not guard evaluation — is the serial states/s ceiling behind every
backend built on top (sharded waves, pools, TCP daemons all multiply serial
throughput).

This module removes that ceiling while keeping the object kernel as the
authoritative reference implementation:

* :class:`PackedSpace` encodes one robot record as a single ~89-bit integer
  (see the bit layout below) and interns ASYNC snapshots into a per-space
  id table, so a whole :class:`~repro.engine.states.SchedulerState` becomes
  a sorted tuple of plain ints — hashing, equality and canonical ordering
  all run at C speed on machine words;
* successor generation is **table-driven**: matcher results are compiled on
  first use into dense lookup tables keyed by packed *neighbourhood
  signatures* (walls + occupancy of the visibility ball + own color, one
  big int per robot), so the steady-state hot loop is dict-get plus integer
  arithmetic with no object allocation at all;
* :class:`PackedTransitionSystem` exposes the compiled kernel both through
  the ordinary :class:`~repro.engine.transition.TransitionSystem` protocol
  (object states in, object states out — which is what the reduction
  pipelines and the sharded workers consume) and through
  :meth:`PackedTransitionSystem.explore_packed`, a frontier-at-a-time BFS
  over packed codes that only inflates back to ``SchedulerState`` objects
  at the :class:`~repro.engine.explorer.Exploration` boundary;
* an optional NumPy path (:meth:`PackedSpace.wave_signatures`) evaluates
  the neighbourhood signatures of a whole frontier wave per call and is
  auto-disabled when numpy is absent or the wave is too small to amortise
  the array round-trip.

Bit layout of a packed robot code (LSB to MSB)::

    bits  0-4   pending move: (di+2)*5 + (dj+2) in [0, 24], 25 = None
    bits  5-8   pending color: 0 = None, else color index + 1
    bits  9-40  snapshot id: 0 = None, else index into the intern table
    bits 41-42  phase: 0 = "computed", 1 = "idle", 2 = "looked"
    bits 43-46  color index into the sorted palette
    bits 47-67  position j + POS_BIAS  (biased so off-grid drift stays valid)
    bits 68-..  position i + POS_BIAS

The field order is chosen so that **plain integer order equals the canonical
record order** of :meth:`AsyncRobotState.key` on every field except the
snapshot id (ids are first-seen, not value-ordered): the palette is indexed
in sorted string order, phase codes follow the alphabetical order of the
phase names, pending-None encodings sort exactly where ``key()`` places
them.  Snapshot-free states (everything the synchronous models reach from a
canonical start) therefore sort as bare ints; states carrying snapshots sort
through a memoized per-code key that splices the *interned snapshot value*
back into the comparison, which agrees with ``key()`` because two records
can only tie into the snapshot comparison from the same position — where
their frozen snapshots have identical wall structure and are comparable.

Parity is the contract: explorations, reduction statistics and budget-trip
messages produced through this kernel are byte-identical to the object
kernel's (enforced by ``tests/engine/test_packed.py`` and the bench smoke
guard).  Quotient reductions (``"grid"``, ``"grid+color"``, ...) keep using
the generic object-level explorer loop — with this class as the transition
system, so expansion is still table-driven — because orbit canonicalisation
is inherently an object-level computation; the packed BFS handles the
``"none"``/``"por"`` pipelines, which is where the raw states/s ceiling
lives.
"""

from __future__ import annotations

from itertools import combinations, product
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.errors import StateSpaceLimitExceeded
from ..core.grid import Grid
from ..core.views import ball_offsets
from .matcher import LocalMatcher, matcher_for
from .profile import KernelProfile, profiling_enabled
from .states import AsyncRobotState, SchedulerState, initial_state
from .transition import MODELS, AlgorithmTransitionSystem

try:  # pragma: no cover - exercised via HAS_NUMPY gating in tests
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in the dev image
    _np = None

__all__ = [
    "KERNELS",
    "HAS_NUMPY",
    "normalize_kernel",
    "build_transition_system",
    "PackedSpace",
    "PackedTransitionSystem",
]

#: Whether the optional vectorized wave path is available at all.
HAS_NUMPY = _np is not None

#: The kernel specs accepted everywhere a ``kernel=`` argument exists.
KERNELS = ("object", "packed", "auto")

#: Waves smaller than this skip the NumPy signature path: the array
#: round-trip costs more than the scalar loop saves on tiny frontiers.
_WAVE_NUMPY_MIN = 64

# ---------------------------------------------------------------------------
# Bit layout constants (documented in the module docstring)
# ---------------------------------------------------------------------------
PM_SHIFT = 0
PC_SHIFT = 5
SNAP_SHIFT = 9
PHASE_SHIFT = 41
COLOR_SHIFT = 43
POSJ_SHIFT = 47
POSI_SHIFT = 68

PM_NONE = 25
SNAP_MASK = (1 << 32) - 1
POS_BIAS = 1 << 20
_COORD_MASK = (1 << 21) - 1
#: Everything below the position fields (phase, color, snapshot, pendings).
LOW_MASK = (1 << POSJ_SHIFT) - 1
#: The two position fields alone.
POS_FIELD_MASK = ~LOW_MASK

PHASE_COMPUTED, PHASE_IDLE, PHASE_LOOKED = 0, 1, 2
_PHASE_CODE = {"computed": PHASE_COMPUTED, "idle": PHASE_IDLE, "looked": PHASE_LOOKED}
_PHASE_NAME = ("computed", "idle", "looked")

#: pending-move code -> decoded offset (index 25 = None).
_PM_DECODE = tuple((e // 5 - 2, e % 5 - 2) for e in range(25)) + (None,)
#: pending-move code -> additive delta on the position fields (index 25 = 0).
_PM_POS_DELTA = tuple(
    ((e // 5 - 2) << POSI_SHIFT) + ((e % 5 - 2) << POSJ_SHIFT) for e in range(25)
) + (0,)


def _encode_move(move: Tuple[int, int]) -> int:
    di, dj = move
    if not (-2 <= di <= 2 and -2 <= dj <= 2):
        raise ValueError(f"move {move!r} outside the packed kernel's +-2 range")
    return (di + 2) * 5 + (dj + 2)


def normalize_kernel(kernel) -> str:
    """Resolve a ``kernel=`` spec to ``"object"`` or ``"packed"``.

    ``None`` means the caller did not opt in and keeps the authoritative
    object kernel; ``"auto"`` resolves to ``"packed"`` (the fast path is
    parity-gated, so there is no correctness reason to prefer the object
    kernel when one was requested).
    """
    if kernel is None:
        return "object"
    if isinstance(kernel, str):
        value = kernel.strip().lower()
        if value == "auto":
            return "packed"
        if value in ("object", "packed"):
            return value
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def build_transition_system(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    kernel: str = "object",
    matcher: Optional[LocalMatcher] = None,
):
    """The transition system for ``kernel`` (the worker-side rebuild hook)."""
    if normalize_kernel(kernel) == "packed":
        return PackedTransitionSystem(algorithm, grid, model, matcher=matcher)
    return AlgorithmTransitionSystem(algorithm, grid, model, matcher=matcher)


class PackedSpace:
    """Codec plus compiled successor tables for one ``(algorithm, grid)`` pair.

    The space owns the snapshot intern table and every signature-keyed
    lookup table; all of them fill lazily through the bound
    :class:`~repro.engine.matcher.LocalMatcher` (so matcher hit/miss
    statistics keep meaning what they always meant: table compilation is a
    matcher lookup, steady-state signature hits never touch the matcher).
    """

    __slots__ = (
        "algorithm",
        "grid",
        "matcher",
        "colors",
        "color_index",
        "phi",
        "idle_suffix",
        "_m1",
        "_n1",
        "_wall_lo",
        "_wall_bias",
        "_wall_bits",
        "_cell_bits",
        "_offsets",
        "_offset_deltas",
        "_snap_ids",
        "_snapshots",
        "_sync_actions",
        "_look",
        "_computed",
        "_sort_keys",
        "_pack_memo",
        "_inflate_memo",
        "_inflate_state_memo",
        "_use_numpy",
        "_np_offset_deltas",
    )

    def __init__(self, algorithm: Algorithm, grid: Grid, matcher: LocalMatcher,
                 *, use_numpy: Optional[bool] = None) -> None:
        colors = tuple(sorted(algorithm.colors))
        if len(colors) > 15:
            raise ValueError(
                f"{algorithm.name}: packed kernel supports at most 15 colors, got {len(colors)}"
            )
        if algorithm.k > 15:
            raise ValueError(
                f"{algorithm.name}: packed kernel supports at most 15 robots, got {algorithm.k}"
            )
        if max(grid.m, grid.n) >= POS_BIAS - 4:
            raise ValueError(f"grid {grid.m}x{grid.n} exceeds the packed coordinate range")
        self.algorithm = algorithm
        self.grid = grid
        self.matcher = matcher
        self.colors = colors
        self.color_index = {color: index for index, color in enumerate(colors)}
        phi = algorithm.phi
        self.phi = phi
        self._m1 = grid.m - 1
        self._n1 = grid.n - 1
        # Wall distances are clamped at -(phi+1): any wall at or below that
        # bound excludes exactly the same ball cells (|di|, |dj| <= phi), so
        # the clamp is semantics-preserving while keeping the signature field
        # width fixed even for off-grid drift.
        self._wall_lo = -(phi + 1)
        self._wall_bias = phi + 1
        self._wall_bits = (2 * phi + 2).bit_length()
        # 4 bits of occupancy count per color per cell (k <= 15 guards this).
        self._cell_bits = 4 * len(colors)
        self._offsets = ball_offsets(phi)
        self._offset_deltas = tuple((di << 21) + dj for di, dj in self._offsets)
        self._snap_ids: Dict[tuple, int] = {}
        self._snapshots: List[Optional[tuple]] = [None]  # id 0 = no snapshot
        self._sync_actions: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._look: Dict[int, int] = {}
        self._computed: Dict[int, Tuple[int, ...]] = {}
        self._sort_keys: Dict[int, tuple] = {}
        self._pack_memo: Dict[AsyncRobotState, int] = {}
        self._inflate_memo: Dict[int, AsyncRobotState] = {}
        self._inflate_state_memo: Dict[Tuple[int, ...], SchedulerState] = {}
        self.idle_suffix = tuple(
            (index << COLOR_SHIFT) | (PHASE_IDLE << PHASE_SHIFT) | PM_NONE
            for index in range(len(colors))
        )
        self._use_numpy = HAS_NUMPY if use_numpy is None else (use_numpy and HAS_NUMPY)
        if self._use_numpy and (self._cell_bits > 56 or len(colors) > 14):
            # Per-cell occupancy sums must stay inside int64 on the vector path.
            self._use_numpy = False
        self._np_offset_deltas = (
            _np.array(self._offset_deltas, dtype=_np.int64) if self._use_numpy else None
        )

    # ------------------------------------------------------------------
    # Snapshot interning
    # ------------------------------------------------------------------
    def intern_snapshot(self, frozen) -> int:
        """The id of a frozen snapshot (0 for ``None``), interning on first use."""
        if frozen is None:
            return 0
        snap_id = self._snap_ids.get(frozen)
        if snap_id is None:
            snap_id = len(self._snapshots)
            if snap_id > SNAP_MASK:  # pragma: no cover - 2^32 snapshots
                raise ValueError("snapshot intern table overflow")
            self._snap_ids[frozen] = snap_id
            self._snapshots.append(frozen)
        return snap_id

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def pack_record(self, record: AsyncRobotState) -> int:
        """Encode one record (memoized on the record object)."""
        code = self._pack_memo.get(record)
        if code is None:
            i, j = record.pos
            move = record.pending_move
            code = (
                ((i + POS_BIAS) << POSI_SHIFT)
                | ((j + POS_BIAS) << POSJ_SHIFT)
                | (self.color_index[record.color] << COLOR_SHIFT)
                | (_PHASE_CODE[record.phase] << PHASE_SHIFT)
                | (self.intern_snapshot(record.snapshot) << SNAP_SHIFT)
                | ((0 if record.pending_color is None else self.color_index[record.pending_color] + 1) << PC_SHIFT)
                | (PM_NONE if move is None else _encode_move(move))
            )
            self._pack_memo[record] = code
        return code

    def inflate_code(self, code: int) -> AsyncRobotState:
        """Decode one record (memoized, so equal codes share one object)."""
        record = self._inflate_memo.get(code)
        if record is None:
            pm = code & 31
            pc = (code >> PC_SHIFT) & 15
            snap_id = (code >> SNAP_SHIFT) & SNAP_MASK
            record = AsyncRobotState(
                pos=(
                    (code >> POSI_SHIFT) - POS_BIAS,
                    ((code >> POSJ_SHIFT) & _COORD_MASK) - POS_BIAS,
                ),
                color=self.colors[(code >> COLOR_SHIFT) & 15],
                phase=_PHASE_NAME[(code >> PHASE_SHIFT) & 3],
                snapshot=self._snapshots[snap_id] if snap_id else None,
                pending_color=self.colors[pc - 1] if pc else None,
                pending_move=_PM_DECODE[pm],
            )
            self._inflate_memo[code] = record
        return record

    def code_sort_key(self, code: int) -> tuple:
        """A per-code key agreeing with :meth:`AsyncRobotState.key` order.

        Plain integer order already agrees with ``key()`` on every field
        except the snapshot id (first-seen, not value-ordered), so the key
        splices the interned snapshot value into the right slot.  Memoized:
        ASYNC explorations compare the same codes over and over.
        """
        key = self._sort_keys.get(code)
        if key is None:
            snap_id = (code >> SNAP_SHIFT) & SNAP_MASK
            key = (
                code >> PHASE_SHIFT,  # position, color, phase
                self._snapshots[snap_id] if snap_id else (),
                code & ((1 << SNAP_SHIFT) - 1),  # pending color, pending move
            )
            self._sort_keys[code] = key
        return key

    def sorted_codes(self, codes: List[int]) -> Tuple[int, ...]:
        """Sort a mutable code list into canonical record order (in place)."""
        codes.sort(key=self.code_sort_key)
        return tuple(codes)

    def pack_state(self, state: SchedulerState) -> Tuple[int, ...]:
        """Encode a canonical state as a sorted tuple of packed codes."""
        return self.sorted_codes([self.pack_record(record) for record in state.robots])

    def inflate_state(self, codes: Tuple[int, ...]) -> SchedulerState:
        """Decode a packed state (memoized per code tuple).

        Packed canonical order equals ``from_records`` order by construction
        (see :meth:`code_sort_key`), so the state is built directly without
        re-sorting.
        """
        state = self._inflate_state_memo.get(codes)
        if state is None:
            state = SchedulerState(robots=tuple(self.inflate_code(code) for code in codes))
            self._inflate_state_memo[codes] = state
        return state

    # ------------------------------------------------------------------
    # Neighbourhood signatures
    # ------------------------------------------------------------------
    def signatures(self, codes: Tuple[int, ...]) -> List[int]:
        """The per-robot neighbourhood signature of every robot in a state.

        A signature packs (clamped walls, per-cell color occupancy counts
        over the visibility ball, own color) into one int; it determines the
        robot's snapshot and hence its matches and actions, which is what
        makes it a valid key for every compiled table.
        """
        by_pos: Dict[int, int] = {}
        for code in codes:
            poskey = code >> POSJ_SHIFT
            cell = 1 << (((code >> COLOR_SHIFT) & 15) << 2)
            existing = by_pos.get(poskey)
            by_pos[poskey] = cell if existing is None else existing + cell
        phi = self.phi
        lo = self._wall_lo
        bias = self._wall_bias
        wall_bits = self._wall_bits
        cell_bits = self._cell_bits
        m1 = self._m1
        n1 = self._n1
        deltas = self._offset_deltas
        get = by_pos.get
        sigs: List[int] = []
        for code in codes:
            poskey = code >> POSJ_SHIFT
            i = (poskey >> 21) - POS_BIAS
            j = (poskey & _COORD_MASK) - POS_BIAS
            wn = phi if i > phi else (lo if i < lo else i)
            s = m1 - i
            ws = phi if s > phi else (lo if s < lo else s)
            ww = phi if j > phi else (lo if j < lo else j)
            e = n1 - j
            we = phi if e > phi else (lo if e < lo else e)
            sig = ((((((wn + bias) << wall_bits) | (ws + bias)) << wall_bits) | (ww + bias)) << wall_bits) | (we + bias)
            for delta in deltas:
                cell = get(poskey + delta)
                sig = ((sig << cell_bits) | cell) if cell else (sig << cell_bits)
            sigs.append((sig << 4) | ((code >> COLOR_SHIFT) & 15))
        return sigs

    def wave_signatures(self, wave_codes: List[Tuple[int, ...]]) -> List[List[int]]:
        """Signatures for a whole frontier wave.

        Dispatches to a NumPy-vectorized occupancy/neighbour computation when
        numpy is available and the wave is large enough to amortise it;
        results are *identical* to per-state :meth:`signatures` calls (the
        parity tests compare both paths directly).
        """
        if (
            not self._use_numpy
            or len(wave_codes) < _WAVE_NUMPY_MIN
            or len(wave_codes) >= (1 << 19)
            or not wave_codes[0]
        ):
            return [self.signatures(codes) for codes in wave_codes]
        np = _np
        # Poskeys (42 bits) and per-state strides fit comfortably in int64
        # even though full codes do not.
        posk = np.array(
            [[code >> POSJ_SHIFT for code in codes] for codes in wave_codes], dtype=np.int64
        )
        cidx = np.array(
            [[(code >> COLOR_SHIFT) & 15 for code in codes] for codes in wave_codes],
            dtype=np.int64,
        )
        wave_size = posk.shape[0]
        stride = np.int64(1) << np.int64(43)
        flat = posk + (np.arange(wave_size, dtype=np.int64) * stride)[:, None]
        cells = np.int64(1) << (cidx << 2)
        uniq, inverse = np.unique(flat.ravel(), return_inverse=True)
        occupancy = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(occupancy, inverse, cells.ravel())
        neighbours = flat[:, :, None] + self._np_offset_deltas
        slots = np.searchsorted(uniq, neighbours)
        slots[slots == len(uniq)] = 0
        values = np.where(uniq[slots] == neighbours, occupancy[slots], 0)
        i = (posk >> 21) - POS_BIAS
        j = (posk & _COORD_MASK) - POS_BIAS
        phi = self.phi
        lo = self._wall_lo
        bias = self._wall_bias
        wall_bits = self._wall_bits
        wn = np.clip(i, lo, phi) + bias
        ws = np.clip(self._m1 - i, lo, phi) + bias
        ww = np.clip(j, lo, phi) + bias
        we = np.clip(self._n1 - j, lo, phi) + bias
        walls = (((((wn << wall_bits) | ws) << wall_bits) | ww) << wall_bits) | we
        cell_bits = self._cell_bits
        walls_list = walls.tolist()
        values_list = values.tolist()
        cidx_list = cidx.tolist()
        out: List[List[int]] = []
        for wall_row, value_row, color_row in zip(walls_list, values_list, cidx_list):
            row: List[int] = []
            for wall, value_cells, color in zip(wall_row, value_row, color_row):
                sig = wall
                for cell in value_cells:
                    sig = ((sig << cell_bits) | cell) if cell else (sig << cell_bits)
                row.append((sig << 4) | color)
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # Table compilation (matcher fallback on signature misses)
    # ------------------------------------------------------------------
    def _local_key(self, codes: Tuple[int, ...], index: int):
        """Reconstruct the matcher's LocalKey for one robot of a packed state.

        Walls use the clamped lower bound (see ``__init__``), which yields
        the identical snapshot — and therefore identical matches, actions
        and frozen snapshots — as the matcher's unclamped key; on-grid the
        two coincide exactly.
        """
        code = codes[index]
        poskey = code >> POSJ_SHIFT
        ci = (poskey >> 21) - POS_BIAS
        cj = (poskey & _COORD_MASK) - POS_BIAS
        phi = self.phi
        lo = self._wall_lo
        colors = self.colors
        near = []
        for other in codes:
            opos = other >> POSJ_SHIFT
            di = (opos >> 21) - POS_BIAS - ci
            dj = (opos & _COORD_MASK) - POS_BIAS - cj
            if abs(di) + abs(dj) <= phi:
                near.append(((di, dj), colors[(other >> COLOR_SHIFT) & 15]))
        near.sort()
        walls = (
            max(lo, min(ci, phi)),
            max(lo, min(self._m1 - ci, phi)),
            max(lo, min(cj, phi)),
            max(lo, min(self._n1 - cj, phi)),
        )
        return (walls, tuple(near))

    def sync_actions(self, sig: int, codes: Tuple[int, ...], index: int) -> Tuple[Tuple[int, int], ...]:
        """Compiled synchronous actions: ``(position delta, record suffix)`` pairs.

        Applying an action to a code is ``((code & POS_FIELD_MASK) + delta)
        | suffix`` — the suffix rebuilds the fresh idle record the object
        kernel's ``_apply_synchronous`` produces (new color, idle phase, no
        snapshot or pendings), so non-idle fields of an activated robot are
        dropped exactly like the reference implementation drops them.
        """
        entry = self._sync_actions.get(sig)
        if entry is None:
            color_index = (codes[index] >> COLOR_SHIFT) & 15
            actions = self.matcher.actions_for_key(
                self._local_key(codes, index), self.colors[color_index]
            )
            compiled = []
            for action in actions:
                move = action.world_move
                delta = 0 if move is None else (move[0] << POSI_SHIFT) + (move[1] << POSJ_SHIFT)
                compiled.append((delta, self.idle_suffix[self.color_index[action.new_color]]))
            entry = tuple(compiled)
            self._sync_actions[sig] = entry
        return entry

    def look_entry(self, sig: int, codes: Tuple[int, ...], index: int) -> int:
        """Compiled ASYNC Look: 0 when the robot is disabled, else the packed
        ``(phase=looked, snapshot id, no pendings)`` low-field pattern to
        compose with the robot's position and color."""
        entry = self._look.get(sig)
        if entry is None:
            key = self._local_key(codes, index)
            color = self.colors[(codes[index] >> COLOR_SHIFT) & 15]
            if self.matcher.matches_for_key(key, color):
                frozen = tuple(sorted(self.matcher.snapshot_for_key(key).items()))
                entry = (PHASE_LOOKED << PHASE_SHIFT) | (self.intern_snapshot(frozen) << SNAP_SHIFT) | PM_NONE
            else:
                entry = 0
            self._look[sig] = entry
        return entry

    def computed_entries(self, snap_id: int, color_index: int) -> Tuple[int, ...]:
        """Compiled ASYNC Compute: the low-field suffix of every distinct
        action decided against the interned snapshot (empty = reset)."""
        table_key = (snap_id << 4) | color_index
        entry = self._computed.get(table_key)
        if entry is None:
            matches = self.matcher.matches_for_frozen(self._snapshots[snap_id], self.colors[color_index])
            compiled = []
            for action in self.algorithm.distinct_actions(matches):
                new_index = self.color_index[action.new_color]
                move = action.world_move
                compiled.append(
                    (new_index << COLOR_SHIFT)
                    | (PHASE_COMPUTED << PHASE_SHIFT)
                    | ((new_index + 1) << PC_SHIFT)
                    | (PM_NONE if move is None else _encode_move(move))
                )
            entry = tuple(compiled)
            self._computed[table_key] = entry
        return entry


class PackedTransitionSystem:
    """Table-driven successor generation behind the ``TransitionSystem`` protocol.

    Drop-in compatible with
    :class:`~repro.engine.transition.AlgorithmTransitionSystem` — same
    constructor shape, same ``initial``/``successors`` contract, same
    ``matcher`` attribute (so reduction pipelines, POR and the sharded
    workers use it unchanged) — plus :meth:`explore_packed`, the wave BFS
    the serial explorer dispatches to for quotient-free pipelines.
    """

    __slots__ = ("algorithm", "grid", "model", "matcher", "space", "_expand",
                 "_succ_memo", "_ample_memo", "_root_codes")

    def __init__(self, algorithm: Algorithm, grid: Grid, model: str,
                 matcher: Optional[LocalMatcher] = None, *,
                 use_numpy: Optional[bool] = None) -> None:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        self.algorithm = algorithm
        self.grid = grid
        self.model = model
        self.matcher = matcher if matcher is not None else matcher_for(algorithm, grid)
        self.space = PackedSpace(algorithm, grid, self.matcher, use_numpy=use_numpy)
        self._expand = {
            "FSYNC": self._expand_fsync,
            "SSYNC": self._expand_ssync,
            "ASYNC": self._expand_async,
        }[model]
        # Expansion is a pure function of the packed state, so whole successor
        # rows are memoized: a warm re-exploration (the pool / daemon / sweep
        # regime this kernel exists for) degenerates to dict lookups plus
        # interning.  ``_ample_memo`` additionally records the POR counter
        # increments so replays mutate the pipeline counters exactly like the
        # object reducer does on every visit.
        self._succ_memo: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        self._ample_memo: Dict[Tuple[int, ...], Tuple[Optional[List[Tuple[int, ...]]], int, int]] = {}
        self._root_codes: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # TransitionSystem protocol (object states in, object states out)
    # ------------------------------------------------------------------
    def initial(self) -> SchedulerState:
        return initial_state(self.algorithm, self.grid)

    def successors(self, state: SchedulerState) -> List[SchedulerState]:
        """Object-level successors, generated through the packed tables."""
        space = self.space
        return [space.inflate_state(codes) for codes in self.packed_successors(space.pack_state(state))]

    def is_terminal(self, state: SchedulerState) -> bool:
        return not self.successors(state)

    def packed_successors(self, codes: Tuple[int, ...],
                          sigs: Optional[List[int]] = None) -> List[Tuple[int, ...]]:
        """Successor code tuples of one packed state (memoized; BFS hot call)."""
        row = self._succ_memo.get(codes)
        if row is None:
            row = self._expand(codes, sigs)
            self._succ_memo[codes] = row
        return row

    # ------------------------------------------------------------------
    # Packed expansion (exact mirrors of the object kernel's enumeration)
    # ------------------------------------------------------------------
    def _snap_free(self, codes: Tuple[int, ...]) -> bool:
        """Whether plain int order is safe for successors of this state.

        Integer order can only disagree with canonical record order on the
        snapshot field; synchronous successors carry a snapshot only where
        the parent did (activated robots reset to fresh idle records).
        """
        for code in codes:
            if (code >> SNAP_SHIFT) & SNAP_MASK:
                return False
        return True

    def _expand_fsync(self, codes, sigs=None):
        space = self.space
        if sigs is None:
            sigs = space.signatures(codes)
        choices = []
        for index, sig in enumerate(sigs):
            actions = space.sync_actions(sig, codes, index)
            if actions:
                choices.append((index, actions))
        if not choices:
            return []
        base = list(codes)
        plain = self._snap_free(codes)
        sorted_codes = space.sorted_codes
        out = []
        for combo in product(*[actions for _, actions in choices]):
            successor = base[:]
            for (index, _), (delta, suffix) in zip(choices, combo):
                successor[index] = ((successor[index] & POS_FIELD_MASK) + delta) | suffix
            if plain:
                successor.sort()
                out.append(tuple(successor))
            else:
                out.append(sorted_codes(successor))
        return out

    def _expand_ssync(self, codes, sigs=None):
        space = self.space
        if sigs is None:
            sigs = space.signatures(codes)
        choices = []
        for index, sig in enumerate(sigs):
            actions = space.sync_actions(sig, codes, index)
            if actions:
                choices.append((index, actions))
        if not choices:
            return []
        indices = [index for index, _ in choices]
        by_index = dict(choices)
        base = list(codes)
        plain = self._snap_free(codes)
        sorted_codes = space.sorted_codes
        out = []
        for size in range(1, len(indices) + 1):
            for subset in combinations(indices, size):
                for combo in product(*[by_index[index] for index in subset]):
                    successor = base[:]
                    for index, (delta, suffix) in zip(subset, combo):
                        successor[index] = ((successor[index] & POS_FIELD_MASK) + delta) | suffix
                    if plain:
                        successor.sort()
                        out.append(tuple(successor))
                    else:
                        out.append(sorted_codes(successor))
        return out

    def _expand_async(self, codes, sigs=None):
        space = self.space
        sorted_codes = space.sorted_codes
        idle_suffix = space.idle_suffix
        out = []
        for index, code in enumerate(codes):
            phase = (code >> PHASE_SHIFT) & 3
            if phase == PHASE_IDLE:
                # Look — offered only to enabled robots, like the reference.
                if sigs is None:
                    sigs = space.signatures(codes)
                entry = space.look_entry(sigs[index], codes, index)
                if not entry:
                    continue
                successor = list(codes)
                successor[index] = (
                    (code & POS_FIELD_MASK)
                    | (((code >> COLOR_SHIFT) & 15) << COLOR_SHIFT)
                    | entry
                )
                out.append(sorted_codes(successor))
            elif phase == PHASE_LOOKED:
                # Compute — one successor per distinct action, reset if none.
                snap_id = (code >> SNAP_SHIFT) & SNAP_MASK
                color_index = (code >> COLOR_SHIFT) & 15
                entries = space.computed_entries(snap_id, color_index)
                base_pos = code & POS_FIELD_MASK
                if not entries:
                    successor = list(codes)
                    successor[index] = base_pos | idle_suffix[color_index]
                    out.append(sorted_codes(successor))
                    continue
                for entry in entries:
                    successor = list(codes)
                    successor[index] = base_pos | entry
                    out.append(sorted_codes(successor))
            else:
                # Move — apply the pending move and reset to idle.
                successor = list(codes)
                successor[index] = (
                    ((code & POS_FIELD_MASK) + _PM_POS_DELTA[code & 31])
                    | idle_suffix[(code >> COLOR_SHIFT) & 15]
                )
                out.append(sorted_codes(successor))
        return out

    # ------------------------------------------------------------------
    # ASYNC partial-order reduction (packed mirror)
    # ------------------------------------------------------------------
    def _packed_ample(self, codes: Tuple[int, ...],
                      counters: Dict[str, int]) -> Optional[List[Tuple[int, ...]]]:
        """Packed mirror of ``AsyncPartialOrderReduction.ample_successors``.

        Scans codes in canonical order for the first robot holding a private
        step (a Compute that decided no action, or a Move with no pending
        move), finalizes exactly that step and accounts the deferred
        transitions — mutating the *same* pipeline counters the object
        reducer mutates, so ``reduction_stats`` stay byte-identical.
        """
        space = self.space
        sigs: Optional[List[int]] = None
        for index, code in enumerate(codes):
            phase = (code >> PHASE_SHIFT) & 3
            if phase == PHASE_COMPUTED:
                if (code & 31) != PM_NONE:
                    continue
            elif phase == PHASE_LOOKED:
                if space.computed_entries((code >> SNAP_SHIFT) & SNAP_MASK, (code >> COLOR_SHIFT) & 15):
                    continue
            else:
                continue
            successor = list(codes)
            successor[index] = (code & POS_FIELD_MASK) | space.idle_suffix[(code >> COLOR_SHIFT) & 15]
            counters["por_ample_states"] += 1
            deferred = 0
            for other_index, other in enumerate(codes):
                if other_index == index:
                    continue
                if (other >> PHASE_SHIFT) & 3 != PHASE_IDLE:
                    deferred += 1
                else:
                    if sigs is None:
                        sigs = space.signatures(codes)
                    if space.look_entry(sigs[other_index], codes, other_index):
                        deferred += 1
            counters["por_interleavings_pruned"] += deferred
            return [space.sorted_codes(successor)]
        return None

    def _ample_or_none(self, codes: Tuple[int, ...],
                       counters: Dict[str, int]) -> Optional[List[Tuple[int, ...]]]:
        """Memoized ample row with exact counter replay on warm hits."""
        entry = self._ample_memo.get(codes)
        if entry is None:
            ample_before = counters["por_ample_states"]
            pruned_before = counters["por_interleavings_pruned"]
            row = self._packed_ample(codes, counters)
            self._ample_memo[codes] = (
                row,
                counters["por_ample_states"] - ample_before,
                counters["por_interleavings_pruned"] - pruned_before,
            )
            return row
        row, ample_delta, pruned_delta = entry
        counters["por_ample_states"] += ample_delta
        counters["por_interleavings_pruned"] += pruned_delta
        return row

    # ------------------------------------------------------------------
    # Packed wave BFS
    # ------------------------------------------------------------------
    def explore_packed(self, pipeline, *, max_states: int = 200_000, start=None):
        """Frontier-at-a-time BFS over packed codes.

        Only valid for quotient-free pipelines (``"none"``, or ``"por"``
        where POR is the sole — edge-subgraph, non-quotient — component);
        the generic explorer loop handles quotient specs with this object as
        its transition system.  Inflation back to ``SchedulerState`` happens
        once, at the ``Exploration`` boundary; everything the BFS interns,
        hashes and compares is a tuple of ints.
        """
        from .explorer import Exploration  # local import: explorer lazily imports us

        if pipeline.reduced:
            raise ValueError("explore_packed requires a quotient-free reduction pipeline")
        space = self.space
        matcher = self.matcher
        stats_before = matcher.stats.snapshot()
        counters_before = pipeline.counters_snapshot()
        profile = KernelProfile("packed") if profiling_enabled() else None

        por = pipeline._por if (pipeline._por is not None and pipeline._por.active) else None
        counters = pipeline.counters
        if start is not None:
            root = space.pack_state(start)
        else:
            root = self._root_codes
            if root is None:
                root = self._root_codes = space.pack_state(self.initial())

        packed: List[Tuple[int, ...]] = [root]
        index: Dict[Tuple[int, ...], int] = {root: 0}
        succ: List[List[int]] = []
        expand = self._expand
        succ_memo = self._succ_memo
        ample = self._ample_or_none
        wave = [0]
        use_wave_sigs = space._use_numpy and self.model in ("FSYNC", "SSYNC")
        while wave:
            next_wave: List[int] = []
            wave_sigs: Dict[int, List[int]] = {}
            if use_wave_sigs:
                # Vectorize signatures for the states this wave will actually
                # expand cold; memoized rows need no signatures at all.
                pending = [current for current in wave if packed[current] not in succ_memo]
                if len(pending) >= _WAVE_NUMPY_MIN:
                    rows = space.wave_signatures([packed[current] for current in pending])
                    wave_sigs = dict(zip(pending, rows))
            for current in wave:
                codes = packed[current]
                if profile is not None:
                    t0 = perf_counter()
                row_packed = ample(codes, counters) if por is not None else None
                if row_packed is None:
                    row_packed = succ_memo.get(codes)
                    if row_packed is None:
                        row_packed = expand(codes, wave_sigs.get(current))
                        succ_memo[codes] = row_packed
                if profile is not None:
                    t1 = perf_counter()
                    profile.match_s += t1 - t0
                row: List[int] = []
                for child_codes in row_packed:
                    child = index.get(child_codes)
                    if child is None:
                        child = len(packed)
                        if child >= max_states:
                            frontier_size = len(packed) - len(succ) - 1
                            raise StateSpaceLimitExceeded(
                                f"{self.algorithm.name} on {self.grid.m}x{self.grid.n} [{self.model}]:"
                                f" state budget of {max_states} exceeded after expanding"
                                f" {len(succ)} states ({len(packed)} discovered,"
                                f" frontier size {frontier_size}"
                                f"{pipeline.budget_note})",
                                algorithm=self.algorithm.name,
                                model=self.model,
                                max_states=max_states,
                                states_explored=len(succ),
                                frontier_size=frontier_size,
                            )
                        index[child_codes] = child
                        packed.append(child_codes)
                        next_wave.append(child)
                    row.append(child)
                succ.append(row)
                if profile is not None:
                    profile.dedup_s += perf_counter() - t1
            wave = next_wave

        if profile is not None:
            t0 = perf_counter()
        states = [space.inflate_state(codes) for codes in packed]
        state_index = {state: position for position, state in enumerate(states)}
        if profile is not None:
            profile.inflate_s += perf_counter() - t0

        return Exploration(
            model=self.model,
            reduced=False,
            states=states,
            index=state_index,
            succ=succ,
            edge_syms=None,
            root=0,
            root_sym=None,
            matcher_stats=matcher.stats.delta_since(stats_before).as_dict(),
            reduction=pipeline.active_spec,
            reduction_stats=pipeline.stats_report(pipeline.counters_delta(counters_before)),
            profile=profile.as_dict() if profile is not None else None,
        )
