"""Layer tracing for the benchmark's ``--trace 1`` run.

Wrappers are installed from here, at the names the library's callers look
up (a class attribute for methods, the importing module's global for
functions imported by name), so nothing under ``src/`` changes.  Each
wrapped call is a span: a per-thread stack gives every span its parent,
and a layer's self time is its spans' duration minus the time their
child spans cover.

Coarse boundaries (one call per check, walk, request or store lookup)
keep every span in memory as ``(name, start, end, parent, root)``, where
``root`` is the index of the top-level span that caused it; they are
written out when the run ends.  Fine boundaries called hundreds of
thousands of times per pass (guard evaluation, matcher lookups, successor
expansion, canonicalisation) only aggregate count, total and self time,
so a traced run keeps a bounded memory footprint.

The service handles one request at a time here (closed loop, one client),
so the accumulators are updated without a lock.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Layer:
    """Aggregate counters of one layer: calls, total and self time."""

    __slots__ = ("calls", "total_s", "self_s", "last_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.last_s = 0.0


class Tracer:
    """In-memory span recorder with per-layer aggregates."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer_name: str,
        fn: Callable,
        *,
        keep_spans: bool,
        on_result: Optional[Callable[[object, tuple, float], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span of ``layer_name`` per call."""
        layer = self.layer(layer_name)
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            # frame: [child time, span index, root index]
            frame = [0.0, -1, -1]
            parent = stack[-1] if stack else None
            if keep_spans:
                frame[1] = len(spans)
                frame[2] = parent[2] if parent is not None and parent[2] >= 0 else frame[1]
                spans.append(None)  # reserved; filled when the call ends
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                layer.calls += 1
                layer.total_s += duration
                layer.self_s += self_s
                layer.last_s = duration
                if parent is not None:
                    parent[0] += duration
                if keep_spans:
                    parent_index = parent[1] if parent is not None else -1
                    spans[frame[1]] = (layer_name, start, end, parent_index, frame[2])
            if on_result is not None:
                on_result(result, args, self_s)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, layer_name: str, *, keep_spans: bool, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`restore`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer_name, original, keep_spans=keep_spans, on_result=on_result))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a kept span named ``name`` (a benchmark operation)."""
        return self.wrap(name, fn, keep_spans=True)(*args, **kwargs)

    def write(self, path: str) -> None:
        """Write the kept spans and aggregates as JSON."""
        body = {
            "spans": [list(span) for span in self.spans if span is not None],
            "layers": {
                name: {"calls": layer.calls, "total_s": layer.total_s, "self_s": layer.self_s}
                for name, layer in sorted(self.layers.items())
            },
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from repro.checking import model_checker
    from repro.core.algorithm import Algorithm
    from repro.core.rules import Rule
    from repro.engine import campaign, sharded, store, transition
    from repro.engine.matcher import LocalMatcher
    from repro.engine.packed import PackedTransitionSystem
    from repro.engine.reduction import ReductionPipeline
    from repro.service import app
    from repro.verification import campaigns

    fine = {"keep_spans": False}
    coarse = {"keep_spans": True}

    # core.rules: guard evaluation, and the per-snapshot loop over the rules.
    tracer.patch(Rule, "matches", "rules.guard", **fine)
    seen_snapshots = set()

    def distinct_snapshot(result, args, self_s):
        algorithm, snapshot, color = args
        seen_snapshots.add((algorithm.name, color, tuple(sorted(snapshot.items()))))
        tracer.counts["matcher.distinct_snapshots"] = len(seen_snapshots)

    tracer.patch(Algorithm, "matches_for_snapshot", "rules.scan", on_result=distinct_snapshot, **fine)

    # engine.matcher: every public lookup the kernels and walks call.
    for name in (
        "matches", "matches_for_key", "actions", "actions_for_key", "matches_for_frozen",
        "matches_for_snapshot", "snapshot", "snapshot_for_key", "batched_matches", "enabled",
    ):
        tracer.patch(LocalMatcher, name, "matcher", **fine)

    # engine.transition / engine.packed: successor expansion.
    def successors_out(result, args, self_s):
        tracer.add("transition.successors", len(result))

    tracer.patch(transition.AlgorithmTransitionSystem, "successors", "transition",
                 on_result=successors_out, **fine)
    tracer.patch(PackedTransitionSystem, "successors", "transition", on_result=successors_out, **fine)
    tracer.patch(PackedTransitionSystem, "explore_packed", "packed", **coarse)

    # engine.reduction: quotient canonicalisation and the POR successor hook.
    tracer.patch(ReductionPipeline, "canonicalize", "reduction.canonicalize", **fine)
    tracer.patch(ReductionPipeline, "successors", "reduction.successors", **fine)

    # engine.explorer (reached through engine.sharded on every route).
    def explored(result, args, self_s):
        tracer.add("explorer.states", result.num_states)
        tracer.add("explorer.edges", sum(len(row) for row in result.succ))

    tracer.patch(model_checker, "explore_sharded", "explorer", on_result=explored, **coarse)
    # The serial route's BFS, and the wave loop the service's backend route runs.
    tracer.patch(sharded, "explore", "explorer", **coarse)
    tracer.patch(sharded, "_sharded_exploration", "explorer", **coarse)

    # checking.model_checker: verdict analysis over the explored graph.
    tracer.patch(model_checker, "has_cycle", "verdict.cycle", **coarse)
    tracer.patch(model_checker, "guaranteed_nodes", "verdict.coverage", **coarse)

    # engine.walk, as engine.campaign looks it up.
    def walked(result, args, self_s):
        tracer.add("walk.steps", result.steps)

    for name in ("run_fsync", "run_ssync", "run_async"):
        tracer.patch(campaign, name, "walk", on_result=walked, **coarse)

    # engine.campaign: the task runners, as the verification campaigns look them up.
    tracer.patch(campaigns, "execute_tasks", "campaign", **coarse)
    for name in ("verify_one", "check_one"):
        tracer.patch(campaign, name, "campaign.task", **coarse)

    # engine.store: a hit's fetch self time is the lookup; a write is the
    # durable append (flush + fsync) and any compaction it triggers.
    def fetched(result, args, self_s):
        stats = getattr(result, "store_stats", None) or {}
        if stats.get("outcome") == "hit":
            tracer.add("store.hit_s", self_s)

    tracer.patch(store.VerdictStore, "fetch", "store", on_result=fetched, **coarse)
    for name in ("_append", "_maybe_compact"):
        tracer.patch(store.VerdictStore, name, "store.put", **coarse)

    # engine.spec, as the HTTP service looks it up.
    tracer.patch(app, "parse_check_spec", "spec.parse", **coarse)
    tracer.patch(app, "result_payload", "spec.payload", **coarse)
    tracer.patch(app, "canonical_json", "spec.payload", **coarse)

    # service.app: the handler body of POST /v1/check.
    tracer.patch(app.VerificationService, "check", "service", **coarse)
