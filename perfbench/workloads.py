"""The benchmark's workloads, driven through the library's public entry points.

Every workload is a list of operations, each a call a user makes.  An
operation is *cold* the first time its work is done in the process (a
fresh process for ``table1``/``sweep``, a store miss for ``service``) and
*warm* when the same work is asked for again.  Each workload runs one
fixed *unit* of work per process, so every metric is taken over the same
operations whatever the host's speed; ``run.py`` pools several units.

* ``table1`` regenerates the paper's Table 1 with ``build_table1(
  quick=False)``; each bounded walk and SSYNC check it runs is an
  operation, timed by a shim at the name the program calls it by.
* ``sweep`` checks every registered algorithm under its own synchrony on
  ``default_grid_suite(max_side=7)``, ``reduction="grid"``.
* ``service`` drives ``POST /v1/check`` on the server
  ``python -m repro.service`` deploys, hosted in this process: a closed
  loop, one client, each of 130 specs sent once as a miss followed by 4
  hits on specs already sent.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch directory (stores, span dumps) inside the checkout.
SCRATCH = ".perfbench"


@lru_cache(maxsize=None)
def expected() -> dict:
    """The pinned outcomes of every check (``expected.json``, see ``pin_expected.py``)."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_key(name: str, m: int, n: int, model: str) -> str:
    return f"{name}:{m}x{n}:{model}"


Span = Tuple[int, int]  # the speed-clock marks before and after an operation


class Samples:
    """What one run measured: per-operation latencies and work counts.

    Every operation is bracketed by two marks of a ``speed.SpeedClock``
    (``begin`` and ``end``), so each latency is known both in seconds and
    in nominal seconds.
    """

    def __init__(self) -> None:
        self.clock = SpeedClock()
        #: (cold, span) of every operation, in the order they ran.
        self.ops: List[Tuple[bool, Span]] = []
        self.failed = 0
        self.errors: List[str] = []
        #: States explored (configurations reached, for walks) by cold operations.
        self.cold_states = 0
        #: Operations in the fixed unit and the span of the whole unit.
        self.unit_ops = 0
        self.unit_span: Span = (0, 0)
        #: Per-layer figures the workload itself observes (trace runs).
        self.observed: Dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def count(self, cold: bool) -> int:
        return sum(1 for is_cold, _ in self.ops if is_cold == cold)

    def begin(self) -> int:
        return self.clock.mark()

    def end(self, start: int) -> Span:
        return start, self.clock.mark()

    def seconds(self, span: Span) -> float:
        return self.clock.raw(*span)

    def record(self, cold: bool, span: Span, error: Optional[str]) -> None:
        self.ops.append((cold, span))
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)

    def fail(self, error: str) -> None:
        """A failure that belongs to no single operation (an artifact check)."""
        self.failed += 1
        self.errors.append(error)

    def add(self, name: str, amount: float) -> None:
        self.observed[name] = self.observed.get(name, 0) + amount

    def as_dict(self) -> dict:
        """The JSON a unit's child process reports to the run: nominal seconds, raw ones under ``raw``."""
        factors = self.clock.factors()

        def times(raw: bool) -> dict:
            length = self.clock.raw if raw else (lambda i, j: self.clock.nominal(i, j, factors))
            return {
                "cold_s": [length(*span) for cold, span in self.ops if cold],
                "warm_s": [length(*span) for cold, span in self.ops if not cold],
                "unit_wall_s": length(*self.unit_span),
            }

        return dict(
            times(raw=False),
            raw=times(raw=True),
            reference_ms=statistics.median(self.clock.reference_s()) * 1000.0,
            failed=self.failed,
            errors=self.errors,
            cold_states=self.cold_states,
            unit_ops=self.unit_ops,
        )


def _verdict_error(label: str, got: Tuple[bool, bool, int], want: dict) -> Optional[str]:
    expected = (want["terminates"], want["explores"], want["states"])
    if got != expected:
        return f"{label}: got (terminates, explores, states) {got}, expected {expected}"
    return None


def _measure(samples: Samples, unit: Callable[[], None]) -> None:
    """Run and time the workload's fixed unit of work."""
    first = samples.begin()
    unit()
    samples.unit_span = samples.end(first)
    samples.unit_ops = samples.attempted


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------
def setup_table1():
    from repro.analysis import table1
    from repro.engine import campaign

    return table1, campaign


def table1_errors(rows) -> List[str]:
    """The artifact check: 13 rows reproduce the paper, one is not reproduced."""
    errors = []
    reproduced = missing = 0
    for row in rows:
        if row.algorithm is None:
            missing += 1
        elif row.matches_paper and row.model_checked is (True if row.synchrony == "ASYNC" else None):
            reproduced += 1
        else:
            errors.append(f"table1 row {row.synchrony} phi={row.phi} ell={row.ell} ({row.algorithm}) "
                          "does not match the paper")
    if (reproduced, missing) != (13, 1):
        errors.append(f"table1: {reproduced} rows match the paper and {missing} are not reproduced; expected 13 and 1")
    return errors


@contextmanager
def _timed(samples: Samples, module, name: str, observe: Callable):
    """Time every call of ``module.name`` as one operation, for the duration.

    ``observe(result, span, args, kwargs)`` records it.  The shim sits at
    the name the program's own code looks up, so the program is timed
    exactly as it runs.
    """
    original = getattr(module, name)

    def timed(*args, **kwargs):
        start = samples.begin()
        result = original(*args, **kwargs)
        observe(result, samples.end(start), args, kwargs)
        return result

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_table1(ctx, seed: int, samples: Samples, trace=None) -> None:
    """Call ``build_table1(quick=False)`` twice; each walk and SSYNC check is an operation."""
    del seed  # Table 1's inputs are fixed by the paper.
    table1, campaign = ctx
    phase = {"cold": True}

    def walked(report, span, args, kwargs):
        cold = phase["cold"]
        samples.record(cold, span, None if report.ok else f"table1 walk failed: {report}")
        if cold:
            samples.cold_states += report.steps
        if trace is not None:
            _add_matcher_stats(samples, {"hits": report.cache_hits, "misses": report.cache_misses})

    def checked(result, span, args, kwargs):
        cold = phase["cold"]
        algorithm, grid = args[:2]
        want = expected()["table1_checks"][check_key(algorithm.name, grid.m, grid.n, kwargs["model"])]
        got = (result.terminates, result.explores, result.states_explored)
        samples.record(cold, span, _verdict_error(f"table1 {result.summary()}", got, want))
        if cold:
            samples.cold_states += result.states_explored
        if trace is not None:
            samples.add("matched_states", result.states_explored)
            samples.add("unreduced_states", result.states_explored)
            _add_matcher_stats(samples, result.matcher_stats)

    def regenerate(cold: bool) -> None:
        phase["cold"] = cold
        for error in table1_errors(table1.build_table1(quick=False)):
            samples.fail(error)

    def unit() -> None:
        regenerate(True)
        regenerate(False)

    with _timed(samples, campaign, "verify_one", walked), \
            _timed(samples, table1, "check_terminating_exploration", checked):
        _measure(samples, unit)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def setup_sweep():
    from repro.algorithms import all_algorithms
    from repro.checking import check_terminating_exploration  # noqa: F401 - import cost is setup
    from repro.engine.suites import default_grid_suite

    return [
        (algorithm, m, n)
        for algorithm in all_algorithms().values()
        for m, n in default_grid_suite(algorithm, max_side=7)
    ]


def _sweep_pass(specs, order: List[int], samples: Samples, cold: bool, trace=None) -> None:
    from repro.checking import check_terminating_exploration
    from repro.core.grid import Grid

    for i in order:
        algorithm, m, n = specs[i]
        model = algorithm.synchrony
        start = samples.begin()
        result = _call(trace, check_terminating_exploration, algorithm, Grid(m, n), model=model, reduction="grid")
        span = samples.end(start)
        want = expected()["checks"][check_key(algorithm.name, m, n, model)]
        got = (result.terminates, result.explores, result.states_explored)
        samples.record(cold, span, _verdict_error(result.summary(), got, want))
        if cold:
            samples.cold_states += result.states_explored
        if trace is not None:
            samples.add("matched_states", result.states_explored)
            samples.add("unreduced_states", want["unreduced_states"])
            _add_matcher_stats(samples, result.matcher_stats)


def run_sweep(specs, seed: int, samples: Samples, trace=None) -> None:
    rng = random.Random(seed)

    def order() -> List[int]:
        return rng.sample(range(len(specs)), len(specs))

    def unit() -> None:
        _sweep_pass(specs, order(), samples, True, trace)
        _sweep_pass(specs, order(), samples, False, trace)

    _measure(samples, unit)


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
class ServiceContext:
    """The deployed server configuration, hosted on a thread of this process."""

    def __init__(self) -> None:
        from repro.algorithms import all_algorithms
        from repro.engine.suites import default_grid_suite
        from repro.service.__main__ import build_parser, build_service
        from repro.service.app import VerificationServer

        os.makedirs(SCRATCH, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
        args = build_parser().parse_args(["--port", "0", "--store", self.store_dir])
        self.service = build_service(args)
        self.server = VerificationServer((args.host, args.port), self.service)
        self.host, self.port = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever, name="perfbench-server")
        self.thread.start()
        try:
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.close()
            raise
        self.specs = [
            {"algorithm": algorithm.name, "m": m, "n": n, "model": algorithm.synchrony}
            for algorithm in all_algorithms().values()
            for m, n in default_grid_suite(algorithm, max_side=5)
        ]

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {} if data is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def store_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in os.scandir(self.store_dir) if entry.is_file())

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def setup_service():
    return ServiceContext()


def service_requests(n_specs: int, seed: int) -> List[Tuple[int, bool]]:
    """``(spec index, is_miss)`` in send order: each miss, then 4 hits on sent specs."""
    rng = random.Random(seed)
    order = rng.sample(range(n_specs), n_specs)
    plan = []
    for position, index in enumerate(order):
        plan.append((index, True))
        plan.extend((order[rng.randrange(position + 1)], False) for _ in range(4))
    return plan


def _send(ctx: ServiceContext, spec: dict, miss: bool, verdicts: Dict[str, bytes], samples: Samples, trace):
    key = check_key(spec["algorithm"], spec["m"], spec["n"], spec["model"])
    start = samples.begin()
    try:
        status, raw = ctx.request("POST", "/v1/check", spec)
    except (OSError, http.client.HTTPException) as exc:
        samples.record(miss, samples.end(start), f"{key}: {type(exc).__name__}: {exc}")
        return
    span = samples.end(start)
    if status != 200:
        samples.record(miss, span, f"{key}: HTTP {status}: {raw[:200]!r}")
        return
    try:
        body = json.loads(raw)
        verdict = body["verdict"]
        outcome = body["observability"]["store_stats"]["outcome"]
        got = (verdict["terminates"], verdict["explores"], verdict["states_explored"])
    except (ValueError, KeyError, TypeError) as exc:
        samples.record(miss, span, f"{key}: malformed response ({exc!r}): {raw[:200]!r}")
        return
    want = expected()["checks"][key]
    verdict_bytes = json.dumps(verdict, sort_keys=True).encode("utf-8")
    error = _verdict_error(key, got, want)
    if error is None and outcome != ("miss" if miss else "hit"):
        error = f"{key}: store outcome {outcome!r} on a {'miss' if miss else 'hit'}"
    if error is None and miss:
        verdicts[key] = verdict_bytes
    elif error is None and verdicts.get(key) != verdict_bytes:
        error = f"{key}: hit verdict differs from its miss"
    samples.record(miss, span, error)
    if miss:
        samples.cold_states += got[2]
    if trace is not None:
        handler_s = trace.layer("service").last_s
        samples.add("http_overhead_miss_s" if miss else "http_overhead_hit_s", samples.seconds(span) - handler_s)
        if miss:
            samples.add("matched_states", verdict["states_explored"])
            samples.add("unreduced_states", want["unreduced_states"])
            _add_matcher_stats(samples, body["observability"].get("matcher_stats"))


def run_service(ctx: ServiceContext, seed: int, samples: Samples, trace=None) -> None:
    plan = service_requests(len(ctx.specs), seed)
    verdicts: Dict[str, bytes] = {}
    bytes_before = ctx.store_bytes()

    def send_plan() -> None:
        for index, miss in plan:
            _send(ctx, ctx.specs[index], miss, verdicts, samples, trace)

    _measure(samples, send_plan)
    if trace is not None:
        samples.add("store_bytes_appended", ctx.store_bytes() - bytes_before)
        for name, value in ctx.service.store.stats.items():
            samples.add(f"store_{name}", value)


# ---------------------------------------------------------------------------
# shared
# ---------------------------------------------------------------------------
def _call(trace, fn, *args, **kwargs):
    """Call ``fn``; under tracing, as a root span named ``op``."""
    if trace is None:
        return fn(*args, **kwargs)
    return trace.span("op", fn, *args, **kwargs)


def _add_matcher_stats(samples: Samples, stats: Optional[dict]) -> None:
    if stats:
        samples.add("matcher_hits", stats["hits"])
        samples.add("matcher_misses", stats["misses"])


#: name -> (setup, run the fixed unit, teardown, the run seconds one unit
#: accounts for).  A run of ``--seconds`` measures ``round(seconds / share)``
#: units, at least one, each in a fresh process.  The shares give 2, 3 and 6
#: units at 20 s, which on a 2-core host take 20-40 s with their set-ups:
#: the noisier a workload's percentiles between processes, the more units.
WORKLOADS = {
    "table1": (setup_table1, run_table1, None, 9.0),
    "sweep": (setup_sweep, run_sweep, None, 6.5),
    "service": (setup_service, run_service, ServiceContext.close, 3.3),
}
