"""End-to-end benchmark of the repro library, with a traced per-layer split.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

A run measures whole units of fixed work (``workloads.py``), each in a
fresh process: as many as ``--seconds`` allots the workload, so the work
depends on ``--seconds`` and not on the host's speed.
Every timed figure is reported in nominal seconds (``speed.py``): each
operation is bracketed by runs of a fixed reference kernel, and its time
is read against the kernel's, which cancels the host's speed drift; the
same figures in plain seconds are printed with the run's metadata.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public functions (``tracing.py``) and
prints the per-layer metrics, plus the tracing overhead against an
untraced run of the same seed.  The next-to-last line holds the run's
metadata and each metric's sample count; the last line is the JSON
result, every metric by name with its value and unit.  The exit code
is 0 when every operation's output was correct, 1 when any failed and 2
when the checkout holds no sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join("src", "repro", "__init__.py")
#: Fresh-process setups timed per run (the units' own, topped up by
#: set-up-only probes); ``setup_s`` is their median.
SETUP_PROBES = 5
#: Reference kernel runs timed on each side of a set-up (``speed.py``).
SETUP_MARKS = 16
#: A percentile needs this many samples, so that p90 has 10 beyond it.
MIN_SAMPLES = 100

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"] + _SPEC["per_layer"]}
END_TO_END = [metric["name"] for metric in _SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in _SPEC["per_layer"]]

Metric = Tuple[float, int]  # (value, samples)


class TooFewSamples(ValueError):
    """A percentile was asked of fewer than ``MIN_SAMPLES`` operations."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; refuses inputs too small to support it."""
    if len(values) < MIN_SAMPLES:
        raise TooFewSamples(f"percentile of {len(values)} samples; at least {MIN_SAMPLES} needed")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def end_to_end(units: List[dict], setup_s: List[float]) -> Dict[str, Metric]:
    """The end-to-end metrics of one untraced run, over its units' ``cold_s``, ``warm_s`` and ``unit_wall_s``."""
    cold = [x for unit in units for x in unit["cold_s"]]
    warm = [x for unit in units for x in unit["warm_s"]]
    walls = [unit["unit_wall_s"] for unit in units]
    ms = 1000.0
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (max(unit["peak_rss_mb"] for unit in units), len(units)),
        "states_per_s": (sum(unit["cold_states"] for unit in units) / sum(cold), len(cold)),
        "req_per_s": (
            statistics.median(unit["unit_ops"] / unit["unit_wall_s"] for unit in units),
            sum(unit["unit_ops"] for unit in units),
        ),
        "cold_p50_ms": (percentile(cold, 50) * ms, len(cold)),
        "cold_p90_ms": (percentile(cold, 90) * ms, len(cold)),
        "warm_p50_ms": (percentile(warm, 50) * ms, len(warm)),
        "warm_p90_ms": (percentile(warm, 90) * ms, len(warm)),
    }


def per_layer(tracer, samples, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, Metric]:
    """The per-layer metrics of one traced run."""
    layers, counts, seen = tracer.layers, tracer.counts, samples.observed

    def calls(name: str) -> int:
        return layers[name].calls if name in layers else 0

    def self_s(*names: str) -> float:
        return sum(layers[name].self_s for name in names if name in layers)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = seen.get("matcher_hits", 0) + seen.get("matcher_misses", 0)
    hits = seen.get("http_overhead_hit_s", 0.0)
    misses = seen.get("http_overhead_miss_s", 0.0)
    n_hits = samples.count(cold=False) if "http_overhead_hit_s" in seen else 0
    n_misses = samples.count(cold=True) if "http_overhead_miss_s" in seen else 0
    guard_evals = calls("rules.guard")
    expand_calls = calls("transition")
    values = {
        "rules.guard_evals": guard_evals,
        "rules.self_s": self_s("rules.guard", "rules.scan"),
        "matcher.lookups": lookups,
        "matcher.hit_ratio": ratio(seen.get("matcher_hits", 0), lookups),
        "matcher.evals_per_snapshot": ratio(guard_evals, counts.get("matcher.distinct_snapshots", 0)),
        "matcher.self_s": self_s("matcher"),
        "transition.expand_calls": expand_calls,
        "transition.successors_per_state": ratio(counts.get("transition.successors", 0), expand_calls),
        "transition.self_s": self_s("transition"),
        "packed.explore_s": layers["packed"].total_s if "packed" in layers else 0.0,
        "reduction.canonicalize_calls": calls("reduction.canonicalize"),
        "reduction.self_s": self_s("reduction.canonicalize", "reduction.successors"),
        "reduction.quotient_ratio": ratio(seen.get("matched_states", 0), seen.get("unreduced_states", 0)),
        "explorer.states": counts.get("explorer.states", 0),
        "explorer.edges": counts.get("explorer.edges", 0),
        "explorer.self_s": self_s("explorer"),
        "verdict.cycle_s": self_s("verdict.cycle"),
        "verdict.coverage_s": self_s("verdict.coverage"),
        "walk.runs": calls("walk"),
        "walk.steps": counts.get("walk.steps", 0),
        "walk.self_s": self_s("walk"),
        "campaign.tasks": calls("campaign.task"),
        "campaign.self_s": self_s("campaign", "campaign.task"),
        "store.fetches": calls("store"),
        "store.hits": seen.get("store_hits", 0),
        "store.misses": seen.get("store_misses", 0),
        "store.coalesced": seen.get("store_coalesced", 0),
        "store.get_s": counts.get("store.hit_s", 0.0),
        "store.put_s": self_s("store.put"),
        "store.bytes_appended": seen.get("store_bytes_appended", 0),
        "spec.parse_s": self_s("spec.parse"),
        "spec.payload_s": self_s("spec.payload"),
        "service.handler_s": layers["service"].total_s if "service" in layers else 0.0,
        "service.http_overhead_hit_ms": ratio(hits, n_hits) * 1000.0,
        "service.http_overhead_miss_ms": ratio(misses, n_misses) * 1000.0,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    return {name: (float(value), samples.unit_ops) for name, value in values.items()}


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    The service workload's in-process client and its server threads hand
    the interpreter lock back and forth on every request.  Across CPUs each
    handoff waits for a cross-CPU wake-up whose latency follows the other
    tenants' load (it doubled hit p90 from run to run on a 2-core VM); on
    one CPU it is a local context switch.  Batch workloads are single
    threaded and run as fast pinned as not.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(args: List[str]) -> Tuple[float, float, List[str]]:
    """Run ``run.py args`` in a fresh process until it printed ``ready``, then let it go on.

    Returns the seconds until ``ready``, the same in nominal seconds and
    the child's output.  The reference kernel is timed just before the
    child starts and just after it is ready, while it waits for ``go``.
    """
    clock = speed.SpeedClock()
    for _ in range(SETUP_MARKS):
        clock.mark()
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py")] + args,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = child.stdout.readline()
        setup_s = perf_counter() - start
        if ready.strip() == "ready":
            for _ in range(SETUP_MARKS):
                clock.mark()
            child.stdin.write("go\n")
        child.stdin.close()
        rest = child.stdout.read()
        code = child.wait(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"run.py {' '.join(args)} exited with {code}")
    nominal_s = setup_s * speed.NOMINAL_S / statistics.median(clock.reference_s())
    return setup_s, nominal_s, rest.splitlines()


def unit_seed(seed: int, k: int) -> int:
    """The seed of a run's ``k``-th unit.

    A fresh process warms the program's caches as it goes, so a cold
    operation's latency depends on what ran before it; giving each unit its
    own order averages that over several orders within one run.
    """
    return seed * 1000 + k


def spawn_unit(workload: str, seed: int) -> Tuple[float, float, dict]:
    """Set up and run one unit in a fresh process: (setup seconds, nominal setup seconds, the unit's report)."""
    setup_s, nominal_s, lines = spawn(["--unit", workload, "--seed", str(seed)])
    return setup_s, nominal_s, json.loads(lines[-1])["unit"]


def ready_and_wait() -> None:
    """Tell the parent this process is set up, and wait until it says go."""
    print("ready", flush=True)
    sys.stdin.readline()


def run_unit(workload: str, seed: int, trace=None, on_ready=lambda: None) -> dict:
    """Set up and run one unit in this process; ``on_ready`` runs once it is set up."""
    import workloads

    setup, run, teardown, _ = workloads.WORKLOADS[workload]
    ctx = setup()
    on_ready()
    samples = workloads.Samples()
    try:
        if trace is not None:
            import tracing

            tracing.install(trace)
        try:
            run(ctx, seed, samples, trace)
        finally:
            if trace is not None:
                trace.restore()
    finally:
        if teardown is not None:
            teardown(ctx)
    report = samples.as_dict()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["samples"] = samples
    return report


def print_result(meta: dict, units: List[dict], metrics: Dict[str, Metric]) -> bool:
    """Print the run's failures, metadata and metrics; returns whether all were correct."""
    failed = sum(unit["failed"] for unit in units)
    attempted = sum(len(unit["cold_s"]) + len(unit["warm_s"]) for unit in units)
    for unit in units:
        for error in unit["errors"]:
            print(f"FAILED: {error}")
    print(json.dumps({"run": meta, "samples": {name: count for name, (_, count) in metrics.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in metrics.items()},
    }))
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("table1", "sweep", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(_SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child modes: set up only, or set up and run one unit, reporting JSON.
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--unit", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(SOURCES):
        print(f"perfbench: no {SOURCES} here; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads

    cpu = pin_to_one_cpu()

    if args.setup_probe:
        setup, _, teardown, _ = workloads.WORKLOADS[args.setup_probe]
        ctx = setup()
        ready_and_wait()
        if teardown is not None:
            teardown(ctx)
        return 0
    if args.unit:
        report = run_unit(args.unit, args.seed, on_ready=ready_and_wait)
        del report["samples"]
        print(json.dumps({"unit": report}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    nominal_s = workloads.WORKLOADS[args.workload][3]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
    }
    if args.workload == "service":
        meta["load"] = {"loop": "closed", "clients": 1, "miss_to_hit": "1:4", "specs": 130}

    if args.trace:
        _, _, untraced = spawn_unit(args.workload, unit_seed(args.seed, 0))
        import tracing

        tracer = tracing.Tracer()
        unit = run_unit(args.workload, unit_seed(args.seed, 0), tracer)
        os.makedirs(workloads.SCRATCH, exist_ok=True)
        meta["spans"] = os.path.join(workloads.SCRATCH, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(meta["spans"])
        meta["reference_ms"] = [unit["reference_ms"]]
        metrics = per_layer(tracer, unit["samples"], unit["unit_wall_s"], untraced["unit_wall_s"])
        units = [unit]
    else:
        n_units = max(1, round(args.seconds / nominal_s))
        spawned = [spawn_unit(args.workload, unit_seed(args.seed, k)) for k in range(n_units)]
        units = [unit for _, _, unit in spawned]
        setups = [(raw, nominal) for raw, nominal, _ in spawned]
        for _ in range(SETUP_PROBES - n_units):
            setups.append(spawn(["--setup-probe", args.workload])[:2])
        meta["units"] = n_units
        meta["reference_ms"] = [unit["reference_ms"] for unit in units]
        raw = end_to_end([dict(unit, **unit["raw"]) for unit in units], [raw for raw, _ in setups])
        meta["raw"] = {name: value for name, (value, _) in raw.items()}
        metrics = end_to_end(units, [nominal for _, nominal in setups])
    return 0 if print_result(meta, units, metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
