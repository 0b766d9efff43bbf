"""Regenerate ``expected.json``, the pinned outcomes the benchmark checks.

Run from the repository root::

    python3 perfbench/pin_expected.py

For every exhaustive check the benchmark issues (the ``sweep`` suite at
``max_side=7`` and the ``service`` suite at ``max_side=5``, each algorithm
under its own synchrony) it records ``terminates``, ``explores`` and the
state count under the ``"grid"`` reduction the workloads use, plus the
unreduced state count that ``reduction.quotient_ratio`` divides by.
It also pins the SSYNC model checks that regenerating Table 1 runs for
its ASYNC rows, under the checker's default (unreduced) pipeline.
Regenerate only when the checker's semantics change on purpose.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

from repro.algorithms import all_algorithms, table1_rows  # noqa: E402
from repro.checking import check_terminating_exploration  # noqa: E402
from repro.core.grid import Grid  # noqa: E402
from repro.engine.suites import default_grid_suite  # noqa: E402
from workloads import check_key  # noqa: E402


def main() -> None:
    checks = {}
    for algorithm in all_algorithms().values():
        sizes = set(default_grid_suite(algorithm, max_side=7)) | set(default_grid_suite(algorithm, max_side=5))
        for m, n in sorted(sizes):
            grid = Grid(m, n)
            model = algorithm.synchrony
            reduced = check_terminating_exploration(algorithm, grid, model=model, reduction="grid")
            full = check_terminating_exploration(algorithm, grid, model=model, reduction="none")
            if (reduced.terminates, reduced.explores) != (full.terminates, full.explores):
                raise SystemExit(f"reduction changed the verdict of {algorithm.name} {m}x{n}")
            checks[check_key(algorithm.name, m, n, model)] = {
                "terminates": reduced.terminates,
                "explores": reduced.explores,
                "states": reduced.states_explored,
                "unreduced_states": full.states_explored,
            }
    table1_checks = {}
    for algorithm in table1_rows():
        if algorithm.synchrony != "ASYNC":
            continue
        m, n = max(algorithm.min_m, 3), max(algorithm.min_n, 4)
        result = check_terminating_exploration(algorithm, Grid(m, n), model="SSYNC")
        table1_checks[check_key(algorithm.name, m, n, "SSYNC")] = {
            "terminates": result.terminates,
            "explores": result.explores,
            "states": result.states_explored,
        }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump({"checks": checks, "table1_checks": table1_checks}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(checks)} checks and {len(table1_checks)} Table 1 checks")


if __name__ == "__main__":
    main()
