"""Hot-path benchmark: enumeration edge throughput, plain and sanitized.

Measures enumeration **edge throughput** (attempted phase transitions
per second) in two configurations of the one phase engine:

``flat_cold``
    Phases attempted over the packed array-of-tables IR
    (``repro.ir.flat``), every phase executed for real.  The
    enumeration process's kernel caches warm across repeats; best-of-N
    measures that steady state.
``sanitize_fast``
    Cold, with ``--sanitize=fast`` vetting every edge through the
    guard (docs/STATIC_ANALYSIS.md); ``sanitize_fast_overhead`` is its
    wall time over the cold run's — the guard's own cost, since both
    run the same phases.

Each run updates ``benchmarks/results/hotpath.json`` — a *trajectory*,
not a snapshot, so regressions are visible in history (see
docs/PERFORMANCE.md).  Entries are keyed by (sweep, git revision): a
re-run at the same revision replaces its predecessor, and each sweep
keeps its first entry (the baseline) plus the most recent
``TRAJECTORY_CAP - 1`` measurements.  Entries of the retired
``quick``/``full`` sweeps (which compared against deleted legacy
paths) and the ``memo_warm_*`` fields of older entries (a transition
memo, since removed) stay as history.  ``--check`` fails when the cold
engine falls below the absolute edges/s floor (far under typical
hardware).

CLI::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.opt import implicit_cleanup
from repro.programs import compile_benchmark

try:  # pytest collection vs `python benchmarks/bench_hotpath.py`
    from .conftest import RESULTS_DIR
except ImportError:  # pragma: no cover - CLI entry
    from pathlib import Path

    RESULTS_DIR = Path(__file__).parent / "results"

#: the full sweep: complete spaces, big enough that per-edge work
#: dominates
SWEEP = [
    ("sha", "rol"),
    ("jpeg", "descale"),
    ("jpeg", "rgb_to_y"),
    ("fft", "fcos"),
]
#: one small function for the CI perf-smoke job
QUICK_SWEEP = [("jpeg", "descale")]
#: trajectory keys of the two sweeps
SWEEP_KEYS = {False: "flat-full", True: "flat-quick"}

RESULTS_PATH = RESULTS_DIR / "hotpath.json"

#: absolute cold-throughput sanity floor for ``--check`` — far under
#: the ~100k edges/s the cold engine measures, so it only trips on a
#: real collapse, not slow CI
FLAT_COLD_EDGES_FLOOR = 15_000.0
#: per-sweep history bound: the baseline entry plus this many recent
TRAJECTORY_CAP = 12


def _functions(sweep):
    functions = []
    for bench_name, function_name in sweep:
        program = compile_benchmark(bench_name)
        func = program.functions[function_name]
        implicit_cleanup(func)
        functions.append((f"{bench_name}.{function_name}", func))
    return functions


def _measure(functions, sanitize=None, repeats=3):
    """Best-of-N wall and total edges for one configuration."""
    best_wall = None
    edges = 0
    for _ in range(repeats):
        start = time.perf_counter()
        edges = 0
        for _label, func in functions:
            result = enumerate_space(func, EnumerationConfig(sanitize=sanitize))
            assert result.completed
            edges += result.attempted_phases
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return best_wall, edges


def _git_describe():
    """The working tree's revision label, or None outside a checkout."""
    try:
        probe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    label = probe.stdout.strip()
    return label if probe.returncode == 0 and label else None


def run_benchmark(quick: bool = False) -> dict:
    functions = _functions(QUICK_SWEEP if quick else SWEEP)

    flat_wall, edges = _measure(functions)
    san_wall, san_edges = _measure(functions, sanitize="fast")
    assert san_edges == edges, "sanitized edge count diverged"

    return {
        "sweep": SWEEP_KEYS[quick],
        "functions": [label for label, _func in functions],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": _git_describe(),
        "cpu_count": os.cpu_count(),
        "edges": edges,
        "flat_cold_wall_seconds": round(flat_wall, 4),
        "flat_cold_edges_per_second": round(edges / flat_wall, 1),
        "sanitize_fast_wall_seconds": round(san_wall, 4),
        "sanitize_fast_edges_per_second": round(edges / san_wall, 1),
        "sanitize_fast_overhead": round(san_wall / flat_wall, 2),
    }


def load_trajectory() -> list:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text())["trajectory"]
    return []


def _trimmed(trajectory: list) -> list:
    """One entry per (sweep, git) revision, capped per sweep.

    The first entry of each sweep is the committed baseline and always
    survives; among the rest, a later measurement at the same revision
    supersedes the earlier one, and only the most recent
    ``TRAJECTORY_CAP - 1`` are kept.
    """
    result = []
    for sweep in dict.fromkeys(e["sweep"] for e in trajectory):
        entries = [e for e in trajectory if e["sweep"] == sweep]
        baseline, rest = entries[0], entries[1:]
        deduped = []
        for entry in rest:
            git = entry.get("git")
            if git is not None:
                deduped = [e for e in deduped if e.get("git") != git]
            deduped.append(entry)
        result.append(baseline)
        result.extend(deduped[-(TRAJECTORY_CAP - 1):])
    return result


def append_entry(entry: dict) -> None:
    trajectory = _trimmed(load_trajectory() + [entry])
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps({"trajectory": trajectory}, indent=2) + "\n"
    )


def check_floor(entry: dict) -> None:
    """The regression gate behind ``--check`` (SystemExit on failure)."""
    rate = entry["flat_cold_edges_per_second"]
    status = "ok" if rate >= FLAT_COLD_EDGES_FLOOR else "REGRESSION"
    print(
        f"cold engine {rate:,.0f} edges/s "
        f"(floor {FLAT_COLD_EDGES_FLOOR:,.0f}): {status}"
    )
    if rate < FLAT_COLD_EDGES_FLOOR:
        raise SystemExit(
            f"hot-path regression: cold engine at {rate} edges/s, "
            f"below the {FLAT_COLD_EDGES_FLOOR:.0f} floor"
        )


def test_hotpath_throughput():
    """Full sweep: cold throughput above the floor."""
    entry = run_benchmark(quick=False)
    append_entry(entry)
    print(f"\n{json.dumps(entry, indent=2)}\n[recorded in {RESULTS_PATH}]")
    assert entry["flat_cold_edges_per_second"] >= FLAT_COLD_EDGES_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small function (the CI perf-smoke configuration)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when cold throughput falls below the absolute floor",
    )
    args = parser.parse_args(argv)
    entry = run_benchmark(quick=args.quick)
    print(json.dumps(entry, indent=2))
    if args.check:
        check_floor(entry)
    append_entry(entry)
    print(f"[recorded in {RESULTS_PATH}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
