"""Shared fixtures for the experiment-reproduction benchmarks.

Every table and figure of the paper's evaluation has a bench module:

=====================  =============================================
bench module           paper artifact
=====================  =============================================
bench_table3.py        Table 3 — per-function search space statistics
bench_table4.py        Table 4 — enabling probabilities
bench_table5.py        Table 5 — disabling probabilities
bench_table6.py        Table 6 — independence probabilities
bench_table7.py        Table 7 — batch vs probabilistic compilation
bench_figures_1_2_4.py Figures 1/2/4 — naive tree vs pruned tree vs DAG
bench_figure6.py       Figure 6 — search enhancement speedup
bench_figure7.py       Figure 7 — weighted DAG statistics
=====================  =============================================

Each bench writes its rendered table to ``benchmarks/results/`` and
also times the underlying computation with pytest-benchmark.

Environment knobs (the defaults keep a full run around 10-20 minutes):

- ``REPRO_BENCH_FULL=1``       — study every benchmark function
  (otherwise a representative subset);
- ``REPRO_BENCH_MAX_NODES``    — per-function instance cap (default 4000);
- ``REPRO_BENCH_TIME_LIMIT``   — per-function seconds cap (default 45);
- ``REPRO_BENCH_JOBS``         — enumerate the study set with the
  parallel service (``repro.parallel``) at this worker count;
- ``REPRO_BENCH_STORE``        — persistent merged-space store
  directory; completed spaces are reused across runs.

Every bench run also records per-test wall-clock timings in
``benchmarks/results/timings.json``.

Functions whose space exceeds the caps are reported N/A, exactly as
the paper marks its two over-budget functions.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.core.stats import FunctionSpaceStats, static_function_facts
from repro.opt import implicit_cleanup
from repro.programs import PROGRAMS, compile_benchmark

RESULTS_DIR = Path(__file__).parent / "results"

#: representative subset: a mix of tiny/medium/loopy/straight-line
#: functions across all six benchmarks; most enumerate completely
#: under the default caps, a few exceed them and report N/A (as the
#: paper's fft functions do)
QUICK_STUDY = [
    ("bitcount", "bit_count"),  # exceeds default caps -> N/A
    ("bitcount", "ntbl_bitcount"),
    ("bitcount", "tbl_bitcount"),
    ("bitcount", "main"),
    ("dijkstra", "next_rand"),
    ("dijkstra", "enqueue_min"),  # exceeds default caps -> N/A
    ("fft", "fcos"),
    ("jpeg", "descale"),
    ("jpeg", "range_limit"),
    ("jpeg", "rgb_to_y"),
    ("jpeg", "rgb_to_cb"),
    ("sha", "rol"),
    ("sha", "sha_init"),
    ("stringsearch", "set_pattern"),
    ("stringsearch", "strsearch"),
    ("stringsearch", "plant_pattern"),  # exceeds default caps -> N/A
    ("stringsearch", "bmh_init"),  # exceeds default caps -> N/A
]


def bench_config(**overrides) -> EnumerationConfig:
    defaults = dict(
        max_nodes=int(os.environ.get("REPRO_BENCH_MAX_NODES", "4000")),
        time_limit=float(os.environ.get("REPRO_BENCH_TIME_LIMIT", "45")),
    )
    defaults.update(overrides)
    return EnumerationConfig(**defaults)


def parallel_knobs():
    """(jobs, store_dir) from the environment; (1, None) = serial."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    store_dir = os.environ.get("REPRO_BENCH_STORE") or None
    return jobs, store_dir


def study_functions():
    if os.environ.get("REPRO_BENCH_FULL"):
        return [
            (program.name, function_name)
            for program in PROGRAMS.values()
            for function_name in program.study_functions
        ]
    return list(QUICK_STUDY)


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def enumerated_suite():
    """(bench, function) -> FunctionSpaceStats for the study set.

    With ``REPRO_BENCH_JOBS>1`` or ``REPRO_BENCH_STORE`` set, the study
    set is enumerated through the parallel pool; its spaces are
    bit-identical to serial, so every downstream table is unchanged.
    """
    study = study_functions()
    functions, all_facts = {}, {}
    for bench_name, function_name in study:
        program = compile_benchmark(bench_name)
        func = program.functions[function_name]
        implicit_cleanup(func)
        functions[(bench_name, function_name)] = func
        all_facts[(bench_name, function_name)] = static_function_facts(func)

    jobs, store_dir = parallel_knobs()
    if jobs > 1 or store_dir:
        from repro.parallel import (
            EnumerationRequest,
            ParallelConfig,
            ParallelEnumerator,
            SpaceStore,
        )

        requests = [
            EnumerationRequest(f"{bench}.{name}", functions[(bench, name)])
            for bench, name in study
        ]
        parallel = ParallelConfig(
            jobs=jobs, store=SpaceStore(store_dir) if store_dir else None
        )
        results = dict(
            zip(study, ParallelEnumerator(bench_config(), parallel).enumerate(requests))
        )
    else:
        results = {
            key: enumerate_space(func, bench_config())
            for key, func in functions.items()
        }

    return {
        (bench_name, function_name): FunctionSpaceStats(
            f"{function_name}({bench_name[0]})",
            *all_facts[(bench_name, function_name)],
            results[(bench_name, function_name)],
        )
        for bench_name, function_name in study
    }


_TIMINGS: dict = {}


@pytest.fixture(autouse=True)
def _record_wall_clock(request):
    """Record each bench's wall-clock into results/timings.json."""
    start = time.perf_counter()
    yield
    _TIMINGS[request.node.name] = round(time.perf_counter() - start, 3)


def pytest_sessionfinish(session, exitstatus):
    if not _TIMINGS:
        return
    jobs, store_dir = parallel_knobs()
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "jobs": jobs,
        "store": store_dir,
        "cpu_count": os.cpu_count(),
        "wall_clock_seconds": dict(sorted(_TIMINGS.items())),
        "total_seconds": round(sum(_TIMINGS.values()), 3),
    }
    (RESULTS_DIR / "timings.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


@pytest.fixture(scope="session")
def interactions(enumerated_suite):
    """Tables 4-6 aggregated over the enumerated study set."""
    return analyze_interactions(
        stat.result for stat in enumerated_suite.values()
    )
