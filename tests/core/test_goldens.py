"""Phase-engine goldens: the spaces and compilations, pinned bit for bit.

Every phase has exactly one implementation, so nothing can be checked
against a second live code path; these goldens are the anchor instead.
``tests/goldens/phase_engine.json`` records, per case:

- the six search-lab seed functions, fully enumerated, plus a digest
  of the Tables 4-6 text their interaction analysis renders;
- every function of the six MiBench programs (pointer/struct ports
  included) at ``max_nodes=120`` — loop phases g and l are active in
  these spaces;
- every function of ``fuzz_source(0, 0..9)`` at ``max_nodes=100``;
- sha.rol and the loop function sha.word_sum under each enumeration
  mode that drives phases differently: exact, ``remap=False``,
  ``share_prefixes=False``, semantic collapse, ``sanitize="fast"``,
  and ``validate`` with seeded fault injection (quarantine log and the
  journaled ``phase_stats`` included);
- the batch and probabilistic compilers over every program function.

An enumeration entry is (nodes, attempted, applied, abort reason,
sha256 of the serialized DAG); a compilation entry is (attempted,
active sequence, code size, sha256 of the final RTL).

The goldens were generated under the object-IR phase bodies and
cross-checked against the flat kernels before the object bodies were
deleted.  Regenerate (only for an intended change of the spaces)::

    PYTHONPATH=src python -m tests.core.test_goldens --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

import pytest

from repro.core.batch import BatchCompiler
from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.interactions import analyze_interactions
from repro.core.probabilistic import ProbabilisticCompiler
from repro.frontend import compile_source
from repro.frontend.fuzz import fuzz_source
from repro.ir.printer import format_function
from repro.observability import tracer as obs
from repro.programs import PROGRAMS, compile_benchmark
from repro.robustness.faults import FaultInjector
from repro.search.harness import SEED_FUNCTIONS

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens",
    "phase_engine.json",
)

PROGRAM_MAX_NODES = 120
FUZZ_MAX_NODES = 100
FUZZ_INDICES = range(10)
#: (program, function, max_nodes) enumerated under every MODES entry
MODE_FUNCTIONS = (("sha", "rol", None), ("sha", "word_sum", 120))
#: mode name -> EnumerationConfig overrides (faults are added per run)
MODES: Dict[str, Dict[str, object]] = {
    "exact": {"exact": True},
    "no-remap": {"remap": False},
    "replay": {"share_prefixes": False},
    "semantic": {"collapse": "semantic"},
    "sanitize-fast": {"sanitize": "fast"},
    "validate-faults": {"validate": True},
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def enumeration_entry(result) -> Dict[str, object]:
    return {
        "nodes": len(result.dag),
        "attempted": result.attempted_phases,
        "applied": result.phases_applied,
        "abort": result.abort_reason,
        "dag": dag_digest(result.dag),
    }


def loop_edges(result) -> int:
    """Active g/l edges in the space."""
    return sum(
        1
        for node in result.dag.nodes.values()
        for phase_id in node.active
        if phase_id in ("g", "l")
    )


def _enumerate(func, **config):
    return enumerate_space(func, EnumerationConfig(**config))


# ----------------------------------------------------------------------
# Case groups (each returns a JSON-ready dict)
# ----------------------------------------------------------------------


def seed_cases() -> Dict[str, object]:
    results = []
    spaces = {}
    for seed in SEED_FUNCTIONS:
        func = compile_benchmark(seed.benchmark).functions[seed.function]
        result = _enumerate(func)
        results.append(result)
        spaces[seed.label] = enumeration_entry(result)
    analysis = analyze_interactions(results)
    tables = "\n".join(
        (
            analysis.format_enabling(),
            analysis.format_disabling(),
            analysis.format_independence(),
        )
    )
    return {"spaces": spaces, "tables": sha256(tables)}


def program_cases() -> Dict[str, object]:
    spaces = {}
    for name in PROGRAMS:
        for func in compile_benchmark(name).functions.values():
            result = _enumerate(func, max_nodes=PROGRAM_MAX_NODES)
            entry = enumeration_entry(result)
            entry["loop_edges"] = loop_edges(result)
            spaces[f"{name}.{func.name}"] = entry
    return spaces


def fuzz_cases() -> Dict[str, object]:
    spaces = {}
    for index in FUZZ_INDICES:
        program = compile_source(fuzz_source(0, index))
        for func in program.functions.values():
            result = _enumerate(func, max_nodes=FUZZ_MAX_NODES)
            spaces[f"fuzz0-{index}.{func.name}"] = enumeration_entry(result)
    return spaces


def mode_case(mode: str) -> Dict[str, object]:
    cases = {}
    for benchmark, name, max_nodes in MODE_FUNCTIONS:
        program = compile_benchmark(benchmark)
        config = dict(MODES[mode], max_nodes=max_nodes, program=program)
        if mode == "validate-faults":
            config["fault_injector"] = FaultInjector(seed=7, rate=0.2)
        events: List[Dict[str, object]] = []
        tracer = obs.Tracer()
        tracer.subscribe(
            lambda event, **fields: events.append(fields)
            if event == "phase_stats"
            else None
        )
        with obs.tracing(tracer=tracer):
            result = _enumerate(program.functions[name], **config)
        entry = enumeration_entry(result)
        entry["quarantine"] = sha256(
            json.dumps(result.quarantine.to_dicts(), sort_keys=True)
        )
        entry["quarantined"] = len(result.quarantine)
        entry["phase_stats"] = events[0]["phases"] if events else None
        entry["sanitize_stats"] = result.sanitize_stats
        entry["collapse_stats"] = result.collapse_stats
        cases[f"{benchmark}.{name}"] = entry
    return cases


def compiler_cases(analysis=None) -> Dict[str, object]:
    if analysis is None:
        analysis = analyze_interactions(
            _enumerate(compile_benchmark(seed.benchmark).functions[seed.function])
            for seed in SEED_FUNCTIONS
        )
    cases: Dict[str, Dict[str, object]] = {"batch": {}, "probabilistic": {}}
    for kind in cases:
        for name in PROGRAMS:
            for func in compile_benchmark(name).functions.values():
                compiler = (
                    BatchCompiler()
                    if kind == "batch"
                    else ProbabilisticCompiler(analysis)
                )
                report = compiler.compile(func)
                cases[kind][f"{name}.{func.name}"] = {
                    "attempted": report.attempted,
                    "sequence": "".join(report.active_sequence),
                    "code_size": report.code_size,
                    "rtl": sha256(format_function(func)),
                }
    return cases


def compute_goldens() -> Dict[str, object]:
    return {
        "seeds": seed_cases(),
        "programs": program_cases(),
        "fuzz": fuzz_cases(),
        "modes": {mode: mode_case(mode) for mode in MODES},
        "compilers": compiler_cases(),
    }


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens() -> Dict[str, object]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_seed_spaces_and_tables(goldens):
    assert seed_cases() == goldens["seeds"]


def test_program_spaces(goldens):
    # the loop phases must be exercised, or g/l drift would go unseen
    assert sum(entry["loop_edges"] for entry in goldens["programs"].values()) > 0
    assert program_cases() == goldens["programs"]


def test_fuzz_spaces(goldens):
    assert fuzz_cases() == goldens["fuzz"]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_enumeration_modes(goldens, mode):
    assert mode_case(mode) == goldens["modes"][mode]


def test_fault_injection_quarantines(goldens):
    # the fault case must actually exercise the guard's failure paths
    for entry in goldens["modes"]["validate-faults"].values():
        assert entry["quarantined"] > 0
        assert any(row.get("quarantined") for row in entry["phase_stats"].values())


def test_compilers(goldens):
    assert compiler_cases() == goldens["compilers"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print("usage: python -m tests.core.test_goldens --write", file=sys.stderr)
        return 2
    data = compute_goldens()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
