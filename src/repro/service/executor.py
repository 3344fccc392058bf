"""The per-request worker process of the enumeration service.

The server runs every admitted request in a fresh subprocess::

    python -m repro.service.executor <spec.json>

which reads a spec written by the server, does the work, and writes a
result JSON **atomically** (through the checkpoint layer, so the file
carries the same version + integrity digest as every other persisted
artifact).  The process boundary is the crash-containment line: a
phase that segfaults, hangs, or eats all memory takes down one request
attempt, never the server — the server sees a missing/garbled result
and an exit status, and decides to retry, quarantine, or report.

Exit status protocol:

- ``0`` — result file written (including structured client errors such
  as a mini-C compile failure: those are results, not crashes);
- ``3`` — gracefully interrupted (SIGTERM during drain): the
  enumeration checkpointed its state under the request's stable work
  key, so a successor request — even against a restarted server —
  resumes it bit-identically;
- anything else — a crash; the server retries with the same state dir,
  so levels completed before the crash are never recomputed.

Graceful degradation: a *corrupt* checkpoint (``CKP001``) on the
resume path is discarded and the enumeration restarts fresh — the
request still succeeds, with the strict error preserved under
``degraded`` in the result for the journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.core import checkpoint as ckpt
from repro.core.batch import BatchCompiler
from repro.core.driver import FunctionRun, run_function
from repro.core.enumeration import EnumerationConfig, EnumerationResult
from repro.core.interactions import analyze_interactions
from repro.core.store import SpaceStore
from repro.frontend import CompileError, compile_source
from repro.ir.printer import format_function
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.robustness import FaultInjector

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_INTERRUPTED = 3


def _build_config(spec: Dict, program=None) -> EnumerationConfig:
    raw = spec.get("config", {})
    injector = None
    if raw.get("fault_rate"):
        injector = FaultInjector(
            seed=raw.get("fault_seed", 2006), rate=raw["fault_rate"]
        )
    needs_program = (
        raw.get("difftest")
        or raw.get("sanitize")
        or raw.get("collapse") == "semantic"
    )
    return EnumerationConfig(
        max_nodes=raw.get("max_nodes"),
        max_levels=raw.get("max_levels"),
        time_limit=raw.get("time_limit"),
        exact=raw.get("exact", False),
        share_prefixes=raw.get("share_prefixes", True),
        remap=raw.get("remap", True),
        validate=raw.get("validate", False),
        difftest=raw.get("difftest", False),
        program=program if needs_program else None,
        phase_timeout=raw.get("phase_timeout"),
        fault_injector=injector,
        # a service-grade cadence: an executor crash loses at most a
        # couple of seconds of expansion, not the CLI default's 30
        checkpoint_interval=raw.get("checkpoint_interval", 2.0),
        sanitize=raw.get("sanitize"),
        collapse=raw.get("collapse", "syntactic"),
    )


def _dag_fingerprint(dag) -> str:
    """Content digest of the full serialized space DAG — the service's
    bit-identity witness (serial == resumed == coalesced == cached)."""
    return hashlib.sha256(
        json.dumps(ckpt.dag_to_dict(dag), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _result_payload(
    name: str,
    result: EnumerationResult,
    *,
    degraded: Optional[str] = None,
) -> Dict[str, object]:
    resumed = result.resumed_from
    payload: Dict[str, object] = {
        "function": name,
        "completed": result.completed,
        "abort_reason": result.abort_reason,
        "instances": len(result.dag),
        "levels_completed": result.levels_completed,
        "attempted_phases": result.attempted_phases,
        "phases_applied": result.phases_applied,
        "elapsed": round(result.elapsed, 3),
        "resumed_from": resumed,
        "store_hit": isinstance(resumed, str) and resumed.startswith("store:"),
        "degraded": degraded,
        "quarantine": result.quarantine.to_dicts(),
        "dag_fingerprint": _dag_fingerprint(result.dag),
    }
    if result.collapse_stats is not None:
        payload["collapse_stats"] = result.collapse_stats
    return payload


def _enumerate_one(
    spec: Dict,
    func,
    program,
    store: Optional[SpaceStore],
    checkpoint_path: str,
) -> FunctionRun:
    """Enumerate one function through the shared driver, resuming the
    request's stable checkpoint.  A corrupt checkpoint (CKP001) is
    discarded and recomputed rather than failing the request; the
    detail survives as ``degraded``."""
    return run_function(
        func,
        _build_config(spec, program=program),
        store=store,
        checkpoint_path=checkpoint_path,
        resume=True,
        discard_corrupt=True,
    )


def _run_enumerate(spec: Dict, program) -> Tuple[Dict[str, object], int]:
    name = spec["function"]
    func = program.functions.get(name)
    if func is None:
        return _client_error(
            "unknown_function",
            f"no function {name!r}; available: "
            f"{', '.join(program.functions)}",
        )
    state_dir = spec["state_dir"]
    os.makedirs(state_dir, exist_ok=True)
    store = SpaceStore(spec["store_root"]) if spec.get("store_root") else None
    if spec.get("config", {}).get("jobs", 1) > 1:
        return _run_enumerate_parallel(spec, name, func, state_dir, store)
    checkpoint_path = os.path.join(state_dir, "ckpt.json")
    result, degraded = _enumerate_one(
        spec, func, program, store, checkpoint_path
    )
    payload = _result_payload(name, result, degraded=degraded)
    if spec.get("include_dag"):
        payload["dag"] = ckpt.dag_to_dict(result.dag)
    if result.abort_reason == "interrupted":
        payload["interrupted"] = True
        payload["checkpointed"] = os.path.exists(checkpoint_path)
        return payload, EXIT_INTERRUPTED
    return payload, EXIT_OK


def _run_enumerate_parallel(
    spec: Dict, name: str, func, state_dir: str, store: Optional[SpaceStore]
) -> Tuple[Dict[str, object], int]:
    """jobs > 1: run the request through the parallel pool.

    The pool worker calls the same :func:`run_function` as the serial
    path, checkpointing under the request's stable state dir; the
    coordinator forwards SIGTERM to it.  The executor just shapes the
    result.
    """
    from repro.parallel import (
        EnumerationRequest,
        ParallelConfig,
        ParallelEnumerator,
    )

    raw = spec.get("config", {})
    config = _build_config(spec)
    needs_source = (
        raw.get("difftest")
        or raw.get("sanitize")
        or raw.get("collapse") == "semantic"
    )
    parallel = ParallelConfig(
        jobs=raw["jobs"],
        run_dir=os.path.join(state_dir, "parallel"),
        resume=True,
        store=store,
    )
    request = EnumerationRequest(
        name, func, spec["source"] if needs_source else None
    )
    result = ParallelEnumerator(config, parallel).enumerate([request])[0]
    payload = _result_payload(name, result)
    if spec.get("include_dag"):
        payload["dag"] = ckpt.dag_to_dict(result.dag)
    return payload, EXIT_OK


def _run_interactions(spec: Dict, program) -> Tuple[Dict[str, object], int]:
    names = spec.get("functions") or list(program.functions)
    store = SpaceStore(spec["store_root"]) if spec.get("store_root") else None
    state_dir = spec["state_dir"]
    os.makedirs(state_dir, exist_ok=True)
    results: List[EnumerationResult] = []
    rows: Dict[str, Dict[str, object]] = {}
    for name in names:
        func = program.functions.get(name)
        if func is None:
            return _client_error(
                "unknown_function",
                f"no function {name!r}; available: "
                f"{', '.join(program.functions)}",
            )
        checkpoint_path = os.path.join(state_dir, f"{name}.ckpt.json")
        result, degraded = _enumerate_one(
            spec, func, program, store, checkpoint_path
        )
        rows[name] = _result_payload(name, result, degraded=degraded)
        if result.abort_reason == "interrupted":
            # Partial multi-function request: everything enumerated so
            # far is checkpointed (or already in the store); a retried
            # request resumes mid-list.
            return (
                {"functions": rows, "interrupted": True, "checkpointed": True},
                EXIT_INTERRUPTED,
            )
        results.append(result)
    analysis = analyze_interactions(results)
    return (
        {
            "functions": rows,
            "tables": {
                "enabling": analysis.format_enabling(),
                "disabling": analysis.format_disabling(),
                "independence": analysis.format_independence(),
            },
        },
        EXIT_OK,
    )


def _run_compile(spec: Dict, program) -> Tuple[Dict[str, object], int]:
    names = (
        [spec["function"]] if spec.get("function") else list(program.functions)
    )
    functions: Dict[str, Dict[str, object]] = {}
    for name in names:
        func = program.functions.get(name)
        if func is None:
            return _client_error(
                "unknown_function",
                f"no function {name!r}; available: "
                f"{', '.join(program.functions)}",
            )
        implicit_cleanup(func)
        applied: List[str] = []
        if spec.get("batch"):
            report = BatchCompiler().compile(func)
            applied = list(report.active_sequence)
        elif spec.get("sequence"):
            for phase_id in spec["sequence"]:
                if apply_phase(func, phase_by_id(phase_id)):
                    applied.append(phase_id)
        functions[name] = {
            "instructions": func.num_instructions(),
            "active": "".join(applied),
            "rtl": format_function(func),
        }
    return {"functions": functions}, EXIT_OK


def _client_error(error: str, detail: str) -> Tuple[Dict[str, object], int]:
    """A structured client-input failure — a *result*, not a crash."""
    return {"error": error, "detail": detail}, EXIT_OK


def run_spec(spec: Dict) -> Tuple[Dict[str, object], int]:
    kind = spec["kind"]
    try:
        program = compile_source(spec["source"])
    except CompileError as error:
        return _client_error("compile_error", str(error))
    if kind == "compile":
        return _run_compile(spec, program)
    if kind == "enumerate":
        return _run_enumerate(spec, program)
    if kind == "interactions":
        return _run_interactions(spec, program)
    return {"error": "bad_spec", "detail": f"unknown kind {kind!r}"}, EXIT_SPEC


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(
            "usage: python -m repro.service.executor SPEC.json",
            file=sys.stderr,
        )
        return EXIT_SPEC
    try:
        with open(argv[0], encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"unreadable spec {argv[0]}: {error}", file=sys.stderr)
        return EXIT_SPEC
    try:
        payload, code = run_spec(spec)
    except KeyboardInterrupt:
        # SIGTERM during a parallel (jobs > 1) enumeration surfaces
        # here after the pool workers checkpointed their functions.
        payload, code = (
            {"interrupted": True, "checkpointed": True},
            EXIT_INTERRUPTED,
        )
    payload.setdefault("request_id", spec.get("request_id"))
    payload.setdefault("kind", spec.get("kind"))
    ckpt.save_checkpoint(spec["result_path"], payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
