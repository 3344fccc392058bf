"""The service's request runner: what a pool worker does for one request.

The server submits every admitted request to its worker pool
(:mod:`repro.parallel.coordinator`) as a :func:`run_spec` task; the
worker process is the crash-containment line: a phase that segfaults,
hangs, or eats all memory takes down one lease of one request, never
the server, and the pool re-leases it.  The returned payload is the
response body.

- A structured client error (a mini-C compile failure, an unknown
  function) is a result, not a crash: ``{"error": ..., "detail": ...}``.
- A graceful stop (the SIGTERM of a drain or a deadline cancel) returns
  ``interrupted: true``: the enumeration checkpointed under the
  request's stable work key, so a successor request — even against a
  restarted server — resumes it bit-identically.
- A *corrupt* checkpoint (``CKP001``) on the resume path is discarded
  and the enumeration restarts fresh — the request still succeeds, with
  the strict error preserved under ``degraded``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.core import checkpoint as ckpt
from repro.core.batch import BatchCompiler
from repro.core.driver import run_function
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    SpaceEnumerator,
)
from repro.core.interactions import analyze_interactions
from repro.core.store import SpaceStore
from repro.frontend import CompileError, compile_source
from repro.ir.printer import format_function
from repro.opt import apply_phase, implicit_cleanup, phase_by_id

OnStart = Optional[Callable[[SpaceEnumerator], None]]


def _build_config(raw: Dict, program) -> EnumerationConfig:
    """The enumeration config a request's validated ``config`` names."""
    fields = {
        key: value
        for key, value in raw.items()
        if key not in ("fault_rate", "fault_seed")
    }
    # a service-grade cadence: a lost lease loses at most a couple of
    # seconds of expansion, not the CLI default's 30
    fields.setdefault("checkpoint_interval", 2.0)
    if raw.get("fault_rate"):
        fields["fault"] = {
            "seed": raw.get("fault_seed", 2006), "rate": raw["fault_rate"]
        }
    config = EnumerationConfig.from_dict(fields)
    if config.needs_program():
        config.program = program
    return config


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
        "dag_fingerprint": ckpt.dag_digest(result.dag),
    }
    if result.collapse_stats is not None:
        payload["collapse_stats"] = result.collapse_stats
    return payload


def _unknown_function(program, name: str) -> Dict[str, object]:
    return _client_error(
        "unknown_function",
        f"no function {name!r}; available: {', '.join(program.functions)}",
    )


def _run_enumerate(spec: Dict, program, on_start: OnStart) -> Dict[str, object]:
    name = spec["function"]
    func = program.functions.get(name)
    if func is None:
        return _unknown_function(program, name)
    state_dir = spec["state_dir"]
    os.makedirs(state_dir, exist_ok=True)
    store = SpaceStore(spec["store_root"]) if spec.get("store_root") else None
    checkpoint_path = os.path.join(state_dir, "ckpt.json")
    result, degraded = run_function(
        func,
        _build_config(spec["config"], program),
        store=store,
        checkpoint_path=checkpoint_path,
        resume=True,
        discard_corrupt=True,
        on_start=on_start,
    )
    payload = _result_payload(name, result, degraded=degraded)
    if spec.get("include_dag"):
        payload["dag"] = ckpt.dag_to_dict(result.dag)
    if result.abort_reason == "interrupted":
        payload["interrupted"] = True
        payload["checkpointed"] = os.path.exists(checkpoint_path)
    return payload


def _run_interactions(spec: Dict, program, on_start: OnStart) -> Dict[str, object]:
    names = spec.get("functions") or list(program.functions)
    store = SpaceStore(spec["store_root"]) if spec.get("store_root") else None
    state_dir = spec["state_dir"]
    os.makedirs(state_dir, exist_ok=True)
    results: List[EnumerationResult] = []
    rows: Dict[str, Dict[str, object]] = {}
    for name in names:
        func = program.functions.get(name)
        if func is None:
            return _unknown_function(program, name)
        # a fresh config per function: each draws a fresh fault stream
        result, degraded = run_function(
            func,
            _build_config(spec["config"], program),
            store=store,
            checkpoint_path=os.path.join(state_dir, f"{name}.ckpt.json"),
            resume=True,
            discard_corrupt=True,
            on_start=on_start,
        )
        rows[name] = _result_payload(name, result, degraded=degraded)
        if result.abort_reason == "interrupted":
            # Partial multi-function request: everything enumerated so
            # far is checkpointed (or already in the store); a retried
            # request resumes mid-list.
            return {"functions": rows, "interrupted": True, "checkpointed": True}
        results.append(result)
    analysis = analyze_interactions(results)
    return {
        "functions": rows,
        "tables": {
            "enabling": analysis.format_enabling(),
            "disabling": analysis.format_disabling(),
            "independence": analysis.format_independence(),
        },
    }


def _run_compile(spec: Dict, program, on_start: OnStart) -> Dict[str, object]:
    names = (
        [spec["function"]] if spec.get("function") else list(program.functions)
    )
    functions: Dict[str, Dict[str, object]] = {}
    for name in names:
        func = program.functions.get(name)
        if func is None:
            return _unknown_function(program, name)
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
    return {"functions": functions}


def _client_error(error: str, detail: str) -> Dict[str, object]:
    """A structured client-input failure — a *result*, not a crash."""
    return {"error": error, "detail": detail}


_RUNNERS = {
    "compile": _run_compile,
    "enumerate": _run_enumerate,
    "interactions": _run_interactions,
}


def run_spec(spec: Dict, *, on_start: OnStart = None) -> Dict[str, object]:
    """Serve one request *spec* (the server's normalized request plus
    ``state_dir`` and ``store_root``); returns the response body.
    *on_start* receives each enumerator (the pool's heartbeat hook)."""
    try:
        program = compile_source(spec["source"])
    except CompileError as error:
        payload = _client_error("compile_error", str(error))
    else:
        payload = _RUNNERS[spec["kind"]](spec, program, on_start)
    payload.setdefault("kind", spec["kind"])
    return payload
