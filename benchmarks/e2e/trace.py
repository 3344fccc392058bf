"""Per-layer time attribution for the end-to-end benchmark.

The repro modules keep no timers of their own, so a traced pass times
them from outside: it wraps their public entry points at the places
they are imported.  ``from x import f`` binds ``f`` into the importing
module when that module loads, so replacing ``x.f`` alone would miss
every caller that already holds it; each entry of :data:`SITES` names
the importing module (or the class, for methods).

Every wrapper pushes a frame on one span stack.  When the span ends,
its *self time* — span time minus the time of the spans it encloses —
is added to its layer.  Phase entry points are keyed by the phase
argument's ``.id``.  Spans are aggregated in memory (per-layer self
time and calls, plus caller -> callee layer edges) and written once,
as ``layers.json``, when the pass ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Table 1 phase ids, in the paper's order
PHASE_IDS = tuple("bcdghijklnoqrsu")

#: (import site, attribute, layer).  A site is ``module`` or
#: ``module:Class``; a layer ending in "." is completed with the id of
#: the phase passed as the second positional argument.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.frontend.parser", "tokenize", "frontend.lexer"),
    ("repro.frontend.codegen", "parse", "frontend.parser"),
    ("repro.frontend.sema", "analyze", "frontend.sema"),
    ("repro.frontend.codegen:CodeGenerator", "generate", "frontend.codegen"),
    ("repro.core.enumeration", "attempt_phase_on_flat", "opt.flat."),
    ("repro.core.enumeration", "attempt_phase_on_clone", "opt."),
    ("repro.opt.flat", "attempt_phase_on_clone", "opt."),
    ("repro.core.batch", "apply_phase", "opt."),
    ("repro.core.probabilistic", "apply_phase", "opt."),
    ("repro.robustness.guard", "apply_phase", "opt."),
    ("repro.core.enumeration", "to_flat", "ir.flat.convert"),
    ("repro.core.enumeration", "from_flat", "ir.flat.convert"),
    ("repro.opt.flat", "to_flat", "ir.flat.convert"),
    ("repro.opt.flat", "from_flat", "ir.flat.convert"),
    ("repro.ir.flat:FlatFunction", "clone", "ir.flat.clone"),
    ("repro.core.enumeration", "flat_fingerprint", "core.fingerprint"),
    ("repro.core.enumeration", "fingerprint_function", "core.fingerprint"),
    ("repro.parallel.coordinator", "fingerprint_function", "core.fingerprint"),
    ("repro.core.dag:SpaceDAG", "add_node", "core.dag"),
    ("repro.core.dag:SpaceDAG", "add_edge", "core.dag"),
    ("repro.core.dag:SpaceDAG", "lookup", "core.dag"),
    ("repro.robustness.guard:GuardedPhaseRunner", "apply", "robustness.guard"),
    ("repro.staticanalysis.checker:EdgeChecker", "check_edge", "staticanalysis"),
    (
        "repro.parallel.coordinator:ParallelEnumerator",
        "enumerate",
        "parallel.coordinator",
    ),
    ("repro.parallel.coordinator", "merge_shard", "parallel.merge"),
)


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    names = [f"frontend.{part}.self_s" for part in ("lexer", "parser", "sema", "codegen")]
    names += [f"opt.flat.{pid}.self_s" for pid in PHASE_IDS]
    names += ["opt.flat.calls", "opt.flat.active_frac"]
    names += [f"opt.{pid}.self_s" for pid in PHASE_IDS]
    names += ["opt.calls"]
    names += [
        "ir.flat.convert_s",
        "ir.flat.convert_calls",
        "ir.flat.clone_s",
        "ir.flat.pool_insts",
        "ir.flat.pool_blocks",
        "core.fingerprint.self_s",
        "core.fingerprint.calls",
        "core.dag.self_s",
        "core.dag.dedupe_frac",
        "core.enumeration.self_s",
        "analysis.cache_hit_frac",
        "robustness.guard.self_s",
        "staticanalysis.self_s",
        "staticanalysis.edges_checked",
        "core.interactions.self_s",
        "vm.self_s",
        "vm.insts",
        "core.batch.self_s",
        "core.batch.attempted",
        "core.probabilistic.self_s",
        "core.probabilistic.attempted",
        "parallel.coordinator.self_s",
        "parallel.merge.self_s",
        "parallel.workers_busy_s",
        "parallel.shards",
        "service.server_s",
        "service.transport_s",
        "service.store_hit_frac",
        "unattributed_s",
        "tracing_overhead_frac",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class LayerTracer:
    """Span stack plus per-layer accumulators for one traced pass."""

    def __init__(self):
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: phase layers only: attempts that returned a changed function
        self.active: Dict[str, int] = {}
        #: (caller layer, callee layer) -> [calls, total ns]
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: entries of SITES the code no longer has
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------

    def _close(self, layer: str, frame: list, elapsed: int) -> None:
        self._stack.pop()
        self.self_ns[layer] = self.self_ns.get(layer, 0) + elapsed - frame[0]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            parent = self._stack[-1]
            parent[0] += elapsed
            edge = self.edges.get((parent[1], layer))
            if edge is None:
                edge = self.edges[(parent[1], layer)] = [0, 0]
            edge[0] += 1
            edge[1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """Time the enclosed call into *layer* from a benchmark call site."""
        frame = [0, layer]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(layer, frame, time.perf_counter_ns() - start)

    def _wrap(self, func: Callable, layer: str) -> Callable:
        stack, close, clock = self._stack, self._close, time.perf_counter_ns
        keyed = layer.endswith(".")
        active = self.active

        def wrapper(*args, **kwargs):
            name = layer + args[1].id if keyed else layer
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                close(name, frame, clock() - start)
            if keyed and result is not None and result is not False:
                active[name] = active.get(name, 0) + 1
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`SITES`.

        A site the code no longer has is skipped and listed in
        :attr:`missing`; its time then counts toward its caller.
        """
        for site, attr, layer in SITES:
            module_name, _, class_name = site.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{site}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def prefix_total(self, prefix: str, field: Dict[str, int]) -> int:
        """Sum of *field* over the fifteen phase layers under *prefix*."""
        return sum(
            value
            for layer, value in field.items()
            if layer.startswith(prefix) and layer[len(prefix):] in PHASE_IDS
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "missing_sites": self.missing,
            "layers": {
                layer: {
                    "self_s": self.self_ns[layer] / 1e9,
                    "calls": self.calls[layer],
                    "active": self.active.get(layer, 0),
                }
                for layer in sorted(self.self_ns)
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls, "total_s": ns / 1e9}
                for (caller, callee), (calls, ns) in sorted(self.edges.items())
            ],
        }


def per_layer_metrics(
    tracer: LayerTracer,
    traced_wall: float,
    untraced_wall: Optional[float],
    counts: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metric values of one traced pass.

    *counts* carries what the wrappers cannot see: tracer counters,
    journal-derived service and worker times, DAG shape and pool sizes.
    """
    values: Dict[str, float] = {}
    for name in per_layer_names():
        if name.endswith(".self_s"):
            values[name] = tracer.self_s(name[: -len(".self_s")])
    flat_calls = tracer.prefix_total("opt.flat.", tracer.calls)
    values["opt.flat.calls"] = flat_calls
    values["opt.flat.active_frac"] = (
        tracer.prefix_total("opt.flat.", tracer.active) / flat_calls if flat_calls else 0.0
    )
    values["opt.calls"] = tracer.prefix_total("opt.", tracer.calls)
    values["ir.flat.convert_s"] = tracer.self_s("ir.flat.convert")
    values["ir.flat.convert_calls"] = tracer.calls.get("ir.flat.convert", 0)
    values["ir.flat.clone_s"] = tracer.self_s("ir.flat.clone")
    values["core.fingerprint.calls"] = tracer.calls.get("core.fingerprint", 0)
    values["staticanalysis.edges_checked"] = tracer.calls.get("staticanalysis", 0)
    for name in (
        "ir.flat.pool_insts",
        "ir.flat.pool_blocks",
        "core.dag.dedupe_frac",
        "analysis.cache_hit_frac",
        "vm.insts",
        "core.batch.attempted",
        "core.probabilistic.attempted",
        "parallel.workers_busy_s",
        "parallel.shards",
        "service.server_s",
        "service.transport_s",
        "service.store_hit_frac",
    ):
        values[name] = counts.get(name, 0)
    values["unattributed_s"] = traced_wall - sum(tracer.self_ns.values()) / 1e9
    values["tracing_overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    return values
