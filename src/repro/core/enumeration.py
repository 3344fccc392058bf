"""Exhaustive enumeration of the optimization phase order space.

The algorithm of section 4 of the paper: view the space as levels of
function *instances* rather than phase sequences (Figure 1), and prune
with two techniques that lose no information:

1. **Dormant phase detection** (section 4.1): an attempted phase that
   makes no change ends that branch; an active phase is not re-attempted
   on its own result (no phase in this compiler can be successfully
   applied twice in a row, since every phase runs to its own fixpoint).
2. **Identical function instance detection** (section 4.2): instances
   are fingerprinted (instruction count, byte-sum, CRC-32 of the
   register/label-remapped RTLs) and merged, turning the tree into a
   DAG (Figure 4).

Section 4.3's search enhancements are also here: the unoptimized
function and every frontier instance stay in memory, so evaluating a
sequence applies exactly one phase to an already-materialized prefix
instead of replaying the whole sequence (prefix sharing).  Disable
``share_prefixes`` to measure the difference (the Figure 6 experiment).

The per-level budget mirrors the paper: enumeration is abandoned (and
the function reported as too big) when the number of optimization
sequences to apply at one level exceeds ``max_level_sequences``
(1,000,000 in the paper).

Enumeration is the longest-running path in the system, so it is built
to survive failure (see ``docs/ROBUSTNESS.md``):

- phase applications can run through a
  :class:`~repro.robustness.guard.GuardedPhaseRunner` (``validate``,
  ``difftest``, ``phase_timeout``, ``fault_injector``) that quarantines
  bad applications instead of aborting the run;
- the budget is checked before *every phase attempt*, not once per
  frontier node, so a single slow phase cannot blow far past
  ``time_limit``;
- with ``checkpoint_path`` set, the full enumeration state is
  periodically persisted at instance boundaries and a later run with
  ``resume=True`` continues to a bit-identical DAG; SIGINT and SIGTERM
  both request a graceful stop through the same checkpoint (a second
  signal kills), so ^C and an orchestrator shutdown behave identically.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import checkpoint as ckpt
from repro.core.dag import SpaceDAG, SpaceNode
from repro.core.fingerprint import Fingerprint, fingerprint_function
from repro.core.memo import TransitionMemo
from repro.ir.flat import FlatFunction, flat_fingerprint, from_flat, to_flat
from repro.ir.function import Function, Program
from repro.machine.target import DEFAULT_TARGET, Target
from repro.observability import tracer as _obs
from repro.opt import (
    PHASES,
    Phase,
    attempt_phase_on_flat,
    implicit_cleanup,
    phase_by_id,
)
from repro.robustness.faults import FaultInjector
from repro.robustness.guard import (
    DifferentialTester,
    GuardedPhaseRunner,
    default_vectors,
)
from repro.robustness.quarantine import QuarantineLog


class EnumerationConfig:
    """Tunable limits and switches for the space enumeration."""

    def __init__(
        self,
        max_level_sequences: int = 1_000_000,
        max_nodes: Optional[int] = None,
        max_levels: Optional[int] = None,
        time_limit: Optional[float] = None,
        exact: bool = False,
        share_prefixes: bool = True,
        keep_functions: bool = False,
        remap: bool = True,
        phases: Sequence[Phase] = PHASES,
        target: Optional[Target] = None,
        validate: bool = False,
        difftest: bool = False,
        program: Optional[Program] = None,
        input_vectors: Optional[Sequence[Sequence[int]]] = None,
        phase_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: Optional[float] = 30.0,
        resume: bool = False,
        memo: Optional[TransitionMemo] = None,
        sanitize: Optional[str] = None,
        collapse: str = "syntactic",
    ):
        self.max_level_sequences = max_level_sequences
        self.max_nodes = max_nodes
        self.max_levels = max_levels
        self.time_limit = time_limit
        #: keep remapped text per instance and verify hash matches are
        #: truly identical (collision check); costs memory
        self.exact = exact
        #: keep frontier instances in memory (section 4.3); turning
        #: this off replays the whole phase sequence from the
        #: unoptimized function for every attempt (Figure 6 baseline)
        self.share_prefixes = share_prefixes
        #: retain every node's Function object (memory heavy)
        self.keep_functions = keep_functions
        #: remap registers/labels before hashing (section 4.2.1);
        #: turning this off is the remapping ablation
        self.remap = remap
        self.phases = tuple(phases)
        #: id -> phase, precomputed so sequence replays (and any other
        #: by-id lookup) avoid a linear scan per phase
        self.phase_index: Dict[str, Phase] = {
            phase.id: phase for phase in self.phases
        }
        self.target = target or DEFAULT_TARGET
        #: run the IR validator on every active phase's output
        self.validate = validate
        #: differential-test candidates in the VM against *program*
        self.difftest = difftest
        self.program = program
        #: argument vectors for the differential test (defaults to
        #: small deterministic vectors derived from the function arity)
        self.input_vectors = input_vectors
        #: per-phase wall-clock watchdog (SIGALRM, main thread only)
        self.phase_timeout = phase_timeout
        #: deterministic sabotage of phase applications (tests/chaos)
        self.fault_injector = fault_injector
        #: where to persist the enumeration state; None disables
        self.checkpoint_path = checkpoint_path
        #: seconds between periodic checkpoints (None = only on abort)
        self.checkpoint_interval = checkpoint_interval
        #: continue from ``checkpoint_path`` when it exists
        self.resume = resume
        #: opt-in phase-transition memo table (see repro.core.memo).
        #: Shared across enumerations: memo keys are content-based
        #: node keys, so hits are sound across functions and runs.
        #: Only consulted on the unguarded prefix-sharing hot path;
        #: in exact mode entries are verified, never trusted.
        #: Deliberately excluded from ``signature()``: the memo changes
        #: how results are computed, not what they are.
        self.memo = memo
        #: static-analysis mode applied to every active phase output:
        #: None (off), "fast" (structural/machine/frame/call checks +
        #: phase contracts) or "full" (adds dataflow definedness and
        #: per-edge translation validation).  Like the guards above it
        #: changes how edges are vetted, not which space is explored,
        #: so it stays out of ``signature()``.
        if sanitize not in (None, "fast", "full"):
            raise ValueError(
                f"bad sanitize mode {sanitize!r}; expected 'fast' or 'full'"
            )
        self.sanitize = sanitize
        #: instance-merging mode: "syntactic" is the paper's remap+CRC
        #: dedup; "semantic" additionally collapses instances whose
        #: canonical symbolic summaries collide *and* are proved (or
        #: co-execution-tested) equivalent — never on the hash alone
        #: (see staticanalysis/canon.py and docs/COLLAPSE.md).  Unlike
        #: the guards and the memo, collapse changes which space is
        #: enumerated, so it participates in ``signature()``.
        if collapse not in ("syntactic", "semantic"):
            raise ValueError(
                f"bad collapse mode {collapse!r}; "
                "expected 'syntactic' or 'semantic'"
            )
        self.collapse = collapse

    def guards_enabled(self) -> bool:
        """Whether phase applications must run through the guard."""
        return (
            self.validate
            or self.phase_timeout is not None
            or self.fault_injector is not None
            or (self.difftest and self.program is not None)
            or self.sanitize is not None
        )

    def needs_program(self) -> bool:
        """Whether the run consults its program context: differential
        testing runs the program in the VM, the sanitizer checks calls
        against it, and semantic collapse co-executes through it.
        Callers that hold the program (or its source) pass it exactly
        when this is true."""
        return (
            self.difftest
            or self.sanitize is not None
            or self.collapse == "semantic"
        )

    #: settings :meth:`to_dict` ships verbatim
    PLAIN_FIELDS = (
        "max_level_sequences", "max_nodes", "max_levels", "time_limit",
        "exact", "share_prefixes", "remap", "validate", "difftest",
        "input_vectors", "phase_timeout", "checkpoint_interval",
        "sanitize", "collapse",
    )

    def to_dict(self) -> Dict[str, object]:
        """The picklable settings :meth:`from_dict` rebuilds this config
        from.  Phases travel by id; the fault injector travels as its
        settings, so each rebuilt config draws a fresh injector's
        stream.  The program, target, checkpoint and memo are the
        caller's to supply."""
        spec: Dict[str, object] = {
            name: getattr(self, name) for name in self.PLAIN_FIELDS
        }
        spec["phases"] = "".join(phase.id for phase in self.phases)
        injector = self.fault_injector
        if injector is not None:
            spec["fault"] = dict(
                seed=injector.seed,
                rate=injector.rate,
                modes=injector.modes,
                attempts=injector.attempts,
                hang_seconds=injector.hang_seconds,
            )
        return spec

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "EnumerationConfig":
        """A config from plain settings: any subset of the constructor's
        keywords, with ``phases`` as an id string and ``fault`` as
        :class:`FaultInjector` keywords."""
        fields = dict(spec)
        fault = fields.pop("fault", None)
        if fault is not None:
            fields["fault_injector"] = FaultInjector(**fault)
        if "phases" in fields:
            fields["phases"] = [phase_by_id(pid) for pid in fields["phases"]]
        return cls(**fields)

    def signature(self) -> Dict[str, object]:
        """The space-shaping settings a checkpoint must agree on.

        Budgets (``max_nodes``, ``time_limit``, ...) are run-scoped and
        deliberately excluded: an aborted run may be resumed with a
        larger budget.
        """
        return {
            "phases": "".join(phase.id for phase in self.phases),
            "remap": self.remap,
            "exact": self.exact,
            "collapse": self.collapse,
        }


class EnumerationResult:
    """Outcome of enumerating one function's phase order space."""

    def __init__(
        self,
        dag: SpaceDAG,
        completed: bool,
        attempted_phases: int,
        phases_applied: int,
        elapsed: float,
        abort_reason: Optional[str] = None,
        quarantine: Optional[QuarantineLog] = None,
        levels_completed: int = 0,
        resumed_from: Optional[str] = None,
        sanitize_stats: Optional[Dict[str, int]] = None,
        collapse_stats: Optional[Dict[str, int]] = None,
    ):
        self.dag = dag
        #: True when the space was fully enumerated (no budget hit)
        self.completed = completed
        #: phase attempts, dormant ones included (Table 3's "Attempt")
        self.attempted_phases = attempted_phases
        #: total phase executions, including sequence replays when
        #: prefix sharing is off (the Figure 6 metric)
        self.phases_applied = phases_applied
        self.elapsed = elapsed
        self.abort_reason = abort_reason
        #: phase applications the guard rejected (empty without guards)
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        #: levels fully expanded before completion or abort
        self.levels_completed = levels_completed
        #: checkpoint path this run continued from, or None
        self.resumed_from = resumed_from
        #: static-analysis counters (edges checked, findings, transval
        #: verdicts); None when the run had no --sanitize
        self.sanitize_stats = sanitize_stats
        #: semantic-collapse counters (candidates, merged, splits);
        #: None when the run used syntactic collapse
        self.collapse_stats = collapse_stats

    def __repr__(self):
        status = "complete" if self.completed else f"aborted({self.abort_reason})"
        return (
            f"<EnumerationResult {self.dag.function_name}: {len(self.dag)} "
            f"instances, {self.attempted_phases} attempts, {status}>"
        )


class _Budget:
    def __init__(self, config: EnumerationConfig, consumed: float = 0.0):
        self.config = config
        self.start = time.monotonic()
        #: seconds spent by prior runs of a resumed enumeration
        self.consumed = consumed
        self.reason: Optional[str] = None

    def elapsed(self) -> float:
        return self.consumed + time.monotonic() - self.start

    def exceeded_nodes(self, dag: SpaceDAG) -> bool:
        if self.config.max_nodes is not None and len(dag) > self.config.max_nodes:
            self.reason = "max_nodes"
            return True
        return False

    def exceeded_time(self) -> bool:
        if (
            self.config.time_limit is not None
            and self.elapsed() > self.config.time_limit
        ):
            self.reason = "time_limit"
            return True
        return False


class SpaceEnumerator:
    """Stateful enumeration engine with checkpoint/resume.

    :func:`enumerate_space` is the one-shot front door; the class is
    public so callers can inspect state after a run (and so tests can
    drive checkpointing precisely).
    """

    def __init__(self, func: Function, config: Optional[EnumerationConfig] = None):
        self.config = config if config is not None else EnumerationConfig()
        self.input_func = func
        self.target = self.config.target
        self.guard = self._build_guard()
        self.quarantine = (
            self.guard.quarantine if self.guard is not None else QuarantineLog()
        )
        # The memo shortcut only replaces the plain prefix-sharing
        # transition; guarded runs must actually execute every phase
        # (the guard's whole point), and replay mode re-applies the
        # entire sequence anyway.
        self.memo = (
            self.config.memo
            if (
                self.config.memo is not None
                and self.config.share_prefixes
                and self.guard is None
            )
            else None
        )
        # Semantic collapse (docs/COLLAPSE.md): merge decisions live in
        # a SemanticCollapser, whose state rides checkpoints.  A program
        # context (config.program) enables the VM co-execution
        # fallback; without it unproven collisions simply stay split.
        self.collapser = None
        if self.config.collapse == "semantic":
            from repro.staticanalysis.canon import SemanticCollapser

            self.collapser = SemanticCollapser(
                program=self.config.program, entry=func.name
            )
        self.resumed_from: Optional[str] = None
        #: phase attempts so far; a pool worker's heartbeat thread reads
        #: it from before run(), while a big checkpoint is restored
        self.attempted = 0
        self._interrupted = False
        self._last_checkpoint = time.monotonic()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> EnumerationResult:
        config = self.config
        # Single-writer discipline: two runs checkpointing to the same
        # path would corrupt each other.  The lock (and its file
        # handle) is released on every exit path — completion, abort,
        # or exception — never left for the interpreter to collect.
        self.lock = (
            ckpt.CheckpointLock(config.checkpoint_path).acquire()
            if config.checkpoint_path is not None
            else None
        )
        try:
            return self._run_locked()
        finally:
            if self.lock is not None:
                self.lock.release()

    def _run_locked(self) -> EnumerationResult:
        config = self.config
        tracer = _obs.ACTIVE
        consumed = 0.0
        if (
            config.resume
            and config.checkpoint_path is not None
            and os.path.exists(config.checkpoint_path)
        ):
            consumed = self._restore(config.checkpoint_path)
            self.resumed_from = config.checkpoint_path
            if tracer is not None:
                tracer.emit(
                    "checkpoint_resume",
                    path=config.checkpoint_path,
                    function=self.input_func.name,
                    level=self.level,
                )
        else:
            self._initialize()
        if tracer is not None:
            tracer.emit(
                "enum_start",
                function=self.input_func.name,
                level=self.level,
                resumed=self.resumed_from is not None,
            )
            phase_snapshot = tracer.snapshot_phases()
            memo_hits0 = self.memo.hits if self.memo is not None else 0
            memo_misses0 = self.memo.misses if self.memo is not None else 0
        self.budget = _Budget(config, consumed=consumed)
        self._last_checkpoint = time.monotonic()

        previous_handlers = self._install_signals()
        try:
            self._loop()
        finally:
            for signum, previous in previous_handlers:
                signal.signal(signum, previous)

        elapsed = self.budget.elapsed()
        if config.checkpoint_path is not None:
            if self.completed:
                # The run is over; the resume artifact has no further use.
                try:
                    os.unlink(config.checkpoint_path)
                except OSError:
                    pass
            else:
                self._write_checkpoint()
        if not self.completed and not config.keep_functions:
            # An aborted run must not pin the frontier instances.
            for node in self.frontier:
                node.function = None
            for node in self.next_frontier:
                node.function = None
        if config.keep_functions:
            # Callers asking for retained functions expect instruction
            # objects; the frontier holds flat instances.
            for node in self.dag.nodes.values():
                if isinstance(node.function, FlatFunction):
                    node.function = from_flat(node.function)
        if tracer is not None:
            delta = tracer.phases_since(phase_snapshot)
            if delta:
                tracer.emit(
                    "phase_stats",
                    phases=delta,
                    function=self.input_func.name,
                )
            if self.memo is not None:
                tracer.emit(
                    "memo_stats",
                    hits=self.memo.hits - memo_hits0,
                    misses=self.memo.misses - memo_misses0,
                    entries=len(self.memo),
                    function=self.input_func.name,
                )
            if self.guard is not None and self.guard.sanitizer is not None:
                tracer.emit(
                    "sanitize_stats",
                    function=self.input_func.name,
                    mode=config.sanitize,
                    **self.guard.sanitizer.stats(),
                )
            if self.collapser is not None:
                tracer.emit(
                    "collapse_stats",
                    function=self.input_func.name,
                    **self.collapser.stats_fields(),
                )
            tracer.emit(
                "enum_done",
                function=self.input_func.name,
                instances=len(self.dag),
                completed=self.completed,
                levels=self.level,
                attempted=self.attempted,
                reason=self.abort_reason,
                wall=round(elapsed, 3),
            )
        return EnumerationResult(
            self.dag,
            self.completed,
            self.attempted,
            self.applied,
            elapsed,
            self.abort_reason,
            quarantine=self.quarantine,
            levels_completed=self.level,
            resumed_from=self.resumed_from,
            sanitize_stats=(
                self.guard.sanitizer.stats()
                if self.guard is not None and self.guard.sanitizer is not None
                else None
            ),
            collapse_stats=(
                self.collapser.stats_fields()
                if self.collapser is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Setup / restore
    # ------------------------------------------------------------------

    def _build_guard(self) -> Optional[GuardedPhaseRunner]:
        config = self.config
        if not config.guards_enabled():
            return None
        difftester = None
        if config.difftest and config.program is not None:
            vectors = config.input_vectors
            if vectors is None:
                vectors = default_vectors(self.input_func)
            difftester = DifferentialTester(
                config.program, self.input_func.name, vectors
            )
        sanitizer = None
        if config.sanitize is not None:
            from repro.staticanalysis.checker import EdgeChecker

            sanitizer = EdgeChecker(
                mode=config.sanitize,
                target=config.target,
                program=config.program,
                entry=self.input_func.name,
            )
        return GuardedPhaseRunner(
            target=config.target,
            validate=config.validate,
            difftest=difftester,
            phase_timeout=config.phase_timeout,
            fault_injector=config.fault_injector,
            sanitizer=sanitizer,
        )

    def _initialize(self) -> None:
        config = self.config
        root_func, root_fp, root_key = canonical_root(self.input_func, config)
        self.root_func = root_func
        self.root_flat = to_flat(root_func)
        self.dag = SpaceDAG(self.input_func.name)
        self.texts: Dict[object, str] = {}
        self.attempted = 0
        self.applied = 0
        root = self.dag.add_node(root_key, 0, root_fp.num_insts, root_fp.cf_crc)
        root.function = self.root_flat
        if config.exact:
            self.texts[root_key] = root_fp.text
        if self.collapser is not None:
            self.collapser.register(
                self.collapser.digest_of(root_func), root.node_id, root_func
            )
        # Paths from the root, used to replay sequences when prefix
        # sharing is disabled.
        self.recipes: Dict[int, Tuple[str, ...]] = {root.node_id: ()}
        self.frontier: List[SpaceNode] = [root]
        self.frontier_index = 0
        self.next_frontier: List[SpaceNode] = []
        self.level = 0
        self.completed = True
        self.abort_reason: Optional[str] = None

    def _restore(self, path: str) -> float:
        """Load a checkpoint; returns the seconds already consumed.

        Every failure mode — unreadable file, integrity/version
        mismatch, or a payload that will not rebuild — surfaces as a
        :class:`~repro.core.checkpoint.CheckpointError` (CKP001), never
        a raw KeyError/ValueError from half-restored state.
        """
        config = self.config
        state = ckpt.load_checkpoint(path, require=ckpt.ENUMERATION_KEYS)
        try:
            return self._restore_state(path, state)
        except ckpt.CheckpointError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
            raise ckpt.CheckpointError(
                f"checkpoint {path} is structurally invalid: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _restore_state(self, path: str, state: Dict[str, object]) -> float:
        config = self.config
        if state["function_name"] != self.input_func.name:
            raise ckpt.CheckpointError(
                f"checkpoint {path} is for function "
                f"{state['function_name']!r}, not {self.input_func.name!r}"
            )
        if state["config"] != config.signature():
            raise ckpt.CheckpointError(
                f"checkpoint {path} was written with different enumeration "
                f"settings ({state['config']} != {config.signature()})"
            )
        self.dag = ckpt.dag_from_dict(state["function_name"], state["dag"])
        self.root_func = ckpt.function_from_dict(state["root_function"])
        self.root_flat = to_flat(self.root_func)
        # The input function must be the one the checkpoint was made
        # from: its canonical root instance must fingerprint to the
        # checkpointed root key.
        if canonical_root(self.input_func, config)[2] != self.dag.root.key:
            raise ckpt.CheckpointError(
                f"checkpoint {path} was written for a different version of "
                f"{self.input_func.name!r} (root fingerprint mismatch)"
            )
        self.frontier = [self.dag.nodes[i] for i in state["frontier"]]
        self.frontier_index = state["frontier_index"]
        self.next_frontier = [self.dag.nodes[i] for i in state["next_frontier"]]
        for node_id, data in state["functions"].items():
            self.dag.nodes[int(node_id)].function = to_flat(
                ckpt.function_from_dict(data)
            )
        self.recipes = {
            int(node_id): tuple(recipe)
            for node_id, recipe in state["recipes"].items()
        }
        self.texts = {
            ckpt.key_from_json(key): text for key, text in state["texts"]
        }
        self.attempted = state["attempted"]
        self.applied = state["applied"]
        self.level = state["level"]
        if self.collapser is not None:
            # The signature check above guarantees the checkpoint was
            # written in semantic mode, so the collapse state exists.
            self.collapser.restore(state["collapse"])
        self.completed = True
        self.abort_reason = None
        restored_log = QuarantineLog.from_dicts(state["quarantine"])
        self.quarantine.records[:0] = restored_log.records
        return state["elapsed"]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        config = self.config
        while True:
            at_level_start = self.frontier_index == 0 and not self.next_frontier
            if at_level_start:
                if not self.frontier:
                    return  # space fully enumerated
                if (
                    config.max_levels is not None
                    and self.level >= config.max_levels
                ):
                    self._abort("max_levels")
                    return
                # The paper's per-level criterion: sequences to apply
                # at this level.
                # Every in-edge label is one of config.phases, so the
                # per-node count is just the complement of its arrivals.
                num_phases = len(config.phases)
                sequences_this_level = sum(
                    num_phases - len(_arrival_phases(node))
                    for node in self.frontier
                )
                if sequences_this_level > config.max_level_sequences:
                    self._abort("max_level_sequences")
                    return
            while self.frontier_index < len(self.frontier):
                if self._interrupted:
                    self._abort("interrupted")
                    return
                if self.budget.exceeded_time() or self.budget.exceeded_nodes(
                    self.dag
                ):
                    self._abort(self.budget.reason)
                    return
                node = self.frontier[self.frontier_index]
                if not self._expand(node):
                    self._abort(self.budget.reason or "interrupted")
                    return
                self.frontier_index += 1
                self._maybe_checkpoint()
            self.frontier = self.next_frontier
            self.next_frontier = []
            self.frontier_index = 0
            self.level += 1
            tracer = _obs.ACTIVE
            if tracer is not None:
                tracer.emit(
                    "level_done",
                    function=self.input_func.name,
                    level=self.level - 1,
                    frontier=len(self.frontier),
                    instances=len(self.dag),
                )

    def _abort(self, reason: Optional[str]) -> None:
        self.completed = False
        self.abort_reason = reason

    def _expand(self, node: SpaceNode) -> bool:
        """Expand one frontier node; False = budget/interrupt mid-node.

        A mid-node stop rolls the node back to its pre-expansion state
        so the DAG (and any checkpoint written from it) sits at a clean
        instance boundary and a resumed run re-expands the node from
        scratch — keeping resumed enumerations bit-identical.
        """
        config = self.config
        tracer = _obs.ACTIVE
        arrival = _arrival_phases(node)
        dormant_before = set(node.dormant)
        attempted_before = self.attempted
        applied_before = self.applied
        next_frontier_len = len(self.next_frontier)
        added_nodes: List[SpaceNode] = []
        added_edges: List[Tuple[SpaceNode, str, SpaceNode]] = []
        # Semantic-collapse scratch, undone on a mid-node rollback
        # exactly like the DAG mutations below.
        added_aliases: List[object] = []
        added_digests: List[Tuple[str, int]] = []
        collapse_stats_before = (
            dict(self.collapser.stats) if self.collapser is not None else None
        )

        def rollback() -> None:
            for parent, phase_id, child in reversed(added_edges):
                parent.active.pop(phase_id, None)
                entry = (parent.node_id, phase_id)
                for i in range(len(child.parents) - 1, -1, -1):
                    if child.parents[i] == entry:
                        del child.parents[i]
                        break
            for child in reversed(added_nodes):
                del self.dag.nodes[child.node_id]
                self.dag.by_key.pop(child.key, None)
                self.recipes.pop(child.node_id, None)
                if config.exact:
                    self.texts.pop(child.key, None)
            for key in reversed(added_aliases):
                self.dag.aliases.pop(key, None)
                if config.exact:
                    self.texts.pop(key, None)
            if self.collapser is not None:
                for digest, node_id in reversed(added_digests):
                    self.collapser.forget(digest, node_id)
                self.collapser.stats = dict(collapse_stats_before)
            del self.next_frontier[next_frontier_len:]
            node.dormant = dormant_before
            self.attempted = attempted_before
            self.applied = applied_before

        def collapse_target(candidate_func: Function):
            """(digest, representative-or-None) for a fresh instance."""
            return self.collapser.merge_target(self.dag, node, candidate_func)

        def alias_guarded(key, existing):
            """Veto a syntactic hit that resolved through an alias onto
            this node's own root path: the edge would close a cycle.
            The caller falls through to the miss path, where the
            collapser makes (and counts) the split decision."""
            if (
                existing is None
                or self.collapser is None
                or key in self.dag.by_key
            ):
                return existing
            from repro.staticanalysis.canon import _reaches

            if existing.node_id == node.node_id or _reaches(
                self.dag, existing.node_id, node.node_id
            ):
                return None
            return existing

        def merge(key, phase_id: str, rep: SpaceNode, text) -> None:
            self.dag.add_alias(key, rep.node_id)
            added_aliases.append(key)
            if config.exact:
                # Later syntactic rediscoveries of this instance resolve
                # through the alias; the collision check needs its text.
                self.texts[key] = text
            self.dag.add_edge(node, phase_id, rep)
            added_edges.append((node, phase_id, rep))

        for phase in config.phases:
            if phase.id in arrival:
                # An active phase is never attempted on its own result
                # (it just ran to its fixpoint).
                node.dormant.add(phase.id)
                continue
            # Per-attempt budget check: one slow phase must not blow
            # far past time_limit, and an interrupt must not wait for
            # the whole node.
            if self._interrupted or self.budget.exceeded_time():
                rollback()
                return False
            self.attempted += 1
            entry = (
                self.memo.lookup(node.key, phase.id)
                if self.memo is not None
                else None
            )
            if entry is not None and not config.exact:
                # Memo fast path: the transition outcome is a recorded
                # content-keyed fact — skip clone + apply + fingerprint.
                # Counters advance exactly as the cold path would.
                self.applied += 1
                if tracer is not None:
                    tracer.phase_outcome(
                        phase.id, "dormant" if entry.dormant else "active"
                    )
                if entry.dormant:
                    node.dormant.add(phase.id)
                    continue
                key = entry.key
                existing = alias_guarded(key, self.dag.lookup(key))
                if existing is not None:
                    self.dag.add_edge(node, phase.id, existing)
                    added_edges.append((node, phase.id, existing))
                    continue
                materialized = TransitionMemo.materialize(entry)
                digest = None
                if self.collapser is not None:
                    # Warm memo runs start with an empty alias table,
                    # so the fast path must make its own merge decision
                    # — in the same order the cold path would.
                    digest, rep = collapse_target(materialized)
                    if rep is not None:
                        merge(key, phase.id, rep, None)
                        continue
                child = self.dag.add_node(
                    key, self.level + 1, entry.num_insts, entry.cf_crc
                )
                child.function = to_flat(materialized)
                if self.collapser is not None and self.collapser.register(
                    digest, child.node_id, materialized
                ):
                    added_digests.append((digest, child.node_id))
                self.recipes[child.node_id] = self.recipes[node.node_id] + (
                    phase.id,
                )
                self.dag.add_edge(node, phase.id, child)
                added_nodes.append(child)
                added_edges.append((node, phase.id, child))
                self.next_frontier.append(child)
                continue
            if config.share_prefixes:
                parent = node.function
            else:
                # Replay the node's whole recipe from the root.
                parent = self.root_flat
                for prior_id in self.recipes[node.node_id]:
                    self.applied += 1
                    parent = (
                        attempt_phase_on_flat(
                            parent, config.phase_index[prior_id], self.target
                        )
                        or parent
                    )
            self.applied += 1
            candidate = self._attempt(parent, phase, node)
            if tracer is not None:
                tracer.phase_outcome(
                    phase.id, "dormant" if candidate is None else "active"
                )
            if candidate is None:
                if entry is not None and not entry.dormant:
                    raise RuntimeError(
                        f"{self.input_func.name}: memo claims phase "
                        f"{phase.id} is active on node#{node.node_id} but "
                        "the real application was dormant (exact-mode "
                        "memo verification)"
                    )
                if self.memo is not None:
                    self.memo.record_dormant(node.key, phase.id)
                node.dormant.add(phase.id)
                continue
            if config.remap:
                fingerprint = flat_fingerprint(candidate, keep_text=config.exact)
            else:
                fingerprint = fingerprint_function(
                    from_flat(candidate), keep_text=config.exact, remap=False
                )
            key = _node_key(fingerprint, candidate)
            if entry is not None and (entry.dormant or entry.key != key):
                raise RuntimeError(
                    f"{self.input_func.name}: memo entry for phase "
                    f"{phase.id} on node#{node.node_id} diverges from the "
                    "real application (exact-mode memo verification)"
                )
            if self.memo is not None and entry is None:
                self.memo.record_active(
                    node.key,
                    phase.id,
                    key,
                    fingerprint.num_insts,
                    fingerprint.cf_crc,
                    from_flat(candidate),
                )
            existing = self.dag.lookup(key)
            if existing is not None:
                if config.exact and self.texts.get(key) != fingerprint.text:
                    raise RuntimeError(
                        f"fingerprint collision in {self.input_func.name}: two "
                        "distinct instances share (count, byte-sum, CRC)"
                    )
                existing = alias_guarded(key, existing)
            if existing is not None:
                self.dag.add_edge(node, phase.id, existing)
                added_edges.append((node, phase.id, existing))
                continue
            digest = None
            candidate_obj = None
            if self.collapser is not None:
                candidate_obj = from_flat(candidate)
                digest, rep = collapse_target(candidate_obj)
                if rep is not None:
                    merge(key, phase.id, rep, fingerprint.text)
                    continue
            child = self.dag.add_node(
                key, self.level + 1, fingerprint.num_insts, fingerprint.cf_crc
            )
            child.function = candidate
            if self.collapser is not None and self.collapser.register(
                digest, child.node_id, candidate_obj
            ):
                added_digests.append((digest, child.node_id))
            if config.exact:
                self.texts[key] = fingerprint.text
            self.recipes[child.node_id] = self.recipes[node.node_id] + (phase.id,)
            self.dag.add_edge(node, phase.id, child)
            added_nodes.append(child)
            added_edges.append((node, phase.id, child))
            self.next_frontier.append(child)
        node.expanded = True
        if not config.keep_functions:
            node.function = None
        return True

    def _attempt(
        self, parent: FlatFunction, phase: Phase, node: SpaceNode
    ) -> Optional[FlatFunction]:
        """One attempt of *phase* on *parent* (never mutated): the
        active candidate, or None when dormant or quarantined."""
        if self.guard is None:
            return attempt_phase_on_flat(parent, phase, self.target)
        return self.guard.apply(
            parent,
            phase,
            self.target,
            node_key=f"node#{node.node_id}",
            level=node.level,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        config = self.config
        if config.checkpoint_path is None or config.checkpoint_interval is None:
            return
        if time.monotonic() - self._last_checkpoint >= config.checkpoint_interval:
            self._write_checkpoint()
            # Timed from the end of the write: a write slower than the
            # interval (a big frontier) must not make every node
            # expansion a checkpoint.
            self._last_checkpoint = time.monotonic()

    def _write_checkpoint(self) -> None:
        ckpt.save_checkpoint(self.config.checkpoint_path, self._state())
        tracer = _obs.ACTIVE
        if tracer is not None:
            tracer.emit(
                "checkpoint_write",
                path=self.config.checkpoint_path,
                function=self.input_func.name,
                level=self.level,
            )

    def _state(self) -> Dict[str, object]:
        config = self.config
        pending = self.frontier[self.frontier_index :] + self.next_frontier
        functions: Dict[str, object] = {}
        if config.share_prefixes:
            for node in pending:
                if node.function is not None:
                    functions[str(node.node_id)] = ckpt.function_to_dict(
                        from_flat(node.function)
                    )
        recipes = {
            str(node.node_id): "".join(self.recipes.get(node.node_id, ()))
            for node in pending
        }
        state: Dict[str, object] = {
            "function_name": self.input_func.name,
            "config": config.signature(),
            "completed": self.completed,
            "level": self.level,
            "frontier": [node.node_id for node in self.frontier],
            "frontier_index": self.frontier_index,
            "next_frontier": [node.node_id for node in self.next_frontier],
            "attempted": self.attempted,
            "applied": self.applied,
            "elapsed": self.budget.elapsed(),
            "dag": ckpt.dag_to_dict(self.dag),
            "root_function": ckpt.function_to_dict(self.root_func),
            "functions": functions,
            "recipes": recipes,
            "texts": [
                [ckpt.key_to_json(key), text] for key, text in self.texts.items()
            ],
            "quarantine": self.quarantine.to_dicts(),
        }
        if self.collapser is not None:
            state["collapse"] = self.collapser.state_dict()
        return state

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    #: signals traded for a graceful stop; SIGTERM is what container
    #: orchestrators send on shutdown, and it must checkpoint exactly
    #: like ^C does (the service's drain path depends on this)
    GRACEFUL_SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def _install_signals(self):
        """Trade SIGINT/SIGTERM for a graceful stop when checkpointing
        is on.

        The first signal sets a flag the loop observes at the next
        phase attempt (writing a final checkpoint on the way out); a
        second one raises KeyboardInterrupt as usual.  Handlers can
        only be installed on the main thread.
        """
        if (
            self.config.checkpoint_path is None
            or threading.current_thread() is not threading.main_thread()
        ):
            return []

        def _handler(signum, frame):
            if self._interrupted:
                raise KeyboardInterrupt
            self._interrupted = True

        previous = []
        for signum in self.GRACEFUL_SIGNALS:
            previous.append((signum, signal.signal(signum, _handler)))
        return previous


def enumerate_space(
    func: Function, config: Optional[EnumerationConfig] = None
) -> EnumerationResult:
    """Exhaustively enumerate all distinct instances of *func*.

    The input function is not modified.
    """
    return SpaceEnumerator(func, config).run()


def canonical_root(
    func: Function, config: EnumerationConfig
) -> Tuple[Function, Fingerprint, object]:
    """The root instance of *func*'s space (implicit cleanup applied),
    its fingerprint and its node key — the key checkpoints and the
    space store are matched on."""
    root = func.clone()
    implicit_cleanup(root)
    fingerprint = fingerprint_function(
        root, keep_text=config.exact, remap=config.remap
    )
    return root, fingerprint, _node_key(fingerprint, root)


def _node_key(fingerprint: Fingerprint, func: Function):
    """Node identity: the paper's hash triple plus the legality flags
    (register assignment / s applied / k applied), which determine which
    phases are attemptable — see DESIGN.md."""
    return (
        fingerprint.key,
        func.reg_assigned,
        func.sel_applied,
        func.alloc_applied,
    )


def _arrival_phases(node: SpaceNode) -> set:
    """Phases that produced this node (labels of its in-edges)."""
    return {phase_id for (_parent, phase_id) in node.parents}

