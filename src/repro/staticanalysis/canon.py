"""Semantic canonicalization: instance merging beyond the CRC fingerprint.

The enumerator dedupes instances *syntactically* (register/label remap +
CRC-32, section 4.2 of the paper).  This module lifts the translation
validator's symbolic machinery (:mod:`repro.staticanalysis.transval`)
from edge checking to **instance merging**: two instances whose
canonical symbolic summaries coincide are candidates for collapsing
into one DAG node, shrinking every downstream workload at once (see
``docs/COLLAPSE.md``).

The canonical summary of a function is built per reachable basic block
from the symbolic evaluator's observables — live-out register values,
the memory write log, the call sequence, the branch condition, and the
returned value — under three sound normalizations on top of transval's
own constant folding:

- **commutative operand sorting** and **linear-form canonicalization**
  (inherited from the symbolic evaluator: ``a + b`` and ``b + a``
  summarize identically, as do ``(x * 4)`` and ``x << 2``);
- **dead-store normalization**: a store that is provably overwritten
  before any possible observation (no call, no load token, in the
  window up to an identical-address store) is dropped from the block's
  memory log, and the log's load/call positions are renumbered.

The summary digest is an *index*, never a proof.  Colliding instances
are only merged after :func:`prove_semantic_equivalent` (a block-level
simulation identical to transval's ``_prove`` but comparing normalized
observables) or, failing that, seeded VM co-execution agrees.  An
unproven or refuted collision **always stays split** — the enumerator
never merges on hash alone.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import cfg_of, liveness_of
from repro.core import checkpoint as ckpt
from repro.ir.function import Function, Program
from repro.ir.operands import COMMUTATIVE_OPS
from repro.staticanalysis.transval import (
    REFUTED,
    TESTED,
    TranslationValidator,
    _frame_shape,
    _make_linear,
    _NotProvable,
    _SymState,
)

__all__ = [
    "SemanticCollapser",
    "canonical_summary",
    "prove_semantic_equivalent",
    "semantic_key",
]


# ----------------------------------------------------------------------
# Dead-store normalization of one block's observables
# ----------------------------------------------------------------------
#
# A ("load", k, addr) token means "whatever *addr* holds after the
# first k memory events of this block"; a call's recorded position is
# the index of its own event in the memory log.  Dropping the store at
# log index j is sound only when a later store writes the *identical*
# symbolic address with no call event and no load token observing the
# window (j, j'] — then no reader can distinguish the logs, and every
# position > j shifts down by one.


def _collect_load_positions(value, out: set) -> None:
    if not isinstance(value, tuple):
        return
    if len(value) == 3 and value[0] == "load" and isinstance(value[1], int):
        out.add(value[1])
        _collect_load_positions(value[2], out)
        return
    for part in value:
        _collect_load_positions(part, out)


def _shift_positions(value, dropped: int):
    """Renumber load tokens after dropping memory-log index *dropped*,
    re-canonicalizing the sorted forms the renumbering may perturb."""
    if not isinstance(value, tuple):
        return value
    tag = value[0]
    if tag == "load" and len(value) == 3 and isinstance(value[1], int):
        position = value[1]
        if position > dropped:
            position -= 1
        return ("load", position, _shift_positions(value[2], dropped))
    if tag == "lin":
        terms: Dict[Tuple, int] = {}
        for atom, coeff in value[1]:
            atom = _shift_positions(atom, dropped)
            terms[atom] = terms.get(atom, 0) + coeff
        return _make_linear(terms, value[2])
    if tag == "op":
        operands = tuple(_shift_positions(part, dropped) for part in value[2:])
        if len(operands) == 2 and value[1] in COMMUTATIVE_OPS:
            operands = tuple(sorted(operands, key=repr))
        return ("op", value[1]) + operands
    return tuple(_shift_positions(part, dropped) for part in value)


def _find_dead_store(mem: List[Tuple], loads: set) -> Optional[int]:
    for j, event in enumerate(mem):
        if event[0] != "store":
            continue
        for j2 in range(j + 1, len(mem)):
            later = mem[j2]
            if later[0] == "call":
                break  # the call may read the stored value
            if later[1] != event[1]:
                continue  # other cells do not revive this store
            if any(j < k <= j2 for k in loads):
                break  # a load token may observe the window
            return j
    return None


def _normalize_observables(obs) -> Tuple:
    """Canonical, hashable form of one block's observables."""
    regs, mem, calls, branch, returned = obs
    regs = dict(regs)
    mem = list(mem)
    calls = list(calls)
    while True:
        loads: set = set()
        _collect_load_positions(
            (tuple(regs.values()), tuple(mem), tuple(calls), branch, returned),
            loads,
        )
        dropped = _find_dead_store(mem, loads)
        if dropped is None:
            break
        del mem[dropped]
        regs = {
            key: _shift_positions(value, dropped)
            for key, value in regs.items()
        }
        mem = [_shift_positions(event, dropped) for event in mem]
        calls = [
            (
                name,
                nargs,
                tuple(_shift_positions(arg, dropped) for arg in args),
                position - 1 if position > dropped else position,
            )
            for (name, nargs, args, position) in calls
        ]
        if branch is not None:
            branch = (branch[0], _shift_positions(branch[1], dropped))
        if returned is not None:
            returned = _shift_positions(returned, dropped)
    return (
        tuple(sorted(regs.items(), key=lambda item: item[0])),
        tuple(mem),
        tuple(calls),
        branch,
        returned,
    )


# ----------------------------------------------------------------------
# Canonical function summaries and the semantic key
# ----------------------------------------------------------------------


def _reachable_order(func: Function) -> List[str]:
    """Deterministic preorder over reachable blocks, following the
    CFG's successor order ([target, fallthrough])."""
    cfg = cfg_of(func)
    order: List[str] = []
    seen = set()
    stack = [func.entry.label]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        order.append(label)
        stack.extend(reversed(cfg.succs.get(label, [])))
    return order


def canonical_summary(func: Function) -> Tuple:
    """The function's canonical symbolic summary (raises
    :class:`_NotProvable` on unmodelled constructs).

    Blocks are visited in a deterministic reachable order and labeled
    by visit index; unreachable blocks carry no semantics and are
    excluded, so instances differing only in dead blocks summarize
    identically.  The header pins everything that shapes which phases
    are attemptable, so merging never changes a node's phase legality.
    """
    cfg = cfg_of(func)
    live = liveness_of(func)
    order = _reachable_order(func)
    labels = {label: index for index, label in enumerate(order)}
    blocks = []
    for label in order:
        block = func.block(label)
        state = _SymState(func.returns_value)
        for inst in block.insts:
            state.execute(inst)
        observables = _normalize_observables(
            state.observables(
                live.live_out.get(label, frozenset()), block.terminator()
            )
        )
        succs = tuple(labels[succ] for succ in cfg.succs.get(label, []))
        blocks.append((labels[label], succs) + observables)
    return (
        func.returns_value,
        len(func.params),
        _frame_shape(func),
        bool(func.reg_assigned),
        bool(func.sel_applied),
        bool(func.alloc_applied),
        tuple(sorted(func.unrolled)),
        tuple(blocks),
    )


def semantic_key(func: Function) -> Optional[str]:
    """Content digest of the canonical summary, or None when the
    instance has unmodelled constructs (such instances never collapse)."""
    try:
        summary = canonical_summary(func)
    except _NotProvable:
        return None
    except (KeyboardInterrupt, SystemExit, MemoryError):
        raise
    except Exception:  # canonicalizer bug: never block enumeration
        return None
    return hashlib.sha256(repr(summary).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Proof: the never-merge-unproven invariant's first line
# ----------------------------------------------------------------------


def prove_semantic_equivalent(before: Function, after: Function) -> bool:
    """Block-level simulation proof under canonical observables.

    Same skeleton as transval's ``_prove`` — a simulation from the
    entry pair requiring matching successor counts and branch senses —
    but block effects are compared after dead-store normalization, so
    instances that differ by provably-dead stores (or by anything the
    symbolic evaluator already canonicalizes) still prove equal.
    False means *unknown*, never *different*.
    """
    try:
        return _prove_canonical(before, after)
    except _NotProvable:
        return False
    except (KeyboardInterrupt, SystemExit, MemoryError):
        raise
    except Exception:  # prover bug: fall through to co-execution
        return False


def _prove_canonical(before: Function, after: Function) -> bool:
    if before.returns_value != after.returns_value:
        return False
    if len(before.params) != len(after.params):
        return False
    if _frame_shape(before) != _frame_shape(after):
        return False
    # Phase legality must survive the merge: a node stands for its
    # whole class, including which phases are attemptable on it.
    if (
        bool(before.reg_assigned) != bool(after.reg_assigned)
        or bool(before.sel_applied) != bool(after.sel_applied)
        or bool(before.alloc_applied) != bool(after.alloc_applied)
        or set(before.unrolled) != set(after.unrolled)
    ):
        return False
    cfg_a = cfg_of(before)
    cfg_b = cfg_of(after)
    live_a = liveness_of(before)
    live_b = liveness_of(after)
    from repro.ir.instructions import CondBranch

    entry_pair = (before.entry.label, after.entry.label)
    mapping: Dict[str, str] = {entry_pair[0]: entry_pair[1]}
    queue = [entry_pair]
    visited = set()
    while queue:
        label_a, label_b = queue.pop()
        if (label_a, label_b) in visited:
            continue
        visited.add((label_a, label_b))
        block_a = before.block(label_a)
        block_b = after.block(label_b)
        term_a = block_a.terminator()
        term_b = block_b.terminator()
        succs_a = cfg_a.succs.get(label_a, [])
        succs_b = cfg_b.succs.get(label_b, [])
        if len(succs_a) != len(succs_b):
            return False
        if len(succs_a) == 2:
            if not isinstance(term_a, CondBranch) or not isinstance(
                term_b, CondBranch
            ):
                return False
            if term_a.relop != term_b.relop:
                return False
        state_a = _SymState(before.returns_value)
        state_b = _SymState(after.returns_value)
        for inst in block_a.insts:
            state_a.execute(inst)
        for inst in block_b.insts:
            state_b.execute(inst)
        live_out = live_a.live_out.get(label_a, frozenset()) | live_b.live_out.get(
            label_b, frozenset()
        )
        if _normalize_observables(
            state_a.observables(live_out, term_a)
        ) != _normalize_observables(state_b.observables(live_out, term_b)):
            return False
        for succ_a, succ_b in zip(succs_a, succs_b):
            mapped = mapping.get(succ_a)
            if mapped is None:
                mapping[succ_a] = succ_b
            elif mapped != succ_b:
                return False
            queue.append((succ_a, succ_b))
    return True


# ----------------------------------------------------------------------
# The collapser: digest index + proved-merge protocol
# ----------------------------------------------------------------------


def _reaches(dag, ancestor_id: int, node_id: int) -> bool:
    """True when *ancestor_id* lies on some root path of *node_id*
    (merging into it would close a cycle in the active-edge graph)."""
    seen = set()
    stack = [node_id]
    while stack:
        current = stack.pop()
        if current == ancestor_id:
            return True
        if current in seen:
            continue
        seen.add(current)
        stack.extend(parent for parent, _phase in dag.nodes[current].parents)
    return False


class SemanticCollapser:
    """Shared semantic-merge state of one function's enumeration.

    The enumerator drives every fresh instance through one decision
    procedure in serial order (``--jobs N`` workers run that same
    enumerator), so semantic DAGs stay bit-identical at any worker
    count.  Representatives are kept per semantic class —
    lazily materialized from their serialized form when a collision
    must be proved — and the whole state round-trips through
    checkpoints (:meth:`state_dict` / :meth:`restore`).
    """

    #: materialized representative cache bound (collisions cluster on
    #: few classes; re-parsing every rep on every collision would not)
    _REP_CACHE_LIMIT = 64

    def __init__(
        self,
        program: Optional[Program] = None,
        entry: Optional[str] = None,
    ):
        # No alias oracle here: collapse verdicts must stay purely
        # structural/symbolic, independent of source-level contracts.
        self.validator = TranslationValidator(
            program=program, entry=entry, alias_oracle=False
        )
        #: semantic digest -> representative node id (first wins)
        self.index: Dict[str, int] = {}
        #: rep node id -> Function or serialized function dict
        self.reps: Dict[int, object] = {}
        self._rep_cache: Dict[int, Function] = {}
        self.stats: Dict[str, int] = {
            "candidates": 0,
            "merged_proved": 0,
            "merged_tested": 0,
            "split_unproven": 0,
            "split_cycle": 0,
            "split_size": 0,
            "refuted": 0,
            "uncanonical": 0,
        }

    # ------------------------------------------------------------------

    def digest_of(self, func: Function) -> Optional[str]:
        digest = semantic_key(func)
        if digest is None:
            self.stats["uncanonical"] += 1
        return digest

    def merge_target(self, dag, node, candidate: Function):
        """Decide where *candidate* (a new instance discovered while
        expanding *node*) belongs.

        Returns ``(digest, rep_node)``: ``rep_node`` is the existing
        node to merge into (equivalence proved or co-execution-tested),
        or None when the instance must become its own node — no
        collision, an unproven/refuted collision, or a collision whose
        merge would close a cycle.
        """
        digest = self.digest_of(candidate)
        if digest is None:
            return None, None
        rep_id = self.index.get(digest)
        if rep_id is None:
            return digest, None
        self.stats["candidates"] += 1
        if rep_id == node.node_id or _reaches(dag, rep_id, node.node_id):
            # The representative is on the candidate's own root path;
            # an edge into it would make the space cyclic.  Stay split.
            self.stats["split_cycle"] += 1
            return digest, None
        rep_func = self.rep_function(rep_id)
        if rep_func is None:
            self.stats["split_unproven"] += 1
            return digest, None
        if rep_func.num_instructions() != candidate.num_instructions():
            # Canonically equal but differently sized (dead stores are
            # normalized away): merging would make the representative
            # stand in for an instance of another code size, corrupting
            # the Table 3 min/max leaf statistics.  Stay split.
            self.stats["split_size"] += 1
            return digest, None
        if prove_semantic_equivalent(rep_func, candidate):
            self.stats["merged_proved"] += 1
            return digest, dag.nodes[rep_id]
        verdict = self.validator._co_execute(rep_func, candidate)
        if verdict.status == TESTED:
            self.stats["merged_tested"] += 1
            return digest, dag.nodes[rep_id]
        if verdict.status == REFUTED:
            # A digest collision between provably different codes: the
            # hash lied, the proof discipline caught it, the instances
            # stay split.  Nonzero counts here are a canonicalizer bug.
            self.stats["refuted"] += 1
        else:
            self.stats["split_unproven"] += 1
        return digest, None

    def register(self, digest: Optional[str], node_id: int, func) -> bool:
        """Claim *digest* for a newly created node; True when claimed.

        First writer wins: a split collision keeps the original
        representative, so later candidates keep proving against it.
        *func* may be a Function or a serialized function dict.
        """
        if digest is None:
            return False
        if self.index.setdefault(digest, node_id) != node_id:
            return False
        self.reps[node_id] = func
        return True

    def forget(self, digest: str, node_id: int) -> None:
        """Undo a :meth:`register` (enumerator mid-node rollback)."""
        if self.index.get(digest) == node_id:
            del self.index[digest]
        self.reps.pop(node_id, None)
        self._rep_cache.pop(node_id, None)

    def rep_function(self, rep_id: int) -> Optional[Function]:
        rep = self.reps.get(rep_id)
        if rep is None:
            return None
        if isinstance(rep, Function):
            return rep
        cached = self._rep_cache.get(rep_id)
        if cached is not None:
            return cached
        func = ckpt.function_from_dict(rep)
        if len(self._rep_cache) >= self._REP_CACHE_LIMIT:
            self._rep_cache.clear()
        self._rep_cache[rep_id] = func
        return func

    # ------------------------------------------------------------------

    def merged(self) -> int:
        return self.stats["merged_proved"] + self.stats["merged_tested"]

    def stats_fields(self) -> Dict[str, int]:
        """The ``collapse_stats`` event payload (sans ``function``)."""
        fields = dict(self.stats)
        fields["merged"] = self.merged()
        fields["classes"] = len(self.index)
        return fields

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        reps = {}
        for node_id, rep in self.reps.items():
            if isinstance(rep, Function):
                rep = ckpt.function_to_dict(rep)
            reps[str(node_id)] = rep
        return {
            "index": dict(self.index),
            "reps": reps,
            "stats": dict(self.stats),
        }

    def restore(self, state: Dict[str, object]) -> None:
        self.index = {
            digest: int(node_id)
            for digest, node_id in state.get("index", {}).items()
        }
        self.reps = {
            int(node_id): rep for node_id, rep in state.get("reps", {}).items()
        }
        self._rep_cache.clear()
        stats = dict(self.stats)
        stats.update(state.get("stats", {}))
        self.stats = stats
