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
are only merged after :func:`prove_semantic_equivalent` (transval's
block-level simulation ``_prove``, comparing normalized observables)
or, failing that, seeded VM co-execution agrees.  An unproven or
refuted collision **always stays split** — the enumerator never merges
on hash alone.

Summaries and proofs read flat instances and their cached flat CFG and
liveness (:mod:`repro.analysis.flat`); only co-execution builds object
views, for the VM.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.analysis.flat import flat_cfg_of, flat_liveness_of
from repro.core import checkpoint as ckpt
from repro.ir.flat import FlatFunction, from_flat, to_flat
from repro.ir.function import Program
from repro.ir.operands import COMMUTATIVE_OPS
from repro.staticanalysis.transval import (
    REFUTED,
    TESTED,
    TranslationValidator,
    _frame_shape,
    _make_linear,
    _block_observables,
    _NotProvable,
    _prove,
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


def _reachable_order(succs: List[List[int]]) -> List[int]:
    """Deterministic preorder over reachable blocks, following the
    CFG's successor order ([target, fallthrough])."""
    order: List[int] = []
    seen = set()
    stack = [0]
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        order.append(index)
        stack.extend(reversed(succs[index]))
    return order


def canonical_summary(func: FlatFunction) -> Tuple:
    """The function's canonical symbolic summary (raises
    :class:`_NotProvable` on unmodelled constructs).

    Blocks are visited in a deterministic reachable order and labeled
    by visit index; unreachable blocks carry no semantics and are
    excluded, so instances differing only in dead blocks summarize
    identically.  The header pins everything that shapes which phases
    are attemptable, so merging never changes a node's phase legality.
    """
    succs = flat_cfg_of(func).succs
    live_out = flat_liveness_of(func).live_out
    order = _reachable_order(succs)
    labels = {index: position for position, index in enumerate(order)}
    blocks = []
    for index in order:
        observables = _normalize_observables(
            _block_observables(func, index, live_out[index])
        )
        successors = tuple(labels[succ] for succ in succs[index])
        blocks.append((labels[index], successors) + observables)
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


def semantic_key(func: FlatFunction) -> Optional[str]:
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


def prove_semantic_equivalent(before: FlatFunction, after: FlatFunction) -> bool:
    """Block-level simulation proof under canonical observables.

    transval's ``_prove`` — a simulation from the entry pair requiring
    matching successor counts and branch senses — with block effects
    compared after dead-store normalization, so instances that differ
    by provably-dead stores (or by anything the symbolic evaluator
    already canonicalizes) still prove equal.  No alias oracle: collapse
    verdicts stay purely structural.  False means *unknown*, never
    *different*.
    """
    # Phase legality must survive the merge: a node stands for its
    # whole class, including which phases are attemptable on it.
    if (
        bool(before.reg_assigned) != bool(after.reg_assigned)
        or bool(before.sel_applied) != bool(after.sel_applied)
        or bool(before.alloc_applied) != bool(after.alloc_applied)
        or set(before.unrolled) != set(after.unrolled)
    ):
        return False
    try:
        return _prove(before, after, normalize=_normalize_observables)
    except _NotProvable:
        return False
    except (KeyboardInterrupt, SystemExit, MemoryError):
        raise
    except Exception:  # prover bug: fall through to co-execution
        return False


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
        #: rep node id -> FlatFunction or serialized function dict
        self.reps: Dict[int, object] = {}
        self._rep_cache: Dict[int, FlatFunction] = {}
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

    def digest_of(self, func: FlatFunction) -> Optional[str]:
        digest = semantic_key(func)
        if digest is None:
            self.stats["uncanonical"] += 1
        return digest

    def merge_target(self, dag, node, candidate: FlatFunction):
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
        *func* may be a FlatFunction or a serialized function dict.
        """
        if digest is None:
            return False
        if self.index.setdefault(digest, node_id) != node_id:
            return False
        if isinstance(func, FlatFunction):
            # Hold the code without the analyses the enumeration cached
            # on it (the compulsory assignment's form among them): a
            # representative is read again only to prove a collision.
            func = func.clone()
            func.invalidate_analyses(keep_shape=True)
        self.reps[node_id] = func
        return True

    def forget(self, digest: str, node_id: int) -> None:
        """Undo a :meth:`register` (enumerator mid-node rollback)."""
        if self.index.get(digest) == node_id:
            del self.index[digest]
        self.reps.pop(node_id, None)
        self._rep_cache.pop(node_id, None)

    def rep_function(self, rep_id: int) -> Optional[FlatFunction]:
        rep = self.reps.get(rep_id)
        if rep is None:
            return None
        if isinstance(rep, FlatFunction):
            return rep
        cached = self._rep_cache.get(rep_id)
        if cached is not None:
            return cached
        func = to_flat(ckpt.function_from_dict(rep))
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
            if isinstance(rep, FlatFunction):
                rep = ckpt.function_to_dict(from_flat(rep))
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
