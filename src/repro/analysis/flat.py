"""Dataflow analyses over the flat IR (bitmask registers, int blocks).

The analyses over :class:`~repro.ir.flat.FlatFunction`: liveness as
int bitmasks over interned register ids; CFGs, dominators and natural
loops over positional block indices.  The frame facts compute the
same fixpoint as :mod:`repro.analysis.framerefs` and
:func:`~repro.analysis.liveness.compute_slot_liveness`, the object-IR
reference they are tested against.

These are the only CFG, liveness and frame analyses in the program:
the phases decide on them, and the verifiers (the sanitizer, the
translation validator, the semantic collapser) read them too.
Analyses live on ``FlatFunction._analyses``, clones share the cache
object, every mutation commit point rebinds it via
``invalidate_analyses()``, and no analysis holds a reference to its
function (callers pass it), so a discarded candidate is freed by
reference counting.

``REPRO_PARANOID_ANALYSIS=1`` (or :func:`set_paranoid(True)`)
recomputes on every hit — of a function's cache, the shape table, the
per-block memos and the memos other modules register (the sanitizer's
fact tables, the compulsory assignment) — and raises if the cached
value disagrees with a fresh one, catching any code that mutates
without invalidating.

The CFG (with its reachable set and reverse postorder), the dominator
tree and the natural loops depend only on the labels and on each
block's terminator, and a space holds few distinct control flows
(Table 3's CF column), so they live in one bounded process-wide
*shape table* keyed by exactly that; a function points at its shape's
entry (``FlatFunction._shape``), and an edit that leaves the labels and
terminators alone keeps the pointer
(``invalidate_analyses(keep_shape=True)``).  Entries are never
mutated.  Two per-block results
are likewise cached globally by interned block content, because the
same few hundred distinct blocks recur across the whole enumeration
space: register use/def masks (a pure function of the block's
instruction ids and ``returns_value``) and frame effects (a pure
function of the block, the function's scalar-slot offsets and the
abstract fp-offset state flowing in).  The table and both memos clear
when full; paranoid mode recomputes every hit in them too.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.framerefs import (
    _NO_REFS,
    _OTHER,
    _WILD,
    InstSlotRefs,
    _eval_abstract,
    _meet,
    _transfer,
)
from repro.ir.flat import (
    DEF_MASK,
    FLAGS,
    F_TRANSFER,
    INST_OBJS,
    KIND,
    K_ASSIGN,
    K_CONDBR,
    K_JUMP,
    K_RET,
    MEM_REFS,
    REG_OBJS,
    TARGET_LID,
    USE_MASK,
    FlatFunction,
    block_id,
    iter_rids,
    reg_id,
)
from repro.machine.target import FP
from repro.observability import tracer as _obs

#: rid of the return-value register (hardware r0 is seeded at rid 0).
RV_RID = 0
RV_BIT = 1 << RV_RID
_FP_BIT = 1 << reg_id(FP)

_PARANOID = bool(os.environ.get("REPRO_PARANOID_ANALYSIS"))


def set_paranoid(enabled: bool) -> bool:
    """Recompute-and-compare on every cache hit (differential mode);
    returns the previous setting."""
    global _PARANOID
    previous = _PARANOID
    _PARANOID = enabled
    return previous


def _note(hit: bool) -> None:
    tr = _obs.ACTIVE
    if tr is not None:
        tr.analysis_event(hit)


# ----------------------------------------------------------------------
# CFG over block indices
# ----------------------------------------------------------------------


class FlatCFG:
    """Successor/predecessor block-index lists (positional order), plus
    the blocks reachable from the entry (block 0) and their reverse
    postorder.  Shared through the shape table, so never mutated:
    ``reachable`` is a frozenset and ``rpo`` a tuple.

    ``acyclic`` holds when every block is reachable and every edge goes
    forward in reverse postorder: then the dataflow solvers below make
    one pass (forward problems in RPO, backward ones in postorder)
    instead of iterating until a round changes nothing."""

    __slots__ = ("succs", "preds", "rpo", "reachable", "acyclic")

    def __init__(self, succs: List[List[int]]):
        self.succs = succs
        self.preds: List[List[int]] = [[] for _ in succs]
        for i, targets in enumerate(succs):
            for target in targets:
                self.preds[target].append(i)
        self.rpo: Tuple[int, ...] = _reverse_postorder(succs)
        self.reachable: frozenset = frozenset(self.rpo)
        position = {block: i for i, block in enumerate(self.rpo)}
        self.acyclic: bool = len(self.rpo) == len(succs) and all(
            position[succ] > i
            for i, block in enumerate(self.rpo)
            for succ in succs[block]
        )


def _reverse_postorder(all_succs: List[List[int]]) -> Tuple[int, ...]:
    """Reverse postorder of the blocks reachable from block 0."""
    if not all_succs:
        return ()
    seen = {0}
    postorder: List[int] = []
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        current, pos = stack[-1]
        succs = all_succs[current]
        advanced = False
        while pos < len(succs):
            succ = succs[pos]
            pos += 1
            if succ not in seen:
                seen.add(succ)
                stack[-1] = (current, pos)
                stack.append((succ, 0))
                advanced = True
                break
        if not advanced:
            stack[-1] = (current, pos)
            if pos >= len(succs):
                postorder.append(current)
                stack.pop()
    return tuple(reversed(postorder))


def build_flat_cfg(flat: FlatFunction) -> FlatCFG:
    index = {lid: i for i, lid in enumerate(flat.labels)}
    n = len(flat.blocks)
    succs: List[List[int]] = []
    for i, block in enumerate(flat.blocks):
        targets: List[int] = []
        last = block[-1] if block else -1
        kind = KIND[last] if last >= 0 and FLAGS[last] & F_TRANSFER else -1
        if kind == K_JUMP:
            targets = [index[TARGET_LID[last]]]
        elif kind == K_CONDBR:
            targets = [index[TARGET_LID[last]]]
            if i + 1 < n and i + 1 != targets[0]:
                targets.append(i + 1)
        elif kind == K_RET:
            targets = []
        else:
            if i + 1 < n:
                targets = [i + 1]
        succs.append(targets)
    return FlatCFG(succs)


# ----------------------------------------------------------------------
# Register liveness (bitmasks)
# ----------------------------------------------------------------------

#: Entries per block memo (``_BLOCK_USE_DEF``, ``_BLOCK_FRAMES``) before
#: it is cleared.
_BLOCK_MEMO_MAX = 1 << 16

#: Block memos kept by other modules (the sanitizer's fact tables) that
#: :func:`reset_flat_analysis_caches` clears too.
SHARED_MEMOS: List[dict] = []

#: (block content id, returns_value) -> (use mask, def mask)
_BLOCK_USE_DEF: Dict[Tuple[int, bool], Tuple[int, int]] = {}


def _block_use_def(block: List[int], returns_value: bool) -> Tuple[int, int]:
    key = (block_id(tuple(block)), returns_value)
    cached = _BLOCK_USE_DEF.get(key)
    if cached is None:
        if len(_BLOCK_USE_DEF) >= _BLOCK_MEMO_MAX:
            _BLOCK_USE_DEF.clear()
        cached = _BLOCK_USE_DEF[key] = _eval_block_use_def(block, returns_value)
    elif _PARANOID:
        _paranoid_memo_check(
            "block use/def", key, cached, _eval_block_use_def(block, returns_value)
        )
    return cached


def _eval_block_use_def(block: List[int], returns_value: bool) -> Tuple[int, int]:
    use = 0
    defs = 0
    for iid in block:
        use |= USE_MASK[iid] & ~defs
        if returns_value and KIND[iid] == K_RET and not defs & RV_BIT:
            use |= RV_BIT
        defs |= DEF_MASK[iid]
    return (use, defs)


class FlatLiveness:
    """Per-block live-in/live-out register masks.

    Holds no reference to its function: a function's analyses hang off
    the function, so a back-pointer would make every discarded candidate
    a reference cycle.  Callers pass the function the liveness describes
    (or a content-equal clone sharing its analyses)."""

    __slots__ = ("live_in", "live_out", "after_memo")

    def __init__(self, live_in: List[int], live_out: List[int]):
        self.live_in = live_in
        self.live_out = live_out
        # per-block memo of live_after_each
        self.after_memo: Dict[int, List[int]] = {}

    def live_after_each(self, flat: FlatFunction, block_index: int) -> List[int]:
        """Mask of registers live after each instruction of the block."""
        memo = self.after_memo.get(block_index)
        if memo is not None:
            return memo
        block = flat.blocks[block_index]
        returns_value = flat.returns_value
        live = self.live_out[block_index]
        result = [0] * len(block)
        for i in range(len(block) - 1, -1, -1):
            iid = block[i]
            result[i] = live
            live = (live & ~DEF_MASK[iid]) | USE_MASK[iid]
            if returns_value and KIND[iid] == K_RET:
                live |= RV_BIT
        self.after_memo[block_index] = result
        return result


def compute_flat_liveness(
    flat: FlatFunction, cfg: Optional[FlatCFG] = None
) -> FlatLiveness:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    returns_value = flat.returns_value
    blocks = flat.blocks
    n = len(blocks)
    use = [0] * n
    defs = [0] * n
    for i, block in enumerate(blocks):
        use[i], defs[i] = _block_use_def(block, returns_value)

    live_in = [0] * n
    live_out = [0] * n
    succs = cfg.succs
    changed = True
    while changed:
        changed = False
        for i in _backward_order(cfg):
            out = 0
            for succ in succs[i]:
                out |= live_in[succ]
            new_in = use[i] | (out & ~defs[i])
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = not cfg.acyclic
    return FlatLiveness(live_in, live_out)


def _backward_order(cfg: FlatCFG):
    """Block order of a backward solver's round: postorder on an acyclic
    shape, where each block's successors come first and one round is
    the fixpoint; positional order, last block first, otherwise."""
    if cfg.acyclic:
        return reversed(cfg.rpo)
    return range(len(cfg.succs) - 1, -1, -1)


# ----------------------------------------------------------------------
# Frame references and slot liveness
# ----------------------------------------------------------------------


class FlatFrameRefs:
    """Per-instruction scalar-slot effects, by block index."""

    __slots__ = ("refs", "tracked", "has_wild")

    def __init__(
        self, refs: List[Tuple[InstSlotRefs, ...]], tracked: frozenset, has_wild: bool
    ):
        self.refs = refs
        self.tracked = tracked
        self.has_wild = has_wild


#: The empty abstract fp-offset state.  A state is a frozenset of
#: ``(Reg, value)`` items, value an fp offset or ``"wild"``; a register
#: without an item is ``"other"`` (framerefs' default), so equal states
#: have one form and can key the memo.
_EMPTY_STATE: frozenset = frozenset()


class _BlockFrame(NamedTuple):
    """A block's frame effects under one in-state.

    A ``_BLOCK_FRAMES`` value: shared by every function whose blocks
    hit it, so it is never mutated.
    """

    out: frozenset  # abstract state after the block
    refs: Tuple[InstSlotRefs, ...]  # per instruction
    wild: bool  # some reference may touch any slot
    use: frozenset  # slots read before the block writes them
    defs: frozenset  # slots the block surely writes


#: (scalar-slot offsets, block content id, in-state) -> _BlockFrame
_BLOCK_FRAMES: Dict[Tuple[frozenset, int, frozenset], _BlockFrame] = {}
#: One shared object per distinct state, slot set, InstSlotRefs and
#: refs tuple in ``_BLOCK_FRAMES``, whose entries mostly repeat them
#: (cleared with it).
_INTERNED: Dict[object, object] = {}


def _intern(value):
    return _INTERNED.setdefault(value, value)


def _block_frame(tracked: frozenset, block: List[int], state: frozenset) -> _BlockFrame:
    key = (tracked, block_id(tuple(block)), state)
    cached = _BLOCK_FRAMES.get(key)
    if cached is None:
        if len(_BLOCK_FRAMES) >= _BLOCK_MEMO_MAX:
            _BLOCK_FRAMES.clear()
            _INTERNED.clear()
        cached = _BLOCK_FRAMES[key] = _eval_block_frame(tracked, block, state)
    elif _PARANOID:
        _paranoid_memo_check(
            "frame effects", key, cached, _eval_block_frame(tracked, block, state)
        )
    return cached


def _eval_block_frame(
    tracked: frozenset, block: List[int], state: frozenset
) -> _BlockFrame:
    """framerefs' transfer and classification over one block (abstract
    state transfer reuses the object-IR helpers on the interned
    instruction objects).

    ``frame_mask`` holds fp and the registers whose value is an fp
    offset or ``"wild"``.  An instruction that reads none of them
    evaluates every address and source to ``"other"``: it touches no
    slot, and each register it defines becomes ``"other"``."""
    mem_refs = MEM_REFS
    current = dict(state)
    frame_mask = _FP_BIT
    for reg, _value in state:
        frame_mask |= 1 << reg_id(reg)
    refs: List[InstSlotRefs] = []
    wild = False
    use: Set[int] = set()
    defs: Set[int] = set()
    for iid in block:
        if not USE_MASK[iid] & frame_mask:
            refs.append(_NO_REFS)
            killed = DEF_MASK[iid] & frame_mask
            if killed:
                for rid in iter_rids(killed):
                    current.pop(REG_OBJS[rid], None)
                frame_mask = frame_mask & ~killed | _FP_BIT
            continue
        touched = mem_refs[iid]
        if not touched:
            refs.append(_NO_REFS)
            frame_mask = _transfer_masked(iid, current, frame_mask)
            continue
        reads: Set[int] = set()
        writes: Set[int] = set()
        wild_read = False
        wild_write = False
        for mem, is_write in touched:
            value = _eval_abstract(mem.addr, current)
            if isinstance(value, int):
                if value in tracked:
                    (writes if is_write else reads).add(value)
            elif value == _WILD:
                if is_write:
                    wild_write = True
                else:
                    wild_read = True
        if wild_read or wild_write:
            wild = True
        use |= (tracked if wild_read else reads) - defs
        if not wild_write:
            defs |= writes
        refs.append(
            _intern(
                InstSlotRefs(
                    _intern(frozenset(reads)),
                    _intern(frozenset(writes)),
                    wild_read,
                    wild_write,
                )
            )
        )
        frame_mask = _transfer_masked(iid, current, frame_mask)
    out = frozenset(item for item in current.items() if item[1] != _OTHER)
    return _BlockFrame(
        _intern(out),
        _intern(tuple(refs)),
        wild,
        _intern(frozenset(use)),
        _intern(frozenset(defs)),
    )


def _transfer_masked(iid: int, current: Dict, frame_mask: int) -> int:
    """framerefs' transfer of one instruction; the frame mask after it."""
    _transfer(INST_OBJS[iid], current)
    for rid in iter_rids(DEF_MASK[iid]):
        if current[REG_OBJS[rid]] == _OTHER:
            frame_mask &= ~(1 << rid)
        else:
            frame_mask |= 1 << rid
    return frame_mask | _FP_BIT


def _merge_states(a: frozenset, b: frozenset) -> frozenset:
    """framerefs' join of two states, in the memo's state form."""
    if a == b:
        return a
    left = dict(a)
    right = dict(b)
    merged = []
    for reg in left.keys() | right.keys():
        value = _meet(left.get(reg, _OTHER), right.get(reg, _OTHER))
        if value != _OTHER:
            merged.append((reg, value))
    return _intern(frozenset(merged))


def _frame_effects(flat: FlatFunction, cfg: FlatCFG) -> List[_BlockFrame]:
    """The fp-offset dataflow of :mod:`repro.analysis.framerefs`, driven
    over flat blocks: each block's effects under its fixpoint in-state."""
    tracked = flat.scalar_slot_offsets()
    blocks = flat.blocks
    succs = cfg.succs
    n = len(blocks)
    in_states: List[Optional[frozenset]] = [None] * n
    in_states[0] = _EMPTY_STATE
    effects: List[Optional[_BlockFrame]] = [None] * n
    # Reverse postorder reaches each block after its DFS parent, so
    # every block of the order has an in-state by the time it is read;
    # on an acyclic shape it reaches each block after all of its
    # predecessors, so the first round is the fixpoint.
    order = cfg.rpo
    changed = True
    while changed:
        changed = False
        for bi in order:
            effect = effects[bi] = _block_frame(tracked, blocks[bi], in_states[bi])
            out = effect.out
            for succ in succs[bi]:
                existing = in_states[succ]
                merged = out if existing is None else _merge_states(existing, out)
                if merged != existing:
                    in_states[succ] = merged
                    changed = not cfg.acyclic
    # The last round changed no in-state (or was the only one), so it
    # evaluated every reachable block under its fixpoint state;
    # unreachable blocks get the empty state, as in framerefs.
    for bi in range(n):
        if effects[bi] is None:
            effects[bi] = _block_frame(tracked, blocks[bi], _EMPTY_STATE)
    return effects


def _frame_refs(flat: FlatFunction, effects: List[_BlockFrame]) -> FlatFrameRefs:
    return FlatFrameRefs(
        [effect.refs for effect in effects],
        flat.scalar_slot_offsets(),
        any(effect.wild for effect in effects),
    )


def compute_flat_frame_refs(
    flat: FlatFunction, cfg: Optional[FlatCFG] = None
) -> FlatFrameRefs:
    """:func:`repro.analysis.framerefs.compute_frame_refs` over the flat IR."""
    if cfg is None:
        cfg = build_flat_cfg(flat)
    return _frame_refs(flat, _frame_effects(flat, cfg))


class FlatSlotLiveness:
    """Per-block live-in/out sets of scalar frame-slot offsets."""

    __slots__ = ("live_in", "live_out", "tracked", "frame_refs", "after_memo")

    def __init__(self, live_in, live_out, tracked, frame_refs):
        self.live_in = live_in
        self.live_out = live_out
        self.tracked = tracked
        self.frame_refs = frame_refs
        self.after_memo: Dict[int, List[Set[int]]] = {}

    def live_after_each(self, block_index: int) -> List[Set[int]]:
        """Slots live after each instruction of the block (the frame
        refs hold one entry per instruction, so no function is needed)."""
        memo = self.after_memo.get(block_index)
        if memo is not None:
            return memo
        refs = self.frame_refs.refs[block_index]
        live = set(self.live_out[block_index])
        result: List[Set[int]] = [set()] * len(refs)
        for i in range(len(refs) - 1, -1, -1):
            ref = refs[i]
            result[i] = set(live)
            if not ref.wild_write:
                live -= ref.writes
            if ref.wild_read:
                live |= self.tracked
            else:
                live |= ref.reads
        self.after_memo[block_index] = result
        return result


def compute_flat_slot_liveness(
    flat: FlatFunction, cfg: Optional[FlatCFG] = None
) -> FlatSlotLiveness:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    effects = _frame_effects(flat, cfg)
    frame_refs = _frame_refs(flat, effects)
    tracked = set(frame_refs.tracked)

    n = len(effects)
    live_in: List[Set[int]] = [set() for _ in range(n)]
    live_out: List[Set[int]] = [set() for _ in range(n)]
    succs = cfg.succs
    changed = True
    while changed:
        changed = False
        for bi in _backward_order(cfg):
            out: Set[int] = set()
            for succ in succs[bi]:
                out |= live_in[succ]
            effect = effects[bi]
            new_in = (out - effect.defs) | effect.use
            if out != live_out[bi] or new_in != live_in[bi]:
                live_out[bi] = out
                live_in[bi] = new_in
                changed = not cfg.acyclic
    return FlatSlotLiveness(live_in, live_out, tracked, frame_refs)


# ----------------------------------------------------------------------
# Dominators and natural loops over block indices
# ----------------------------------------------------------------------


class FlatDominatorTree:
    """Immediate-dominator tree over reachable block indices."""

    __slots__ = ("idom", "entry")

    def __init__(self, idom: Dict[int, Optional[int]], entry: int = 0):
        self.idom = idom
        self.entry = entry

    def dominates(self, a: int, b: int) -> bool:
        current: Optional[int] = b
        while current is not None:
            if current == a:
                return True
            if current == self.entry:
                return False
            current = self.idom[current]
        return False

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def depth(self, block: int) -> int:
        depth = 0
        while block != self.entry:
            block = self.idom[block]  # type: ignore[assignment]
            depth += 1
        return depth


def compute_flat_dominators(
    flat: FlatFunction, cfg: Optional[FlatCFG] = None
) -> FlatDominatorTree:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    entry = 0
    rpo = cfg.rpo
    position = {block: i for i, block in enumerate(rpo)}
    idom: Dict[int, Optional[int]] = {entry: None}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]  # type: ignore[assignment]
            while position[b] > position[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block == entry:
                continue
            new_idom: Optional[int] = None
            for pred in cfg.preds[block]:
                if pred not in position or pred == block:
                    continue
                if pred in idom or pred == entry:
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(pred, new_idom)
            if new_idom is None:
                continue
            if idom.get(block) != new_idom:
                idom[block] = new_idom
                changed = True
    return FlatDominatorTree(idom, entry)


class FlatLoop:
    """A natural loop over block indices (shared through the shape
    table, so never mutated once found)."""

    __slots__ = ("header", "body", "latches", "depth")

    def __init__(self, header: int, body: Set[int], latches: Set[int]):
        self.header = header
        self.body = body
        self.latches = latches
        self.depth = 1

    def exit_edges(self, cfg: FlatCFG) -> List[Tuple[int, int]]:
        """(exiting block, exit block) of every CFG edge leaving the
        loop, in block order."""
        return [
            (block, succ)
            for block in sorted(self.body)
            for succ in cfg.succs[block]
            if succ not in self.body
        ]


def find_flat_loops(
    flat: FlatFunction,
    cfg: Optional[FlatCFG] = None,
    dom: Optional[FlatDominatorTree] = None,
) -> Tuple[FlatLoop, ...]:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    if dom is None:
        dom = compute_flat_dominators(flat, cfg)

    reachable = cfg.reachable
    loops_by_header: Dict[int, FlatLoop] = {}
    # Positional order, not set order: the discovery order decides how
    # same-depth loops tie-break after the sort below, and phases act on
    # the first candidate loop.
    for block in sorted(reachable):
        for succ in cfg.succs[block]:
            if succ in reachable and dom.dominates(succ, block):
                header = succ
                body = {header, block}
                stack = [block]
                while stack:
                    current = stack.pop()
                    if current == header:
                        continue
                    for pred in cfg.preds[current]:
                        if pred in reachable and pred not in body:
                            body.add(pred)
                            stack.append(pred)
                loop = loops_by_header.get(header)
                if loop is None:
                    loops_by_header[header] = FlatLoop(header, body, {block})
                else:
                    loop.body |= body
                    loop.latches.add(block)

    loops = list(loops_by_header.values())
    for loop in loops:
        loop.depth = 1 + sum(
            1
            for other in loops
            if other is not loop
            and loop.header in other.body
            and loop.body <= other.body
        )
    loops.sort(key=lambda loop: -loop.depth)
    return tuple(loops)


# ----------------------------------------------------------------------
# Shape table: control-flow analyses shared by every function whose
# labels and terminators match
# ----------------------------------------------------------------------


class _Shape(NamedTuple):
    """A ``_SHAPES`` value: shared by every function of one shape, so
    never mutated."""

    cfg: FlatCFG
    dominators: FlatDominatorTree
    loops: Tuple[FlatLoop, ...]


#: Entries in ``_SHAPES`` before it is cleared: four times the shapes
#: of the largest measured space (dijkstra.enqueue_min, 479), at
#: 2.9-5.6 KB an entry.
_SHAPE_MAX = 1 << 11

#: shape key (see ``_shape_key``) -> _Shape
_SHAPES: Dict[Tuple, _Shape] = {}


def _shape_key(flat: FlatFunction) -> Tuple:
    """All that :func:`build_flat_cfg` reads: the labels, and each
    block's terminator kind and target label as two consecutive ints
    (-1, -1 for a block that falls through)."""
    ends: List[int] = []
    for block in flat.blocks:
        last = block[-1] if block else -1
        if last >= 0 and FLAGS[last] & F_TRANSFER:
            ends += (KIND[last], TARGET_LID[last])
        else:
            ends += (-1, -1)
    return (tuple(flat.labels), tuple(ends))


def _compute_shape(flat: FlatFunction) -> _Shape:
    cfg = build_flat_cfg(flat)
    dominators = compute_flat_dominators(flat, cfg)
    return _Shape(cfg, dominators, find_flat_loops(flat, cfg, dominators))


def _shared_shape(flat: FlatFunction) -> _Shape:
    key = _shape_key(flat)
    shape = _SHAPES.get(key)
    if shape is None:
        if len(_SHAPES) >= _SHAPE_MAX:
            _SHAPES.clear()
        shape = _SHAPES[key] = _compute_shape(flat)
    elif _PARANOID:
        _check_shape(flat, shape)
    return shape


def _check_shape(flat: FlatFunction, shape: _Shape) -> None:
    """Paranoid mode: a cached shape against a fresh computation."""
    fresh = _shape_facts(_compute_shape(flat))
    for what, cached in _shape_facts(shape).items():
        _paranoid_check(flat, what, cached, fresh[what])


def _shape_facts(shape: _Shape) -> Dict[str, object]:
    cfg = shape.cfg
    return {
        "cfg": (cfg.succs, cfg.preds, cfg.rpo, cfg.reachable, cfg.acyclic),
        "dominators": shape.dominators.idom,
        "loops": [
            (loop.header, frozenset(loop.body), frozenset(loop.latches), loop.depth)
            for loop in shape.loops
        ],
    }


# ----------------------------------------------------------------------
# Per-function cache (FlatFunction._analyses)
# ----------------------------------------------------------------------


class FlatAnalyses:
    """Lazily-filled flat analyses for one function content.

    ``assigned`` holds ``(target, function)``: the content after the
    compulsory register assignment (``repro.opt.flat.assign``), never
    mutated.  The shape-table pointer lives on the function itself
    (``FlatFunction._shape``), so edits that keep the control flow
    keep it."""

    __slots__ = (
        "liveness",
        "slot_liveness",
        "single_defs",
        "reg_use_counts",
        "assigned",
    )

    def __init__(self) -> None:
        self.liveness: Optional[FlatLiveness] = None
        self.slot_liveness: Optional[FlatSlotLiveness] = None
        self.single_defs: Optional[Dict[int, int]] = None
        self.reg_use_counts: Optional[Dict[int, int]] = None
        self.assigned: Optional[Tuple[object, FlatFunction]] = None


def _cache_of(flat: FlatFunction) -> FlatAnalyses:
    cache = flat._analyses
    if cache is None:
        cache = flat._analyses = FlatAnalyses()
    return cache


def _paranoid_check(flat: FlatFunction, what: str, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"{flat.name}: stale cached flat {what} (a phase mutated without "
            "invalidate_analyses(), or a shared analysis was mutated)"
        )


def _paranoid_memo_check(what: str, key, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"stale cached flat {what} for block key {key!r} "
            "(a memo entry disagrees with its block's instructions)"
        )


def _shape_of(flat: FlatFunction) -> _Shape:
    shape = flat._shape
    _note(shape is not None)
    if shape is None:
        shape = flat._shape = _shared_shape(flat)
    elif _PARANOID:
        _check_shape(flat, shape)
    return shape


def flat_cfg_of(flat: FlatFunction) -> FlatCFG:
    return _shape_of(flat).cfg


def flat_dominators_of(flat: FlatFunction) -> FlatDominatorTree:
    return _shape_of(flat).dominators


def flat_loops_of(flat: FlatFunction) -> Tuple[FlatLoop, ...]:
    return _shape_of(flat).loops


def flat_liveness_of(flat: FlatFunction) -> FlatLiveness:
    cache = _cache_of(flat)
    _note(cache.liveness is not None)
    if cache.liveness is None:
        cache.liveness = compute_flat_liveness(flat, flat_cfg_of(flat))
    elif _PARANOID:
        fresh = compute_flat_liveness(flat)
        _paranoid_check(
            flat,
            "liveness",
            (cache.liveness.live_in, cache.liveness.live_out),
            (fresh.live_in, fresh.live_out),
        )
    return cache.liveness


def flat_slot_liveness_of(flat: FlatFunction) -> FlatSlotLiveness:
    cache = _cache_of(flat)
    _note(cache.slot_liveness is not None)
    if cache.slot_liveness is None:
        cache.slot_liveness = compute_flat_slot_liveness(flat, flat_cfg_of(flat))
    elif _PARANOID:
        fresh = compute_flat_slot_liveness(flat)
        _paranoid_check(
            flat,
            "slot liveness",
            (cache.slot_liveness.live_in, cache.slot_liveness.live_out),
            (fresh.live_in, fresh.live_out),
        )
    return cache.slot_liveness


def flat_single_defs_of(flat: FlatFunction) -> Dict[int, int]:
    """Registers whose value has exactly one source: rid -> defining iid.

    A register counts as multiply-defined when it is live into the
    entry block (implicit definition by the caller or a predecessor
    incarnation).  Only ``Assign``-defined registers are returned, so
    call-clobbered registers are excluded — the CSE kernel's
    propagation sources.
    """
    cache = _cache_of(flat)
    _note(cache.single_defs is not None)
    if cache.single_defs is None:
        cache.single_defs = _single_defs(flat, flat_liveness_of(flat))
    elif _PARANOID:
        _paranoid_check(
            flat,
            "single defs",
            cache.single_defs,
            _single_defs(flat, compute_flat_liveness(flat)),
        )
    return cache.single_defs


def _single_defs(flat: FlatFunction, liveness: FlatLiveness) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    definer: Dict[int, int] = {}
    live_entry = liveness.live_in[0]
    while live_entry:
        bit = live_entry & -live_entry
        counts[bit.bit_length() - 1] = 1
        live_entry ^= bit
    for block in flat.blocks:
        for iid in block:
            mask = DEF_MASK[iid]
            while mask:
                bit = mask & -mask
                rid = bit.bit_length() - 1
                counts[rid] = counts.get(rid, 0) + 1
                definer[rid] = iid
                mask ^= bit
    return {
        rid: iid
        for rid, iid in definer.items()
        if counts[rid] == 1 and KIND[iid] == K_ASSIGN
    }


def reset_flat_analysis_caches() -> None:
    """Drop the shape table and the per-block memos, so a test starts
    cold (or stops reading an entry it corrupted on purpose)."""
    _SHAPES.clear()
    _BLOCK_USE_DEF.clear()
    _BLOCK_FRAMES.clear()
    _INTERNED.clear()
    for memo in SHARED_MEMOS:
        memo.clear()
