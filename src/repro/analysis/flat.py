"""Dataflow analyses over the flat IR (bitmask registers, int blocks).

The analyses the phases decide on, over
:class:`~repro.ir.flat.FlatFunction`: liveness as int bitmasks over
interned register ids; CFGs, dominators and natural loops over
positional block indices.  Liveness and the frame facts compute the
same fixpoints as their object-IR counterparts in :mod:`repro.analysis`,
so the phases decide on the same facts the object-IR verifiers see,
without touching instruction objects.

Caching follows the exact discipline of :mod:`repro.analysis.cache`:
analyses live on ``FlatFunction._analyses``, clones share the cache
object, and every mutation commit point rebinds it via
``invalidate_analyses()``; paranoid mode (``set_paranoid``) checks
every cache hit against a fresh computation here as well.
Additionally, two per-block results are cached *globally* by interned
block content, because the same few hundred distinct blocks recur
across the whole enumeration space: register use/def masks (a pure
function of the block's instruction ids and ``returns_value``) and
frame effects (a pure function of the block, the function's scalar-slot
offsets and the abstract fp-offset state flowing in).  Both memos
clear when full; paranoid mode recomputes every hit in them too.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis import cache as _object_cache
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
    TARGET_LID,
    USE_MASK,
    FlatFunction,
    block_id,
)
from repro.observability import tracer as _obs

#: rid of the return-value register (hardware r0 is seeded at rid 0).
RV_RID = 0
RV_BIT = 1 << RV_RID


def _note(hit: bool) -> None:
    tr = _obs.ACTIVE
    if tr is not None:
        tr.analysis_event(hit)


# ----------------------------------------------------------------------
# CFG over block indices
# ----------------------------------------------------------------------


class FlatCFG:
    """Successor/predecessor block-index lists (positional order)."""

    __slots__ = ("succs", "preds")

    def __init__(self, succs: List[List[int]]):
        self.succs = succs
        self.preds: List[List[int]] = [[] for _ in succs]
        for i, targets in enumerate(succs):
            for target in targets:
                self.preds[target].append(i)

    def reachable(self, entry: int = 0) -> Set[int]:
        seen = {entry}
        stack = [entry]
        while stack:
            block = stack.pop()
            for succ in self.succs[block]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def reverse_postorder(self, entry: int = 0) -> List[int]:
        seen = {entry}
        postorder: List[int] = []
        stack: List[Tuple[int, int]] = [(entry, 0)]
        while stack:
            current, pos = stack[-1]
            succs = self.succs[current]
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
        return postorder[::-1]


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
    elif _object_cache._PARANOID:
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
    """Per-block live-in/live-out register masks."""

    __slots__ = ("live_in", "live_out", "func", "after_memo")

    def __init__(
        self,
        live_in: List[int],
        live_out: List[int],
        func: FlatFunction,
        after_memo: Optional[Dict[int, List[int]]] = None,
    ):
        self.live_in = live_in
        self.live_out = live_out
        self.func = func
        # per-block memo of live_after_each, carried across rebinds
        # (the fixpoint lists are shared, so the memo stays valid)
        self.after_memo = {} if after_memo is None else after_memo

    def live_after_each(self, block_index: int) -> List[int]:
        """Mask of registers live after each instruction of the block."""
        memo = self.after_memo.get(block_index)
        if memo is not None:
            return memo
        block = self.func.blocks[block_index]
        returns_value = self.func.returns_value
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

    def live_before_each(self, block_index: int) -> List[int]:
        block = self.func.blocks[block_index]
        returns_value = self.func.returns_value
        live = self.live_out[block_index]
        result = [0] * len(block)
        for i in range(len(block) - 1, -1, -1):
            iid = block[i]
            live = (live & ~DEF_MASK[iid]) | USE_MASK[iid]
            if returns_value and KIND[iid] == K_RET:
                live |= RV_BIT
            result[i] = live
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
        for i in range(n - 1, -1, -1):
            out = 0
            for succ in succs[i]:
                out |= live_in[succ]
            new_in = use[i] | (out & ~defs[i])
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i] = out
                live_in[i] = new_in
                changed = True
    return FlatLiveness(live_in, live_out, flat)


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
    elif _object_cache._PARANOID:
        _paranoid_memo_check(
            "frame effects", key, cached, _eval_block_frame(tracked, block, state)
        )
    return cached


def _eval_block_frame(
    tracked: frozenset, block: List[int], state: frozenset
) -> _BlockFrame:
    """framerefs' transfer and classification over one block (abstract
    state transfer reuses the object-IR helpers on the interned
    instruction objects)."""
    insts = INST_OBJS
    mem_refs = MEM_REFS
    current = dict(state)
    refs: List[InstSlotRefs] = []
    wild = False
    use: Set[int] = set()
    defs: Set[int] = set()
    for iid in block:
        touched = mem_refs[iid]
        if not touched:
            refs.append(_NO_REFS)
            _transfer(insts[iid], current)
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
        _transfer(insts[iid], current)
    out = frozenset(item for item in current.items() if item[1] != _OTHER)
    return _BlockFrame(
        _intern(out),
        _intern(tuple(refs)),
        wild,
        _intern(frozenset(use)),
        _intern(frozenset(defs)),
    )


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
    # every block of the order has an in-state by the time it is read.
    order = cfg.reverse_postorder(0)
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
                    changed = True
    # The last round changed no in-state, so it evaluated every
    # reachable block under its fixpoint state; unreachable blocks get
    # the empty state, as in framerefs.
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

    __slots__ = (
        "live_in",
        "live_out",
        "func",
        "tracked",
        "frame_refs",
        "after_memo",
    )

    def __init__(
        self, live_in, live_out, func, tracked, frame_refs, after_memo=None
    ):
        self.live_in = live_in
        self.live_out = live_out
        self.func = func
        self.tracked = tracked
        self.frame_refs = frame_refs
        self.after_memo: Dict[int, List[Set[int]]] = (
            {} if after_memo is None else after_memo
        )

    def live_after_each(self, block_index: int) -> List[Set[int]]:
        memo = self.after_memo.get(block_index)
        if memo is not None:
            return memo
        block = self.func.blocks[block_index]
        refs = self.frame_refs.refs[block_index]
        live = set(self.live_out[block_index])
        result: List[Set[int]] = [set()] * len(block)
        for i in range(len(block) - 1, -1, -1):
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
        for bi in range(n - 1, -1, -1):
            out: Set[int] = set()
            for succ in succs[bi]:
                out |= live_in[succ]
            effect = effects[bi]
            new_in = (out - effect.defs) | effect.use
            if out != live_out[bi] or new_in != live_in[bi]:
                live_out[bi] = out
                live_in[bi] = new_in
                changed = True
    return FlatSlotLiveness(live_in, live_out, flat, tracked, frame_refs)


# ----------------------------------------------------------------------
# Dominators and natural loops over block indices
# ----------------------------------------------------------------------


class FlatDominatorTree:
    """Immediate-dominator tree over reachable block indices."""

    __slots__ = ("idom", "entry", "_depth")

    def __init__(self, idom: Dict[int, Optional[int]], entry: int = 0):
        self.idom = idom
        self.entry = entry
        self._depth: Dict[int, int] = {}
        for block in idom:
            depth = 0
            current: Optional[int] = block
            while current is not None and current != entry:
                current = idom[current]
                depth += 1
            self._depth[block] = depth

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
        return self._depth[block]


def compute_flat_dominators(
    flat: FlatFunction, cfg: Optional[FlatCFG] = None
) -> FlatDominatorTree:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    entry = 0
    rpo = cfg.reverse_postorder(entry)
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
    """A natural loop over block indices."""

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
) -> List[FlatLoop]:
    if cfg is None:
        cfg = build_flat_cfg(flat)
    if dom is None:
        dom = compute_flat_dominators(flat, cfg)

    reachable = cfg.reachable(0)
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
    return loops


# ----------------------------------------------------------------------
# Per-function cache (FlatFunction._analyses)
# ----------------------------------------------------------------------


class FlatAnalyses:
    """Lazily-filled flat analyses for one function content."""

    __slots__ = (
        "cfg",
        "liveness",
        "slot_liveness",
        "dominators",
        "loops",
        "single_defs",
        "reg_use_counts",
    )

    def __init__(self) -> None:
        self.cfg: Optional[FlatCFG] = None
        self.liveness: Optional[FlatLiveness] = None
        self.slot_liveness: Optional[FlatSlotLiveness] = None
        self.dominators: Optional[FlatDominatorTree] = None
        self.loops: Optional[List[FlatLoop]] = None
        self.single_defs: Optional[Dict[int, int]] = None
        self.reg_use_counts: Optional[Dict[int, int]] = None


def _cache_of(flat: FlatFunction) -> FlatAnalyses:
    cache = flat._analyses
    if cache is None:
        cache = flat._analyses = FlatAnalyses()
    return cache


def _paranoid_check(flat: FlatFunction, what: str, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"{flat.name}: stale cached flat {what} "
            "(a phase mutated without invalidate_analyses())"
        )


def _paranoid_memo_check(what: str, key, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"stale cached flat {what} for block key {key!r} "
            "(a memo entry disagrees with its block's instructions)"
        )


def _loop_shape(loops: List[FlatLoop]) -> List[Tuple[int, frozenset, frozenset, int]]:
    return [
        (loop.header, frozenset(loop.body), frozenset(loop.latches), loop.depth)
        for loop in loops
    ]


def flat_cfg_of(flat: FlatFunction) -> FlatCFG:
    cache = _cache_of(flat)
    _note(cache.cfg is not None)
    if cache.cfg is None:
        cache.cfg = build_flat_cfg(flat)
    elif _object_cache._PARANOID:
        _paranoid_check(flat, "cfg", cache.cfg.succs, build_flat_cfg(flat).succs)
    return cache.cfg


def flat_liveness_of(flat: FlatFunction) -> FlatLiveness:
    cache = _cache_of(flat)
    _note(cache.liveness is not None)
    if cache.liveness is None:
        cache.liveness = compute_flat_liveness(flat, flat_cfg_of(flat))
        return cache.liveness
    if _object_cache._PARANOID:
        fresh = compute_flat_liveness(flat)
        _paranoid_check(
            flat,
            "liveness",
            (cache.liveness.live_in, cache.liveness.live_out),
            (fresh.live_in, fresh.live_out),
        )
    if cache.liveness.func is not flat:
        cache.liveness = FlatLiveness(
            cache.liveness.live_in,
            cache.liveness.live_out,
            flat,
            cache.liveness.after_memo,
        )
    return cache.liveness


def flat_slot_liveness_of(flat: FlatFunction) -> FlatSlotLiveness:
    cache = _cache_of(flat)
    _note(cache.slot_liveness is not None)
    if cache.slot_liveness is None:
        cache.slot_liveness = compute_flat_slot_liveness(flat, flat_cfg_of(flat))
        return cache.slot_liveness
    if _object_cache._PARANOID:
        fresh = compute_flat_slot_liveness(flat)
        _paranoid_check(
            flat,
            "slot liveness",
            (cache.slot_liveness.live_in, cache.slot_liveness.live_out),
            (fresh.live_in, fresh.live_out),
        )
    if cache.slot_liveness.func is not flat:
        old = cache.slot_liveness
        cache.slot_liveness = FlatSlotLiveness(
            old.live_in,
            old.live_out,
            flat,
            old.tracked,
            old.frame_refs,
            old.after_memo,
        )
    return cache.slot_liveness


def flat_dominators_of(flat: FlatFunction) -> FlatDominatorTree:
    cache = _cache_of(flat)
    _note(cache.dominators is not None)
    if cache.dominators is None:
        cache.dominators = compute_flat_dominators(flat, flat_cfg_of(flat))
    elif _object_cache._PARANOID:
        _paranoid_check(
            flat,
            "dominators",
            cache.dominators.idom,
            compute_flat_dominators(flat).idom,
        )
    return cache.dominators


def flat_loops_of(flat: FlatFunction) -> List[FlatLoop]:
    cache = _cache_of(flat)
    _note(cache.loops is not None)
    if cache.loops is None:
        cache.loops = find_flat_loops(flat, flat_cfg_of(flat), flat_dominators_of(flat))
    elif _object_cache._PARANOID:
        _paranoid_check(
            flat,
            "loops",
            _loop_shape(cache.loops),
            _loop_shape(find_flat_loops(flat)),
        )
    return cache.loops


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
    elif _object_cache._PARANOID:
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
    """Drop the per-block memos (tests / cold profiles)."""
    _BLOCK_USE_DEF.clear()
    _BLOCK_FRAMES.clear()
    _INTERNED.clear()
    for memo in SHARED_MEMOS:
        memo.clear()
