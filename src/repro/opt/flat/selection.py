"""Phase s — instruction selection.

Table 1: "Combines pairs or triples of instructions together where the
instructions are linked by set/use dependencies.  After combining the
effects of the instructions, it also performs constant folding and
checks if the resulting effect is a legal instruction before committing
to the transformation."

A definition ``t = e`` is forward-substituted into the single
instruction that uses ``t`` (in the same block, with nothing in between
disturbing ``e``'s operands or, for loads, memory), the result is
constant-folded, and the combination is committed only when the target
accepts the combined RTL as one legal instruction.  Triples fall out of
repeating the pass to a fixpoint.  Standalone constant folding of a
single RTL (e.g. left behind by constant propagation) is also part of
this phase.

Combine results are pure pair facts: substituting def ``t = e`` into a
use instruction and folding depends only on the two interned
instructions, so the rewrite+fold is cached per (def id, use id) and
the legality verdict per (result id, target).  The scan that finds the
single combinable use runs on masks and cached textual counts.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import weakref

from repro.analysis.defuse import rewrite_uses
from repro.ir.flat import (
    DEF_MASK,
    DEF_RID,
    FLAGS,
    F_READS_MEM,
    F_WRITES_MEM,
    INST_OBJS,
    KIND,
    K_ASSIGN,
    K_CALL,
    K_RET,
    REG_OBJS,
    USE_MASK,
    FlatFunction,
    block_id,
    intern_inst,
)
from repro.analysis import flat as _flat_analysis
from repro.analysis.flat import RV_RID, _cache_of, _paranoid_check
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import (
    fold_iid,
    is_legal_iid,
    legal_cache,
    src_info,
    use_counts,
    SRC_COPY,
)

#: (def iid, use iid) -> folded combined iid, or -1 when the textual
#: rewrite leaves the use unchanged (the object pass skips the def).
_COMBINED: Dict[Tuple[int, int], int] = {}
_COMBINED_MAX = 1 << 18

#: iid -> True when the instruction is a no-op self move (rN = rN)
_SELF_MOVE: Dict[int, bool] = {}

#: per-target fold/self-move result per block: block id -> new tuple of
#: iids, or ``False`` when the block is already fully folded (pure in
#: the block content and target, like the LVN cache in ``cse``)
_FOLDED: "weakref.WeakKeyDictionary[Target, Dict[int, object]]" = (
    weakref.WeakKeyDictionary()
)
_FOLDED_MAX = 1 << 18
_MISSING = object()

#: per-target combine decision per (block id, use-count vector of the
#: block's defined registers): the single (def index, use index,
#: combined iid) action the pass would take, or ``None``.  The scan in
#: :meth:`InstructionSelection._combine_in_block` reads only the
#: block's own instructions plus the *total* textual use count of each
#: candidate register, so that pair fully determines the outcome.
_DECISIONS: "weakref.WeakKeyDictionary[Target, Dict[Tuple, object]]" = (
    weakref.WeakKeyDictionary()
)


def _target_cache(store, target: Target) -> Dict:
    cache = store.get(target)
    if cache is None:
        cache = {}
        store[target] = cache
    return cache


def _is_self_move(iid: int) -> bool:
    result = _SELF_MOVE.get(iid)
    if result is None:
        result = False
        if KIND[iid] == K_ASSIGN:
            cat, payload = src_info(iid)
            result = cat == SRC_COPY and payload == DEF_RID[iid]
        _SELF_MOVE[iid] = result
    return result


def _combined(def_iid: int, use_iid: int) -> int:
    key = (def_iid, use_iid)
    result = _COMBINED.get(key)
    if result is None:
        def_inst = INST_OBJS[def_iid]
        rewritten = rewrite_uses(
            INST_OBJS[use_iid], {def_inst.dst: def_inst.src}
        )
        if rewritten == INST_OBJS[use_iid]:
            result = -1
        else:
            result = fold_iid(intern_inst(rewritten))
        if len(_COMBINED) >= _COMBINED_MAX:
            _COMBINED.clear()
        _COMBINED[key] = result
    return result


def _tally(counts: Dict[int, int], iids, sign: int, returns_value: bool) -> None:
    """Add (*sign* 1) or subtract (-1) the register uses of *iids*,
    dropping registers whose count reaches zero."""
    for iid in iids:
        uses = use_counts(iid)
        if returns_value and KIND[iid] == K_RET:
            uses += ((RV_RID, 1),)
        for rid, count in uses:
            total = counts.get(rid, 0) + sign * count
            if total:
                counts[rid] = total
            else:
                del counts[rid]


def _count_uses(flat: FlatFunction) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    _tally(counts, chain.from_iterable(flat.blocks), 1, flat.returns_value)
    return counts


def _update_counts(
    counts: Dict[int, int], flat: FlatFunction, removed, added
) -> None:
    """Update *counts* for the instructions a fold or combine just
    *removed* from and *added* to *flat*, instead of recounting the
    whole function (paranoid mode recounts it and compares)."""
    _tally(counts, removed, -1, flat.returns_value)
    _tally(counts, added, 1, flat.returns_value)
    if _flat_analysis._PARANOID:
        _paranoid_check(flat, "register use counts", counts, _count_uses(flat))


def _count_in(iid: int, rid: int) -> int:
    for counted_rid, count in use_counts(iid):
        if counted_rid == rid:
            return count
    return 0


class InstructionSelection(Phase):
    id = "s"
    name = "instruction selection"
    #: contract: an active application flips the sel_applied legality flag
    contract_establishes = ("selection-done",)

    def run(self, flat: FlatFunction, target: Target) -> bool:
        # The content's use counts, copied once and then kept current
        # through every fold and combine (see _update_counts).
        counts = dict(self._count_register_uses(flat))
        changed = False
        while self._pass(flat, target, counts):
            changed = True
        return changed

    def _pass(self, flat: FlatFunction, target: Target, counts) -> bool:
        # Standalone folding first (cheap, enables combinations), and
        # removal of no-op self-moves left behind by collapsed copies.
        legal = legal_cache(target)
        fold_cache = _target_cache(_FOLDED, target)
        folded_any = False
        for bi, block in enumerate(flat.blocks):
            bid = block_id(tuple(block))
            result = fold_cache.get(bid, _MISSING)
            if result is _MISSING:
                new_block = self._fold_block(block, target, legal)
                result = tuple(new_block) if new_block is not None else False
                if len(fold_cache) >= _FOLDED_MAX:
                    fold_cache.clear()
                fold_cache[bid] = result
            if result is not False:
                flat.blocks[bi] = list(result)
                _update_counts(counts, flat, block, result)
                folded_any = True
        if folded_any:
            flat.invalidate_analyses(keep_shape=True)

        decisions = _target_cache(_DECISIONS, target)
        for block in flat.blocks:
            if self._combine_in_block(
                block, flat, target, legal, counts, decisions
            ):
                return True
        return folded_any

    @staticmethod
    def _fold_block(block, target: Target, legal) -> Optional[List[int]]:
        """Fold one block; the new instruction list, or None if unchanged."""
        kept = [iid for iid in block if not _is_self_move(iid)]
        changed = len(kept) != len(block)
        for i, iid in enumerate(kept):
            folded = fold_iid(iid)
            if folded != iid and is_legal_iid(folded, target, legal):
                kept[i] = folded
                changed = True
        return kept if changed else None

    @staticmethod
    def _count_register_uses(flat: FlatFunction) -> Dict[int, int]:
        """Textual use counts of every register, including implicit uses.

        A pure function of the content, so shared through the
        content-keyed analysis store like any other dataflow fact.
        """
        cache = _cache_of(flat)
        counts = cache.reg_use_counts
        if counts is None:
            counts = cache.reg_use_counts = _count_uses(flat)
        elif _flat_analysis._PARANOID:
            _paranoid_check(flat, "register use counts", counts, _count_uses(flat))
        return counts

    def _combine_in_block(
        self, block, flat, target, legal, counts, cache
    ) -> bool:
        # The scan reads only this block's instructions and each
        # candidate register's total use count, so the decision is
        # cached per (block id, use-count vector).
        counts_get = counts.get
        totals = tuple(
            counts_get(DEF_RID[iid], 0) for iid in block if DEF_RID[iid] >= 0
        )
        key = (block_id(tuple(block)), totals)
        action = cache.get(key, _MISSING)
        if action is _MISSING:
            action = self._find_combine_action(block, target, legal, counts)
            if len(cache) >= _FOLDED_MAX:
                cache.clear()
            cache[key] = action
        if action is None:
            return False
        i, j, combined = action
        replaced = (block[i], block[j])
        block[j] = combined
        del block[i]
        flat.invalidate_analyses(keep_shape=True)
        _update_counts(counts, flat, replaced, (combined,))
        return True

    def _find_combine_action(
        self, block, target, legal, counts
    ) -> Optional[Tuple[int, int, int]]:
        for i, iid in enumerate(block):
            t = DEF_RID[iid]
            if t < 0:
                continue
            if USE_MASK[iid] >> t & 1:
                continue  # t appears in its own defining expression
            total_uses = counts.get(t, 0)
            if total_uses == 0:
                continue
            j = self._find_combinable_use(block, i, t, iid, total_uses)
            if j is None:
                continue
            combined = _combined(iid, block[j])
            if combined < 0:
                continue
            if not is_legal_iid(combined, target, legal):
                continue
            return (i, j, combined)
        return None

    @staticmethod
    def _find_combinable_use(
        block, i: int, t: int, def_iid: int, total_uses: int
    ) -> Optional[int]:
        """Index of the single use of *t* that the def at *i* may merge into."""
        t_bit = 1 << t
        expr_regs = USE_MASK[def_iid]
        reads_mem = FLAGS[def_iid] & F_READS_MEM
        for j in range(i + 1, len(block)):
            candidate = block[j]
            if USE_MASK[candidate] & t_bit:
                kind = KIND[candidate]
                if kind == K_CALL or kind == K_RET:
                    return None  # implicit uses cannot absorb the def
                if _count_in(candidate, t) != total_uses:
                    return None  # used again elsewhere
                return j
            # Crossing this instruction: it must not disturb the
            # substituted expression's inputs.
            defs = DEF_MASK[candidate]
            if defs & t_bit:
                return None
            if defs & expr_regs:
                return None
            if reads_mem and (
                FLAGS[candidate] & F_WRITES_MEM or KIND[candidate] == K_CALL
            ):
                return None
        return None
