"""Implicit control-flow canonicalization.

VPO performs *merge basic blocks* and *eliminate empty blocks*
implicitly after any transformation that may enable them; they are not
candidate phases because they only change the compiler's internal
control-flow representation (paper section 3).  They run after each
active phase and once on frontend output.

The fixpoint works over parallel label/block int lists.  The ``labels``
list must stay in lockstep with ``blocks`` through every structural
edit — that is the one invariant the object IR gets for free (labels
live inside the block) and the flat IR must maintain by hand.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.flat import flat_cfg_of
from repro.ir.flat import (
    FLAGS,
    F_TRANSFER,
    KIND,
    K_CONDBR,
    K_JUMP,
    TARGET_LID,
    FlatFunction,
)
from repro.opt.flat.support import retarget_iid

#: phase contract (one of the two implicit phases): cleanup requires
#: nothing, establishes nothing, and must preserve every monotone
#: invariant — it only canonicalizes the block structure
CONTRACT = {
    "requires": (),
    "establishes": (),
    "breaks": (),
}


def _retarget(flat: FlatFunction, mapping: Dict[int, int]) -> None:
    """Rewrite all branch targets through *mapping* (applied once)."""
    if not mapping:
        return
    for block in flat.blocks:
        if not block:
            continue
        last = block[-1]
        if KIND[last] in (K_JUMP, K_CONDBR):
            target = TARGET_LID[last]
            if target in mapping:
                block[-1] = retarget_iid(last, mapping[target])


def flat_remove_empty_blocks(flat: FlatFunction) -> bool:
    """Delete blocks with no instructions, retargeting branches to them.

    An empty block simply falls through; every reference to it can be
    redirected to its positional successor.  The entry block is kept
    even when empty (it anchors the function).
    """
    changed = False
    while True:
        blocks = flat.blocks
        labels = flat.labels
        mapping: Dict[int, int] = {}
        for i in range(len(blocks) - 1):
            if i == 0 or blocks[i]:
                continue
            mapping[labels[i]] = labels[i + 1]
        if not mapping:
            return changed
        # Resolve chains of empty blocks to their final target.
        resolved: Dict[int, int] = {}
        for label in mapping:
            target = mapping[label]
            seen = {label}
            while target in mapping and target not in seen:
                seen.add(target)
                target = mapping[target]
            resolved[label] = target
        _retarget(flat, resolved)
        n = len(blocks)
        keep = [i for i in range(n) if i == 0 or blocks[i] or i == n - 1]
        flat.blocks = [blocks[i] for i in keep]
        flat.labels = [labels[i] for i in keep]
        flat.invalidate_analyses()
        changed = True


def flat_merge_fallthrough_blocks(flat: FlatFunction) -> bool:
    """Merge a block into its fallthrough-only single predecessor."""
    changed = False
    while True:
        cfg = flat_cfg_of(flat)
        merged = False
        for i in range(len(flat.blocks) - 1):
            upper = flat.blocks[i]
            if upper and FLAGS[upper[-1]] & F_TRANSFER:
                continue
            if len(cfg.preds[i + 1]) != 1:
                continue
            upper.extend(flat.blocks[i + 1])
            del flat.blocks[i + 1]
            del flat.labels[i + 1]
            flat.invalidate_analyses()
            merged = True
            changed = True
            break
        if not merged:
            return changed


def flat_implicit_cleanup(flat: FlatFunction) -> bool:
    """Run both canonicalizations to a fixpoint."""
    changed = False
    while True:
        step = flat_remove_empty_blocks(flat)
        step |= flat_merge_fallthrough_blocks(flat)
        if not step:
            return changed
        changed = True
