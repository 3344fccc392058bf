"""Backward liveness of local frame slots over the object IR.

The reference implementation that
:func:`repro.analysis.flat.compute_flat_slot_liveness` (what the
phases read) is tested against.  Register liveness exists only over the
flat IR (:func:`repro.analysis.flat.compute_flat_liveness`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.cfg import CFG, build_cfg
from repro.ir.function import Function


class SlotLiveness:
    """Per-block live-in/out sets of scalar frame-slot offsets.

    Built on :mod:`repro.analysis.framerefs`, which resolves accesses
    made through address registers (``t = fp + 8; M[t]``) to their slot
    and flags genuinely unknown frame-derived addresses as wild.
    """

    __slots__ = ("live_in", "live_out", "tracked", "frame_refs")

    def __init__(self, live_in, live_out, tracked, frame_refs):
        self.live_in = live_in
        self.live_out = live_out
        self.tracked = tracked
        self.frame_refs = frame_refs

    def live_after_each(self, label: str) -> List[Set[int]]:
        """Slots live after each instruction of block *label* (the frame
        refs hold one entry per instruction)."""
        refs = self.frame_refs.refs[label]
        live = set(self.live_out[label])
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
        return result


def compute_slot_liveness(func: Function, cfg: Optional[CFG] = None) -> SlotLiveness:
    """Liveness of scalar local slots (arrays are never tracked)."""
    from repro.analysis.framerefs import compute_frame_refs

    if cfg is None:
        cfg = build_cfg(func)
    frame_refs = compute_frame_refs(func, cfg)
    tracked = set(frame_refs.tracked)

    use: Dict[str, Set[int]] = {}
    defs: Dict[str, Set[int]] = {}
    for block in func.blocks:
        block_use: Set[int] = set()
        block_def: Set[int] = set()
        for ref in frame_refs.refs[block.label]:
            if ref.wild_read:
                block_use |= tracked - block_def
            else:
                block_use |= ref.reads - block_def
            if not ref.wild_write:
                block_def |= ref.writes
        use[block.label] = block_use
        defs[block.label] = block_def

    live_in: Dict[str, Set[int]] = {block.label: set() for block in func.blocks}
    live_out: Dict[str, Set[int]] = {block.label: set() for block in func.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(func.blocks):
            label = block.label
            out: Set[int] = set()
            for succ in cfg.succs.get(label, ()):
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return SlotLiveness(live_in, live_out, tracked, frame_refs)
