"""Backward liveness analysis over registers and local frame slots."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.cfg import CFG, build_cfg
from repro.ir.function import Function
from repro.ir.instructions import Assign, Call, Instruction, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import FP, RV


class Liveness:
    """Per-block live-in/live-out register sets.

    Holds no reference to its function (the function's analysis cache
    holds the liveness, so a back-pointer would be a reference cycle):
    the per-instruction views take the function they describe.
    """

    __slots__ = ("live_in", "live_out")

    def __init__(
        self,
        live_in: Dict[str, FrozenSet[Reg]],
        live_out: Dict[str, FrozenSet[Reg]],
    ):
        self.live_in = live_in
        self.live_out = live_out

    def live_before_each(self, func: Function, label: str) -> List[Set[Reg]]:
        """For each instruction of block *label*, registers live before it.

        The returned list is parallel to ``block.insts``; entry ``i`` is
        the live set immediately before instruction ``i``.
        """
        block = func.block(label)
        live = set(self.live_out[label])
        result: List[Set[Reg]] = [set()] * len(block.insts)
        for i in range(len(block.insts) - 1, -1, -1):
            inst = block.insts[i]
            live -= inst.defs()
            live |= inst.uses()
            if isinstance(inst, Return) and func.returns_value:
                live.add(RV)
            result[i] = set(live)
        return result

    def live_after_each(self, func: Function, label: str) -> List[Set[Reg]]:
        """For each instruction of block *label*, registers live after it."""
        block = func.block(label)
        live = set(self.live_out[label])
        result: List[Set[Reg]] = [set()] * len(block.insts)
        for i in range(len(block.insts) - 1, -1, -1):
            inst = block.insts[i]
            result[i] = set(live)
            live -= inst.defs()
            live |= inst.uses()
            if isinstance(inst, Return) and func.returns_value:
                live.add(RV)
        return result


def _block_use_def(block_insts, returns_value: bool) -> Tuple[Set[Reg], Set[Reg]]:
    use: Set[Reg] = set()
    defs: Set[Reg] = set()
    for inst in block_insts:
        for reg in inst.uses():
            if reg not in defs:
                use.add(reg)
        if isinstance(inst, Return) and returns_value and RV not in defs:
            use.add(RV)
        defs |= inst.defs()
    return use, defs


def compute_liveness(func: Function, cfg: Optional[CFG] = None) -> Liveness:
    """Standard backward may-liveness over registers."""
    if cfg is None:
        cfg = build_cfg(func)
    use: Dict[str, Set[Reg]] = {}
    defs: Dict[str, Set[Reg]] = {}
    for block in func.blocks:
        use[block.label], defs[block.label] = _block_use_def(
            block.insts, func.returns_value
        )

    live_in: Dict[str, Set[Reg]] = {block.label: set() for block in func.blocks}
    live_out: Dict[str, Set[Reg]] = {block.label: set() for block in func.blocks}

    changed = True
    while changed:
        changed = False
        for block in reversed(func.blocks):
            label = block.label
            out: Set[Reg] = set()
            for succ in cfg.succs.get(label, ()):
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    return Liveness(
        {label: frozenset(value) for label, value in live_in.items()},
        {label: frozenset(value) for label, value in live_out.items()},
    )


# ----------------------------------------------------------------------
# Local-slot liveness (for dead stores and register allocation)
# ----------------------------------------------------------------------


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
