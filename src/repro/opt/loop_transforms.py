"""Phase l — loop transformations.

Table 1: "Performs loop-invariant code motion, recurrence elimination,
loop strength reduction, and induction variable elimination on each
loop ordered by loop nesting level."

Like VPO's, this phase is restricted to run after register allocation
(k), because it analyzes values held in registers.

Three transformations, applied one at a time with fresh analyses:

- *Loop-invariant code motion*: a pure computation (or a load, when the
  loop contains no stores or calls) whose operands are not defined in
  the loop is moved to the loop preheader, creating the preheader on
  demand.  Potentially trapping operations (division) are never
  speculated.
- *Strength reduction*: a derived induction expression ``t = r*m`` /
  ``t = r << k`` / ``t = base + (r << k)`` over a basic induction
  variable ``r`` (single in-loop definition ``r = r ± c``) is replaced
  by a new register ``p`` initialized in the preheader and bumped in
  lockstep with ``r``.
- *Induction variable elimination*: when afterwards the only remaining
  uses of ``r`` are its own bump and one exit comparison against an
  invariant bound, the comparison is rewritten against the reduced
  register (``IC = p ? bound*m`` — the shape of Figure 5 in the paper)
  and the bump deleted.

The transforms work on the object IR behind the flat phase interface
(see :class:`repro.opt.base.LoopPhase`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cache import cfg_of, dominators_of, liveness_of, loops_of
from repro.analysis.loops import Loop
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Instruction,
    Jump,
)
from repro.ir.operands import BinOp, Const, Expr, Mem, Reg
from repro.machine.target import ALLOCATABLE, FP, Target
from repro.opt.base import LoopPhase

_TRAPPING_OPS = frozenset({"div", "rem", "fdiv"})


def ensure_preheader(func: Function, loop: Loop) -> BasicBlock:
    """Return the loop's preheader, creating one when necessary."""
    cfg = cfg_of(func)
    header_label = loop.header
    outside = [p for p in cfg.preds.get(header_label, ()) if p not in loop.body]
    if len(outside) == 1:
        pred = func.block(outside[0])
        if cfg.succs.get(pred.label) == [header_label]:
            return pred

    header_index = func.block_index(header_label)
    # A latch that reaches the header by positional fallthrough must be
    # given an explicit jump before we squeeze a block in between.
    if header_index > 0:
        prev = func.blocks[header_index - 1]
        if prev.terminator() is None and prev.label in loop.body:
            prev.insts.append(Jump(header_label))
    preheader = BasicBlock(func.new_label())
    func.blocks.insert(func.block_index(header_label), preheader)
    for pred_label in outside:
        pred = func.block(pred_label)
        term = pred.terminator()
        if isinstance(term, Jump) and term.target == header_label:
            pred.insts[-1] = Jump(preheader.label)
        elif isinstance(term, CondBranch) and term.target == header_label:
            pred.insts[-1] = CondBranch(term.relop, preheader.label)
        # Fallthrough predecessors now fall into the preheader, which
        # falls into the header.
    func.invalidate_analyses()
    return preheader


def _append_to_preheader(preheader: BasicBlock, insts: List[Instruction]) -> None:
    term = preheader.terminator()
    if term is None:
        preheader.insts.extend(insts)
    else:
        preheader.insts[-1:-1] = insts


class _LoopInfo:
    """Per-loop facts shared by the transformations."""

    def __init__(self, func: Function, loop: Loop):
        self.loop = loop
        self.blocks = [func.block(label) for label in sorted(loop.body)]
        self.def_counts: Dict[Reg, int] = {}
        self.def_site: Dict[Reg, Tuple[str, int]] = {}
        self.has_store_or_call = False
        for block in self.blocks:
            for i, inst in enumerate(block.insts):
                for reg in inst.defs():
                    self.def_counts[reg] = self.def_counts.get(reg, 0) + 1
                    self.def_site[reg] = (block.label, i)
                if isinstance(inst, Call) or inst.writes_memory():
                    self.has_store_or_call = True

    def invariant_reg(self, reg: Reg) -> bool:
        return reg == FP or reg not in self.def_counts

    def invariant_expr(self, expr: Expr) -> bool:
        return all(self.invariant_reg(reg) for reg in expr.registers())


class LoopTransformations(LoopPhase):
    id = "l"
    name = "loop transformations"
    #: contract: legal only after register allocation (mirrors applicable)
    contract_requires = ('allocation-done',)
    contract_establishes = ('registers-assigned', 'no-pseudo-registers')
    contract_breaks = ()
    requires_assignment = True

    def applicable(self, flat) -> bool:
        return flat.alloc_applied

    def transform(self, func: Function, target: Target) -> bool:
        changed = False
        while self._apply_once(func, target):
            changed = True
        return changed

    def _apply_once(self, func: Function, target: Target) -> bool:
        loops = loops_of(func)
        for loop in loops:  # innermost first
            if self._transform_loop(func, target, loop):
                return True
        return False

    def _transform_loop(self, func: Function, target: Target, loop: Loop) -> bool:
        info = _LoopInfo(func, loop)
        if self._licm_once(func, loop, info):
            return True
        if self._strength_reduce(func, target, loop, info):
            return True
        return False

    # ------------------------------------------------------------------
    # Loop-invariant code motion
    # ------------------------------------------------------------------

    def _licm_once(self, func: Function, loop: Loop, info: _LoopInfo) -> bool:
        cfg = cfg_of(func)
        dom = dominators_of(func)
        liveness = liveness_of(func)
        header_live_in = liveness.live_in[loop.header]
        latches = loop.latches
        exiting = loop.exiting_blocks(cfg)

        for block in info.blocks:
            for i, inst in enumerate(block.insts):
                if not isinstance(inst, Assign) or not isinstance(inst.dst, Reg):
                    continue
                reg = inst.dst
                src = inst.src
                if not info.invariant_expr(src):
                    continue
                if reg in src.registers():
                    continue
                if any(
                    isinstance(node, BinOp) and node.op in _TRAPPING_OPS
                    for node in src.walk()
                ):
                    continue
                if src.reads_memory() and info.has_store_or_call:
                    continue
                if info.def_counts.get(reg, 0) != 1:
                    continue
                if reg in header_live_in:
                    continue
                if not all(dom.dominates(block.label, latch) for latch in latches):
                    continue
                safe = True
                for exit_block in exiting:
                    if dom.dominates(block.label, exit_block):
                        continue
                    for succ in cfg.succs.get(exit_block, ()):
                        if succ not in loop.body and reg in liveness.live_in[succ]:
                            safe = False
                            break
                    if not safe:
                        break
                if not safe:
                    continue
                # Commit: move to the preheader.
                del block.insts[i]
                func.invalidate_analyses()
                preheader = ensure_preheader(func, loop)
                _append_to_preheader(preheader, [inst])
                func.invalidate_analyses()
                return True
        return False

    # ------------------------------------------------------------------
    # Strength reduction + induction variable elimination
    # ------------------------------------------------------------------

    def _strength_reduce(
        self, func: Function, target: Target, loop: Loop, info: _LoopInfo
    ) -> bool:
        dom = dominators_of(func)
        bivs = self._basic_ivs(info, dom, loop)
        if not bivs:
            return False
        for reg, step in sorted(bivs.items(), key=lambda kv: kv[0].index):
            candidates = self._derived_candidates(info, reg)
            if not candidates:
                continue
            if self._reduce_biv(func, target, loop, info, reg, step, candidates):
                return True
        return False

    @staticmethod
    def _basic_ivs(info: _LoopInfo, dom, loop: Loop) -> Dict[Reg, int]:
        bivs: Dict[Reg, int] = {}
        for block in info.blocks:
            for inst in block.insts:
                if not isinstance(inst, Assign) or not isinstance(inst.dst, Reg):
                    continue
                reg = inst.dst
                if info.def_counts.get(reg, 0) != 1:
                    continue
                src = inst.src
                if (
                    isinstance(src, BinOp)
                    and src.left == reg
                    and isinstance(src.right, Const)
                    and isinstance(src.right.value, int)
                    and src.op in ("add", "sub")
                ):
                    if not all(
                        dom.dominates(block.label, latch) for latch in loop.latches
                    ):
                        continue
                    step = src.right.value if src.op == "add" else -src.right.value
                    if step != 0:
                        bivs[reg] = step
        return bivs

    @staticmethod
    def _derived_candidates(info: _LoopInfo, biv: Reg):
        """(block, index, inst, multiplier, base) for reducible exprs."""
        candidates = []
        for block in info.blocks:
            for i, inst in enumerate(block.insts):
                if not isinstance(inst, Assign) or not isinstance(inst.dst, Reg):
                    continue
                t = inst.dst
                if t == biv or info.def_counts.get(t, 0) != 1:
                    continue
                src = inst.src
                multiplier: Optional[int] = None
                base: Optional[Reg] = None
                if isinstance(src, BinOp) and src.left == biv:
                    if src.op == "mul" and isinstance(src.right, Const):
                        if isinstance(src.right.value, int):
                            multiplier = src.right.value
                    elif src.op == "lsl" and isinstance(src.right, Const):
                        if isinstance(src.right.value, int) and 0 <= src.right.value < 31:
                            multiplier = 1 << src.right.value
                elif (
                    isinstance(src, BinOp)
                    and src.op == "add"
                    and isinstance(src.left, Reg)
                    and info.invariant_reg(src.left)
                    and isinstance(src.right, BinOp)
                    and src.right.left == biv
                ):
                    inner = src.right
                    if inner.op == "lsl" and isinstance(inner.right, Const):
                        if isinstance(inner.right.value, int) and 0 <= inner.right.value < 31:
                            multiplier = 1 << inner.right.value
                            base = src.left
                    elif inner.op == "mul" and isinstance(inner.right, Const):
                        if isinstance(inner.right.value, int):
                            multiplier = inner.right.value
                            base = src.left
                if multiplier is None or multiplier == 0:
                    continue
                candidates.append((block, i, inst, multiplier, base))
        return candidates

    def _reduce_biv(
        self,
        func: Function,
        target: Target,
        loop: Loop,
        info: _LoopInfo,
        biv: Reg,
        step: int,
        candidates,
    ) -> bool:
        free_pool = self._free_registers(func)
        if len(free_pool) < len(candidates):
            return False
        bump_label, bump_index = info.def_site[biv]

        # Check immediate legality of every inserted step first.
        for __, __, __, multiplier, __ in candidates:
            if abs(step * multiplier) > target.alu_imm_limit:
                return False

        preheader = ensure_preheader(func, loop)
        new_regs: List[Tuple[Reg, int, Optional[Reg]]] = []
        for (block, i, inst, multiplier, base) in candidates:
            p = free_pool.pop()
            init: List[Instruction] = [Assign(p, BinOp("mul", biv, Const(multiplier)))]
            if base is not None:
                init.append(Assign(p, BinOp("add", p, base)))
            _append_to_preheader(preheader, init)
            block.insts[i] = Assign(inst.dst, p)
            new_regs.append((p, multiplier, base))
        # Bump every new register right after the biv's bump.
        bump_block = func.block(bump_label)
        # The bump index may have shifted if the preheader was inserted
        # into the same list; recompute by searching for the bump.
        bump_at = self._find_bump(bump_block, biv)
        bumps = [
            Assign(p, BinOp("add", p, Const(step * multiplier)))
            for (p, multiplier, __) in new_regs
        ]
        bump_block.insts[bump_at + 1 : bump_at + 1] = bumps

        self._try_eliminate_biv(func, target, loop, biv, new_regs, preheader)
        func.invalidate_analyses()
        return True

    @staticmethod
    def _find_bump(block: BasicBlock, biv: Reg) -> int:
        for i, inst in enumerate(block.insts):
            if (
                isinstance(inst, Assign)
                and inst.dst == biv
                and isinstance(inst.src, BinOp)
                and inst.src.left == biv
            ):
                return i
        raise RuntimeError("induction variable bump vanished")

    @staticmethod
    def _free_registers(func: Function) -> List[Reg]:
        used: Set[int] = set()
        for inst in func.instructions():
            for reg in inst.defs():
                if not reg.pseudo:
                    used.add(reg.index)
            for reg in inst.uses():
                if not reg.pseudo:
                    used.add(reg.index)
        # Low indices are k's preference; hand out high ones.
        return [Reg(i, pseudo=False) for i in ALLOCATABLE if i not in used]

    def _try_eliminate_biv(
        self,
        func: Function,
        target: Target,
        loop: Loop,
        biv: Reg,
        new_regs: List[Tuple[Reg, int, Optional[Reg]]],
        preheader: BasicBlock,
    ) -> None:
        """Rewrite the exit comparison against a reduced register and
        delete the biv bump, when the biv has no other remaining uses."""
        # Pick a reduced register with positive multiplier (order-safe).
        chosen = next(
            ((p, m, base) for (p, m, base) in new_regs if m > 0), None
        )
        if chosen is None:
            return
        p, multiplier, base = chosen

        bump_site: Optional[Tuple[BasicBlock, int]] = None
        compare_site: Optional[Tuple[BasicBlock, int]] = None
        for block in func.blocks:
            in_loop = block.label in loop.body
            for i, inst in enumerate(block.insts):
                if isinstance(inst, Assign) and inst.dst == biv:
                    if in_loop:
                        if not (
                            isinstance(inst.src, BinOp) and inst.src.left == biv
                        ):
                            return  # unexpected in-loop redefinition
                        if bump_site is not None:
                            return
                        bump_site = (block, i)
                        continue
                    # Definitions outside the loop (the initialization,
                    # or an unrelated reuse of the register) are fine —
                    # they become dead or overwrite after the loop.
                    continue
                if biv not in inst.uses():
                    continue
                if isinstance(inst, Compare) and in_loop:
                    if compare_site is not None:
                        return
                    compare_site = (block, i)
                    continue
                if block.label == preheader.label:
                    # Preheader uses (the reduction inits we just
                    # planted) execute before any bump; deleting the
                    # bump cannot change what they read.
                    continue
                return  # some other use remains (possibly of a later value)
        if bump_site is None or compare_site is None:
            return
        block, i = compare_site
        compare = block.insts[i]
        assert isinstance(compare, Compare)
        if compare.left == biv and biv not in compare.right.registers():
            bound, biv_on_left = compare.right, True
        elif compare.right == biv and biv not in compare.left.registers():
            bound, biv_on_left = compare.left, False
        else:
            return
        if isinstance(bound, Const):
            if not isinstance(bound.value, int):
                return
        elif isinstance(bound, Reg):
            if bound in (reg for b in func.blocks if b.label in loop.body
                         for inst2 in b.insts for reg in inst2.defs()):
                return  # bound not invariant
        else:
            return

        free = self._free_registers(func)
        if not free:
            return
        q = free.pop()
        init: List[Instruction]
        if isinstance(bound, Const):
            scaled = bound.value * multiplier
            if abs(scaled) > target.alu_imm_limit:
                init = None
            else:
                init = [Assign(q, Const(scaled))]
        else:
            init = [Assign(q, BinOp("mul", bound, Const(multiplier)))]
        if init is None:
            return
        if base is not None:
            init.append(Assign(q, BinOp("add", q, base)))
        _append_to_preheader(preheader, init)
        if biv_on_left:
            block.insts[i] = Compare(p, q)
        else:
            block.insts[i] = Compare(q, p)
        bump_block, bump_index = bump_site
        del bump_block.insts[bump_index]
