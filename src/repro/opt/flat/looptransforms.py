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

A loop's blocks are visited in the lexicographic order of their *label
strings*, which fixes which invariant is hoisted first and which free
register each reduced expression gets.  Every check runs before the
first mutation, so a dormant attempt leaves the function untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.flat import (
    FlatLoop,
    flat_cfg_of,
    flat_dominators_of,
    flat_liveness_of,
    flat_loops_of,
)
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
    K_COMPARE,
    K_CONDBR,
    K_JUMP,
    LABEL_STRS,
    REG_OBJS,
    TARGET_LID,
    USE_MASK,
    FlatFunction,
    intern_inst,
    reg_id,
)
from repro.ir.instructions import Assign, Compare
from repro.ir.operands import BinOp, Const, Reg
from repro.machine.target import ALLOCATABLE, Target
from repro.opt.base import Phase
from repro.opt.flat.support import FP_BIT, jump_iid, retarget_iid, terminator_iid

_TRAPPING_OPS = frozenset({"div", "rem", "fdiv"})


def ensure_preheader(flat: FlatFunction, loop: FlatLoop) -> int:
    """Index of the loop's preheader, creating one when necessary.

    A created preheader goes right before the header, so the header and
    every later block move up one index.
    """
    cfg = flat_cfg_of(flat)
    header = loop.header
    outside = [pred for pred in cfg.preds[header] if pred not in loop.body]
    if len(outside) == 1 and cfg.succs[outside[0]] == [header]:
        return outside[0]

    blocks = flat.blocks
    header_lid = flat.labels[header]
    # A latch that reaches the header by positional fallthrough must be
    # given an explicit jump before we squeeze a block in between.
    prev = header - 1
    if prev >= 0 and prev in loop.body and terminator_iid(blocks[prev]) < 0:
        blocks[prev].append(jump_iid(header_lid))
    preheader_lid = flat.new_lid()
    # Fallthrough predecessors now fall into the preheader, which falls
    # into the header; explicit transfers are retargeted.
    for pred in outside:
        block = blocks[pred]
        term = terminator_iid(block)
        if (
            term >= 0
            and KIND[term] in (K_JUMP, K_CONDBR)
            and TARGET_LID[term] == header_lid
        ):
            block[-1] = retarget_iid(term, preheader_lid)
    flat.labels.insert(header, preheader_lid)
    blocks.insert(header, [])
    flat.invalidate_analyses()
    return header


def _append_to_preheader(preheader: List[int], iids: List[int]) -> None:
    at = len(preheader) if terminator_iid(preheader) < 0 else len(preheader) - 1
    preheader[at:at] = iids


def _free_registers(flat: FlatFunction) -> List[int]:
    """Allocatable hardware registers no instruction mentions."""
    used = 0
    for block in flat.blocks:
        for iid in block:
            used |= DEF_MASK[iid] | USE_MASK[iid]
    # Low indices are k's preference; hand out high ones (rid == index
    # for hardware registers).
    return [index for index in ALLOCATABLE if not used >> index & 1]


def _scale(expr: BinOp) -> Optional[int]:
    """m when *expr* is ``x * m`` or ``x << log2(m)``, else None."""
    right = expr.right
    if not isinstance(right, Const) or not isinstance(right.value, int):
        return None
    if expr.op == "mul":
        return right.value
    if expr.op == "lsl" and 0 <= right.value < 31:
        return 1 << right.value
    return None


class _LoopInfo:
    """Per-loop facts shared by the transformations."""

    __slots__ = ("blocks", "variant", "single", "has_store_or_call")

    def __init__(self, flat: FlatFunction, loop: FlatLoop):
        labels = flat.labels
        self.blocks = sorted(loop.body, key=lambda bi: LABEL_STRS[labels[bi]])
        defined = 0
        multiple = 0
        effects = False
        for bi in self.blocks:
            for iid in flat.blocks[bi]:
                mask = DEF_MASK[iid]
                multiple |= defined & mask
                defined |= mask
                if KIND[iid] == K_CALL or FLAGS[iid] & F_WRITES_MEM:
                    effects = True
        #: registers defined in the loop, fp excepted (fp is invariant)
        self.variant = defined & ~FP_BIT
        #: registers defined exactly once in the loop
        self.single = defined & ~multiple
        self.has_store_or_call = effects


class LoopTransformations(Phase):
    id = "l"
    name = "loop transformations"
    #: contract: legal only after register allocation (mirrors applicable)
    contract_requires = ('allocation-done',)
    contract_establishes = ('registers-assigned', 'no-pseudo-registers')
    contract_breaks = ()
    requires_assignment = True

    def applicable(self, flat: FlatFunction) -> bool:
        return flat.alloc_applied

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._apply_once(flat, target):
            changed = True
        return changed

    def _apply_once(self, flat: FlatFunction, target: Target) -> bool:
        for loop in flat_loops_of(flat):  # innermost first
            info = _LoopInfo(flat, loop)
            if self._licm_once(flat, loop, info):
                return True
            if self._strength_reduce(flat, target, loop, info):
                return True
        return False

    # ------------------------------------------------------------------
    # Loop-invariant code motion
    # ------------------------------------------------------------------

    @staticmethod
    def _licm_once(flat: FlatFunction, loop: FlatLoop, info: _LoopInfo) -> bool:
        dom = flat_dominators_of(flat)
        exit_edges = loop.exit_edges(flat_cfg_of(flat))
        # Liveness is computed only once an instruction passes the
        # cheaper checks; most attempts never get that far.
        live_in = None
        for bi in info.blocks:
            block = flat.blocks[bi]
            for i, iid in enumerate(block):
                if KIND[iid] != K_ASSIGN:
                    continue
                uses = USE_MASK[iid]
                bit = 1 << DEF_RID[iid]
                if uses & info.variant or uses & bit or not info.single & bit:
                    continue  # operands not invariant, reads itself, redefined
                if any(
                    isinstance(node, BinOp) and node.op in _TRAPPING_OPS
                    for node in INST_OBJS[iid].src.walk()
                ):
                    continue
                if FLAGS[iid] & F_READS_MEM and info.has_store_or_call:
                    continue
                if live_in is None:
                    live_in = flat_liveness_of(flat).live_in
                if live_in[loop.header] & bit:
                    continue
                if not all(dom.dominates(bi, latch) for latch in loop.latches):
                    continue
                if any(
                    live_in[exit] & bit and not dom.dominates(bi, exiting)
                    for exiting, exit in exit_edges
                ):
                    continue
                # Commit: move to the preheader.
                del block[i]
                flat.invalidate_analyses()
                preheader = flat.blocks[ensure_preheader(flat, loop)]
                _append_to_preheader(preheader, [iid])
                flat.invalidate_analyses()
                return True
        return False

    # ------------------------------------------------------------------
    # Strength reduction + induction variable elimination
    # ------------------------------------------------------------------

    def _strength_reduce(
        self, flat: FlatFunction, target: Target, loop: FlatLoop, info: _LoopInfo
    ) -> bool:
        dom = flat_dominators_of(flat)
        # basic induction variable rid -> (step, block index, position)
        bivs: Dict[int, Tuple[int, int, int]] = {}
        for bi in info.blocks:
            for i, iid in enumerate(flat.blocks[bi]):
                if KIND[iid] != K_ASSIGN or not info.single >> DEF_RID[iid] & 1:
                    continue
                inst = INST_OBJS[iid]
                src = inst.src
                if (
                    isinstance(src, BinOp)
                    and src.left == inst.dst
                    and src.op in ("add", "sub")
                    and isinstance(src.right, Const)
                    and isinstance(src.right.value, int)
                    and src.right.value
                    and all(dom.dominates(bi, latch) for latch in loop.latches)
                ):
                    step = src.right.value if src.op == "add" else -src.right.value
                    bivs[DEF_RID[iid]] = (step, bi, i)
        for biv in sorted(bivs, key=lambda rid: REG_OBJS[rid].index):
            candidates = self._derived_candidates(flat, info, biv)
            if candidates and self._reduce_biv(
                flat, target, loop, biv, bivs[biv], candidates
            ):
                return True
        return False

    @staticmethod
    def _derived_candidates(flat: FlatFunction, info: _LoopInfo, biv: int):
        """(block, position, iid, multiplier, base rid or -1) for the
        reducible expressions over *biv*."""
        biv_reg = REG_OBJS[biv]
        candidates = []
        for bi in info.blocks:
            block = flat.blocks[bi]
            for i, iid in enumerate(block):
                if KIND[iid] != K_ASSIGN:
                    continue
                t = DEF_RID[iid]
                if t == biv or not info.single >> t & 1:
                    continue
                src = INST_OBJS[iid].src
                if not isinstance(src, BinOp):
                    continue
                if src.left == biv_reg:
                    multiplier, base = _scale(src), -1
                elif (
                    src.op == "add"
                    and isinstance(src.left, Reg)
                    and not info.variant >> reg_id(src.left) & 1
                    and isinstance(src.right, BinOp)
                    and src.right.left == biv_reg
                ):
                    multiplier, base = _scale(src.right), reg_id(src.left)
                else:
                    continue
                if multiplier:
                    candidates.append((block, i, iid, multiplier, base))
        return candidates

    def _reduce_biv(
        self,
        flat: FlatFunction,
        target: Target,
        loop: FlatLoop,
        biv: int,
        site: Tuple[int, int, int],
        candidates,
    ) -> bool:
        step, bump_bi, bump_at = site
        free = _free_registers(flat)
        if len(free) < len(candidates):
            return False
        # Check immediate legality of every inserted step first.
        for *_, multiplier, _base in candidates:
            if abs(step * multiplier) > target.alu_imm_limit:
                return False

        # Blocks are held by list from here on: the preheader may shift
        # the indices.
        body = {flat.labels[bi] for bi in loop.body}
        bump_block = flat.blocks[bump_bi]
        preheader = flat.blocks[ensure_preheader(flat, loop)]
        biv_reg = REG_OBJS[biv]
        new_regs: List[Tuple[Reg, int, int]] = []
        for block, i, iid, multiplier, base in candidates:
            p = Reg(free.pop(), pseudo=False)
            init = [Assign(p, BinOp("mul", biv_reg, Const(multiplier)))]
            if base >= 0:
                init.append(Assign(p, BinOp("add", p, REG_OBJS[base])))
            _append_to_preheader(preheader, [intern_inst(inst) for inst in init])
            block[i] = intern_inst(Assign(INST_OBJS[iid].dst, p))
            new_regs.append((p, multiplier, base))
        # Bump every new register right after the biv's bump.
        bump_block[bump_at + 1 : bump_at + 1] = [
            intern_inst(Assign(p, BinOp("add", p, Const(step * multiplier))))
            for p, multiplier, _base in new_regs
        ]

        self._try_eliminate_biv(flat, target, body, biv, new_regs, preheader)
        flat.invalidate_analyses()
        return True

    @staticmethod
    def _try_eliminate_biv(
        flat: FlatFunction,
        target: Target,
        body: set,
        biv: int,
        new_regs: List[Tuple[Reg, int, int]],
        preheader: List[int],
    ) -> None:
        """Rewrite the exit comparison against a reduced register and
        delete the biv bump, when the biv has no other remaining uses.

        *body* holds the label ids of the loop's blocks.
        """
        # Pick a reduced register with positive multiplier (order-safe).
        chosen = next(((p, m, base) for (p, m, base) in new_regs if m > 0), None)
        if chosen is None:
            return
        p, multiplier, base = chosen

        biv_reg = REG_OBJS[biv]
        biv_bit = 1 << biv
        loop_defs = 0
        bump_site: Optional[Tuple[List[int], int]] = None
        compare_site: Optional[Tuple[List[int], int]] = None
        for lid, block in zip(flat.labels, flat.blocks):
            in_loop = lid in body
            for i, iid in enumerate(block):
                if in_loop:
                    loop_defs |= DEF_MASK[iid]
                if DEF_RID[iid] == biv:
                    if in_loop:
                        src = INST_OBJS[iid].src
                        if not (isinstance(src, BinOp) and src.left == biv_reg):
                            return  # unexpected in-loop redefinition
                        if bump_site is not None:
                            return
                        bump_site = (block, i)
                    # Definitions outside the loop (the initialization,
                    # or an unrelated reuse of the register) are fine —
                    # they become dead or overwrite after the loop.
                    continue
                if not USE_MASK[iid] & biv_bit:
                    continue
                if KIND[iid] == K_COMPARE and in_loop:
                    if compare_site is not None:
                        return
                    compare_site = (block, i)
                    continue
                if block is preheader:
                    # Preheader uses (the reduction inits we just
                    # planted) execute before any bump; deleting the
                    # bump cannot change what they read.
                    continue
                return  # some other use remains (possibly of a later value)
        if bump_site is None or compare_site is None:
            return
        block, i = compare_site
        compare = INST_OBJS[block[i]]
        if compare.left == biv_reg and biv_reg not in compare.right.registers():
            bound, biv_on_left = compare.right, True
        elif compare.right == biv_reg and biv_reg not in compare.left.registers():
            bound, biv_on_left = compare.left, False
        else:
            return
        if isinstance(bound, Const):
            if not isinstance(bound.value, int):
                return
        elif isinstance(bound, Reg):
            if loop_defs >> reg_id(bound) & 1:
                return  # bound not invariant
        else:
            return

        free = _free_registers(flat)
        if not free:
            return
        q = Reg(free.pop(), pseudo=False)
        if isinstance(bound, Const):
            scaled = bound.value * multiplier
            if abs(scaled) > target.alu_imm_limit:
                return
            init = [Assign(q, Const(scaled))]
        else:
            init = [Assign(q, BinOp("mul", bound, Const(multiplier)))]
        if base >= 0:
            init.append(Assign(q, BinOp("add", q, REG_OBJS[base])))
        _append_to_preheader(preheader, [intern_inst(inst) for inst in init])
        block[i] = intern_inst(Compare(p, q) if biv_on_left else Compare(q, p))
        bump_block, bump_index = bump_site
        del bump_block[bump_index]
