"""IR sanitizer: dataflow-powered legality checks with diagnostic codes.

Every check produces a :class:`Finding` with a stable code so tests,
quarantine records and the lint report can key on *what* went wrong,
not on message phrasing:

========  =========================================================
code      meaning
========  =========================================================
CFG001    function has no blocks
CFG002    duplicate block label within one function
CFG003    control transfer not at the end of its block
CFG004    branch to a label that does not exist
CFG005    last block falls off the end of the function
CFG006    no Return is reachable from the entry block
CFG007    a reachable block cannot reach any function exit
CFG008    branch to a label defined in another function's namespace
DFA001    register may be used before any definition reaches it
DFA002    conditional branch may execute with the condition code unset
MACH001   instruction shape is illegal for the target machine
MACH002   immediate operand exceeds the target's width limits
MACH003   hardware register outside the register file
MACH004   pseudo register present after register assignment
MACH005   pseudo register index was never allocated
FRAME001  frame slot extends outside the frame
FRAME002  frame slots overlap
FRAME003  frame reference with a known offset is out of bounds
CC001     dangling registers live into the entry block
CC002     return-value register may be uninitialized at a return
CC003     call to a function the program does not define
CC004     call argument count disagrees with the callee's parameters
MEM001    load from a compile-time-constant address (wild load)
MEM002    store to a compile-time-constant address (wild store)
MEM003    access at an address that is provably misaligned
MEM004    global access with a known offset outside the object
========  =========================================================

The sanitizer runs in two modes.  **fast** covers everything the
legacy ``ir/validate.py`` battery did (structure, machine legality,
register discipline, frame layout, entry liveness) plus the two checks
it historically missed — duplicate labels and cross-function branch
targets.  **full** adds the definedness dataflow (DFA001/DFA002,
CC002), frame-reference bounds (FRAME003) and the memory-access
checks (MEM001-MEM004, see :mod:`.memcheck`).  Structural findings
short-circuit: dataflow over a malformed CFG would be meaningless.

The fast passes run on the flat IR (:func:`fast_findings`): an
instruction's legality and register facts are memoized per target by
interned instruction id, a block's merged facts by block content id,
and the function-level checks read the function's cached flat CFG and
liveness — so the guard checks a clean edge without building object
views.  Full mode's dataflow checks run on the flat IR too, over the
same cached CFG.  The object-IR entry points convert once with
``to_flat``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import flat as _flat_analysis
from repro.analysis.flat import RV_BIT, FlatCFG, flat_cfg_of, flat_liveness_of
from repro.analysis.framerefs import (
    _OTHER,
    _eval_abstract,
    _meet,
    _transfer as _frame_transfer,
)
from repro.analysis.reaching import declared_arity, entry_defined
from repro.ir.flat import (
    DEF_MASK,
    FLAGS,
    F_SETS_CC,
    F_TRANSFER,
    F_USES_CC,
    INST_OBJS,
    KIND,
    K_CALL,
    K_RET,
    LABEL_STRS,
    REG_OBJS,
    TARGET_LID,
    USE_MASK,
    FlatFunction,
    iter_rids,
    mask_of,
    regs_of_mask,
    to_flat,
)
from repro.ir.function import Function, Program
from repro.ir.operands import Reg
from repro.machine.target import ARG_REGS, DEFAULT_TARGET, NUM_HW_REGS, RV, Target
from repro.staticanalysis.memcheck import address_walk, memory_findings

#: sanitizer modes, in increasing strength/cost order
FAST = "fast"
FULL = "full"
MODES = (FAST, FULL)

#: a Target with effectively unbounded immediates: an instruction that
#: is illegal for the real target but legal here has a pure *width*
#: problem (MACH002) rather than a shape problem (MACH001)
_WIDE_TARGET = Target(
    alu_imm_limit=1 << 60, mem_offset_limit=1 << 60, cmp_imm_limit=1 << 60
)


class Finding:
    """One sanitizer diagnostic: code + location + human detail."""

    __slots__ = ("code", "function", "where", "detail")

    def __init__(self, code: str, function: str, where: str, detail: str):
        self.code = code
        self.function = function
        self.where = where
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.code} {self.function}[{self.where}]: {self.detail}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self!s})"

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "function": self.function,
            "where": self.where,
            "detail": self.detail,
        }


def _program_labels(program: Program) -> Dict[str, str]:
    """Map every block label in *program* to its owning function."""
    owners: Dict[str, str] = {}
    for name, func in program.functions.items():
        for block in func.blocks:
            owners.setdefault(block.label, name)
    return owners


# ----------------------------------------------------------------------
# Per-instruction and per-block facts
# ----------------------------------------------------------------------
#
# An instruction's legality and register facts depend only on its
# interned id (and the target), and a block's merged facts only on its
# content id, so both are memoized process-wide like the flat analyses'
# per-block memos: filled lazily here (unguarded runs pay nothing),
# cleared when full, recomputed on every hit in paranoid mode.


class _InstFacts(NamedTuple):
    legal: bool  # legal on the target (always True without one)
    max_pseudo: int  # highest pseudo register index; -1: no pseudo register
    bad_hw: bool  # a hardware register outside 0..NUM_HW_REGS-1


class _BlockFacts(NamedTuple):
    legal: bool
    max_pseudo: int
    bad_hw: bool
    mid_transfer: bool  # a transfer before the last instruction
    has_call: bool


#: target (None: register discipline only) ->
#: (iid -> _InstFacts, block content id -> _BlockFacts)
_FACTS: Dict[
    Optional[Target], Tuple[Dict[int, _InstFacts], Dict[int, _BlockFacts]]
] = {}
_flat_analysis.SHARED_MEMOS.append(_FACTS)


def _eval_inst_facts(target: Optional[Target], iid: int) -> _InstFacts:
    max_pseudo = -1
    bad_hw = False
    for rid in iter_rids(DEF_MASK[iid] | USE_MASK[iid]):
        reg = REG_OBJS[rid]
        if reg.pseudo:
            if reg.index > max_pseudo:
                max_pseudo = reg.index
        elif not 0 <= reg.index < NUM_HW_REGS:
            bad_hw = True
    legal = target is None or target.is_legal(INST_OBJS[iid])
    return _InstFacts(legal, max_pseudo, bad_hw)


def _inst_facts(
    target: Optional[Target], table: Dict[int, _InstFacts], iid: int
) -> _InstFacts:
    facts = table.get(iid)
    if facts is None:
        if len(table) >= _flat_analysis._BLOCK_MEMO_MAX:
            table.clear()
        facts = table[iid] = _eval_inst_facts(target, iid)
    elif _flat_analysis._PARANOID:
        _paranoid_check("instruction facts", iid, facts, _eval_inst_facts(target, iid))
    return facts


def _eval_block_facts(
    target: Optional[Target],
    table: Optional[Dict[int, _InstFacts]],
    block: List[int],
) -> _BlockFacts:
    """Merge a block's instruction facts; *table* None recomputes them."""
    legal = True
    max_pseudo = -1
    bad_hw = False
    mid_transfer = False
    has_call = False
    last = len(block) - 1
    for index, iid in enumerate(block):
        facts = (
            _eval_inst_facts(target, iid)
            if table is None
            else _inst_facts(target, table, iid)
        )
        legal = legal and facts.legal
        max_pseudo = max(max_pseudo, facts.max_pseudo)
        bad_hw = bad_hw or facts.bad_hw
        if FLAGS[iid] & F_TRANSFER and index != last:
            mid_transfer = True
        if KIND[iid] == K_CALL:
            has_call = True
    return _BlockFacts(legal, max_pseudo, bad_hw, mid_transfer, has_call)


def _tables(
    target: Optional[Target],
) -> Tuple[Dict[int, _InstFacts], Dict[int, _BlockFacts]]:
    tables = _FACTS.get(target)
    if tables is None:
        tables = _FACTS[target] = ({}, {})
    return tables


def _block_facts(flat: FlatFunction, target: Optional[Target]) -> List[_BlockFacts]:
    """The facts of each block of *flat*, in block order."""
    inst_table, table = _tables(target)
    result = []
    for bid, block in zip(flat.content_key()[1], flat.blocks):
        facts = table.get(bid)
        if facts is None:
            if len(table) >= _flat_analysis._BLOCK_MEMO_MAX:
                table.clear()
            facts = table[bid] = _eval_block_facts(target, inst_table, block)
        elif _flat_analysis._PARANOID:
            _paranoid_check(
                "block facts", bid, facts, _eval_block_facts(target, None, block)
            )
        result.append(facts)
    return result


def _paranoid_check(what: str, key: int, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"stale cached sanitizer {what} for id {key} "
            "(a memo entry disagrees with the code it describes)"
        )


def has_pseudo_registers(flat: FlatFunction, target: Optional[Target] = None) -> bool:
    """Whether any instruction of *flat* names a pseudo register (read
    from *target*'s fact table, which a battery for *target* fills)."""
    return any(facts.max_pseudo >= 0 for facts in _block_facts(flat, target))


# ----------------------------------------------------------------------
# The fast passes, over the flat IR
# ----------------------------------------------------------------------


def _structural(
    flat: FlatFunction, facts: List[_BlockFacts], program: Optional[Program]
) -> List[Finding]:
    name = flat.name
    blocks = flat.blocks
    if not blocks:
        return [Finding("CFG001", name, "-", "function has no blocks")]
    findings: List[Finding] = []
    labels = flat.labels
    known = set(labels)
    if len(known) != len(labels):
        seen = set()
        for lid in labels:
            if lid in seen:
                label = LABEL_STRS[lid]
                findings.append(
                    Finding("CFG002", name, label, f"duplicate block labels: {label!r}")
                )
            seen.add(lid)
    # (program label owners, built on the first missing target)
    owners: List[Dict[str, str]] = []
    for lid, block, block_facts in zip(labels, blocks, facts):
        if block_facts.mid_transfer:
            last = len(block) - 1
            for index, iid in enumerate(block):
                if index != last and FLAGS[iid] & F_TRANSFER:
                    findings.append(
                        Finding(
                            "CFG003",
                            name,
                            LABEL_STRS[lid],
                            f"transfer not at block end (instruction {index})",
                        )
                    )
                target_lid = TARGET_LID[iid]
                if target_lid >= 0 and target_lid not in known:
                    findings.append(
                        _missing_target(name, lid, target_lid, program, owners)
                    )
        elif block:
            # only the last instruction of the block can branch
            target_lid = TARGET_LID[block[-1]]
            if target_lid >= 0 and target_lid not in known:
                findings.append(_missing_target(name, lid, target_lid, program, owners))
    last_block = blocks[-1]
    if not last_block or not FLAGS[last_block[-1]] & F_TRANSFER:
        findings.append(
            Finding(
                "CFG005",
                name,
                LABEL_STRS[labels[-1]],
                "last block falls off the function",
            )
        )
    if findings:
        return findings

    # Structure is sound (every branch target exists); reachability
    # checks need the CFG.
    cfg = flat_cfg_of(flat)
    reachable = cfg.reachable
    exits = [
        index
        for index in reachable
        if blocks[index] and KIND[blocks[index][-1]] == K_RET
    ]
    if not exits:
        return [
            Finding(
                "CFG006",
                name,
                LABEL_STRS[labels[0]],
                "no Return is reachable from the entry block",
            )
        ]
    # Backward reachability from the exits: a reachable block outside
    # this set is an inescapable loop.
    can_exit = set(exits)
    stack = exits
    preds = cfg.preds
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in can_exit:
                can_exit.add(pred)
                stack.append(pred)
    return [
        Finding(
            "CFG007",
            name,
            LABEL_STRS[labels[index]],
            "block cannot reach any function exit",
        )
        for index in sorted(reachable - can_exit)
    ]


def _missing_target(
    name: str,
    lid: int,
    target_lid: int,
    program: Optional[Program],
    owners: List[Dict[str, str]],
) -> Finding:
    """CFG008 for a label another function of *program* defines, else
    CFG004; *owners* caches the program's label owners."""
    target = LABEL_STRS[target_lid]
    if not owners:
        owners.append(_program_labels(program) if program is not None else {})
    owner = owners[0].get(target)
    if owner is not None and owner != name:
        return Finding(
            "CFG008",
            name,
            LABEL_STRS[lid],
            f"branch to label {target} defined in function {owner!r}",
        )
    return Finding("CFG004", name, LABEL_STRS[lid], f"branch to unknown label {target}")


def _machine(
    flat: FlatFunction, target: Optional[Target], facts: List[_BlockFacts]
) -> List[Finding]:
    """Target legality (skipped without a target) and register discipline."""
    findings: List[Finding] = []
    assigned = flat.reg_assigned
    next_pseudo = flat.next_pseudo
    inst_table = _tables(target)[0]
    for lid, block, block_facts in zip(flat.labels, flat.blocks, facts):
        max_pseudo = block_facts.max_pseudo
        if (
            block_facts.legal
            and not block_facts.bad_hw
            and (max_pseudo < 0 or (not assigned and max_pseudo < next_pseudo))
        ):
            continue
        label = LABEL_STRS[lid]
        for iid in block:
            inst_facts = _inst_facts(target, inst_table, iid)
            inst = INST_OBJS[iid]
            if not inst_facts.legal:
                if _WIDE_TARGET.is_legal(inst):
                    findings.append(
                        Finding(
                            "MACH002",
                            flat.name,
                            label,
                            f"immediate operand exceeds the target's width "
                            f"limits: {inst}",
                        )
                    )
                else:
                    findings.append(
                        Finding(
                            "MACH001",
                            flat.name,
                            label,
                            f"illegal instruction for the target: {inst}",
                        )
                    )
            max_pseudo = inst_facts.max_pseudo
            if inst_facts.bad_hw or (
                max_pseudo >= 0 and (assigned or max_pseudo >= next_pseudo)
            ):
                # in ``defs() | uses()`` set order: a quarantine detail
                # quotes the first findings, so their order is output
                for reg in inst.defs() | inst.uses():
                    findings.extend(_register_findings(flat, label, reg))
    return findings


def _register_findings(flat: FlatFunction, where: str, reg: Reg) -> List[Finding]:
    if reg.pseudo:
        if flat.reg_assigned:
            return [
                Finding(
                    "MACH004",
                    flat.name,
                    where,
                    f"pseudo register {reg} present after register assignment",
                )
            ]
        if reg.index >= flat.next_pseudo:
            return [
                Finding(
                    "MACH005",
                    flat.name,
                    where,
                    f"pseudo register {reg} was never allocated",
                )
            ]
    elif not 0 <= reg.index < NUM_HW_REGS:
        return [
            Finding(
                "MACH003",
                flat.name,
                where,
                f"hardware register {reg} outside the register file "
                f"(0..{NUM_HW_REGS - 1})",
            )
        ]
    return []


def frame_layout_findings(func: FlatFunction) -> List[Finding]:
    """Slot bounds and overlaps in the declared frame layout."""
    findings: List[Finding] = []
    slots = sorted(func.frame.values(), key=lambda slot: slot.offset)
    for slot in slots:
        if slot.offset < 0 or slot.offset + 4 * slot.words > func.frame_size:
            findings.append(
                Finding(
                    "FRAME001",
                    func.name,
                    slot.name,
                    f"slot {slot.name!r} at offset {slot.offset} "
                    f"({slot.words} words) lies outside the frame "
                    f"of {func.frame_size} bytes",
                )
            )
    for first, second in zip(slots, slots[1:]):
        if first.offset + 4 * first.words > second.offset:
            findings.append(
                Finding(
                    "FRAME002",
                    func.name,
                    second.name,
                    f"slots {first.name!r} and {second.name!r} overlap",
                )
            )
    return findings


#: register mask of :func:`entry_defined` by declared arity (arities
#: past the argument registers define no more)
_ENTRY_MASKS = tuple(
    mask_of(entry_defined(arity)) for arity in range(len(ARG_REGS) + 1)
)


def _dangling_entry(flat: FlatFunction) -> List[Finding]:
    entry_mask = _ENTRY_MASKS[min(declared_arity(flat), len(ARG_REGS))]
    dangling = flat_liveness_of(flat).live_in[0] & ~entry_mask
    if not dangling:
        return []
    regs = ", ".join(str(reg) for reg in sorted(regs_of_mask(dangling), key=_reg_key))
    return [
        Finding(
            "CC001",
            flat.name,
            LABEL_STRS[flat.labels[0]],
            f"dangling registers live into the entry block: {regs}",
        )
    ]


def _reg_key(reg: Reg):
    return (reg.pseudo, reg.index)


def _calls(
    flat: FlatFunction, facts: List[_BlockFacts], program: Program
) -> List[Finding]:
    findings: List[Finding] = []
    for lid, block, block_facts in zip(flat.labels, flat.blocks, facts):
        if not block_facts.has_call:
            continue
        for iid in block:
            if KIND[iid] != K_CALL:
                continue
            inst = INST_OBJS[iid]
            callee = program.functions.get(inst.name)
            if callee is None:
                findings.append(
                    Finding(
                        "CC003",
                        flat.name,
                        LABEL_STRS[lid],
                        f"call to unknown function {inst.name!r}",
                    )
                )
            elif declared_arity(callee) != inst.nargs:
                findings.append(
                    Finding(
                        "CC004",
                        flat.name,
                        LABEL_STRS[lid],
                        f"call passes {inst.nargs} arguments but "
                        f"{inst.name!r} declares "
                        f"{declared_arity(callee)} parameters",
                    )
                )
    return findings


def fast_findings(
    flat: FlatFunction,
    target: Optional[Target] = None,
    program: Optional[Program] = None,
) -> List[Finding]:
    """The fast battery over a flat function.

    Structural findings (CFG*) short-circuit everything else; with a
    clean structure, machine legality (register discipline alone
    without a *target*), frame layout, entry liveness and — with a
    *program* — the call checks all run and accumulate.
    """
    facts = _block_facts(flat, target)
    findings = _structural(flat, facts, program)
    if findings:
        return findings
    findings = _machine(flat, target, facts)
    findings.extend(frame_layout_findings(flat))
    findings.extend(_dangling_entry(flat))
    if program is not None:
        findings.extend(_calls(flat, facts, program))
    return findings


def structural_failure(findings: List[Finding]) -> bool:
    """Whether a :func:`fast_findings` result is a structural failure
    (which carries structural findings only)."""
    return bool(findings) and findings[0].code.startswith("CFG")


def call_findings(flat: FlatFunction, program: Program) -> List[Finding]:
    """CC003/CC004: calls resolved against the whole program."""
    return _calls(flat, _block_facts(flat, None), program)


# ----------------------------------------------------------------------
# Object-IR structural check (converts with to_flat)
# ----------------------------------------------------------------------


def structural_findings(
    func: Function, program: Optional[Program] = None
) -> List[Finding]:
    """CFG well-formedness: the checks that must pass before any
    dataflow over the function makes sense."""
    flat = to_flat(func)
    return _structural(flat, _block_facts(flat, None), program)


# ----------------------------------------------------------------------
# Full mode: dataflow checks over the flat IR
# ----------------------------------------------------------------------


def _definedness_findings(flat: FlatFunction, cfg: FlatCFG) -> List[Finding]:
    """DFA001/DFA002/CC002 via the must-defined dataflow.

    A register is definitely defined at a point when some definition
    reaches it along every path from the entry; a use outside that set
    may read garbage (the VM papers over it by reading 0).  Sets
    intersect at joins, the entry block starts from the registers the
    calling convention defines for the declared arity
    (:func:`~repro.analysis.reaching.entry_defined`), and unreachable
    blocks are never reported.  The same walk tracks whether a compare
    surely reached each point, for conditional branches.  A call
    defines the caller-saved registers and keeps the condition code
    (each VM frame has its own).  A ``Return`` in a value-returning
    function uses the return-value register.
    """
    blocks = flat.blocks
    returns_value = flat.returns_value
    preds = cfg.preds
    entry = (_ENTRY_MASKS[min(declared_arity(flat), len(ARG_REGS))], False)
    # (defined mask, cc surely set) at each block's entry and exit;
    # None is TOP: not reached by the iteration yet
    state_in: List[Optional[Tuple[int, bool]]] = [None] * len(blocks)
    state_out: List[Optional[Tuple[int, bool]]] = [None] * len(blocks)
    changed = True
    while changed:
        changed = False
        for bi in cfg.rpo:
            state = entry
            if bi != 0:
                state = None
                for pred in preds[bi]:
                    out = state_out[pred]
                    if out is not None:
                        state = (
                            out
                            if state is None
                            else (state[0] & out[0], state[1] and out[1])
                        )
            state_in[bi] = state
            defined, cc = state
            for iid in blocks[bi]:
                defined |= DEF_MASK[iid]
                cc = cc or bool(FLAGS[iid] & F_SETS_CC)
            if state_out[bi] != (defined, cc):
                state_out[bi] = (defined, cc)
                changed = True
    findings: List[Finding] = []
    for bi, block in enumerate(blocks):
        state = state_in[bi]
        if state is None:
            continue  # unreachable: never executes
        defined, cc = state
        label = LABEL_STRS[flat.labels[bi]]
        for index, iid in enumerate(block):
            uses = USE_MASK[iid]
            is_return = KIND[iid] == K_RET
            if is_return and returns_value:
                uses |= RV_BIT
            missing = uses & ~defined
            where = f"{label}#{index}"
            if missing:
                if is_return and missing == RV_BIT:
                    findings.append(
                        Finding(
                            "CC002",
                            flat.name,
                            where,
                            f"return-value register {RV} may be uninitialized "
                            "at this return",
                        )
                    )
                else:
                    regs = ", ".join(
                        str(reg) for reg in sorted(regs_of_mask(missing), key=_reg_key)
                    )
                    findings.append(
                        Finding(
                            "DFA001",
                            flat.name,
                            where,
                            f"registers may be used before definition: "
                            f"{regs} in {INST_OBJS[iid]}",
                        )
                    )
            if FLAGS[iid] & F_USES_CC and not cc:
                findings.append(
                    Finding(
                        "DFA002",
                        flat.name,
                        where,
                        f"conditional branch may execute with the condition "
                        f"code unset: {INST_OBJS[iid]}",
                    )
                )
            defined |= DEF_MASK[iid]
            cc = cc or bool(FLAGS[iid] & F_SETS_CC)
    return findings


def _frame_bounds_findings(flat: FlatFunction, cfg: FlatCFG) -> List[Finding]:
    """FRAME003: frame references that resolve to a known fp offset
    outside ``[0, frame_size)``.

    Runs the abstract fp-offset dataflow of
    :mod:`repro.analysis.framerefs` but, unlike the frame refs (which
    only classify accesses to tracked scalar slots), inspects **every**
    integer-resolved offset.
    """
    findings: List[Finding] = []
    frame_size = flat.frame_size
    for label, index, mem, is_write, state in address_walk(
        flat, cfg, _frame_transfer, _meet, _OTHER
    ):
        value = _eval_abstract(mem.addr, state)
        if isinstance(value, int) and not (0 <= value and value + 4 <= frame_size):
            access = "write" if is_write else "read"
            findings.append(
                Finding(
                    "FRAME003",
                    flat.name,
                    f"{label}#{index}",
                    f"frame {access} at fp+{value} is outside the "
                    f"frame of {frame_size} bytes",
                )
            )
    return findings


def full_findings(
    flat: FlatFunction, program: Optional[Program] = None
) -> List[Finding]:
    """The checks full mode adds, over a structurally sound flat
    function: definedness (DFA001/DFA002/CC002), frame-reference bounds
    (FRAME003) and memory accesses (MEM001-MEM004).  They read the
    function's cached flat CFG."""
    cfg = flat_cfg_of(flat)
    findings = _definedness_findings(flat, cfg)
    findings.extend(_frame_bounds_findings(flat, cfg))
    findings.extend(memory_findings(flat, program, cfg))
    return findings


def sanitize_function(
    func: Function,
    target: Optional[Target] = None,
    program: Optional[Program] = None,
    mode: str = FULL,
) -> List[Finding]:
    """Run the sanitizer battery over one function.

    Structural findings short-circuit everything else; with a clean
    structure the remaining checks all run and their findings
    accumulate.  *program* (optional) enables the cross-function checks
    (CFG008, CC003, CC004).
    """
    if mode not in MODES:
        raise ValueError(f"unknown sanitizer mode {mode!r} (expected fast|full)")
    flat = to_flat(func)
    findings = fast_findings(flat, target or DEFAULT_TARGET, program)
    if mode == FULL and not structural_failure(findings):
        findings.extend(full_findings(flat, program))
    return findings


def sanitize_program(
    program: Program,
    target: Optional[Target] = None,
    mode: str = FULL,
) -> List[Finding]:
    """Sanitize every function of *program*, in definition order."""
    findings: List[Finding] = []
    for func in program.functions.values():
        findings.extend(sanitize_function(func, target, program, mode))
    return findings
