"""Flat array-of-tables IR: the enumeration hot-path representation.

The object IR (``repro.ir.function``) is the authoring and lint
surface: small immutable instruction/operand trees that are pleasant
to build, print, and verify.  It is also what makes cold expansion
slow — every phase attempt walks thousands of tiny Python objects,
allocating frozensets and tuples as it goes.

This module keeps the object IR as the source of truth for *meaning*
and adds a flat, integer-keyed view for *speed*:

- Every distinct :class:`Reg`, block label, and :class:`Instruction`
  is interned once into a global append-only pool and identified by a
  small int.  Interning is hash-consing: two structurally equal
  instructions anywhere in the enumeration share one id, so per-
  instruction facts are computed once per *distinct* instruction, not
  once per occurrence.
- A :class:`FlatFunction` is just parallel lists of ints: a label id
  per block and a list of instruction ids per block, plus the same
  scalar metadata a :class:`Function` carries (legality flags, frame,
  counters).  Cloning copies a handful of small int lists —
  clone-as-array-slice, no per-instruction object churn.
- Per-id side tables precomputed at intern time (def/use bitmasks
  over register ids, kind and effect flags, branch targets, memory
  reference lists, render templates) are what the phases and flat
  analyses consume instead of re-deriving facts from the object tree
  on every attempt.
- Fingerprinting renders each instruction from its precomputed
  template (literal text chunks interleaved with register/label
  slots), reproducing ``fingerprint_function``'s remapped byte stream
  exactly, so a flat instance and its object view hash identical
  bytes.

Converters are lossless both ways.  ``from_flat`` is intentionally
trivial (the intern pool holds the real instruction objects), which
is what makes object views cheap: the verifiers and the VM see a flat
instance at the cost of two list comprehensions, not a parse.

The pools are process-global and append-only.  They never shrink
during enumeration; :func:`reset_flat_caches` exists for tests and
long-lived services that recycle workers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.crc import crc32
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Instruction,
    Jump,
    Return,
)
from repro.ir.operands import Mem, Reg
from repro.ir.printer import format_instruction

# ----------------------------------------------------------------------
# Instruction kinds and effect flags
# ----------------------------------------------------------------------

K_ASSIGN = 0  # Assign to a register
K_STORE = 1  # Assign to memory
K_COMPARE = 2
K_CONDBR = 3
K_JUMP = 4
K_CALL = 5
K_RET = 6

F_TRANSFER = 1
F_SETS_CC = 2
F_USES_CC = 4
F_READS_MEM = 8
F_WRITES_MEM = 16

# ----------------------------------------------------------------------
# Register interning
# ----------------------------------------------------------------------

# Hardware registers are seeded first so rid == hardware index for
# r0..r15; every pseudo register therefore has rid >= NUM_SEEDED_HW.
NUM_SEEDED_HW = 16

_REG_IDS: Dict[Reg, int] = {}
REG_OBJS: List[Reg] = []


def reg_id(reg: Reg) -> int:
    rid = _REG_IDS.get(reg)
    if rid is None:
        rid = len(REG_OBJS)
        _REG_IDS[reg] = rid
        REG_OBJS.append(reg)
    return rid


def _seed_hw_regs() -> None:
    for i in range(NUM_SEEDED_HW):
        reg_id(Reg(i, pseudo=False))


_seed_hw_regs()


def iter_rids(mask: int) -> Iterator[int]:
    """Yield the register ids set in *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(regs) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << reg_id(reg)
    return mask


def regs_of_mask(mask: int) -> List[Reg]:
    return [REG_OBJS[rid] for rid in iter_rids(mask)]


# ----------------------------------------------------------------------
# Label interning
# ----------------------------------------------------------------------

_LABEL_IDS: Dict[str, int] = {}
LABEL_STRS: List[str] = []


def label_id(label: str) -> int:
    lid = _LABEL_IDS.get(label)
    if lid is None:
        lid = len(LABEL_STRS)
        _LABEL_IDS[label] = lid
        LABEL_STRS.append(label)
    return lid


# ----------------------------------------------------------------------
# Instruction interning and per-id side tables
# ----------------------------------------------------------------------

_INST_IDS: Dict[Instruction, int] = {}
INST_OBJS: List[Instruction] = []

KIND: List[int] = []
FLAGS: List[int] = []
DEF_MASK: List[int] = []
USE_MASK: List[int] = []
#: rid of the register a register assignment (``K_ASSIGN``) defines,
#: or -1.
DEF_RID: List[int] = []
#: branch target label id for Jump/CondBranch, or -1.
TARGET_LID: List[int] = []
#: relop string for CondBranch, else "".
RELOP: List[str] = []
#: fingerprint render template: literal str chunks interleaved with
#: int slots — rid (>= 0) for a register, ~lid (< 0) for a label.
TEMPLATE: List[Tuple] = []
#: framerefs._mem_exprs flattened: tuple of (Mem expr, is_write).
MEM_REFS: List[Tuple] = []

_REG_SENTINEL = "\x00"
_LABEL_SENTINEL = "\x01"


def _build_template(inst: Instruction) -> Tuple:
    regs: List[Reg] = []
    labels: List[str] = []

    def reg_namer(reg: Reg) -> str:
        regs.append(reg)
        return _REG_SENTINEL

    def label_namer(label: str) -> str:
        labels.append(label)
        return _LABEL_SENTINEL

    text = format_instruction(inst, reg_namer, label_namer)
    parts: List = []
    literal: List[str] = []
    ri = li = 0
    for ch in text:
        if ch == _REG_SENTINEL:
            if literal:
                parts.append("".join(literal))
                literal = []
            parts.append(reg_id(regs[ri]))
            ri += 1
        elif ch == _LABEL_SENTINEL:
            if literal:
                parts.append("".join(literal))
                literal = []
            parts.append(~label_id(labels[li]))
            li += 1
        else:
            literal.append(ch)
    if literal:
        parts.append("".join(literal))
    return tuple(parts)


def _classify(inst: Instruction) -> Tuple[int, int]:
    if type(inst) is Assign:
        kind = K_STORE if isinstance(inst.dst, Mem) else K_ASSIGN
    elif type(inst) is Compare:
        kind = K_COMPARE
    elif type(inst) is CondBranch:
        kind = K_CONDBR
    elif type(inst) is Jump:
        kind = K_JUMP
    elif type(inst) is Call:
        kind = K_CALL
    elif type(inst) is Return:
        kind = K_RET
    else:  # pragma: no cover - closed instruction set
        raise TypeError(f"cannot intern {inst!r}")
    flags = 0
    if inst.is_transfer:
        flags |= F_TRANSFER
    if inst.sets_cc():
        flags |= F_SETS_CC
    if inst.uses_cc():
        flags |= F_USES_CC
    if inst.reads_memory():
        flags |= F_READS_MEM
    if inst.writes_memory():
        flags |= F_WRITES_MEM
    return kind, flags


def _mem_refs(inst: Instruction) -> Tuple:
    from repro.analysis.framerefs import _mem_exprs

    return tuple(_mem_exprs(inst))


def intern_inst(inst: Instruction) -> int:
    iid = _INST_IDS.get(inst)
    if iid is not None:
        return iid
    iid = len(INST_OBJS)
    _INST_IDS[inst] = iid
    INST_OBJS.append(inst)
    kind, flags = _classify(inst)
    KIND.append(kind)
    FLAGS.append(flags)
    DEF_MASK.append(mask_of(inst.defs()))
    USE_MASK.append(mask_of(inst.uses()))
    DEF_RID.append(reg_id(inst.dst) if kind == K_ASSIGN else -1)
    if kind == K_CONDBR:
        TARGET_LID.append(label_id(inst.target))
        RELOP.append(inst.relop)
    elif kind == K_JUMP:
        TARGET_LID.append(label_id(inst.target))
        RELOP.append("")
    else:
        TARGET_LID.append(-1)
        RELOP.append("")
    TEMPLATE.append(_build_template(inst))
    MEM_REFS.append(_mem_refs(inst))
    return iid


# ----------------------------------------------------------------------
# Block interning (content keys for analyses and fingerprint caching)
# ----------------------------------------------------------------------

_BLOCK_IDS: Dict[Tuple[int, ...], int] = {}
BLOCK_TUPLES: List[Tuple[int, ...]] = []


def block_id(insts: Tuple[int, ...]) -> int:
    bid = _BLOCK_IDS.get(insts)
    if bid is None:
        bid = len(BLOCK_TUPLES)
        _BLOCK_IDS[insts] = bid
        BLOCK_TUPLES.append(insts)
    return bid


# ----------------------------------------------------------------------
# FlatFunction
# ----------------------------------------------------------------------


class FlatFunction:
    """A function instance as parallel int lists (see module docstring).

    Mirrors the mutable surface of :class:`Function`: ``blocks[i]`` is
    a mutable list of instruction ids and ``labels[i]`` the matching
    label id.  Scalar metadata and legality flags carry over verbatim,
    so ``to_flat``/``from_flat`` round-trip losslessly.
    """

    __slots__ = (
        "name",
        "returns_value",
        "params",
        "labels",
        "blocks",
        "frame",
        "frame_size",
        "next_pseudo",
        "next_label",
        "reg_assigned",
        "sel_applied",
        "alloc_applied",
        "unrolled",
        "mem_facts",
        "_analyses",
        "_shape",
        "_scalar_slots",
        "_content_key",
    )

    def __init__(self, name: str, returns_value: bool = False):
        self.name = name
        self.returns_value = returns_value
        self.params: List[str] = []
        self.labels: List[int] = []
        self.blocks: List[List[int]] = []
        self.frame: Dict = {}
        self.frame_size = 0
        self.next_pseudo = 0
        self.next_label = 0
        self.reg_assigned = False
        self.sel_applied = False
        self.alloc_applied = False
        self.unrolled: set = set()
        self.mem_facts = None  # source-level facts; see Function.mem_facts
        # Lazily-populated flat analyses (repro.analysis.flat): clones
        # share the cache object (content-equal functions have equal
        # analyses), and every mutation commit point rebinds it via
        # invalidate_analyses() rather than clearing it, so a sibling's
        # view is never clobbered.
        self._analyses = None
        # The function's entry in the shape table of repro.analysis.flat
        # (CFG, dominators, loops); kept by edits that leave every
        # label and block terminator alone.
        self._shape = None
        # Memoized scalar_slot_offsets; reset where frame slots are
        # added (spill slots in opt.flat.assign).
        self._scalar_slots: Optional[frozenset] = None
        # Memoized content_key; dropped with the analyses on mutation
        # (the same invariant guards both: a phase that changes the
        # code must call invalidate_analyses before anyone reads it).
        self._content_key: Optional[Tuple] = None

    def invalidate_analyses(self, keep_shape: bool = False) -> None:
        """Drop the cached analyses after an edit.  *keep_shape* keeps
        the shape pointer: only for an edit that left the labels and
        each block's terminator kind and target as they were."""
        self._analyses = None
        self._content_key = None
        if not keep_shape:
            self._shape = None

    def clone(self) -> "FlatFunction":
        # bypass __init__: every slot is assigned below anyway, and
        # enumeration clones once per attempted edge
        other = FlatFunction.__new__(FlatFunction)
        other.name = self.name
        other.returns_value = self.returns_value
        other.params = self.params
        other.labels = list(self.labels)
        other.blocks = [list(block) for block in self.blocks]
        other.frame = self.frame  # copy-on-write: _spill copies first
        other.frame_size = self.frame_size
        other.next_pseudo = self.next_pseudo
        other.next_label = self.next_label
        other.reg_assigned = self.reg_assigned
        other.sel_applied = self.sel_applied
        other.alloc_applied = self.alloc_applied
        other.unrolled = self.unrolled  # never mutated in place on flat
        other.mem_facts = self.mem_facts  # plain data, never mutated
        other._analyses = self._analyses
        other._shape = self._shape
        other._scalar_slots = self._scalar_slots
        other._content_key = self._content_key
        return other

    # -- construction helpers mirroring Function ----------------------

    def new_rid(self) -> int:
        """Allocate a fresh pseudo register; returns its rid."""
        if self.reg_assigned:
            raise RuntimeError(
                "cannot create pseudo registers after register assignment"
            )
        rid = reg_id(Reg(self.next_pseudo, pseudo=True))
        self.next_pseudo += 1
        return rid

    def new_lid(self) -> int:
        lid = label_id(f"L{self.next_label}")
        self.next_label += 1
        return lid

    # -- queries -------------------------------------------------------

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def block_index(self, lid: int) -> int:
        return self.labels.index(lid)

    def scalar_slot_offsets(self) -> frozenset:
        offsets = self._scalar_slots
        if offsets is None:
            offsets = frozenset(
                slot.offset for slot in self.frame.values() if not slot.is_array
            )
            self._scalar_slots = offsets
        return offsets

    def content_key(self) -> Tuple:
        """Exact-content identity: labels plus interned block tuples.

        Pure-function results keyed by this (fingerprints, analyses)
        may be shared globally: equal keys mean equal code.
        """
        key = self._content_key
        if key is None:
            key = (
                tuple(self.labels),
                tuple(block_id(tuple(block)) for block in self.blocks),
            )
            self._content_key = key
        return key

    def __repr__(self):
        return f"<FlatFunction {self.name}: {len(self.blocks)} blocks>"


def to_flat(func: Function, into: Optional[FlatFunction] = None) -> FlatFunction:
    """The flat form of *func*; written over *into* when given."""
    flat = FlatFunction(func.name, func.returns_value) if into is None else into
    flat.params = list(func.params)
    flat.labels = [label_id(block.label) for block in func.blocks]
    flat.blocks = [
        [intern_inst(inst) for inst in block.insts] for block in func.blocks
    ]
    flat.frame = dict(func.frame)
    flat.frame_size = func.frame_size
    flat.next_pseudo = func.next_pseudo
    flat.next_label = func.next_label
    flat.reg_assigned = func.reg_assigned
    flat.sel_applied = func.sel_applied
    flat.alloc_applied = func.alloc_applied
    flat.unrolled = set(func.unrolled)
    flat.mem_facts = func.mem_facts
    flat.invalidate_analyses()
    flat._scalar_slots = None
    return flat


def from_flat(flat: FlatFunction, into: Optional[Function] = None) -> Function:
    """The object form of *flat*; written over *into* when given."""
    func = Function(flat.name, flat.returns_value) if into is None else into
    func.params = list(flat.params)
    insts = INST_OBJS
    labels = LABEL_STRS
    func.blocks = [
        BasicBlock(labels[lid], [insts[iid] for iid in block])
        for lid, block in zip(flat.labels, flat.blocks)
    ]
    func.frame = dict(flat.frame)
    func.frame_size = flat.frame_size
    func.next_pseudo = flat.next_pseudo
    func.next_label = flat.next_label
    func.reg_assigned = flat.reg_assigned
    func.sel_applied = flat.sel_applied
    func.alloc_applied = flat.alloc_applied
    func.unrolled = set(flat.unrolled)
    func.mem_facts = flat.mem_facts
    return func


# ----------------------------------------------------------------------
# Fingerprinting (bit-identical to core.fingerprint on the object IR)
# ----------------------------------------------------------------------

from repro.core.fingerprint import Fingerprint  # noqa: E402  (cycle-free)

_FP_CACHE: Dict[Tuple, Fingerprint] = {}
_FP_CACHE_MAX = 1 << 18


def flat_fingerprint(flat: FlatFunction, keep_text: bool = False) -> Fingerprint:
    """Remapped fingerprint of *flat*; same bytes as the object path.

    Results are cached by exact content: the fingerprint is a pure
    function of the code, and enumeration re-fingerprints identical
    candidate bodies every time independent phase orders converge —
    exactly the merges the DAG exists to catch.
    """
    key = flat.content_key()
    if not keep_text:
        cached = _FP_CACHE.get(key)
        if cached is not None:
            return cached

    reg_names: Dict[int, str] = {}
    label_names: Dict[int, str] = {}
    lines: List[str] = []
    append = lines.append
    templates = TEMPLATE
    num_insts = 0
    for lid, block in zip(flat.labels, flat.blocks):
        name = label_names.get(lid)
        if name is None:
            name = f"L{len(label_names) + 1:02d}"
            label_names[lid] = name
        append(name + ":")
        num_insts += len(block)
        for iid in block:
            parts: List[str] = []
            for part in templates[iid]:
                if type(part) is str:
                    parts.append(part)
                elif part >= 0:
                    rname = reg_names.get(part)
                    if rname is None:
                        rname = f"r[{len(reg_names) + 1}]"
                        reg_names[part] = rname
                    parts.append(rname)
                else:
                    lname = label_names.get(~part)
                    if lname is None:
                        lname = f"L{len(label_names) + 1:02d}"
                        label_names[~part] = lname
                    parts.append(lname)
            append("".join(parts))
    text = "\n".join(lines)
    data = text.encode("utf-8")

    cf_names: Dict[int, str] = {}
    cf_lines: List[str] = []
    for lid, block in zip(flat.labels, flat.blocks):
        name = cf_names.get(lid)
        if name is None:
            name = f"L{len(cf_names) + 1:02d}"
            cf_names[lid] = name
        cf_lines.append(name + ":")
        if block:
            last = block[-1]
            kind = KIND[last]
            if kind == K_JUMP or kind == K_CONDBR:
                target = TARGET_LID[last]
                tname = cf_names.get(target)
                if tname is None:
                    tname = f"L{len(cf_names) + 1:02d}"
                    cf_names[target] = tname
                if kind == K_JUMP:
                    cf_lines.append(f"j {tname}")
                else:
                    cf_lines.append(f"b{RELOP[last]} {tname}")
            elif kind == K_RET:
                cf_lines.append("ret")
    cf_data = "\n".join(cf_lines).encode("utf-8")

    result = Fingerprint(
        num_insts=num_insts,
        byte_sum=sum(data) & 0xFFFFFFFF,
        crc=crc32(data),
        cf_crc=crc32(cf_data),
        text=text if keep_text else None,
    )
    if not keep_text:
        if len(_FP_CACHE) >= _FP_CACHE_MAX:
            _FP_CACHE.clear()
        _FP_CACHE[key] = result
    return result


def reset_flat_caches() -> None:
    """Drop derived caches (fingerprints); intern pools stay valid."""
    _FP_CACHE.clear()


def flat_pool_stats() -> Dict[str, int]:
    """Sizes of the global intern pools (observability/diagnostics)."""
    return {
        "regs": len(REG_OBJS),
        "labels": len(LABEL_STRS),
        "instructions": len(INST_OBJS),
        "blocks": len(BLOCK_TUPLES),
        "fingerprints": len(_FP_CACHE),
    }
