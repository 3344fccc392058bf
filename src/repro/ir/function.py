"""Functions, basic blocks, and programs.

Blocks and functions are mutable containers of immutable instructions.
Positional block order is semantic: a block whose last instruction is
not a control transfer falls through to the next positional block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction, Return
from repro.ir.operands import Reg


class BasicBlock:
    """A labeled basic block: a straight-line run of instructions."""

    __slots__ = ("label", "insts")

    def __init__(self, label: str, insts: Optional[List[Instruction]] = None):
        self.label = label
        self.insts = list(insts) if insts is not None else []

    def terminator(self) -> Optional[Instruction]:
        """The control transfer ending this block, or None (fallthrough)."""
        if self.insts and self.insts[-1].is_transfer:
            return self.insts[-1]
        return None

    def body(self) -> List[Instruction]:
        """The instructions excluding the trailing control transfer."""
        if self.insts and self.insts[-1].is_transfer:
            return self.insts[:-1]
        return list(self.insts)

    def clone(self) -> "BasicBlock":
        return BasicBlock(self.label, list(self.insts))

    def __repr__(self):
        return f"<BasicBlock {self.label}: {len(self.insts)} insts>"


class LocalSlot:
    """A stack-frame slot for a local scalar, array, or parameter."""

    __slots__ = ("name", "offset", "words", "typ", "is_array", "is_param")

    def __init__(
        self,
        name: str,
        offset: int,
        words: int,
        typ: str,
        is_array: bool,
        is_param: bool = False,
    ):
        self.name = name
        self.offset = offset
        self.words = words
        self.typ = typ
        self.is_array = is_array
        self.is_param = is_param

    def __repr__(self):
        kind = "array" if self.is_array else "scalar"
        return f"<LocalSlot {self.name} fp+{self.offset} {self.typ} {kind}>"


class Function:
    """A function in RTL form plus its compilation-state flags.

    The three booleans record the legality state the enumeration
    tracks per node (paper section 3):

    - ``reg_assigned`` — the compulsory register assignment has run;
      evaluation order determination (o) is illegal afterwards.
    - ``sel_applied``  — instruction selection (s) has been active;
      register allocation (k) is illegal until then.
    - ``alloc_applied`` — register allocation (k) has been active;
      loop unrolling (g) and loop transformations (l) are illegal
      until then.
    """

    def __init__(self, name: str, returns_value: bool = False):
        self.name = name
        self.blocks: List[BasicBlock] = []
        self.returns_value = returns_value
        self.params: List[str] = []
        self.frame: Dict[str, LocalSlot] = {}
        self.frame_size = 0
        self.next_pseudo = 0
        self.next_label = 0
        self.reg_assigned = False
        self.sel_applied = False
        self.alloc_applied = False
        # Source-level memory facts from the frontend (None when the
        # function was built by hand): {"frame_private": [offsets]} —
        # slots whose address provably never escapes.  Consumed by the
        # translation-validation alias oracle.
        self.mem_facts = None
        # Headers of loops already unrolled (loop unrolling applies to
        # each loop at most once, as VPO's does).
        self.unrolled: set = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def new_reg(self) -> Reg:
        """Allocate a fresh pseudo register (pre register assignment)."""
        if self.reg_assigned:
            raise RuntimeError(
                "cannot create pseudo registers after register assignment"
            )
        reg = Reg(self.next_pseudo, pseudo=True)
        self.next_pseudo += 1
        return reg

    def new_label(self) -> str:
        label = f"L{self.next_label}"
        self.next_label += 1
        return label

    def add_block(self, label: Optional[str] = None) -> BasicBlock:
        block = BasicBlock(label if label is not None else self.new_label())
        self.blocks.append(block)
        return block

    def add_local(
        self, name: str, words: int, typ: str, is_array: bool, is_param: bool = False
    ) -> LocalSlot:
        if name in self.frame:
            raise ValueError(f"duplicate local {name!r} in {self.name}")
        slot = LocalSlot(name, self.frame_size, words, typ, is_array, is_param)
        self.frame[name] = slot
        self.frame_size += words * 4
        return slot

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(f"no block {label!r} in {self.name}")

    def block_map(self) -> Dict[str, BasicBlock]:
        return {block.label: block for block in self.blocks}

    def block_index(self, label: str) -> int:
        for i, block in enumerate(self.blocks):
            if block.label == label:
                return i
        raise KeyError(f"no block {label!r} in {self.name}")

    def instructions(self):
        """Iterate over every instruction in positional order."""
        for block in self.blocks:
            yield from block.insts

    def num_instructions(self) -> int:
        return sum(len(block.insts) for block in self.blocks)

    def scalar_slots(self) -> List[LocalSlot]:
        """Frame slots eligible for register allocation (non-array)."""
        return [slot for slot in self.frame.values() if not slot.is_array]

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def clone(self) -> "Function":
        """Deep-copy the block structure; instructions are shared."""
        other = Function(self.name, self.returns_value)
        other.blocks = [block.clone() for block in self.blocks]
        other.params = list(self.params)
        other.frame = dict(self.frame)  # slots are never mutated
        other.frame_size = self.frame_size
        other.next_pseudo = self.next_pseudo
        other.next_label = self.next_label
        other.reg_assigned = self.reg_assigned
        other.sel_applied = self.sel_applied
        other.alloc_applied = self.alloc_applied
        other.unrolled = set(self.unrolled)
        other.mem_facts = dict(self.mem_facts) if self.mem_facts else self.mem_facts
        return other

    def __repr__(self):
        return f"<Function {self.name}: {len(self.blocks)} blocks>"


class GlobalVar:
    """A global scalar or array, laid out in the program data segment."""

    __slots__ = ("name", "words", "typ", "init", "is_array", "address")

    def __init__(
        self,
        name: str,
        words: int,
        typ: str,
        init: Optional[Sequence] = None,
        is_array: bool = False,
    ):
        self.name = name
        self.words = words
        self.typ = typ
        self.init = list(init) if init is not None else []
        self.is_array = is_array
        self.address = 0  # assigned by Program.layout()

    def __repr__(self):
        return f"<GlobalVar {self.name} @{self.address} ({self.words} words)>"


DATA_SEGMENT_BASE = 0x10000


class Program:
    """A compiled program: globals plus a set of functions."""

    def __init__(self):
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, Function] = {}

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        self._layout()
        return var

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    def _layout(self):
        address = DATA_SEGMENT_BASE
        for var in self.globals.values():
            var.address = address
            address += var.words * 4

    def __repr__(self):
        return (
            f"<Program {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
