"""Function-instance fingerprinting (paper section 4.2.1, Figure 5).

Two function instances are *identical* when their instructions match
after remapping registers and block labels in control-flow encounter
order.  Remapping catches instances that differ only because different
phase orders consumed registers or created blocks in a different order
(Figure 5 of the paper shows why this matters).

For each instance we keep three numbers — the instruction count, the
byte-sum of the rendered RTLs, and a CRC-32 over the same bytes — and
treat instances as identical when all three match.  A fourth component
fingerprints only the control transfers, which is what the paper's
"distinct control flows" column (CF of Table 3) counts.

The remapping is deliberately the paper's naive one: every register is
renumbered on first encounter (not a live-range remapping, which would
be unsafe at intermediate points because it changes register pressure).

Fingerprinting happens once per attempted edge, so the default path is
a *streaming* single pass: each rendered line is hashed into the
running CRCs and byte-sum as it is produced, never materializing the
joined text.  The stream is chunked with the same ``"\\n"`` separators
``"\\n".join(lines)`` would insert, so the result is bit-identical to
the render-then-hash text path (kept below for exact mode and the
remapping ablation, which need the text anyway, and as the oracle the
tests compare the streaming path against).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.core.crc import crc32
from repro.ir.function import Function
from repro.ir.instructions import CondBranch, Jump
from repro.ir.operands import Reg
from repro.ir.printer import format_instruction


class Fingerprint(NamedTuple):
    """Identity of a function instance."""

    num_insts: int
    byte_sum: int
    crc: int
    cf_crc: int  # control-flow-only fingerprint (Table 3's CF column)
    text: Optional[str] = None  # remapped rendering (exact mode only)

    @property
    def key(self):
        """The triple the paper compares (plus instruction count)."""
        return (self.num_insts, self.byte_sum, self.crc)


def remap_function_text(func: Function) -> str:
    """Render *func* with registers and labels renumbered in encounter
    order, scanning blocks from the top of the function (Figure 5d)."""
    reg_map: Dict[Reg, str] = {}
    label_map: Dict[str, str] = {}

    def reg_namer(reg: Reg) -> str:
        name = reg_map.get(reg)
        if name is None:
            name = f"r[{len(reg_map) + 1}]"
            reg_map[reg] = name
        return name

    def label_namer(label: str) -> str:
        name = label_map.get(label)
        if name is None:
            name = f"L{len(label_map) + 1:02d}"
            label_map[label] = name
        return name

    lines = []
    for block in func.blocks:
        lines.append(f"{label_namer(block.label)}:")
        for inst in block.insts:
            lines.append(format_instruction(inst, reg_namer, label_namer))
    return "\n".join(lines)


def control_flow_text(func: Function) -> str:
    """Render only the control structure: blocks and transfers."""
    label_map: Dict[str, str] = {}

    def label_namer(label: str) -> str:
        name = label_map.get(label)
        if name is None:
            name = f"L{len(label_map) + 1:02d}"
            label_map[label] = name
        return name

    lines = []
    for block in func.blocks:
        lines.append(f"{label_namer(block.label)}:")
        term = block.terminator()
        if isinstance(term, Jump):
            lines.append(f"j {label_namer(term.target)}")
        elif isinstance(term, CondBranch):
            lines.append(f"b{term.relop} {label_namer(term.target)}")
        elif term is not None:
            lines.append("ret")
    return "\n".join(lines)


def raw_function_text(func: Function) -> str:
    """Render *func* without any remapping (the ablation baseline:
    merging then only catches textually identical instances)."""
    lines = []
    for block in func.blocks:
        lines.append(f"{block.label}:")
        for inst in block.insts:
            lines.append(format_instruction(inst))
    return "\n".join(lines)


class _StreamHash:
    """Running (byte_sum, crc) over newline-joined lines.

    Feeding lines [a, b, c] hashes exactly the bytes of
    ``"\\n".join([a, b, c]).encode("utf-8")`` — CRC-32 chains
    (``crc32(y, crc32(x)) == crc32(x + y)``), so interleaving the
    separator keeps the digest bit-identical to the one-shot hash.
    """

    __slots__ = ("byte_sum", "crc", "_chunks")

    def __init__(self) -> None:
        self.byte_sum = 0
        self.crc = 0
        self._chunks: list = []

    def line(self, text: str) -> None:
        self._chunks.append(text)

    def flush_block(self) -> None:
        """Hash the lines buffered since the previous flush."""
        if not self._chunks:
            return
        if self.byte_sum or self.crc:
            data = ("\n" + "\n".join(self._chunks)).encode("utf-8")
        else:
            data = "\n".join(self._chunks).encode("utf-8")
        self.byte_sum += sum(data)
        self.crc = crc32(data, self.crc)
        self._chunks.clear()


def _streaming_fingerprint(func: Function) -> Fingerprint:
    """Single pass over blocks: render each line once, feed the main and
    control-flow hashes as the text is produced, count instructions."""
    reg_map: Dict[Reg, str] = {}
    label_map: Dict[str, str] = {}
    cf_label_map: Dict[str, str] = {}

    def reg_namer(reg: Reg) -> str:
        name = reg_map.get(reg)
        if name is None:
            name = f"r[{len(reg_map) + 1}]"
            reg_map[reg] = name
        return name

    def label_namer(label: str) -> str:
        name = label_map.get(label)
        if name is None:
            name = f"L{len(label_map) + 1:02d}"
            label_map[label] = name
        return name

    def cf_label_namer(label: str) -> str:
        name = cf_label_map.get(label)
        if name is None:
            name = f"L{len(cf_label_map) + 1:02d}"
            cf_label_map[label] = name
        return name

    main = _StreamHash()
    cf = _StreamHash()
    num_insts = 0
    for block in func.blocks:
        main.line(f"{label_namer(block.label)}:")
        for inst in block.insts:
            main.line(format_instruction(inst, reg_namer, label_namer))
        num_insts += len(block.insts)
        main.flush_block()

        cf.line(f"{cf_label_namer(block.label)}:")
        term = block.terminator()
        if isinstance(term, Jump):
            cf.line(f"j {cf_label_namer(term.target)}")
        elif isinstance(term, CondBranch):
            cf.line(f"b{term.relop} {cf_label_namer(term.target)}")
        elif term is not None:
            cf.line("ret")
        cf.flush_block()

    return Fingerprint(
        num_insts=num_insts,
        byte_sum=main.byte_sum & 0xFFFFFFFF,
        crc=main.crc,
        cf_crc=cf.crc,
        text=None,
    )


def _text_fingerprint(
    func: Function, keep_text: bool, remap: bool
) -> Fingerprint:
    text = remap_function_text(func) if remap else raw_function_text(func)
    data = text.encode("utf-8")
    cf_data = control_flow_text(func).encode("utf-8")
    return Fingerprint(
        num_insts=func.num_instructions(),
        byte_sum=sum(data) & 0xFFFFFFFF,
        crc=crc32(data),
        cf_crc=crc32(cf_data),
        text=text if keep_text else None,
    )


def fingerprint_function(
    func: Function, keep_text: bool = False, remap: bool = True
) -> Fingerprint:
    """Compute the identity fingerprint of a function instance.

    ``remap=False`` skips the register/label renumbering — the paper's
    section 4.2.1 argues (and the remapping ablation bench shows) that
    this misses merges and inflates the space.  Exact mode
    (``keep_text=True``) needs the materialized text for collision
    checks, so it takes the text path; everything else streams.
    """
    if keep_text or not remap:
        return _text_fingerprint(func, keep_text, remap)
    return _streaming_fingerprint(func)
