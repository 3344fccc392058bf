"""Per-function search space statistics (paper Table 3)."""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.flat import find_flat_loops
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    enumerate_space,
)
from repro.ir.flat import to_flat
from repro.ir.function import Function
from repro.ir.instructions import CondBranch, Jump


class FunctionSpaceStats:
    """One row of Table 3."""

    __slots__ = (
        "name",
        "insts",
        "blocks",
        "branches",
        "loops",
        "fn_instances",
        "attempted_phases",
        "max_seq_len",
        "control_flows",
        "leaves",
        "codesize_max",
        "codesize_min",
        "completed",
        "elapsed",
        "result",
    )

    def __init__(self, name, insts, blocks, branches, loops, result: EnumerationResult):
        self.name = name
        self.insts = insts
        self.blocks = blocks
        self.branches = branches
        self.loops = loops
        self.result = result
        dag = result.dag
        self.fn_instances = len(dag)
        self.attempted_phases = result.attempted_phases
        self.max_seq_len = dag.depth()
        self.control_flows = dag.distinct_control_flows()
        self.leaves = len(dag.leaves())
        self.codesize_max = dag.max_codesize()
        self.codesize_min = dag.min_codesize()
        self.completed = result.completed
        self.elapsed = result.elapsed

    @property
    def codesize_diff_percent(self) -> Optional[float]:
        """Max-vs-min code size gap over leaf instances, in percent."""
        if not self.codesize_min:
            return None
        return 100.0 * (self.codesize_max - self.codesize_min) / self.codesize_min

    def row(self) -> List[str]:
        if not self.completed:
            return [
                self.name,
                str(self.insts),
                str(self.blocks),
                str(self.branches),
                str(self.loops),
            ] + ["N/A"] * 8
        diff = self.codesize_diff_percent
        return [
            self.name,
            str(self.insts),
            str(self.blocks),
            str(self.branches),
            str(self.loops),
            str(self.fn_instances),
            str(self.attempted_phases),
            str(self.max_seq_len),
            str(self.control_flows),
            str(self.leaves),
            str(self.codesize_max),
            str(self.codesize_min),
            f"{diff:.1f}" if diff is not None else "N/A",
        ]

    HEADER = [
        "Function",
        "Insts",
        "Blk",
        "Brch",
        "Loop",
        "FnInst",
        "Attempt",
        "Len",
        "CF",
        "Leaf",
        "Max",
        "Min",
        "%Diff",
    ]

    def __repr__(self):
        return f"<FunctionSpaceStats {self.name}: {self.fn_instances} instances>"


def static_function_facts(func: Function):
    """(insts, blocks, branches, loops) of the unoptimized function."""
    branches = sum(
        1
        for inst in func.instructions()
        if isinstance(inst, (Jump, CondBranch))
    )
    return (
        func.num_instructions(),
        len(func.blocks),
        branches,
        len(find_flat_loops(to_flat(func))),
    )


def collect_function_stats(
    func: Function, config: Optional[EnumerationConfig] = None
) -> FunctionSpaceStats:
    """Enumerate *func*'s space and assemble its Table 3 row."""
    insts, blocks, branches, loops = static_function_facts(func)
    result = enumerate_space(func, config)
    return FunctionSpaceStats(func.name, insts, blocks, branches, loops, result)


def format_stats_table(rows: List[FunctionSpaceStats]) -> str:
    """Render rows in the layout of Table 3."""
    table = [FunctionSpaceStats.HEADER] + [row.row() for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    lines = []
    for line in table:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)
