"""Unit tests for dominator computation (over flat block indices)."""

from repro.analysis.flat import compute_flat_dominators
from repro.ir.flat import to_flat
from repro.ir.function import Function
from repro.ir.instructions import Compare, CondBranch, Jump, Return
from repro.ir.operands import Const, Reg


def build(edges_spec):
    """Build a function from {label: terminator_spec} in given order.

    terminator_spec: ("jump", target) | ("branch", target) | ("ret",)
    A branch falls through to the next positional block.
    """
    func = Function("f")
    labels = list(edges_spec)
    for label in labels:
        func.add_block(label)
    for label, spec in edges_spec.items():
        block = func.block(label)
        if spec[0] == "jump":
            block.insts.append(Jump(spec[1]))
        elif spec[0] == "branch":
            block.insts.append(Compare(Reg(1), Const(0)))
            block.insts.append(CondBranch("lt", spec[1]))
        else:
            block.insts.append(Return())
    return func


def dominators(func):
    """The flat dominator tree of *func* and its label -> index map."""
    index = {block.label: i for i, block in enumerate(func.blocks)}
    return compute_flat_dominators(to_flat(func)), index


class TestDominators:
    def test_straight_line(self):
        func = build({"a": ("jump", "b"), "b": ("jump", "c"), "c": ("ret",)})
        dom, ix = dominators(func)
        assert dom.idom[ix["a"]] is None
        assert dom.idom[ix["b"]] == ix["a"]
        assert dom.idom[ix["c"]] == ix["b"]

    def test_diamond(self):
        func = build(
            {
                "entry": ("branch", "right"),
                "left": ("jump", "join"),
                "right": ("jump", "join"),
                "join": ("ret",),
            }
        )
        dom, ix = dominators(func)
        assert dom.idom[ix["left"]] == ix["entry"]
        assert dom.idom[ix["right"]] == ix["entry"]
        assert dom.idom[ix["join"]] == ix["entry"]
        assert dom.dominates(ix["entry"], ix["join"])
        assert not dom.dominates(ix["left"], ix["join"])
        assert dom.dominates(ix["join"], ix["join"])
        assert not dom.strictly_dominates(ix["join"], ix["join"])

    def test_loop(self):
        func = build(
            {
                "entry": ("jump", "head"),
                "head": ("branch", "exit"),
                "body": ("jump", "head"),
                "exit": ("ret",),
            }
        )
        dom, ix = dominators(func)
        assert dom.idom[ix["head"]] == ix["entry"]
        assert dom.idom[ix["body"]] == ix["head"]
        assert dom.idom[ix["exit"]] == ix["head"]
        assert dom.dominates(ix["head"], ix["body"])

    def test_unreachable_blocks_excluded(self):
        func = build(
            {"entry": ("jump", "exit"), "island": ("jump", "exit"), "exit": ("ret",)}
        )
        dom, ix = dominators(func)
        assert ix["island"] not in dom.idom
        assert dom.idom[ix["exit"]] == ix["entry"]

    def test_depths(self):
        func = build(
            {
                "entry": ("branch", "c"),
                "b": ("jump", "d"),
                "c": ("jump", "d"),
                "d": ("ret",),
            }
        )
        dom, ix = dominators(func)
        assert dom.depth(ix["entry"]) == 0
        assert dom.depth(ix["b"]) == 1
        assert dom.depth(ix["d"]) == 1

    def test_children(self):
        func = build(
            {
                "entry": ("branch", "c"),
                "b": ("jump", "d"),
                "c": ("jump", "d"),
                "d": ("ret",),
            }
        )
        dom, ix = dominators(func)
        children = [block for block, parent in dom.idom.items() if parent == ix["entry"]]
        assert sorted(children) == [ix["b"], ix["c"], ix["d"]]
