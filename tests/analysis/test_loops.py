"""Unit tests for natural loop detection."""

from repro.analysis.flat import build_flat_cfg, find_flat_loops
from repro.analysis.loops import find_natural_loops
from repro.ir.flat import to_flat
from tests.analysis.test_dominators import build
from tests.conftest import compile_fn


class TestFindNaturalLoops:
    def test_no_loops(self):
        func = build({"a": ("jump", "b"), "b": ("ret",)})
        assert find_natural_loops(func) == []

    def test_simple_while_loop(self):
        func = build(
            {
                "entry": ("jump", "head"),
                "head": ("branch", "exit"),
                "body": ("jump", "head"),
                "exit": ("ret",),
            }
        )
        (loop,) = find_natural_loops(func)
        assert loop.header == "head"
        assert loop.body == {"head", "body"}
        assert loop.latches == {"body"}
        # the flat loop's exit edges: exiting block "head" (1) to "exit" (3)
        flat = to_flat(func)
        (flat_loop,) = find_flat_loops(flat)
        assert flat_loop.header == 1
        assert flat_loop.exit_edges(build_flat_cfg(flat)) == [(1, 3)]

    def test_nested_loops_sorted_innermost_first(self):
        func = build(
            {
                "entry": ("jump", "outer"),
                "outer": ("branch", "exit"),
                "inner": ("branch", "outer_latch"),
                "inner_body": ("jump", "inner"),
                "outer_latch": ("jump", "outer"),
                "exit": ("ret",),
            }
        )
        loops = find_natural_loops(func)
        assert len(loops) == 2
        assert loops[0].header == "inner"
        assert loops[0].depth == 2
        assert loops[1].header == "outer"
        assert loops[1].depth == 1
        assert loops[0].body < loops[1].body

    def test_two_latches_share_one_loop(self):
        func = build(
            {
                "entry": ("jump", "head"),
                "head": ("branch", "exit"),
                "a": ("branch", "latch2"),
                "latch1": ("jump", "head"),
                "latch2": ("jump", "head"),
                "exit": ("ret",),
            }
        )
        (loop,) = find_natural_loops(func)
        assert loop.latches == {"latch1", "latch2"}

    def test_loop_count_on_real_function(self, sum_array_func):
        assert len(find_natural_loops(sum_array_func)) == 1

    def test_self_loop(self):
        func = build(
            {"entry": ("jump", "head"), "head": ("branch", "head"), "exit": ("ret",)}
        )
        (loop,) = find_natural_loops(func)
        assert loop.header == "head"
        assert loop.body == {"head"}
        assert loop.latches == {"head"}
