"""The flat IR's losslessness contract: ``from_flat(to_flat(f)) == f``.

The phases run on the flat IR while the verifiers, the VM and the
printer read object views, so conversion must lose nothing.  For every
seed function and for sanitizer-clean randomly phase-mutated variants,
converting to the packed array-of-tables form and back reproduces the
original bit-for-bit — same printed RTL, same fingerprint, same scalar
metadata — and ``flat_fingerprint`` agrees with the object path,
including the remapped text exact mode compares.  What the phases
compute is pinned by the goldens (``tests/core/test_goldens.py``).
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fingerprint import fingerprint_function
from repro.ir.flat import flat_fingerprint, from_flat, to_flat
from repro.ir.function import Function
from repro.ir.instructions import Assign, Return
from repro.ir.operands import Const, Reg
from repro.ir.printer import format_function
from repro.opt import PHASE_IDS, apply_phase, implicit_cleanup, phase_by_id
from repro.programs import PROGRAMS, compile_benchmark
from repro.search.harness import SEED_FUNCTIONS
from repro.staticanalysis import sanitize_function

from tests.conftest import (
    GCD_SRC,
    MAXI_SRC,
    SQUARE_SRC,
    SUM_ARRAY_SRC,
    compile_fn,
)

#: the scalar surface to_flat/from_flat must carry over verbatim
_METADATA = (
    "name",
    "returns_value",
    "params",
    "frame",
    "frame_size",
    "next_pseudo",
    "next_label",
    "reg_assigned",
    "sel_applied",
    "alloc_applied",
    "unrolled",
)


def assert_roundtrip_identity(func):
    back = from_flat(to_flat(func))
    assert format_function(back) == format_function(func)
    assert fingerprint_function(back) == fingerprint_function(func)
    for field in _METADATA:
        assert getattr(back, field) == getattr(func, field), field


def seed_functions():
    for seed in SEED_FUNCTIONS:
        func = compile_benchmark(seed.benchmark).functions[seed.function]
        implicit_cleanup(func)
        yield seed.label, func


class TestRoundTrip:
    def test_seed_functions(self):
        for _label, func in seed_functions():
            assert_roundtrip_identity(func)

    def test_small_functions(self):
        for source, name in (
            (SQUARE_SRC, "square"),
            (MAXI_SRC, "maxi"),
            (GCD_SRC, "gcd"),
            (SUM_ARRAY_SRC, "sum_array"),
        ):
            assert_roundtrip_identity(compile_fn(source, name))

    def test_flat_fingerprint_matches_object_path(self):
        for _label, func in seed_functions():
            assert flat_fingerprint(to_flat(func)) == fingerprint_function(
                func
            )
        # exact mode compares these texts across the two paths
        for name in PROGRAMS:
            for func in compile_benchmark(name).functions.values():
                implicit_cleanup(func)
                assert (
                    flat_fingerprint(to_flat(func), keep_text=True).text
                    == fingerprint_function(func, keep_text=True).text
                ), f"{name}.{func.name}"

    def test_float_zeros_keep_their_sign(self):
        # 0.0 == -0.0 in Python, but interning must keep the two
        # constants apart whichever of them was interned first
        def returning(value):
            func = Function("f", returns_value=True)
            func.add_block("L0").insts.extend(
                [Assign(Reg(0, pseudo=False), Const(value)), Return()]
            )
            return func

        positive, negative = returning(0.0), returning(-0.0)
        positive_fp = flat_fingerprint(to_flat(positive))
        back = from_flat(to_flat(negative))
        assert format_function(back) == format_function(negative)
        assert math.copysign(1.0, back.blocks[0].insts[0].src.value) == -1.0
        assert flat_fingerprint(to_flat(negative)) != positive_fp

    def test_roundtrip_is_a_fresh_function(self):
        # from_flat builds new block lists: mutating the round-tripped
        # copy must never leak back into the original
        func = compile_fn(GCD_SRC, "gcd")
        before = format_function(func)
        back = from_flat(to_flat(func))
        back.blocks[0].insts.pop()
        assert format_function(func) == before


@st.composite
def phase_sequences(draw):
    return "".join(
        draw(
            st.lists(
                st.sampled_from(PHASE_IDS), min_size=0, max_size=10
            )
        )
    )


class TestMutatedRoundTrip:
    """Round-trip identity across the whole reachable IR zoo.

    Random phase prefixes drive functions through every representation
    milestone — pre/post instruction selection, register assignment,
    spilled frames, unrolled loops — and each sanitizer-clean result
    must still round-trip bit-for-bit.
    """

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sequence=phase_sequences(), pick=st.integers(0, 3))
    def test_phase_mutated_variants(self, sequence, pick):
        source, name = [
            (SQUARE_SRC, "square"),
            (MAXI_SRC, "maxi"),
            (GCD_SRC, "gcd"),
            (SUM_ARRAY_SRC, "sum_array"),
        ][pick]
        func = compile_fn(source, name)
        for phase_id in sequence:
            apply_phase(func, phase_by_id(phase_id))
        assert sanitize_function(func, mode="fast") == []
        assert_roundtrip_identity(func)

    @settings(max_examples=10, deadline=None)
    @given(sequence=phase_sequences())
    def test_mutated_seed_function(self, sequence):
        func = compile_benchmark("sha").functions["rol"]
        implicit_cleanup(func)
        for phase_id in sequence:
            apply_phase(func, phase_by_id(phase_id))
        assert sanitize_function(func, mode="fast") == []
        assert_roundtrip_identity(func)
