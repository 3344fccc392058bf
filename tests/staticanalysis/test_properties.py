"""Property-based tests for the sanitizer and translation validator.

Two invariants the static-analysis layer stakes its soundness on:

- the sanitizer never cries wolf: a legally compiled function is
  finding-free, and stays finding-free after *any* legal phase
  application — whatever the phase, whatever the order;
- the translation validator never certifies a lie: an edge the VM can
  refute (the two sides compute different values on some input) is
  never classified ``proved``.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.frontend import compile_source
from repro.ir.flat import to_flat
from repro.ir.function import Program
from repro.ir.instructions import Assign
from repro.ir.operands import Const
from repro.machine.target import DEFAULT_TARGET
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.staticanalysis import FULL, sanitize_function
from repro.staticanalysis.transval import PROVED, REFUTED, VERDICTS, TranslationValidator
from repro.vm import Interpreter
from tests.test_properties import phase_sequences, programs

_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _compiled(source):
    program = compile_source(source)
    func = program.function("f")
    implicit_cleanup(func)
    return program, func


def _spliced(program, func):
    spliced = Program()
    spliced.globals = program.globals
    spliced.functions = dict(program.functions)
    spliced.functions["f"] = func
    return spliced


def _value(program, func, vector):
    return Interpreter(_spliced(program, func)).run("f", vector).value


@settings(max_examples=25, **_SETTINGS)
@given(programs(), phase_sequences)
def test_sanitizer_clean_across_legal_phase_applications(source, sequence):
    """No legal phase application may introduce a sanitizer finding."""
    program, func = _compiled(source)
    assert (
        sanitize_function(func, DEFAULT_TARGET, program=program, mode=FULL)
        == []
    )
    for phase_id in sequence:
        apply_phase(func, phase_by_id(phase_id))
        findings = sanitize_function(
            func, DEFAULT_TARGET, program=program, mode=FULL
        )
        assert findings == [], (phase_id, findings)


@settings(max_examples=15, **_SETTINGS)
@given(programs(), phase_sequences, st.integers(-20, 20), st.integers(-20, 20))
@example(
    # Regression: register allocation used to let two frame slots share
    # a register across a *dead* store (the interference analysis only
    # saw live-after slots), so the materialized dead store clobbered
    # the other slot's live value — a miscompilation the validator
    # correctly refuted.  See RegisterAllocation._interference.
    source="int f(int x, int y) {\n    int a = x;\n    int b = y;\n"
    "    int c = 1;\n    int i0;\n    int i1;\n    int i2;\n    b = x;\n"
    "    return a + b * 3 + c * 7;\n}\n",
    sequence=["s", "k"],
    x=2,
    y=3,
).via("discovered failure")
def test_proved_edges_agree_with_vm(source, sequence, x, y):
    """A ``proved`` verdict is a promise: VM co-execution must agree.

    Legal edges must also never be refuted — the phases preserve
    semantics, and the validator may not claim otherwise.
    """
    program, func = _compiled(source)
    validator = TranslationValidator(program, "f")
    for phase_id in sequence:
        before = func.clone()
        if not apply_phase(func, phase_by_id(phase_id)):
            continue
        verdict = validator.classify(to_flat(before), to_flat(func))
        assert verdict.status in VERDICTS
        assert verdict.status != REFUTED, (phase_id, verdict)
        if verdict.status == PROVED:
            assert _value(program, before, (x, y)) == _value(
                program, func, (x, y)
            ), (phase_id, verdict)


@settings(max_examples=25, **_SETTINGS)
@given(programs(), st.integers(0, 10**6), st.integers(1, 97))
def test_never_proved_on_vm_refuted_edge(source, pick, delta):
    """Corrupt one constant; if the VM can tell the difference, the
    validator must not classify the edge ``proved``."""
    program, func = _compiled(source)
    after = func.clone()
    sites = [
        (block, index)
        for block in after.blocks
        for index, inst in enumerate(block.insts)
        if isinstance(inst, Assign) and isinstance(inst.src, Const)
    ]
    if not sites:
        return  # nothing to corrupt in this draw
    block, index = sites[pick % len(sites)]
    inst = block.insts[index]
    block.insts[index] = Assign(inst.dst, Const(inst.src.value + delta))

    vectors = ((0, 0), (1, 1), (2, 3), (-5, 7))
    refuted_by_vm = any(
        _value(program, func, vector) != _value(program, after, vector)
        for vector in vectors
    )
    verdict = TranslationValidator(program, "f").classify(
        to_flat(func), to_flat(after)
    )
    if refuted_by_vm:
        assert verdict.status != PROVED, verdict
