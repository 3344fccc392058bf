"""Property-based tests over randomly generated mini-C programs.

The central invariant of the whole system — the one the paper's search
relies on — is that *every* phase ordering preserves semantics.  These
tests generate random programs and random phase orderings and check
that invariant, plus structural invariants of fingerprinting and
enumeration.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import fingerprint_function, remap_function_text
from repro.frontend import compile_source
from repro.opt import PHASE_IDS, apply_phase, implicit_cleanup, phase_by_id
from repro.vm import Interpreter

# ----------------------------------------------------------------------
# Random mini-C program generation
# ----------------------------------------------------------------------

_VARS = ["a", "b", "c"]
_PARAMS = ["x", "y"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(-100, 100)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        return draw(st.sampled_from(_PARAMS))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def conditions(draw):
    relop = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    left = draw(expressions(depth=1))
    right = draw(expressions(depth=1))
    return f"({left} {relop} {right})"


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(0, 4 if depth < 2 else 1))
    if kind == 0:
        var = draw(st.sampled_from(_VARS))
        return f"{var} = {draw(expressions())};"
    if kind == 1:
        var = draw(st.sampled_from(_VARS))
        op = draw(st.sampled_from(["+=", "-=", "*="]))
        return f"{var} {op} {draw(expressions(depth=1))};"
    if kind == 2:
        cond = draw(conditions())
        then = draw(statements(depth=depth + 1))
        if draw(st.booleans()):
            other = draw(statements(depth=depth + 1))
            return f"if {cond} {{ {then} }} else {{ {other} }}"
        return f"if {cond} {{ {then} }}"
    if kind == 3:
        selector = draw(st.sampled_from(_VARS + _PARAMS))
        arms = []
        values = draw(
            st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)
        )
        for value in values:
            body = draw(statements(depth=depth + 1))
            terminator = "break;" if draw(st.booleans()) else ""
            arms.append(f"case {value}: {body} {terminator}")
        if draw(st.booleans()):
            arms.append(f"default: {draw(statements(depth=depth + 1))}")
        return f"switch ({selector} & 3) {{ {' '.join(arms)} }}"
    # bounded counting loop (always terminates); nested loops get their
    # own counter variable so nesting cannot reset an outer counter
    counter = f"i{depth}"
    bound = draw(st.integers(1, 8))
    body = draw(statements(depth=depth + 1))
    return f"for ({counter} = 0; {counter} < {bound}; {counter}++) {{ {body} }}"


@st.composite
def programs(draw):
    body = "\n    ".join(
        draw(st.lists(statements(), min_size=1, max_size=4))
    )
    return (
        "int f(int x, int y) {\n"
        "    int a = x;\n"
        "    int b = y;\n"
        "    int c = 1;\n"
        "    int i0;\n"
        "    int i1;\n"
        "    int i2;\n"
        f"    {body}\n"
        "    return a + b * 3 + c * 7;\n"
        "}\n"
    )


phase_sequences = st.lists(st.sampled_from(PHASE_IDS), min_size=1, max_size=12)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), phase_sequences, st.integers(-50, 50), st.integers(-50, 50))
def test_any_phase_ordering_preserves_semantics(source, sequence, x, y):
    baseline = compile_source(source)
    expected = Interpreter(baseline).run("f", (x, y)).value

    optimized = compile_source(source)
    func = optimized.function("f")
    for phase_id in sequence:
        apply_phase(func, phase_by_id(phase_id))
    assert Interpreter(optimized).run("f", (x, y)).value == expected


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), phase_sequences)
def test_active_phases_are_never_consecutively_active(source, sequence):
    """No phase can be successfully applied twice in a row (section 4.1)."""
    program = compile_source(source)
    func = program.function("f")
    for phase_id in sequence:
        if apply_phase(func, phase_by_id(phase_id)):
            assert not apply_phase(func, phase_by_id(phase_id)), phase_id


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), phase_sequences)
def test_fingerprint_detects_identity_after_any_sequence(source, sequence):
    """Applying the same sequence twice gives identical fingerprints."""
    keys = []
    for _ in range(2):
        program = compile_source(source)
        func = program.function("f")
        implicit_cleanup(func)
        for phase_id in sequence:
            apply_phase(func, phase_by_id(phase_id))
        keys.append(fingerprint_function(func).key)
    assert keys[0] == keys[1]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_fingerprint_invariant_under_register_renaming(source):
    """A consistent register renaming never changes the fingerprint
    (the Figure 5 property, for arbitrary renamings)."""
    from repro.analysis.defuse import rewrite_registers
    from repro.ir.operands import Reg
    from repro.opt.flat.assign import flat_assign_registers
    from repro.machine.target import DEFAULT_TARGET
    from tests.conftest import on_object

    assign_registers = on_object(flat_assign_registers)

    program = compile_source(source)
    func = program.function("f")
    implicit_cleanup(func)
    assign_registers(func, DEFAULT_TARGET)

    used = sorted(
        {
            reg.index
            for inst in func.instructions()
            for reg in list(inst.defs()) + list(inst.uses())
            if reg.index < 13
        }
    )
    if not used:
        return
    # rotate the used registers (a bijection)
    rotated = used[1:] + used[:1]
    mapping = {
        Reg(old, pseudo=False): Reg(new, pseudo=False)
        for old, new in zip(used, rotated)
    }
    renamed = func.clone()
    for block in renamed.blocks:
        block.insts = [rewrite_registers(inst, mapping) for inst in block.insts]
    assert fingerprint_function(func).key == fingerprint_function(renamed).key


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_enumeration_invariants_on_random_programs(source):
    """Bounded enumeration keeps its structural invariants on any input."""
    program = compile_source(source)
    func = program.function("f")
    implicit_cleanup(func)
    result = enumerate_space(
        func, EnumerationConfig(max_nodes=200, max_levels=6, exact=True)
    )
    dag = result.dag
    for node in dag.nodes.values():
        if node.expanded:
            assert not (set(node.active) & node.dormant)
            assert set(node.active) | node.dormant == set(PHASE_IDS)
        for child_id in node.active.values():
            assert dag.nodes[child_id].level <= node.level + 1
    if result.completed:
        weights = dag.weights()
        assert weights[dag.root_id] >= 1
