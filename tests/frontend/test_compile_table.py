"""The compiled-program table behind ``compile_source``.

Each source text is compiled once per process; every call hands out a
fresh copy, so a caller that mutates its program never changes what the
next caller gets.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchCompiler
from repro.frontend import codegen
from repro.frontend import sema as sema_module
from repro.frontend.errors import CompileError
from repro.frontend.fuzz import fuzz_source
from repro.ir.printer import format_function
from repro.programs import PROGRAMS
from repro.service.executor import run_spec

from tests.frontend.test_rtl_goldens import program_entry


@pytest.fixture
def table(monkeypatch):
    """An empty table for one test."""
    compiled = {}
    monkeypatch.setattr(codegen, "_COMPILED", compiled)
    return compiled


@pytest.fixture
def frontend_runs(monkeypatch):
    """Calls of each frontend stage the compiler makes."""
    runs = {"parse": 0, "sema": 0, "codegen": 0}

    def counted(stage, real):
        def wrapper(*args, **kwargs):
            runs[stage] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(codegen, "parse", counted("parse", codegen.parse))
    monkeypatch.setattr(sema_module, "analyze", counted("sema", sema_module.analyze))
    monkeypatch.setattr(
        codegen.CodeGenerator,
        "generate",
        counted("codegen", codegen.CodeGenerator.generate),
    )
    return runs


def test_each_compile_is_a_distinct_program_with_equal_rtl(table, frontend_runs):
    source = PROGRAMS["jpeg"].source
    first = codegen.compile_source(source)
    second = codegen.compile_source(source)
    assert frontend_runs == {"parse": 1, "sema": 1, "codegen": 1}
    assert first is not second
    assert first.globals is not second.globals
    assert first.functions.keys() == second.functions.keys()
    for name, func in first.functions.items():
        other = second.functions[name]
        assert func is not other
        assert all(a is not b for a, b in zip(func.blocks, other.blocks))
        assert format_function(func) == format_function(other)
    assert program_entry(first) == program_entry(second)


def test_mutating_a_program_leaves_the_next_compile_cold_equal(table):
    source = PROGRAMS["bitcount"].source
    cold = program_entry(codegen.compile_source(source))
    program = codegen.compile_source(source)
    for func in program.functions.values():
        BatchCompiler().compile(func)
    assert program_entry(program) != cold
    assert program_entry(codegen.compile_source(source)) == cold
    table.clear()
    assert program_entry(codegen.compile_source(source)) == cold


def test_a_failing_source_raises_every_time(table, frontend_runs):
    source = "int f(int n) {\n    return m;\n}\n"
    errors = []
    for _ in range(2):
        with pytest.raises(CompileError) as excinfo:
            codegen.compile_source(source)
        errors.append(excinfo.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])
    assert [d.code for d in errors[0].diagnostics] == [
        d.code for d in errors[1].diagnostics
    ]
    assert errors[0].diagnostics
    assert frontend_runs["sema"] == 2
    assert table == {}


def test_table_stays_within_its_bound(table, monkeypatch):
    bound = 4
    monkeypatch.setattr(codegen, "_COMPILED_MAX", bound)
    sources = [fuzz_source(0, index) for index in range(10)]
    peak = 0
    for source in sources:
        codegen.compile_source(source)
        peak = max(peak, len(table))
    assert peak == bound
    assert sources[-1] in table


def test_warm_request_runs_no_frontend(table, frontend_runs, tmp_path):
    spec = {
        "kind": "enumerate",
        "source": PROGRAMS["sha"].source,
        "function": "rol",
        "config": {},
        "state_dir": str(tmp_path / "state"),
        "store_root": str(tmp_path / "store"),
    }
    cold = run_spec(dict(spec))
    assert cold["store_hit"] is False
    assert frontend_runs == {"parse": 1, "sema": 1, "codegen": 1}
    warm = run_spec(dict(spec))
    assert warm["store_hit"] is True
    assert warm["dag_fingerprint"] == cold["dag_fingerprint"]
    assert frontend_runs == {"parse": 1, "sema": 1, "codegen": 1}
