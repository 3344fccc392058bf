"""Frontend goldens: the naive RTL of every compiled function, pinned.

Every later stage reads what ``compile_source`` hands it, so the
frontend's output is pinned here rather than against a second live
implementation.  ``tests/goldens/rtl.json`` records, for the six
MiBench programs and for ``fuzz_source(0, 0..39)``:

- per function: the sha256 of ``format_function``, the frame layout
  (each slot's name, offset, words, type and array/parameter flags,
  plus the frame size), the parameters, the pseudo-register and label
  counters and ``mem_facts``;
- per program: the globals' layout (name, address, words, type, array
  flag and initial words);
- for a fuzz program, the sha256 of its source, so generator drift
  fails loudly instead of reading as a frontend change.

Regenerate (only for an intended change of the generated code)::

    PYTHONPATH=src python -m tests.frontend.test_rtl_goldens --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

import pytest

from repro.frontend import compile_source
from repro.frontend.fuzz import fuzz_source
from repro.ir.function import Function, Program
from repro.ir.printer import format_function
from repro.programs import PROGRAMS

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens",
    "rtl.json",
)

FUZZ_INDICES = range(40)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def function_entry(func: Function) -> Dict[str, object]:
    return {
        "rtl": sha256(format_function(func)),
        "frame": [
            [slot.name, slot.offset, slot.words, slot.typ, slot.is_array, slot.is_param]
            for slot in func.frame.values()
        ],
        "frame_size": func.frame_size,
        "params": list(func.params),
        "returns_value": func.returns_value,
        "next_pseudo": func.next_pseudo,
        "next_label": func.next_label,
        "mem_facts": func.mem_facts,
    }


def program_entry(program: Program) -> Dict[str, object]:
    return {
        "globals": [
            [var.name, var.address, var.words, var.typ, var.is_array, list(var.init)]
            for var in program.globals.values()
        ],
        "functions": {
            name: function_entry(func) for name, func in program.functions.items()
        },
    }


def program_cases() -> Dict[str, object]:
    return {
        name: program_entry(compile_source(PROGRAMS[name].source))
        for name in sorted(PROGRAMS)
    }


def fuzz_cases() -> Dict[str, object]:
    cases = {}
    for index in FUZZ_INDICES:
        source = fuzz_source(0, index)
        entry = program_entry(compile_source(source))
        entry["source"] = sha256(source)
        cases[f"fuzz0-{index}"] = entry
    return cases


def compute_goldens() -> Dict[str, object]:
    return {"programs": program_cases(), "fuzz": fuzz_cases()}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens() -> Dict[str, object]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_programs(goldens):
    assert program_cases() == goldens["programs"]


def test_fuzz_programs(goldens):
    assert fuzz_cases() == goldens["fuzz"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print("usage: python -m tests.frontend.test_rtl_goldens --write", file=sys.stderr)
        return 2
    data = compute_goldens()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
