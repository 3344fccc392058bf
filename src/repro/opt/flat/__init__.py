"""The phase kernels: every candidate phase, over interned ids.

Each module here implements candidate phases of Table 1 on
:class:`~repro.ir.flat.FlatFunction` — integer instruction ids and
register bitmasks instead of instruction objects — plus the two
implicit phases (:mod:`.assign`, the compulsory register assignment,
and :mod:`.cleanup`, the control-flow canonicalization).  The phase
instances themselves are assembled in :data:`repro.opt.PHASES`.

The package itself imports nothing, so :mod:`repro.opt.base` can use
the implicit phases without a cycle.
"""

from __future__ import annotations


def reset_flat_kernel_caches() -> None:
    """Drop every module-level kernel cache and the flat analyses'
    per-block memos (tests / leak hygiene / cold profiles)."""
    from repro.analysis.flat import reset_flat_analysis_caches
    from repro.opt.flat import (
        cse,
        deadassign,
        evalorder,
        regalloc,
        selection,
        strength,
        support,
    )

    support.reset_support_caches()
    selection._COMBINED.clear()
    selection._SELF_MOVE.clear()
    selection._FOLDED.clear()
    selection._DECISIONS.clear()
    evalorder._SCHEDULES.clear()
    strength._EXPANSIONS.clear()
    strength._BLOCKS.clear()
    cse._COPIES.clear()
    cse._LVN.clear()
    deadassign._CC_FLAGS.clear()
    regalloc._LOAD_REWRITES.clear()
    regalloc._STORE_REWRITES.clear()
    reset_flat_analysis_caches()
