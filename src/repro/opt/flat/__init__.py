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

