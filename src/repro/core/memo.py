"""Phase-transition memo table (the memoized expansion engine).

Applying a phase to a function instance is deterministic: the same
instance (same remapped RTL content and legality flags) under the same
space-shaping configuration always yields the same result instance —
"Beyond the Phase Ordering Problem" (PAPERS.md) formalizes exactly this
property, and it is already the soundness assumption behind the paper's
identical-instance merging (two merged nodes share their whole
subspace).  The memo table exploits it: the outcome of ``(instance
key, phase)`` is recorded once, and any later re-arrival at the same
instance — in another function's space, at another level, or in a
whole other run — skips the clone + phase application + fingerprint
entirely.

The memo key is the enumeration *node key*: the paper's fingerprint
triple (instruction count, byte-sum, CRC-32 of the remapped RTLs) plus
the three legality flags.  Content-based keying is what makes sharing
across functions and runs sound; it also means a memo entry recorded
during a run that later aborted is still a valid fact.

An entry is either *dormant* (the phase made no change) or *active*,
in which case it carries the child's node key, fingerprint metadata,
and the child instance itself — as the :class:`FlatFunction` candidate
the enumerator produced when recorded in-process, or as a serialized
checkpoint dict when loaded from the merged-space store, parsed into
a flat on first use.  :meth:`TransitionMemo.materialize` returns that
flat, which the memo and every DAG node built from it share: no flat
is mutated after the phase attempt that produced it (each attempt
clones its parent first), so sharing is safe.  Intern ids are local
to a process, so a flat leaves it only as :meth:`TransitionMemo.to_dict`
text.

Exact mode never takes the memo fast path: it performs the real
application and *verifies* the memo entry against it, raising on any
divergence — that is how the bit-identity guarantee survives memo
reuse.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import checkpoint as ckpt
from repro.ir.flat import FlatFunction, from_flat, to_flat

MEMO_VERSION = 1


class MemoEntry:
    """Outcome of one ``(instance, phase)`` transition."""

    __slots__ = ("dormant", "key", "num_insts", "cf_crc", "function")

    def __init__(
        self,
        dormant: bool,
        key=None,
        num_insts: int = 0,
        cf_crc: int = 0,
        function=None,
    ):
        self.dormant = dormant
        #: child node key (None for dormant entries)
        self.key = key
        self.num_insts = num_insts
        self.cf_crc = cf_crc
        #: child instance: a FlatFunction (recorded in-run, or parsed)
        #: or a serialized dict (loaded from the store, not yet used);
        #: None for dormant entries
        self.function = function


class TransitionMemo:
    """In-memory memo of phase transitions, with JSON persistence."""

    def __init__(self) -> None:
        self.entries: Dict[Tuple[object, str], MemoEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters, in the shape telemetry events use."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self.entries),
        }

    def lookup(self, parent_key, phase_id: str) -> Optional[MemoEntry]:
        entry = self.entries.get((parent_key, phase_id))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def record_dormant(self, parent_key, phase_id: str) -> None:
        self.entries.setdefault((parent_key, phase_id), MemoEntry(dormant=True))

    def record_active(
        self, parent_key, phase_id: str, key, num_insts: int, cf_crc: int, function
    ) -> None:
        """Record an active transition; *function* is the child instance
        (a FlatFunction, shared and never mutated, or an
        already-serialized dict)."""
        self.entries.setdefault(
            (parent_key, phase_id),
            MemoEntry(
                dormant=False,
                key=key,
                num_insts=num_insts,
                cf_crc=cf_crc,
                function=function,
            ),
        )

    @staticmethod
    def materialize(entry: MemoEntry) -> FlatFunction:
        """*entry*'s child instance, shared: callers must not mutate it.

        A serialized entry is parsed here, once, and keeps the flat.
        """
        function = entry.function
        if not isinstance(function, FlatFunction):
            function = entry.function = to_flat(ckpt.function_from_dict(function))
        return function

    # ------------------------------------------------------------------
    # Persistence (one store file per function: memo-<config>/<root>.json)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        entries = []
        for (parent_key, phase_id), entry in self.entries.items():
            record: Dict[str, object] = {
                "parent": ckpt.key_to_json(parent_key),
                "phase": phase_id,
                "dormant": entry.dormant,
            }
            if not entry.dormant:
                function = entry.function
                if isinstance(function, FlatFunction):
                    function = ckpt.function_to_dict(from_flat(function))
                record.update(
                    key=ckpt.key_to_json(entry.key),
                    num_insts=entry.num_insts,
                    cf_crc=entry.cf_crc,
                    function=function,
                )
            entries.append(record)
        # "memo_version", not "version": the checkpoint writer that
        # persists this dict stamps its own "version" envelope key.
        return {"memo_version": MEMO_VERSION, "entries": entries}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TransitionMemo":
        if data.get("memo_version") != MEMO_VERSION:
            raise ValueError(
                f"unsupported memo version {data.get('memo_version')!r}"
            )
        memo = cls()
        for record in data["entries"]:
            parent_key = ckpt.key_from_json(record["parent"])
            phase_id = record["phase"]
            if record["dormant"]:
                memo.record_dormant(parent_key, phase_id)
            else:
                memo.record_active(
                    parent_key,
                    phase_id,
                    ckpt.key_from_json(record["key"]),
                    record["num_insts"],
                    record["cf_crc"],
                    record["function"],
                )
        return memo
