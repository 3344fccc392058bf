"""Structured records of phase applications the guard rejected.

A *quarantined* application is one the :class:`GuardedPhaseRunner`
refused to let into the space: the phase raised, produced malformed IR,
changed observable semantics, or exceeded its time budget.  The
candidate is dropped and the phase is treated as dormant at that
instance, so enumeration continues — the record preserves enough
context to reproduce and debug the failure offline.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

#: the guard failure classes a record can carry; ``sanitizer`` and
#: ``contract`` come from the static-analysis layer (a transval
#: refutation reuses ``semantics``, the same bucket as the difftester)
KINDS = ("exception", "validation", "semantics", "timeout", "sanitizer", "contract")


class QuarantineRecord:
    """One rejected phase application."""

    __slots__ = ("phase_id", "kind", "detail", "node_key", "level", "diff")

    def __init__(
        self,
        phase_id: str,
        kind: str,
        detail: str,
        node_key: Optional[str] = None,
        level: Optional[int] = None,
        diff: Optional[str] = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"bad quarantine kind {kind!r}; expected {KINDS}")
        self.phase_id = phase_id
        self.kind = kind
        self.detail = detail
        #: printable key of the instance the phase was attempted on
        self.node_key = node_key
        #: enumeration level of that instance (None outside enumeration)
        self.level = level
        #: short pre/post excerpt for validation and semantics failures
        self.diff = diff

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase_id": self.phase_id,
            "kind": self.kind,
            "detail": self.detail,
            "node_key": self.node_key,
            "level": self.level,
            "diff": self.diff,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuarantineRecord":
        return cls(
            phase_id=data["phase_id"],
            kind=data["kind"],
            detail=data["detail"],
            node_key=data.get("node_key"),
            level=data.get("level"),
            diff=data.get("diff"),
        )

    def __repr__(self):
        where = f" at {self.node_key}" if self.node_key else ""
        return f"<QuarantineRecord {self.phase_id} {self.kind}{where}: {self.detail}>"


class QuarantineLog:
    """Accumulates quarantine records across one run."""

    def __init__(self, records: Optional[List[QuarantineRecord]] = None):
        self.records: List[QuarantineRecord] = list(records or [])

    def add(self, record: QuarantineRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QuarantineRecord]:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def by_phase(self) -> Dict[str, int]:
        """Rejected application count per phase id."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.phase_id] = counts.get(record.phase_id, 0) + 1
        return counts

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def to_dicts(self) -> List[Dict[str, object]]:
        return [record.to_dict() for record in self.records]

    @classmethod
    def from_dicts(cls, dicts: List[Dict[str, object]]) -> "QuarantineLog":
        return cls([QuarantineRecord.from_dict(d) for d in dicts])

    def format_report(self) -> str:
        """Human-readable summary printed by the CLI."""
        if not self.records:
            return "quarantine: no phase applications rejected"
        lines = [
            f"quarantine: {len(self.records)} phase application(s) rejected"
        ]
        for kind, count in sorted(self.by_kind().items()):
            lines.append(f"  by kind : {kind}: {count}")
        for phase_id, count in sorted(self.by_phase().items()):
            lines.append(f"  by phase: {phase_id}: {count}")
        for record in self.records[:20]:
            where = f" level={record.level}" if record.level is not None else ""
            lines.append(
                f"    [{record.kind}] phase {record.phase_id}{where}: "
                f"{record.detail}"
            )
        if len(self.records) > 20:
            lines.append(f"    ... and {len(self.records) - 20} more")
        return "\n".join(lines)

    def __repr__(self):
        return f"<QuarantineLog {len(self.records)} records>"
