"""Persistent store of merged, fully-enumerated phase order spaces.

Repeated benchmark sweeps enumerate the same functions over and over;
the store turns the second and later runs into cache hits.  Each entry
persists one *completed* enumeration — the space DAG plus its counters
— keyed by everything that shapes the space:

- the function's canonical root instance (its fingerprint key, which
  covers the actual post-``implicit_cleanup`` RTL, not just the name);
- the phase set and the space-shaping config switches (``remap``,
  ``exact``);
- the guard switches that can change dormancy (``validate``,
  ``difftest``, ``phase_timeout``).

Runs with a fault injector are never stored: a sabotaged space is an
artifact of the injector's seed, not the function's real space.
Truncated (aborted) enumerations are never stored either — a cache
must not serve a partial space as the real one.

Entries are single JSON files written atomically through
:func:`repro.core.checkpoint.save_checkpoint`, so a crash mid-write
can never corrupt the store.  Unreadable or incompatible entries are
treated as misses (and reported through the telemetry layer), never as
errors.

Stores written by earlier builds may also hold files or directories
whose names start with ``memo-`` (a cross-run transition memo, since
removed).  They are never read and never counted as entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, Optional

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationConfig, EnumerationResult
from repro.robustness.quarantine import QuarantineLog

STORE_VERSION = 1


class StoreError(ckpt.CheckpointError):
    """A store entry is unreadable, corrupt, or incompatible.

    Subclasses :class:`~repro.core.checkpoint.CheckpointError`, so it
    carries the same ``CKP001`` diagnostic — persisted-state corruption
    is one failure class whether the file is a checkpoint or a cache
    entry.  The cache-consulting path (:meth:`SpaceStore.get`) catches
    it and degrades to a miss; :meth:`SpaceStore.load_entry` is the
    strict loader for callers that asked for this entry specifically.
    """


def store_signature(config: EnumerationConfig) -> Dict[str, object]:
    """The config fields a cached space must agree on.

    Extends the checkpoint signature with the guard switches: a space
    enumerated with ``--validate`` can differ from an unguarded one
    (quarantined applications read as dormant), so they must not share
    cache entries.  Budgets stay excluded — a *completed* run yields
    the same space under any budget.
    """
    signature = dict(config.signature())
    # difftest keys on the flag alone (not on whether a program is
    # attached): a parallel coordinator's config carries no Program
    # (workers compile the request's source), and a difftest-on space
    # must never share an entry with an unguarded one.
    signature.update(
        validate=config.validate,
        difftest=bool(config.difftest),
        phase_timeout=config.phase_timeout,
        sanitize=config.sanitize,
    )
    return signature


def cacheable(config: EnumerationConfig) -> bool:
    """Whether results under *config* may be stored at all."""
    return config.fault_injector is None


class SpaceStore:
    """A directory of merged spaces keyed by (function, phases, config)."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: store telemetry for the session
        self.hits = 0
        self.misses = 0
        #: entries that existed but failed to load (counted as misses
        #: too); a nonzero value means the store directory is damaged
        self.corrupt = 0

    # ------------------------------------------------------------------

    def entry_path(self, function_name: str, root_key, config: EnumerationConfig) -> str:
        digest = _digest(
            {
                "function": function_name,
                "root_key": ckpt.key_to_json(root_key),
                "config": store_signature(config),
            }
        )
        safe_name = re.sub(r"[^A-Za-z0-9_.-]", "_", function_name)
        return os.path.join(self.root, f"{safe_name}-{digest}.json")

    def load_entry(self, path: str, function_name: str) -> EnumerationResult:
        """Strictly load one store entry; raises :class:`StoreError`.

        Covers every way the file can be bad: unreadable/truncated
        JSON, failed integrity digest, wrong checkpoint or store
        version, an entry for a different function, and payloads that
        will not rebuild into a DAG.
        """
        try:
            state = ckpt.load_checkpoint(path)
        except ckpt.CheckpointError as error:
            raise StoreError(str(error)) from error
        if state.get("store_version") != STORE_VERSION:
            raise StoreError(
                f"store entry {path} has store_version "
                f"{state.get('store_version')!r}; this build reads "
                f"version {STORE_VERSION}"
            )
        if state.get("function_name") != function_name:
            raise StoreError(
                f"store entry {path} is for function "
                f"{state.get('function_name')!r}, not {function_name!r}"
            )
        try:
            dag = ckpt.dag_from_dict(function_name, state["dag"])
            return EnumerationResult(
                dag,
                completed=True,
                attempted_phases=state["attempted"],
                phases_applied=state["applied"],
                elapsed=state["elapsed"],
                quarantine=QuarantineLog.from_dicts(state["quarantine"]),
                levels_completed=state["levels_completed"],
                resumed_from=f"store:{path}",
            )
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise StoreError(
                f"store entry {path} is structurally invalid: "
                f"{type(error).__name__}: {error}"
            ) from error

    def get(
        self, function_name: str, root_key, config: EnumerationConfig
    ) -> Optional[EnumerationResult]:
        """The cached result for this exact space, or None.

        A damaged entry is a miss (and counts on ``self.corrupt``) —
        the caller asked "do you have this space", and a file we cannot
        trust means no.
        """
        path = self.entry_path(function_name, root_key, config)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            result = self.load_entry(path, function_name)
        except StoreError:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        function_name: str,
        root_key,
        config: EnumerationConfig,
        result: EnumerationResult,
    ) -> Optional[str]:
        """Persist a completed enumeration; returns its path, or None
        when the result is not cacheable (aborted, or fault-injected)."""
        if not result.completed or not cacheable(config):
            return None
        path = self.entry_path(function_name, root_key, config)
        ckpt.save_checkpoint(
            path,
            {
                "store_version": STORE_VERSION,
                "function_name": function_name,
                "root_key": ckpt.key_to_json(root_key),
                "config": store_signature(config),
                "dag": ckpt.dag_to_dict(result.dag),
                "attempted": result.attempted_phases,
                "applied": result.phases_applied,
                "elapsed": result.elapsed,
                "levels_completed": result.levels_completed,
                "quarantine": result.quarantine.to_dicts(),
            },
        )
        return path

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self.root)
            if name.endswith(".json") and not name.startswith("memo-")
        )

    def __repr__(self):
        return f"<SpaceStore {self.root}: {len(self)} entries>"


def _digest(value) -> str:
    """Short file-name digest of a JSON-ready value."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]

