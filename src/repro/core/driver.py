"""One function's enumeration, with the store, memo and checkpoint rules.

:func:`run_function` is the single execution driver: the worker pool's
tasks for ``--jobs N`` (:mod:`repro.parallel.worker`) and for the
service (:mod:`repro.service.executor`) both call it, and it runs the
ordinary serial :class:`~repro.core.enumeration.SpaceEnumerator`.  Every rule
about persisted state therefore exists once, here:

- **store** — a completed space is looked up by the function's
  canonical root key before enumerating and written back after a
  completed run (aborted and fault-injected runs are never stored);
- **memo** — the store's cross-run transition memo is loaded only for
  unguarded, non-exact, cacheable configs, and saved after any such
  run (memo entries stay valid facts even when the run aborted);
- **checkpoint** — the serial checkpoint at *checkpoint_path* is
  written periodically and on abort, resumed from when *resume* is set,
  and deleted on completion;
- **CKP001** — a corrupt or mismatched checkpoint raises
  :class:`~repro.core.checkpoint.CheckpointError`, or, with
  *discard_corrupt*, is deleted and the enumeration restarts fresh with
  the error text kept as ``degraded``.
"""

from __future__ import annotations

import copy
import os
from typing import Callable, NamedTuple, Optional

from repro.core import checkpoint as ckpt
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    SpaceEnumerator,
    canonical_root,
)
from repro.core.store import SpaceStore, cacheable
from repro.ir.function import Function


class FunctionRun(NamedTuple):
    """What :func:`run_function` produced: the result, and the CKP001
    detail of a discarded corrupt checkpoint (None when none was)."""

    result: EnumerationResult
    degraded: Optional[str] = None


def run_function(
    func: Function,
    config: EnumerationConfig,
    *,
    store: Optional[SpaceStore] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    discard_corrupt: bool = False,
    on_start: Optional[Callable[[SpaceEnumerator], None]] = None,
) -> FunctionRun:
    """Enumerate *func* (unmodified) under *config*.

    *config*'s own ``checkpoint_path``, ``resume`` and ``memo`` are
    replaced by the arguments here.  *on_start* is called with the
    enumerator before it runs (the pool worker's heartbeat hook).
    """
    root_key = None
    if store is not None:
        root_key = canonical_root(func, config)[2]
        cached = store.get(func.name, root_key, config)
        if cached is not None:
            return FunctionRun(cached)
    run_config = copy.copy(config)
    run_config.memo = None
    # Exact mode verifies rather than trusts memo entries, and guarded
    # runs must actually execute every phase, so both stay cold.
    if (
        store is not None
        and not config.exact
        and not config.guards_enabled()
        and cacheable(config)
    ):
        run_config.memo = store.load_memo(config)
    run_config.checkpoint_path = checkpoint_path
    run_config.resume = resume
    degraded = None
    try:
        result = _enumerate(func, run_config, on_start)
    except ckpt.CheckpointError as error:
        if not discard_corrupt or checkpoint_path is None:
            raise
        degraded = str(error)
        try:
            os.unlink(checkpoint_path)
        except OSError:
            pass
        run_config.resume = False
        result = _enumerate(func, run_config, on_start)
    if run_config.memo is not None:
        store.save_memo(config, run_config.memo)
    if store is not None and result.completed:
        store.put(func.name, root_key, config, result)
    return FunctionRun(result, degraded)


def _enumerate(
    func: Function,
    config: EnumerationConfig,
    on_start: Optional[Callable[[SpaceEnumerator], None]],
) -> EnumerationResult:
    enumerator = SpaceEnumerator(func, config)
    if on_start is not None:
        on_start(enumerator)
    return enumerator.run()
