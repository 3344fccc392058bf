"""Object-IR CFG and liveness cache with dirty-bit invalidation.

The phases run on the flat IR and its analyses
(:mod:`repro.analysis.flat`).  The object-IR readers — the sanitizer,
the canonicalizer, translation validation and the CLI — query the CFG
and register liveness of a :class:`Function`, often several times
between mutations.  This module memoizes both on the function itself
(``Function._analyses``).

The contract (documented on :meth:`Function.invalidate_analyses`):

- Every mutation commit point calls ``func.invalidate_analyses()``,
  which *rebinds* ``_analyses`` to ``None`` rather than clearing the
  cache object.
- ``Function.clone()`` copies the ``_analyses`` reference.  A clone is
  content-equal to its source at that moment, so the cached analyses
  describe it too; the rebinding discipline means neither side can
  clobber the other's view.
- Analyses hold no reference to their function: the function holds
  its cache, so a back-reference would make every function whose
  analyses were read a reference cycle, freed only by the cyclic
  garbage collector.  :class:`Liveness`'s per-instruction views take
  the function as an argument instead.

``REPRO_PARANOID_ANALYSIS=1`` (or :func:`set_paranoid(True)`)
recomputes on every hit and raises if a cached analysis disagrees with
a fresh one, catching any code that mutates without invalidating.  The
switch covers the flat analyses (:mod:`repro.analysis.flat`) too.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.analysis.liveness import Liveness, compute_liveness
from repro.ir.cfg import CFG, build_cfg
from repro.ir.function import Function
from repro.observability import tracer as _obs

_PARANOID = bool(os.environ.get("REPRO_PARANOID_ANALYSIS"))


def _note(hit: bool) -> None:
    """Count one cache query on the active tracer, if any (the counters
    surface as a run-level ``analysis_cache_stats`` event)."""
    tr = _obs.ACTIVE
    if tr is not None:
        tr.analysis_event(hit)


def set_paranoid(enabled: bool) -> bool:
    """Recompute-and-compare on every cache hit (differential mode)."""
    global _PARANOID
    previous = _PARANOID
    _PARANOID = enabled
    return previous


class AnalysisCache:
    """Lazily-filled analyses for one function *content* (shared by
    content-equal clones)."""

    __slots__ = ("cfg", "liveness")

    def __init__(self) -> None:
        self.cfg: Optional[CFG] = None
        self.liveness: Optional[Liveness] = None


def _cache_of(func: Function) -> AnalysisCache:
    cache = func._analyses
    if cache is None:
        cache = AnalysisCache()
        func._analyses = cache
    return cache


def cfg_of(func: Function) -> CFG:
    """The function's CFG, cached until the next invalidation."""
    cache = _cache_of(func)
    _note(cache.cfg is not None)
    if cache.cfg is None:
        cache.cfg = build_cfg(func)
    elif _PARANOID:
        _compare_cfg(func, cache.cfg)
    return cache.cfg


def liveness_of(func: Function) -> Liveness:
    """Register liveness, cached until the next invalidation."""
    cache = _cache_of(func)
    _note(cache.liveness is not None)
    if cache.liveness is None:
        cache.liveness = compute_liveness(func, cfg_of(func))
    elif _PARANOID:
        _compare_dicts(
            func, "liveness", cache.liveness.live_in, compute_liveness(func).live_in
        )
    return cache.liveness


def _compare_cfg(func: Function, cached: CFG) -> None:
    fresh = build_cfg(func)
    if cached.succs != fresh.succs or cached.order != fresh.order:
        raise RuntimeError(
            f"{func.name}: stale cached CFG "
            "(a phase mutated without invalidate_analyses())"
        )


def _compare_dicts(func: Function, what: str, cached, fresh) -> None:
    if cached != fresh:
        raise RuntimeError(
            f"{func.name}: stale cached {what} "
            "(a phase mutated without invalidate_analyses())"
        )
