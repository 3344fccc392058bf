"""Request validation and the work-key scheme of the service.

Everything a client may send is declared here — the three request
kinds, the enumeration-config subset a request may set, and their
types and ranges — so the server rejects malformed input with a
structured 400 before any work is admitted, and the request runner
(:func:`~repro.service.executor.run_spec`) can trust its spec
completely.

The **work key** is the service's unit of identity: a stable digest of
everything that shapes the computation (kind, source text, functions,
config).  It keys request coalescing (identical concurrent requests
share one execution), the circuit breaker (repeated failures quarantine
the work, not the client), and the on-disk checkpoint state (a drained
request's successor — even after a server restart — resumes the same
checkpoint).  Tenant, deadline, and other delivery details are
deliberately excluded: they change how a request is served, never what
it computes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro.opt import PHASE_IDS
from repro.programs import PROGRAMS

#: request kinds the service accepts (POST /<kind>)
KINDS = ("compile", "enumerate", "interactions")

#: the EnumerationConfig subset a request may set, with accepted types.
#: Budgets are clamped server-side; space-shaping switches pass through.
CONFIG_FIELDS: Dict[str, tuple] = {
    "max_nodes": (int,),
    "max_levels": (int,),
    "time_limit": (int, float),
    "exact": (bool,),
    "remap": (bool,),
    "share_prefixes": (bool,),
    "validate": (bool,),
    "difftest": (bool,),
    "phase_timeout": (int, float),
    "checkpoint_interval": (int, float),
    "sanitize": (str,),
    "fault_rate": (int, float),
    "fault_seed": (int,),
    "collapse": (str,),
}


class RequestError(ValueError):
    """A client request is malformed; maps to HTTP 400."""


def _fail(message: str) -> None:
    raise RequestError(message)


def _source_of(payload: Dict) -> str:
    """The mini-C text of a request: inline ``source`` or ``benchmark``."""
    source = payload.get("source")
    benchmark = payload.get("benchmark")
    if source is not None and benchmark is not None:
        _fail("give either 'source' or 'benchmark', not both")
    if benchmark is not None:
        if not isinstance(benchmark, str) or benchmark not in PROGRAMS:
            _fail(
                f"unknown benchmark {benchmark!r}; "
                f"try: {', '.join(sorted(PROGRAMS))}"
            )
        return PROGRAMS[benchmark].source
    if not isinstance(source, str) or not source.strip():
        _fail("'source' must be non-empty mini-C text (or pass 'benchmark')")
    return source


def _validated_config(raw: object) -> Dict[str, object]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        _fail("'config' must be an object")
    config: Dict[str, object] = {}
    for key, value in raw.items():
        types = CONFIG_FIELDS.get(key)
        if types is None:
            _fail(
                f"unknown config field {key!r}; "
                f"allowed: {', '.join(sorted(CONFIG_FIELDS))}"
            )
        # bool is an int subclass; an int where a bool belongs (and
        # vice versa) is a type error, not a coercion.
        if isinstance(value, bool) != (types == (bool,)) or not isinstance(
            value, types
        ):
            _fail(f"config field {key!r} must be {types[0].__name__}")
        config[key] = value
    sanitize = config.get("sanitize")
    if sanitize is not None and sanitize not in ("fast", "full"):
        _fail("config.sanitize must be 'fast' or 'full'")
    rate = config.get("fault_rate")
    if rate is not None and not 0.0 < rate <= 1.0:
        _fail("config.fault_rate must be in (0, 1]")
    collapse = config.get("collapse")
    if collapse is not None and collapse not in ("syntactic", "semantic"):
        _fail("config.collapse must be 'syntactic' or 'semantic'")
    for key in (
        "max_nodes",
        "max_levels",
        "time_limit",
        "phase_timeout",
        "checkpoint_interval",
    ):
        value = config.get(key)
        if value is not None and value <= 0:
            _fail(f"config.{key} must be positive")
    return config


def validate_request(kind: str, payload: object) -> Dict[str, object]:
    """Normalize one request body; raises :class:`RequestError`.

    Returns a dict with resolved ``source``, the validated ``config``
    subset, and the kind-specific fields — the exact shape a request's
    task spec is built from.
    """
    if kind not in KINDS:
        _fail(f"unknown request kind {kind!r}; expected one of {KINDS}")
    if not isinstance(payload, dict):
        _fail("request body must be a JSON object")
    normalized: Dict[str, object] = {
        "kind": kind,
        "source": _source_of(payload),
        "config": _validated_config(payload.get("config")),
    }
    if kind == "enumerate":
        function = payload.get("function")
        if not isinstance(function, str) or not function:
            _fail("'function' is required for enumerate requests")
        normalized["function"] = function
        normalized["include_dag"] = bool(payload.get("include_dag", False))
    elif kind == "interactions":
        functions = payload.get("functions")
        if functions is not None:
            if not isinstance(functions, list) or not all(
                isinstance(name, str) and name for name in functions
            ):
                _fail("'functions' must be a list of function names")
            if not functions:
                _fail("'functions' must not be empty when given")
        normalized["functions"] = functions
    elif kind == "compile":
        function = payload.get("function")
        if function is not None and not isinstance(function, str):
            _fail("'function' must be a string")
        sequence = payload.get("sequence")
        if sequence is not None:
            if not isinstance(sequence, str):
                _fail("'sequence' must be a string of phase letters")
            for phase_id in sequence:
                if phase_id not in PHASE_IDS:
                    _fail(
                        f"unknown phase {phase_id!r}; "
                        f"phases: {''.join(PHASE_IDS)}"
                    )
        batch = bool(payload.get("batch", False))
        if sequence and batch:
            _fail("give either 'sequence' or 'batch', not both")
        normalized["function"] = function
        normalized["sequence"] = sequence
        normalized["batch"] = batch
    return normalized


def tenant_of(payload: object) -> str:
    """The (validated) tenant label of a raw request body."""
    if not isinstance(payload, dict):
        return "default"
    tenant = payload.get("tenant", "default")
    if (
        not isinstance(tenant, str)
        or not tenant
        or len(tenant) > 64
        or not all(ch.isalnum() or ch in "-_." for ch in tenant)
    ):
        _fail("'tenant' must be a short alphanumeric/-_. label")
    return tenant


def deadline_of(payload: object) -> Optional[float]:
    """The requested deadline in seconds, or None."""
    if not isinstance(payload, dict):
        return None
    deadline = payload.get("deadline")
    if deadline is None:
        return None
    if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
        _fail("'deadline' must be a number of seconds")
    if deadline <= 0:
        _fail("'deadline' must be positive")
    return float(deadline)


def work_key(normalized: Dict[str, object]) -> str:
    """Stable identity digest of the computation a request names."""
    digest = hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return f"{normalized['kind']}-{digest[:16]}"
