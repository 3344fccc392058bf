"""Enumeration-as-a-service (``repro serve``; see docs/SERVICE.md).

A long-lived asyncio JSON-over-HTTP server that accepts ``compile`` /
``enumerate`` / ``interactions`` requests from many concurrent clients
and multiplexes them onto the existing enumeration machinery — the
serial :mod:`~repro.core.enumeration` engine through
:func:`~repro.core.driver.run_function`, the parallel pool, and a
:class:`~repro.core.store.SpaceStore` shared
across requests as the cross-request cache.

The package is structured as independently testable layers:

- :mod:`~repro.service.protocol` — request validation, work keys, and
  the error vocabulary shared by server and client;
- :mod:`~repro.service.admission` — token buckets, tenant quotas, and
  the per-work-key circuit breaker (pure, clock-injected, no I/O);
- :mod:`~repro.service.executor` — the per-request worker subprocess;
  crash containment and graceful SIGTERM checkpointing live here;
- :mod:`~repro.service.server` — the asyncio front end: admission,
  load shedding, request coalescing, deadlines, drain;
- :mod:`~repro.service.client` — the bundled retrying client (also
  what the chaos tests drive the server with).
"""

from repro.service.admission import CircuitBreaker, TokenBucket
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import RequestError, validate_request, work_key
from repro.service.server import EnumerationServer, ServiceConfig

__all__ = [
    "CircuitBreaker",
    "EnumerationServer",
    "RequestError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "validate_request",
    "work_key",
]
