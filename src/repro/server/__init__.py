"""Always-on transform serving: micro-batching daemon over the plan cache.

``repro serve`` runs :class:`TransformServer`: an asyncio HTTP/1.1 daemon
(localhost TCP and/or a unix socket, stdlib only) that groups the
same-``(n, config)`` transform requests it reads in one event-loop turn
and executes each group through one
:meth:`repro.core.ftplan.FTPlan.execute_many` call on the loop itself
- the amortized threshold statistics and vectorized ABFT verification of
the batched library path, turned into sustained multi-client throughput.  See
``docs/serving.md`` for the operator's guide and
:mod:`repro.server.protocol` for the wire format.
"""

from repro.server.app import DEFAULT_MAX_PAYLOAD, DEFAULT_PORT, ServerThread, TransformServer
from repro.server.batching import Batcher
from repro.server.protocol import (
    DEFAULT_CONFIG,
    FRAME_CONTENT_TYPE,
    ProtocolError,
    RequestHead,
)

__all__ = [
    "DEFAULT_CONFIG",
    "DEFAULT_MAX_PAYLOAD",
    "DEFAULT_PORT",
    "FRAME_CONTENT_TYPE",
    "Batcher",
    "ProtocolError",
    "RequestHead",
    "ServerThread",
    "TransformServer",
]
