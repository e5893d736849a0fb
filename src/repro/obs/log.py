"""Structured JSON logging with a stable event schema.

One event per line, one JSON object per event — greppable, ingestible,
and diffable.  Every event carries ``ts`` (unix seconds), ``event`` (a
name from :data:`EVENTS`), and event-specific fields; unknown event
names are rejected in tests but tolerated at runtime (forward
compatibility beats a crashed server).

Event schema (``event`` -> fields; all optional unless noted):

``query_start``
    ``trace_id``, ``x``, ``y``, ``k``
``query_end``
    ``trace_id``, ``elapsed_ms``, ``cached``, ``fallback``, ``error``,
    ``method``, ``estimate``
``cache_hit``
    ``trace_id``, ``cache`` (``"result"`` / ``"index"``)
``fallback``
    ``trace_id``, ``reason``, ``method``
``slow_query``
    ``trace_id``, ``elapsed_ms``, ``threshold_ms``, ``sink``
``build_start`` / ``build_end``
    ``phase``, ``trace_id``; ``build_end`` adds ``seconds``, and for
    ``mia.build`` the tree builder's ``rounds`` (relaxation rounds) and
    ``tie_roots`` (roots built one at a time; both 0 when the trees were
    given, not built)
``build_progress``
    ``phase``, ``done``, ``total``, ``unit``, ``rate_per_s``, ``eta_s``
``index_update``
    ``kind``, ``generation``, ``dirty_nodes``, ``samples_retired``,
    ``samples_added``, ``trees_rebuilt``, ``seconds``
``serve_start`` / ``serve_end``
    server/batch lifecycle (``endpoint``/counts)
``http_request``
    ``path``, ``status``, ``elapsed_ms``
``error``
    ``message``, plus whatever context the call site has

The default logger is the no-op :data:`NULL_LOGGER`; the CLI activates a
:class:`JsonLogger` on stderr when ``--log-json`` is passed (stdout stays
reserved for command output).
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
from typing import IO, Optional

#: The stable event vocabulary (see module docstring for fields).
EVENTS = frozenset({
    "query_start", "query_end", "cache_hit", "fallback", "slow_query",
    "build_start", "build_progress", "build_end", "index_update",
    "serve_start", "serve_end", "http_request", "error",
})

_current_logger: contextvars.ContextVar[Optional["JsonLogger"]] = (
    contextvars.ContextVar("repro_current_logger", default=None)
)


class JsonLogger:
    """Writes one JSON object per event line to a text stream.

    Thread-safe (one lock per logger); non-serialisable field values are
    degraded to ``repr`` rather than raising mid-request.
    """

    enabled = True

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def event(self, event: str, **fields) -> None:
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        try:
            line = json.dumps(record, sort_keys=False, default=repr)
        except (TypeError, ValueError):
            line = json.dumps({"ts": record["ts"], "event": event,
                               "error": "unserialisable log record"})
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


class NullLogger:
    """The disabled logger: ``event`` is a no-op."""

    enabled = False

    def event(self, event: str, **fields) -> None:
        pass


NULL_LOGGER = NullLogger()


def get_logger() -> "JsonLogger | NullLogger":
    """The ambient structured logger (:data:`NULL_LOGGER` by default)."""
    lg = _current_logger.get()
    return lg if lg is not None else NULL_LOGGER


class use_logger:
    """``with use_logger(logger): ...`` — activate an ambient logger."""

    def __init__(self, logger: "JsonLogger | NullLogger"):
        self._logger = logger
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "JsonLogger | NullLogger":
        self._token = _current_logger.set(
            self._logger if self._logger.enabled else None  # type: ignore[arg-type]
        )
        return self._logger

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _current_logger.reset(self._token)
        return False
