"""One structured logger for the whole reproduction.

Replaces the scattered bare ``print`` / ad-hoc ``logging`` habits with a
single JSON-lines logger: every record is one line on stderr carrying a
timestamp, level, logger name, an ``event`` slug, and arbitrary structured
fields.  The threshold comes from the ``REPRO_LOG_LEVEL`` environment
variable (``debug`` | ``info`` | ``warning`` | ``error``; default
``warning`` so tests and benchmarks stay quiet) and can be overridden
programmatically with :func:`configure`.

Usage::

    from repro.observability.log import get_logger
    log = get_logger("algorithms.training")
    log.info("round_finished", round=3, loss=0.41, accuracy=0.83)
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, TextIO

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_lock = threading.Lock()
_loggers: dict[str, "StructuredLogger"] = {}
_level_override: int | None = None
_stream_override: TextIO | None = None


def _threshold() -> int:
    if _level_override is not None:
        return _level_override
    raw = os.environ.get(LOG_LEVEL_ENV, "warning").strip().lower()
    return LEVELS.get(raw, LEVELS["warning"])


def _stream() -> TextIO:
    return _stream_override if _stream_override is not None else sys.stderr


def configure(level: str | None = None, stream: TextIO | None = None) -> None:
    """Override the env-driven level and/or the output stream (tests, CLI).

    ``configure()`` with no arguments restores the environment defaults.
    """
    global _level_override, _stream_override
    if level is None:
        _level_override = None
    else:
        key = level.strip().lower()
        if key not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; pick one of {sorted(LEVELS)}")
        _level_override = LEVELS[key]
    _stream_override = stream


class StructuredLogger:
    """A named emitter of structured JSON-lines records."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **fields: Any) -> None:
        if LEVELS[level] < _threshold():
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=False, default=str)
        stream = _stream()
        with _lock:
            print(line, file=stream)

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)


def get_logger(name: str) -> StructuredLogger:
    with _lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = _loggers[name] = StructuredLogger(name)
        return logger
