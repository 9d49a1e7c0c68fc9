"""Structured logging for the reproduction: component + node-id on every record.

The maintenance loops used to swallow expected soft-state failures
(unreachable manager, unreachable repair target, lost repair source) silently; they
now log through :func:`component_logger`, which stamps ``component`` and
``node_id`` fields onto every record.  :func:`logging_setup` installs a
stream handler whose format surfaces those fields; without it, records
still propagate to whatever handlers the host application configured (and
the fields remain available on the record for structured consumers).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

#: Root of the reproduction's logger namespace.
ROOT_LOGGER_NAME = "repro"

#: Marker attribute identifying handlers installed by :func:`logging_setup`.
_HANDLER_MARKER = "_repro_obs_handler"

DEFAULT_FORMAT = (
    "%(asctime)s %(levelname)s %(name)s [%(component)s/%(node_id)s] %(message)s"
)


class _EnsureFields(logging.Filter):
    """Guarantee ``component``/``node_id`` exist on every record we format."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "component"):
            record.component = "-"
        if not hasattr(record, "node_id"):
            record.node_id = "-"
        return True


def logging_setup(level: int = logging.INFO,
                  stream: Optional[TextIO] = None,
                  fmt: str = DEFAULT_FORMAT,
                  force: bool = False) -> logging.Logger:
    """Install a structured stream handler on the ``repro`` logger.

    Idempotent: a second call adjusts the level but does not stack handlers
    unless ``force`` is given (which replaces the previously installed one).
    Returns the configured logger.  Propagation to the root logger is left
    on so pytest's ``caplog`` and host-application handlers keep working.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    existing = [
        handler for handler in logger.handlers
        if getattr(handler, _HANDLER_MARKER, False)
    ]
    if existing and not force:
        logger.setLevel(level)
        return logger
    for handler in existing:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    handler.addFilter(_EnsureFields())
    setattr(handler, _HANDLER_MARKER, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def component_logger(component: str, node_id: str = "") -> logging.LoggerAdapter:
    """A logger adapter stamping ``component``/``node_id`` on every record."""
    logger = logging.getLogger(f"{ROOT_LOGGER_NAME}.{component}")
    return logging.LoggerAdapter(
        logger, {"component": component, "node_id": node_id}
    )
