# hippolint-fixture: src/repro/engine/feed/segments.py
"""Good: library code reports through logging, not stdout."""
import logging

LOG = logging.getLogger(__name__)


def rotate(segment) -> None:
    LOG.info("rotating %s", segment)
