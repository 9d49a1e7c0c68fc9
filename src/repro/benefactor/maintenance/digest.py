"""The inventory digest a heartbeat carries.

Soft-state registration makes every benefactor re-advertise its complete
chunk inventory on (re)registration.  Between registrations a heartbeat
carries this digest instead, so the manager can tell *whether* the inventory
it reconciled last time is still current without shipping thousands of chunk
ids every few seconds; when it is not, the node sends the ids again.

The digest is one SHA-1 over the sorted ids: deterministic and
order-independent, it depends only on the *set* of chunk ids, never on
insertion order or store backend.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def compute_inventory_digest(chunk_ids: Iterable[str]) -> str:
    """Hex SHA-1 of the sorted ``chunk_ids``, each one NUL-terminated."""
    digest = hashlib.sha1()
    for chunk_id in sorted(chunk_ids):
        digest.update(chunk_id.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()
