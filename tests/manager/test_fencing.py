"""Fencing only moves a manager forward, whatever its role.

``fence(epoch, primary_address)`` deposes a manager in favour of a successor
serving under ``epoch``.  A fence below the node's epoch is stale: it raises
:class:`StaleEpochError` and changes nothing, on a standby or an already
fenced node as much as on a primary.  A fence without a hint (the log
shipper's self-demotion knows the epoch, not the successor) keeps the hint
the node already has.
"""

from __future__ import annotations

import pytest

from repro.exceptions import NotPrimaryError, StaleEpochError
from repro.manager.manager import MetadataManager
from repro.manager.replication import StandbyManager
from repro.transport.inprocess import InProcessTransport


def fenced_manager(epoch: int, successor: str) -> MetadataManager:
    manager = MetadataManager(transport=InProcessTransport(), manager_id="old")
    manager.fence(epoch, successor)
    return manager


def test_standby_refuses_a_fence_below_its_epoch():
    transport = InProcessTransport()
    standby = StandbyManager(transport=transport, manager_id="standby")
    # A newer primary's stream moves the standby to epoch 5.
    transport.call(standby.address, "replicate_records",
                   records=[], from_lsn=1, epoch=5)
    assert standby.epoch == 5
    with pytest.raises(StaleEpochError) as exc_info:
        transport.call(standby.address, "fence", epoch=2, primary_address="old:1")
    assert exc_info.value.epoch == 5
    assert (standby.role, standby.epoch, standby.fenced_by) == ("standby", 5, None)
    # Still a standby: it applies the stream and refuses clients as one.
    assert transport.call(standby.address, "replicate_records",
                          records=[], from_lsn=1, epoch=5)["resync"] is False
    with pytest.raises(NotPrimaryError) as refused:
        standby.list_dir("/")
    assert refused.value.primary_address is None


def test_a_stale_fence_does_not_overwrite_the_successor():
    manager = fenced_manager(3, "new:1")
    with pytest.raises(StaleEpochError) as exc_info:
        manager.fence(2, "old:1")
    assert exc_info.value.epoch == 3
    assert exc_info.value.primary_address == "new:1"
    assert (manager.role, manager.epoch, manager.fenced_by) == ("fenced", 3, "new:1")
    with pytest.raises(NotPrimaryError) as refused:
        manager.list_dir("/")
    assert refused.value.primary_address == "new:1"


def test_a_fence_without_a_hint_keeps_the_known_successor():
    manager = fenced_manager(3, "new:1")
    # The shipper's self-fence after a standby bounced its stream.
    assert manager.fence(3, None) == {"fenced": True, "epoch": 3}
    assert manager.fenced_by == "new:1"
    assert manager.fence(4)["epoch"] == 4
    assert manager.fenced_by == "new:1"
    # A hint that comes with a fence at or above the epoch is adopted.
    manager.fence(4, "newer:1")
    assert manager.fenced_by == "newer:1"
