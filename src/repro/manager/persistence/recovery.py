"""The manager's state machine: one applier per journaled operation.

:func:`apply_record` is the only code that mutates journaled metadata — the
namespace, dataset version chains, replication targets, open write sessions,
outstanding reservations, id counters, the corruption ledger, benefactor
membership and the epoch.  The live RPC handlers of :class:`MetadataManager`
decide (clock, next ids, stripe allocation) by reading only, build a record
and hand it to ``_commit``, which runs the applier here and then journals and
ships the record; crash recovery and :meth:`StandbyManager.replicate_records`
run the same applier on the same record.  Live = replayed = replicated.

Records are *logical redo* records: they carry the results the handler
computed (allocated session ids, stripes, version numbers, commit-time chunk
maps), not the inputs, so applying one is deterministic even though stripe
allocation depends on registry liveness that no longer exists at recovery
time.

Every applier is all-or-nothing: it raises before touching any table or it
completes.  A call that fails therefore leaves memory, journal and standbys
where they were.  Appliers may return a value (versions removed, replicas
dropped, the pruned version) for the handler's answer; replay ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.core.dataset import DatasetMetadata, DatasetVersion
from repro.core.namespace import split_path
from repro.exceptions import JournalCorruptError, ReservationError
from repro.manager.persistence.snapshot import decode_session, decode_version
from repro.util.config import RetentionConfig, RetentionPolicyKind


@dataclass
class RecoveryReport:
    """Outcome of one manager recovery."""

    snapshot_loaded: bool = False
    records_replayed: int = 0
    torn_bytes_dropped: int = 0
    duration: float = 0.0
    datasets: int = 0
    versions: int = 0
    sessions_active: int = 0
    benefactors_known: int = 0


def _retention(data) -> RetentionConfig:
    return RetentionConfig(
        kind=RetentionPolicyKind(data["retention_kind"]),
        purge_after=data["purge_after"],
        keep_last=data["keep_last"],
    )


def _apply_register(manager, data) -> None:
    manager.registry.restore(
        data["benefactor_id"], data["address"], registered_at=data.get("t", 0.0)
    )


def _apply_make_folder(manager, data) -> None:
    retention = _retention(data) if data.get("retention_kind") is not None else None
    folder = manager.namespace.ensure_folder(data["path"], created_at=data.get("t", 0.0))
    if retention is not None:
        folder.retention = retention


def _apply_set_retention(manager, data) -> None:
    manager.namespace.set_retention(data["path"], _retention(data))


def _apply_delete(manager, data) -> int:
    """Returns how many committed versions went with the file."""
    entry = manager.namespace.remove_file(data["path"])
    dataset = manager._datasets.pop(entry.dataset_id, None)
    manager._replication_targets.pop(entry.dataset_id, None)
    return len(dataset) if dataset is not None else 0


def _apply_remove_folder(manager, data) -> None:
    # Files beneath the folder were dropped by their own delete records;
    # force still covers folders that only contained sub-folders.
    manager.namespace.remove_folder(data["path"], force=data.get("force", False))


def _ordinal(identifier: str) -> int:
    return int(identifier.rsplit("-", 1)[-1])


def _apply_create_session(manager, data) -> None:
    now = data["created_at"]
    path = data["path"]
    dataset_id = data["dataset_id"]
    amount = data.get("expected_size", 0)
    if amount < 0:
        raise ReservationError("reservation amount must be non-negative")
    parent, name = split_path(path)
    # ensure_folder creates nothing when it raises, and add_file can only
    # raise (the path is a folder) when the parent already existed, so the
    # namespace is still untouched wherever this applier fails.
    folder = manager.namespace.ensure_folder(parent, created_at=now)
    if folder.child_file(name) is not None:
        dataset = manager._datasets[dataset_id]
    else:
        manager.namespace.add_file(path, dataset_id, created_at=now)
        dataset = DatasetMetadata(dataset_id=dataset_id, name=path, folder=parent)
        manager._datasets[dataset_id] = dataset
        manager._dataset_seq = max(manager._dataset_seq, _ordinal(dataset_id))
    manager._replication_targets[dataset_id] = data["replication_level"]
    manager.reservations.restore(
        reservation_id=data["reservation_id"],
        client_id=data["client_id"],
        dataset_id=dataset_id,
        amount=amount,
        benefactors=[s["benefactor_id"] for s in data["stripe"]],
        created_at=now,
        lease=manager.config.reservation_lease,
    )
    dataset.note_version_allocated(data["version"])
    session = decode_session(data)
    manager._sessions[session.session_id] = session
    manager._session_seq = max(manager._session_seq, _ordinal(session.session_id))


def _apply_extend_stripe(manager, data) -> None:
    manager._sessions[data["session_id"]].stripe = list(data["stripe"])


def _apply_put_chunks_ack(manager, data) -> None:
    session = manager._sessions[data["session_id"]]
    for placement in data["placements"]:
        holders = session.acked_chunks.setdefault(str(placement["chunk_id"]), [])
        for benefactor in placement.get("benefactors", ()):
            if benefactor not in holders:
                holders.append(benefactor)


def _end_session(manager, session_id: str) -> None:
    session = manager._sessions.pop(session_id)
    # Lease expiry is soft state (GarbageCollector.collect_expired_reservations
    # writes no record), so the reservation of a session that outlived its
    # lease may already be gone; release then finds nothing.
    manager.reservations.release(session.reservation_id)


def _apply_commit(manager, data) -> None:
    """The new version keeps the record's ``session_id``: once the session is
    deleted, that is what answers a retried commit."""
    session = manager._sessions[data["session_id"]]
    dataset = manager._datasets[session.dataset_id]
    dataset.commit_version(decode_version(data, version=session.version))
    _end_session(manager, session.session_id)


def _apply_abort(manager, data) -> None:
    _end_session(manager, data["session_id"])


def _apply_prune(manager, data) -> DatasetVersion:
    return manager._datasets[data["dataset_id"]].remove_version(data["version"])


def _apply_gc(manager, data) -> None:
    manager._gc_seen.setdefault(data["benefactor_id"], set()).update(data["dead"])


def _apply_drop_benefactor(manager, data) -> int:
    """Returns how many placements lost a replica."""
    return sum(
        version.chunk_map.drop_benefactor(data["benefactor_id"])
        for dataset in manager._datasets.values()
        for version in dataset.versions
    )


def _apply_epoch(manager, data) -> None:
    # Promotions journal their epoch bump; replay must never move backwards.
    manager.epoch = max(getattr(manager, "epoch", 1), int(data["epoch"]))


def _apply_corrupt_chunk(manager, data) -> int:
    """Returns how many placements dropped the corrupt replica."""
    chunk_id = data["chunk_id"]
    benefactor_id = data["benefactor_id"]
    dropped = 0
    for dataset in manager._datasets.values():
        for version in dataset.versions:
            for placement in version.chunk_map.placements_for(chunk_id):
                if benefactor_id in placement.benefactors:
                    placement.remove_replica(benefactor_id)
                    dropped += 1
    manager._corrupt.setdefault(chunk_id, {})[benefactor_id] = data.get("t", 0.0)
    return dropped


def _apply_clear_corrupt(manager, data) -> None:
    """The node no longer holds its corrupt copies of these chunks."""
    benefactor_id = data["benefactor_id"]
    for chunk_id in data["chunk_ids"]:
        holders = manager._corrupt.get(chunk_id, {})
        holders.pop(benefactor_id, None)
        if not holders:
            manager._corrupt.pop(chunk_id, None)


def _apply_detach_replicas(manager, data) -> None:
    """The node advertised an inventory without these chunks: its copies
    are gone, so no committed placement may count it as a holder."""
    benefactor_id, lost = data["benefactor_id"], set(data["chunk_ids"])
    for dataset in manager._datasets.values():
        for version in dataset.versions:
            for placement in version.chunk_map:
                if placement.ref.chunk_id in lost:
                    placement.remove_replica(benefactor_id)


_APPLIERS: Dict[str, Callable] = {
    "register": _apply_register,
    "make_folder": _apply_make_folder,
    "set_retention": _apply_set_retention,
    "delete": _apply_delete,
    "remove_folder": _apply_remove_folder,
    "create_session": _apply_create_session,
    "extend_stripe": _apply_extend_stripe,
    "put_chunks_ack": _apply_put_chunks_ack,
    "commit": _apply_commit,
    "abort": _apply_abort,
    "prune": _apply_prune,
    "gc": _apply_gc,
    "drop_benefactor": _apply_drop_benefactor,
    "corrupt_chunk": _apply_corrupt_chunk,
    "clear_corrupt": _apply_clear_corrupt,
    "detach_replicas": _apply_detach_replicas,
    "epoch": _apply_epoch,
}


def apply_record(manager, record: Dict[str, object]):
    """Apply one record to ``manager`` (call under its meta lock).

    Returns whatever the op's applier returns (see the module docstring).
    """
    try:
        op = record["op"]
        data = record["data"]
    except (TypeError, KeyError):
        raise JournalCorruptError(f"malformed journal record: {record!r}") from None
    applier = _APPLIERS.get(op)
    if applier is None:
        raise JournalCorruptError(f"unknown journal op: {op!r}")
    result = applier(manager, data)
    manager.records_applied += 1
    return result
