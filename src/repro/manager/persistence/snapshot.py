"""Snapshot codec: a live manager's durable state as one plain dict.

A snapshot captures everything the journal would otherwise have to replay:
the namespace (folders, retention policies, files), every dataset's version
chain and chunk-maps (each version with the id of the session that committed
it), replication targets, the open write sessions, the outstanding space
reservations, the id counters, the GC seen-sets and the set of known
benefactors.  Finished sessions and released reservations are gone from the
manager, so a snapshot is the size of the live state, not of the history.
Registry *liveness* is deliberately not captured — it is soft state that
benefactors re-establish through registration — so restored benefactors
start offline.

The codec is import-cycle free: it duck-types the manager and late-imports
the record classes it needs to rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.chunk_map import ChunkMap
from repro.core.dataset import DatasetMetadata, DatasetVersion
from repro.util.config import RetentionConfig, RetentionPolicyKind

SNAPSHOT_FORMAT = 1


def _encode_retention(retention: RetentionConfig) -> Dict[str, object]:
    return {
        "kind": retention.kind.value,
        "purge_after": retention.purge_after,
        "keep_last": retention.keep_last,
    }


def _decode_retention(payload: Optional[Dict[str, object]]) -> Optional[RetentionConfig]:
    if payload is None:
        return None
    return RetentionConfig(
        kind=RetentionPolicyKind(payload["kind"]),
        purge_after=payload["purge_after"],
        keep_last=payload["keep_last"],
    )


def _encode_version(version: DatasetVersion) -> Dict[str, object]:
    return {
        "version": version.version,
        "size": version.size,
        "created_at": version.created_at,
        "producer": version.producer,
        "timestep": version.timestep,
        "attributes": dict(version.attributes),
        "obsolete": version.obsolete,
        "session_id": version.session_id,
        "chunk_map": version.chunk_map.to_dict(),
    }


def decode_version(payload: Dict[str, object],
                   version: Optional[int] = None) -> DatasetVersion:
    """A version from its snapshot entry, or from a ``commit`` record (which
    carries no number of its own: the session's is passed as ``version``).
    Both carry the committing ``session_id``."""
    return DatasetVersion(
        version=payload["version"] if version is None else version,
        chunk_map=ChunkMap.from_dict(payload["chunk_map"]),
        size=payload["size"],
        created_at=payload["created_at"],
        producer=payload.get("producer", ""),
        timestep=payload.get("timestep"),
        attributes=dict(payload.get("attributes", {})),
        obsolete=bool(payload.get("obsolete", False)),
        session_id=payload.get("session_id", ""),
    )


def encode_manager_state(manager) -> Dict[str, object]:
    """Serialize the manager's durable state (call under its meta lock)."""
    namespace = manager.namespace
    folders = []
    for path, folder in namespace.iter_folders("/"):
        entry: Dict[str, object] = {"path": path, "created_at": folder.created_at}
        if folder.retention is not None:
            entry["retention"] = _encode_retention(folder.retention)
        folders.append(entry)
    files = [
        {"path": path, "dataset_id": e.dataset_id, "created_at": e.created_at}
        for path, e in namespace.iter_files("/")
    ]
    datasets = [
        {
            "dataset_id": dataset.dataset_id,
            "name": dataset.name,
            "folder": dataset.folder,
            "next_version": dataset.next_version,
            "versions": [_encode_version(v) for v in dataset.versions],
        }
        for dataset in manager._datasets.values()
    ]
    sessions = [
        {
            "session_id": s.session_id,
            "client_id": s.client_id,
            "path": s.path,
            "dataset_id": s.dataset_id,
            "version": s.version,
            "stripe": list(s.stripe),
            "reservation_id": s.reservation_id,
            "created_at": s.created_at,
            "replication_level": s.replication_level,
            "acked_chunks": {cid: list(holders) for cid, holders in s.acked_chunks.items()},
        }
        for s in manager._sessions.values()
    ]
    reservations = [
        {
            "reservation_id": r.reservation_id,
            "client_id": r.client_id,
            "dataset_id": r.dataset_id,
            "amount": r.amount,
            "benefactors": list(r.benefactors),
            "created_at": r.created_at,
            "lease": r.lease,
        }
        for r in manager.reservations.outstanding()
    ]
    benefactors = [
        {
            "benefactor_id": record.benefactor_id,
            "address": record.address,
            "registered_at": record.registered_at,
        }
        for record in manager.registry.known()
    ]
    return {
        "format": SNAPSHOT_FORMAT,
        "epoch": getattr(manager, "epoch", 1),
        "counters": {
            "session": manager._session_seq,
            "dataset": manager._dataset_seq,
            # Released reservations are not in the snapshot, so the counter
            # is: a restarted manager must not hand their ids out again.
            "reservation": manager.reservations._seq,
        },
        "namespace": {"folders": folders, "files": files},
        "datasets": datasets,
        "replication_targets": dict(manager._replication_targets),
        "sessions": sessions,
        "reservations": reservations,
        "gc_seen": {bid: sorted(seen) for bid, seen in manager._gc_seen.items()},
        "corrupt": {
            chunk_id: dict(holders)
            for chunk_id, holders in manager._corrupt.items()
        },
        "benefactors": benefactors,
    }


def decode_session(payload: Dict[str, object]):
    """An open write session from its snapshot entry, or a fresh one from a
    ``create_session`` record (same keys, no acked chunks yet)."""
    from repro.manager.manager import WriteSessionRecord  # late: avoid cycle

    return WriteSessionRecord(
        session_id=payload["session_id"],
        client_id=payload["client_id"],
        path=payload["path"],
        dataset_id=payload["dataset_id"],
        version=payload["version"],
        stripe=list(payload["stripe"]),
        reservation_id=payload["reservation_id"],
        created_at=payload["created_at"],
        replication_level=payload["replication_level"],
        acked_chunks={
            cid: list(holders)
            for cid, holders in payload.get("acked_chunks", {}).items()
        },
    )


def restore_manager_state(manager, state: Dict[str, object]) -> None:
    """Load a snapshot dict into a freshly constructed manager."""
    namespace = manager.namespace
    folders: List[Dict[str, object]] = state["namespace"]["folders"]
    # Parents before children: iter_folders guarantees it on encode, but the
    # JSON round-trip is easier to trust sorted by depth.
    for entry in sorted(folders, key=lambda e: e["path"].count("/")):
        folder = namespace.ensure_folder(entry["path"], created_at=entry["created_at"])
        folder.retention = _decode_retention(entry.get("retention"))
    for entry in state["namespace"]["files"]:
        namespace.add_file(
            entry["path"], entry["dataset_id"], created_at=entry["created_at"]
        )

    for payload in state["datasets"]:
        dataset = DatasetMetadata(
            dataset_id=payload["dataset_id"],
            name=payload["name"],
            folder=payload["folder"],
        )
        for version_payload in payload["versions"]:
            dataset.commit_version(decode_version(version_payload))
        dataset.note_version_allocated(payload["next_version"] - 1)
        manager._datasets[dataset.dataset_id] = dataset

    manager._replication_targets.update(state.get("replication_targets", {}))

    for payload in state["sessions"]:
        session = decode_session(payload)
        manager._sessions[session.session_id] = session

    for payload in state.get("reservations", []):
        manager.reservations.restore(
            reservation_id=payload["reservation_id"],
            client_id=payload["client_id"],
            dataset_id=payload["dataset_id"],
            amount=payload["amount"],
            benefactors=list(payload["benefactors"]),
            created_at=payload["created_at"],
            lease=payload["lease"],
        )

    for bid, seen in state.get("gc_seen", {}).items():
        manager._gc_seen[bid] = set(seen)

    for chunk_id, holders in state.get("corrupt", {}).items():
        manager._corrupt[chunk_id] = dict(holders)

    for payload in state.get("benefactors", []):
        manager.registry.restore(
            payload["benefactor_id"],
            payload["address"],
            registered_at=payload.get("registered_at", 0.0),
        )

    counters = state.get("counters", {})
    manager._session_seq = max(manager._session_seq, counters.get("session", 0))
    manager._dataset_seq = max(manager._dataset_seq, counters.get("dataset", 0))
    manager.reservations._seq = max(manager.reservations._seq,
                                    counters.get("reservation", 0))

    # The primary epoch only ever moves forward — a restored snapshot must
    # never roll a manager back behind an epoch it has already observed.
    manager.epoch = max(getattr(manager, "epoch", 1),
                        int(state.get("epoch", 1)))
