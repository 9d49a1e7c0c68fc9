"""The manager's invariants, stated once: a checker over encoded state.

:func:`fsck` is a pure function.  It reads a primary's
:func:`~repro.manager.persistence.encode_manager_state` document, and
optionally its standbys' documents, the benefactors' chunk inventories and
the ``manager_status()`` answers of every manager in the cluster, and
returns the violations it finds.  It changes nothing and raises on nothing
but a malformed document.

Two sets of invariants:

* **always** — true after every call, failed or not, on every manager:

  - ``namespace-datasets``: every file names a dataset, every dataset is
    named by exactly one file, and the dataset's name is that file's path;
  - ``reservations-sessions``: every outstanding reservation belongs to the
    one open session that holds its id, for the same dataset and client;
  - ``replication-targets``: there is a replication target for exactly the
    datasets that exist;
  - ``one-primary-per-epoch``: no two managers serve as primary under the
    same epoch;
  - ``standby-prefix``: no standby is ahead of its primary (epoch, id
    counters) or holds a version the primary holds differently.

* **at quiescence** — true once no writer is mid-write and every holder has
  reconciled; between those points a correct cluster may break them:

  - ``sessions-reserved``: every open session still holds its reservation.
    Lease expiry is soft state (no record) on each manager's own clock, and
    a session that outlived its lease may still commit;
  - ``ledger-referents``: the corruption ledger names only chunks some
    committed version references, on known benefactors.
    ``report_corrupt_chunk`` records whatever id it is sent, and an entry
    is cleared only when its holder reconciles without the chunk;
  - ``chunk-placement``: every placement of a committed version has a
    holder whose copy is not in the ledger (and, given inventories, that
    holds it).
    ``drop_benefactor`` and a corruption report can leave a chunk with no
    holder until repair finds a copy.

``python -m repro.manager.fsck <journal_dir> [--dump]`` replays a journal
directory (newest snapshot, then every record after it) through
:func:`~repro.manager.persistence.apply_record` without changing a byte of
it, checks the *always* set on the result and exits 1 if anything is
violated or a record does not apply.  ``--dump`` prints one line per record
replayed, ``<lsn> <op> <data as JSON>``, on stdout; the verdict goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence


class Violation(NamedTuple):
    """One broken invariant, by name, and what breaks it."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def fsck(state: Dict, standbys: Iterable[Dict] = (),
         inventories: Optional[Dict[str, Iterable[str]]] = None,
         managers: Sequence[Dict] = (), quiescent: bool = False) -> List[Violation]:
    """Every invariant ``state`` breaks; the *at quiescence* set only if asked.

    ``standbys`` are encoded states of the primary's standbys,
    ``inventories`` maps benefactor ids to the chunk ids they hold, and
    ``managers`` holds ``manager_status()`` answers (``role``, ``epoch``).
    """
    found: List[Violation] = []
    found += _namespace_datasets(state)
    found += _reservations_sessions(state)
    found += _replication_targets(state)
    found += _one_primary_per_epoch(managers)
    for index, standby in enumerate(standbys):
        found += _standby_prefix(state, standby, index)
    if quiescent:
        found += _sessions_reserved(state)
        found += _ledger_referents(state)
        found += _chunk_placement(state, inventories)
    return found


# ------------------------------------------------------------------ always
def _namespace_datasets(state: Dict) -> List[Violation]:
    found = []
    datasets = {d["dataset_id"]: d for d in state["datasets"]}
    named = Counter(entry["dataset_id"] for entry in state["namespace"]["files"])
    for entry in state["namespace"]["files"]:
        dataset = datasets.get(entry["dataset_id"])
        if dataset is None:
            found.append(Violation("namespace-datasets",
                                   f"file {entry['path']} names missing dataset "
                                   f"{entry['dataset_id']}"))
        elif dataset["name"] != entry["path"]:
            found.append(Violation("namespace-datasets",
                                   f"dataset {entry['dataset_id']} is named "
                                   f"{dataset['name']}, its file is {entry['path']}"))
    for dataset_id in datasets:
        if named[dataset_id] != 1:
            found.append(Violation("namespace-datasets",
                                   f"dataset {dataset_id} is named by "
                                   f"{named[dataset_id]} files"))
    return found


def _reservations_sessions(state: Dict) -> List[Violation]:
    found = []
    holders: Dict[str, List[Dict]] = {}
    for session in state["sessions"]:
        holders.setdefault(session["reservation_id"], []).append(session)
    for reservation in state["reservations"]:
        rid = reservation["reservation_id"]
        sessions = holders.get(rid, [])
        if len(sessions) != 1:
            found.append(Violation("reservations-sessions",
                                   f"reservation {rid} is held by "
                                   f"{len(sessions)} open sessions"))
        elif (sessions[0]["dataset_id"], sessions[0]["client_id"]) != (
                reservation["dataset_id"], reservation["client_id"]):
            found.append(Violation("reservations-sessions",
                                   f"reservation {rid} and session "
                                   f"{sessions[0]['session_id']} disagree on "
                                   "dataset or client"))
    return found


def _replication_targets(state: Dict) -> List[Violation]:
    datasets = {d["dataset_id"] for d in state["datasets"]}
    targets = set(state["replication_targets"])
    return [Violation("replication-targets", f"dataset {dataset_id} has no target")
            for dataset_id in sorted(datasets - targets)] + [
        Violation("replication-targets", f"target for missing dataset {dataset_id}")
        for dataset_id in sorted(targets - datasets)]


def _one_primary_per_epoch(managers: Sequence[Dict]) -> List[Violation]:
    primaries = Counter(status["epoch"] for status in managers
                        if status["role"] == "primary")
    return [Violation("one-primary-per-epoch",
                      f"{count} primaries serve epoch {epoch}")
            for epoch, count in sorted(primaries.items()) if count > 1]


def _version_key(version: Dict):
    """What a replica must agree on; placements are soft state."""
    return (version["session_id"], version["size"],
            [p["chunk_id"] for p in version["chunk_map"]["placements"]])


def _standby_prefix(state: Dict, standby: Dict, index: int) -> List[Violation]:
    found = []
    where = f"standby {index}"
    if standby["epoch"] > state["epoch"]:
        found.append(Violation("standby-prefix",
                               f"{where} is at epoch {standby['epoch']}, "
                               f"the primary at {state['epoch']}"))
    for name, value in standby["counters"].items():
        if value > state["counters"][name]:
            found.append(Violation("standby-prefix",
                                   f"{where} has issued {name} {value}, the "
                                   f"primary only {state['counters'][name]}"))
    primary = {d["dataset_id"]: {v["version"]: v for v in d["versions"]}
               for d in state["datasets"]}
    for dataset in standby["datasets"]:
        versions = primary.get(dataset["dataset_id"], {})
        for version in dataset["versions"]:
            mine = versions.get(version["version"])
            if mine is not None and _version_key(mine) != _version_key(version):
                found.append(Violation("standby-prefix",
                                       f"{where} holds version {version['version']} "
                                       f"of {dataset['dataset_id']} differently"))
    return found


# ------------------------------------------------------------ at quiescence
def _sessions_reserved(state: Dict) -> List[Violation]:
    reserved = {r["reservation_id"] for r in state["reservations"]}
    return [Violation("sessions-reserved",
                      f"session {s['session_id']} lost reservation "
                      f"{s['reservation_id']}")
            for s in state["sessions"] if s["reservation_id"] not in reserved]


def _placements(state: Dict):
    """``(dataset_id, version, placement)`` of every committed placement."""
    for dataset in state["datasets"]:
        for version in dataset["versions"]:
            for placement in version["chunk_map"]["placements"]:
                yield dataset["dataset_id"], version["version"], placement


def _ledger_referents(state: Dict) -> List[Violation]:
    found = []
    chunks = {placement["chunk_id"] for _d, _v, placement in _placements(state)}
    known = {b["benefactor_id"] for b in state["benefactors"]}
    for chunk_id, holders in sorted(state["corrupt"].items()):
        if chunk_id not in chunks:
            found.append(Violation("ledger-referents",
                                   f"ledger names unreferenced chunk {chunk_id}"))
        for holder in sorted(set(holders) - known):
            found.append(Violation("ledger-referents",
                                   f"ledger names unknown holder {holder} "
                                   f"of {chunk_id}"))
    return found


def _chunk_placement(state: Dict,
                     inventories: Optional[Dict[str, Iterable[str]]]) -> List[Violation]:
    """A reader of a version sees only that version's placements."""
    held = {b: set(chunks) for b, chunks in (inventories or {}).items()}
    found = []
    for dataset_id, number, placement in _placements(state):
        chunk_id = placement["chunk_id"]
        corrupt = state["corrupt"].get(chunk_id, {})
        if not any(h not in corrupt and (h not in held or chunk_id in held[h])
                   for h in placement["benefactors"]):
            found.append(Violation("chunk-placement",
                                   f"chunk {chunk_id} of {dataset_id} v{number} "
                                   "has no healthy holder"))
    return found


# ---------------------------------------------------------------------- CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.manager.manager import MetadataManager
    from repro.manager.persistence import (
        apply_record,
        encode_manager_state,
        restore_manager_state,
        scan_journal_dir,
    )
    from repro.transport.inprocess import InProcessTransport
    from repro.util.clock import VirtualClock

    parser = argparse.ArgumentParser(
        prog="python -m repro.manager.fsck",
        description="Replay a manager journal directory and check its invariants.")
    parser.add_argument("journal_dir")
    parser.add_argument("--dump", action="store_true",
                        help="print one line per replayed record on stdout")
    args = parser.parse_args(argv)

    scan = scan_journal_dir(args.journal_dir)
    manager = MetadataManager(InProcessTransport(), clock=VirtualClock(),
                              manager_id="fsck")
    violations: List[Violation] = []
    with manager._meta_lock:
        if scan.state is not None:
            restore_manager_state(manager, scan.state)
        for lsn, record in scan.records:
            if args.dump:
                data = json.dumps(record.get("data"), sort_keys=True,
                                  separators=(",", ":"))
                sys.stdout.write(f"{lsn} {record.get('op')} {data}\n")
            try:
                apply_record(manager, record)
            except Exception as exc:  # the journal cannot be replayed past it
                violations.append(Violation(
                    "replay", f"record {lsn} ({record.get('op')}) does not "
                    f"apply: {type(exc).__name__}: {exc}"))
                break
        state = encode_manager_state(manager)
    violations += fsck(state)
    torn = "" if scan.torn is None else f", torn tail in {scan.torn}"
    sys.stderr.write(f"{args.journal_dir}: snapshot at lsn {scan.snapshot_lsn}, "
                     f"{len(scan.records)} records to lsn {scan.last_lsn}{torn}, "
                     f"{len(violations)} violations\n")
    for violation in violations:
        sys.stderr.write(f"  {violation}\n")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
