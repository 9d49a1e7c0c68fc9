"""repro.manager.fsck: one case per invariant, and the journal CLI.

Every invariant case starts from the encoded state of a small pool that
breaks nothing — committed files, an open session, a standby, real
inventories — and changes exactly what that invariant forbids.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import StdchkConfig, StdchkPool
from repro.manager.fsck import fsck, main
from repro.manager.persistence import encode_manager_state, scan_journal_dir
from repro.manager.persistence.journal import JournalWriter
from tests.conftest import make_bytes

CONFIG = dict(chunk_size=64 * 1024, stripe_width=2, replication_level=2)


@pytest.fixture(scope="module")
def cluster():
    """``(primary state, standby state, manager statuses, inventories)``."""
    with StdchkPool(benefactor_count=3, config=StdchkConfig(**CONFIG)) as pool:
        standby = pool.add_standby("standby-0")
        client = pool.client("writer")
        client.write_file("/app/a", make_bytes(200 * 1024, seed=1))
        client.write_file("/app/b", make_bytes(70 * 1024, seed=2))
        client.open_write("/app/open").write(b"x" * 1024)  # left open
        managers = [pool.manager.manager_status(), standby.manager_status()]
        inventories = {bid: node.store.chunk_ids()
                       for bid, node in pool.benefactors.items()}
        yield (encode_manager_state(pool.manager), encode_manager_state(standby),
               managers, inventories)


def check(cluster, state=None, standby=None, managers=None, inventories=None):
    primary, replica, statuses, held = copy.deepcopy(cluster)
    return [violation.invariant for violation in fsck(
        state or primary, standbys=[standby or replica],
        managers=managers or statuses, inventories=inventories or held,
        quiescent=True)]


def mutated(cluster, index=0):
    """A deep copy of the primary (0) or standby (1) state to break."""
    return copy.deepcopy(cluster[index])


def test_a_clean_cluster_breaks_nothing(cluster):
    state = cluster[0]
    assert state["sessions"] and state["reservations"] and len(state["datasets"]) == 3
    assert check(cluster) == []


# ---------------------------------------------------------------- always
def test_a_dataset_named_by_another_path(cluster):
    state = mutated(cluster)
    state["datasets"][0]["name"] = "/app/elsewhere"
    assert check(cluster, state=state) == ["namespace-datasets"]


def test_a_file_naming_a_missing_dataset(cluster):
    state = mutated(cluster)
    state["namespace"]["files"].append(
        {"path": "/app/ghost", "dataset_id": "ds-99", "created_at": 0.0})
    assert check(cluster, state=state) == ["namespace-datasets"]


def test_a_reservation_no_session_holds(cluster):
    state = mutated(cluster)
    state["reservations"].append(dict(state["reservations"][0],
                                      reservation_id="rsv-99"))
    assert check(cluster, state=state) == ["reservations-sessions"]


def test_a_dataset_without_a_replication_target(cluster):
    state = mutated(cluster)
    del state["replication_targets"][state["datasets"][0]["dataset_id"]]
    assert check(cluster, state=state) == ["replication-targets"]


def test_two_primaries_in_one_epoch(cluster):
    managers = copy.deepcopy(cluster[2])
    managers[1]["role"] = "primary"
    assert check(cluster, managers=managers) == ["one-primary-per-epoch"]
    managers[1]["epoch"] += 1  # a successor in a newer epoch is fine
    assert check(cluster, managers=managers) == []


def test_a_standby_ahead_of_its_primary(cluster):
    standby = mutated(cluster, 1)
    standby["counters"]["session"] += 1
    assert check(cluster, standby=standby) == ["standby-prefix"]


def test_a_standby_holding_a_version_differently(cluster):
    standby = mutated(cluster, 1)
    standby["datasets"][0]["versions"][0]["size"] += 1
    assert check(cluster, standby=standby) == ["standby-prefix"]


# ---------------------------------------------------------- at quiescence
def test_an_open_session_that_lost_its_reservation(cluster):
    state = mutated(cluster)
    state["reservations"] = []
    assert check(cluster, state=state) == ["sessions-reserved"]
    assert fsck(state) == []  # not an *always* invariant


def test_a_ledger_entry_for_an_unreferenced_chunk(cluster):
    state = mutated(cluster)
    holder = state["benefactors"][0]["benefactor_id"]
    state["corrupt"]["sha1:never-committed"] = {holder: 0.0}
    assert check(cluster, state=state) == ["ledger-referents"]


def committed(state):
    """``(chunk_id, holders)`` of the first committed placement."""
    placement = state["datasets"][0]["versions"][0]["chunk_map"]["placements"][0]
    return placement["chunk_id"], placement["benefactors"]


def test_a_chunk_whose_every_holder_is_corrupt(cluster):
    state = mutated(cluster)
    chunk_id, holders = committed(state)
    state["corrupt"][chunk_id] = {holder: 0.0 for holder in holders}
    assert check(cluster, state=state) == ["chunk-placement"]


def test_a_chunk_no_inventory_holds(cluster):
    chunk_id, _holders = committed(cluster[0])
    inventories = {holder: [c for c in chunks if c != chunk_id]
                   for holder, chunks in cluster[3].items()}
    assert check(cluster, inventories=inventories) == ["chunk-placement"]


def test_health_counts_violations_once_a_record_has_moved_the_state():
    with StdchkPool(benefactor_count=2, config=StdchkConfig(**CONFIG)) as pool:
        manager = pool.manager
        pool.client("writer").write_file("/app/a", make_bytes(1024, seed=3))
        assert manager.health()["fsck_violations"] == 0
        manager._replication_targets.clear()  # behind the appliers' back
        assert manager.health()["fsck_violations"] == 0  # nothing applied since
        manager.make_folder("/later")
        assert manager.health()["fsck_violations"] == 1


# ------------------------------------------------------------------- CLI
@pytest.fixture
def journal(tmp_path):
    """A journal directory a scripted write left behind."""
    journal_dir = str(tmp_path / "journal")
    config = StdchkConfig(**CONFIG, journal_dir=journal_dir,
                          journal_fsync_policy="never")
    with StdchkPool(benefactor_count=3, config=config) as pool:
        client = pool.client("writer")
        client.mkdir("/app", retention_kind="automated-replace", keep_last=2)
        for number in range(3):
            client.write_file(f"/app/ckpt.N0.T{number}",
                              make_bytes(100 * 1024, seed=number))
        client.delete("/app/ckpt.N0.T0")
    return journal_dir


def test_the_cli_replays_a_clean_journal_and_dumps_a_line_per_record(journal):
    records = scan_journal_dir(journal).records
    answer = subprocess.run(
        [sys.executable, "-m", "repro.manager.fsck", journal, "--dump"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert answer.returncode == 0, answer.stderr
    lines = answer.stdout.splitlines()
    assert len(lines) == len(records) > 0
    for line, (lsn, record) in zip(lines, records):
        number, op, data = line.split(" ", 2)
        assert (int(number), op, json.loads(data)) == (lsn, record["op"], record["data"])
    assert "0 violations" in answer.stderr and "Warning" not in answer.stderr


def contents(directory):
    return {path.name: path.read_bytes() for path in pathlib.Path(directory).iterdir()}


def test_the_cli_changes_nothing_and_prints_no_records_without_dump(journal, capsys):
    before = contents(journal)
    assert main([journal]) == 0
    assert capsys.readouterr().out == ""
    assert contents(journal) == before


def test_the_cli_rejects_a_state_that_breaks_an_invariant(journal, capsys):
    scan = scan_journal_dir(journal)
    broken = {"op": "set_retention", "data": {
        "path": "/nowhere", "retention_kind": "automated-purge",
        "purge_after": 1.0, "keep_last": 1}}
    writer = JournalWriter(os.path.join(journal, "journal-000000000000.wal"), "never")
    writer.append(broken)
    writer.close()
    assert main([journal]) == 1
    assert f"record {scan.last_lsn + 1} (set_retention) does not apply" in (
        capsys.readouterr().err)


def test_the_cli_rejects_a_snapshot_that_breaks_an_invariant(journal, capsys):
    with StdchkPool(benefactor_count=2, config=StdchkConfig(
            **CONFIG, journal_dir=journal, journal_fsync_policy="never")) as pool:
        state = encode_manager_state(pool.manager)
        state["replication_targets"].clear()
        pool.manager.persistence.take_snapshot(state)
    assert main([journal]) == 1
    err = capsys.readouterr().err
    assert "2 violations" in err and "replication-targets: dataset" in err
