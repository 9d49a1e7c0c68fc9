"""Two machines: the manager alone, and a whole cluster under faults.

**The manager machine.**  The manager is one journaled state machine:
live = replayed = replicated.  A differential test.  Hypothesis draws
sequences of manager calls — all 16 journaled operations but the epoch
bump (``clear_corrupt`` and ``detach_replicas`` through inventory
reconciliation) plus benefactor online/offline flips, clock advances past
the reservation lease and lease collection — with arguments chosen so
that a good share of the calls *fail* (unknown, committed or aborted
sessions, missing paths, non-empty folders without ``force``, bad retention
kinds, negative sizes, no benefactor online).  They run against a journaled
primary that ships through a real :class:`LogShipper` to a
:class:`StandbyManager` on an in-process transport, on a virtual clock (no
sleeps).  Then:

* after **every** call the primary's document equals the standby's,
  :func:`repro.manager.fsck.fsck` finds none of its *always* invariants
  broken, and if the call raised, the primary's document and ``last_lsn``
  are what they were before it (an applier raises before touching anything
  or completes);
* a snapshot is forced at a drawn point, and at the end a fresh manager
  restarted from the journal directory holds the primary's document.

The document is ``encode_manager_state`` minus exactly one key, ``gc_seen``:
the per-benefactor report a ``gc_report`` leaves behind is soft state by
design (losing it delays collection by one seen-twice round, the safe
direction), so only the deletion authorization is a record and a replica's
seen-sets legitimately trail the primary's.

Lease expiry is soft state too — ``collect_expired_reservations`` writes no
record, every manager evaluates leases against its own clock — so the
``collect`` step runs on each replica it is about to compare, as the
maintenance loop of whichever manager is primary would.

**The cluster machine** (``Grid``) drives a whole ``StdchkPool`` — 4–5
benefactors, a standby, ``replication_quorum=1`` (the setting under which no
acknowledged commit may be lost), 4 KiB chunks, parallelism 1, one plain and
one FsCH client — through the pool's ``FaultyTransport`` on its
``VirtualClock``.  Its steps write, abandon, abort, read, prune and delete
files; kill the primary while it answers a drawn manager call of a write
(``lose_answer(..., nth=j, then=promote)``); re-enroll a standby; kill,
recover and fail benefactors (losing a disk only while every committed
chunk on it has another real holder); partition and heal any node; run
maintenance and service rounds; advance the clock; and corrupt one stored
copy of an FsCH chunk — only FsCH chunks, because a position-addressed
chunk carries no checksum a reader or anti-entropy could check it against
until ROADMAP item 3.  A model of two dicts (the bytes each session wrote,
the acknowledged versions) is checked after every step: fsck's *always*
set holds, every read returns the written bytes or a typed ``StdchkError``,
and every acknowledged, unpruned version is still listed.  At *repair
quiescence* (every node up, partitions healed, leases collected,
``heal(HEAL_ROUNDS)``) each committed chunk has its target count of holders
whose stores hold its bytes, and every version reads back; at *full
quiescence* (each abandoned writer's successor aborts its session) fsck,
its *at quiescence* set included, finds nothing.  Steps the product refuses
with a typed error are answers, not failures.

The last test is a source-level guard: ``manager.py`` itself contains no
mutation of a journaled table outside construction and the soft-state
handlers, so a new inline mutation cannot creep back in beside the appliers.
"""

from __future__ import annotations

import ast
import inspect
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.manager.manager as manager_module
from repro import StdchkConfig, StdchkPool
from repro.exceptions import (
    FileNotFoundInStdchkError,
    NoBenefactorsAvailableError,
    ReservationError,
    SessionCommittedError,
    StdchkError,
    UnknownDatasetError,
)
from repro.manager import GarbageCollector, MetadataManager
from repro.manager.fsck import fsck
from repro.manager.persistence import encode_manager_state
from repro.manager.replication import LogShipper, StandbyManager
from repro.transport.faulty import FaultyTransport
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from repro.util.config import SimilarityHeuristic
from tests.conftest import STATE_MACHINE_EXAMPLES, make_bytes

LEASE = 300.0


def _settings(examples: int = STATE_MACHINE_EXAMPLES) -> settings:
    """Tier-1 runs ``examples`` derandomised; ``--hypothesis-profile=ci``
    runs ten times as many from fresh seeds."""
    if settings.default is settings.get_profile("ci"):
        return settings(settings.default, max_examples=10 * examples)
    return settings(max_examples=examples, derandomize=True, deadline=None)


# --------------------------------------------------------------- the harness
def document(manager) -> dict:
    """The durable state, lists in canonical order, without ``gc_seen``."""
    with manager._meta_lock:
        doc = encode_manager_state(manager)
    del doc["gc_seen"]  # soft by design, see the module docstring
    for key, ident in (("datasets", "dataset_id"), ("sessions", "session_id"),
                       ("reservations", "reservation_id"),
                       ("benefactors", "benefactor_id")):
        doc[key] = sorted(doc[key], key=lambda entry: entry[ident])
    for key in ("folders", "files"):
        doc["namespace"][key] = sorted(doc["namespace"][key],
                                       key=lambda entry: entry["path"])
    return doc


class Cluster:
    """A journaled primary shipping to one standby; nothing else runs."""

    def __init__(self, journal_dir: str) -> None:
        self.config = StdchkConfig(
            journal_dir=journal_dir, journal_fsync_policy="never",
            stripe_width=2, replication_level=1, reservation_lease=LEASE,
        )
        self.clock = VirtualClock()
        self.transport = transport = FaultyTransport(InProcessTransport())
        self.primary = MetadataManager(transport, config=self.config,
                                       clock=self.clock, manager_id="primary")
        self.standby = StandbyManager(transport, config=self.config,
                                      clock=self.clock, manager_id="standby")
        self.shipper = LogShipper(self.primary)
        self.primary.attach_shipper(self.shipper)
        self.shipper.add_standby(self.standby.address)
        self.collectors = [GarbageCollector(self.primary, transport),
                           GarbageCollector(self.standby, transport)]

    def collect(self) -> None:
        for collector in self.collectors:
            collector.collect_expired_reservations()

    def snapshot(self) -> None:
        with self.primary._meta_lock:
            self.primary.persistence.take_snapshot(
                encode_manager_state(self.primary))

    def restart(self) -> MetadataManager:
        """A fresh manager over the primary's journal directory."""
        self.primary.close_persistence()
        replayed = MetadataManager(InProcessTransport(), config=self.config,
                                   clock=self.clock, manager_id="replayed")
        self.collectors.append(GarbageCollector(replayed, replayed.transport))
        return replayed

    def close(self) -> None:
        self.primary.close_persistence()


def shipped_ops(calls) -> list:
    """The ops of every record a logged call shipped to a standby."""
    return [record["op"] for call in calls if call.method == "replicate_records"
            for record in call.payload["records"]]


def _chunk_map(chunks, holders) -> dict:
    return {"placements": [
        {"chunk_id": f"c{c}", "offset": i * 10, "length": 10,
         "benefactors": [f"b{b}" for b in holders]}
        for i, c in enumerate(chunks)
    ]}


def _ordinal(drawn: int, issued: int) -> int:
    """Fold a drawn ordinal onto ``1..issued`` plus one never issued."""
    return 1 + drawn % (issued + 1)


def run_op(cluster: Cluster, op) -> None:
    """One step against the primary."""
    m, name, args = cluster.primary, op[0], op[1:]

    def session(drawn: int) -> str:
        return f"session-{_ordinal(drawn, m._session_seq)}"

    if name == "register":
        b, incarnation = args
        m.register_benefactor(f"b{b}", f"inproc://b{b}/{incarnation}", 1 << 30)
    elif name == "offline":
        m.report_benefactor_failure(f"b{args[0]}")
    elif name == "advance":
        cluster.clock.advance(args[0])
    elif name == "collect":
        cluster.collect()
    elif name == "make_folder":
        path, kind = args
        m.make_folder(path, retention_kind=kind)
    elif name == "set_retention":
        path, kind, purge_after = args
        m.set_retention(path, kind, purge_after=purge_after)
    elif name == "delete":
        m.delete(args[0])
    elif name == "remove_folder":
        m.remove_folder(args[0], force=args[1])
    elif name == "create_session":
        path, size = args
        m.create_session(path, "client", expected_size=size)
    elif name == "extend_stripe":
        m.extend_stripe(session(args[0]))
    elif name == "put_chunks_ack":
        drawn, chunks, holders = args
        m.put_chunks_ack(session(drawn),
                         _chunk_map(chunks, holders)["placements"])
    elif name == "commit":
        drawn, chunks, holders = args
        m.commit_session(session(drawn), _chunk_map(chunks, holders),
                         size=10 * len(chunks), producer="N0", timestep=drawn)
    elif name == "abort":
        m.abort_session(session(args[0]))
    elif name == "prune":
        dataset_id = f"ds-{_ordinal(args[0], m._dataset_seq)}"
        dataset = m._datasets.get(dataset_id)
        issued = dataset.next_version - 1 if dataset is not None else 0
        m.prune_version(dataset_id, _ordinal(args[1], issued))
    elif name == "drop_benefactor":
        m.drop_benefactor_placements(f"b{args[0]}")
    elif name == "corrupt":
        m.report_corrupt_chunk(f"c{args[0]}", f"b{args[1]}", reporter="reader")
    elif name == "gc_report":
        b, chunks = args
        m.gc_report(f"b{b}", [f"c{c}" for c in chunks])
    elif name == "reconcile":
        # Every chunk each committed map places on the node, less the drawn
        # ones: re-attaching a placement is soft state, the ledger is not.
        holder, lost = f"b{args[0]}", {f"c{c}" for c in args[1]}
        placements = [p for d in m._datasets.values() for v in d.versions
                      for p in v.chunk_map]
        held = ({p.ref.chunk_id for p in placements if holder in p.benefactors}
                - {p.ref.chunk_id for p in placements if holder not in p.benefactors})
        m.reconcile_inventory(holder, sorted(held - lost))
    else:  # pragma: no cover - a typo in a strategy
        raise AssertionError(f"unknown op {name!r}")


def step(cluster: Cluster, op) -> bool:
    """Run ``op`` and check the two per-call invariants; True if it raised."""
    primary = cluster.primary
    before, lsn_before = document(primary), primary.persistence.last_lsn
    raised = False
    try:
        run_op(cluster, op)
    except (StdchkError, KeyError, ValueError):
        raised = True
    after, replica = document(primary), document(cluster.standby)
    assert after == replica, f"standby diverged after {op}"
    roles = [primary.manager_status(), cluster.standby.manager_status()]
    assert fsck(after, standbys=[replica], managers=roles) == [], (
        f"invariant broken after {op}")
    if raised:
        assert after == before, f"failed call left state behind: {op}"
        assert primary.persistence.last_lsn == lsn_before, (
            f"failed call wrote a record: {op}")
    return raised


# ---------------------------------------------------------------- strategies
FILES = ["/app/a", "/app/b", "/app/sub/c", "/d"]
FOLDERS = ["/app", "/app/sub"]
#: The root, a path *through* a file, and one whose parent never exists.
AWKWARD = ["/", "/app/a/under-a-file", "/nowhere/x"]
FILE_PATHS = st.sampled_from(4 * FILES + FOLDERS + AWKWARD)
FOLDER_PATHS = st.sampled_from(3 * FOLDERS + FILES + AWKWARD)
RETENTION_KINDS = ["no-intervention", "automated-replace", "automated-purge",
                   "no-such-policy"]
BENEFACTORS = st.integers(0, 2)
#: Sessions, datasets and versions are drawn as ordinals that ``run_op``
#: folds onto what exists plus one that does not (see ``_ordinal``).
ORDINALS = st.integers(0, 11)
CHUNKS = st.lists(st.integers(0, 5), max_size=3)
HOLDERS = st.lists(BENEFACTORS, min_size=1, max_size=2, unique=True)

ARGS = {
    "register": st.tuples(BENEFACTORS, st.integers(0, 1)),
    "offline": st.tuples(BENEFACTORS),
    "advance": st.tuples(st.sampled_from([1.0, 120.0, LEASE + 1])),
    "collect": st.tuples(),
    "make_folder": st.tuples(FOLDER_PATHS,
                             st.sampled_from([None] + RETENTION_KINDS)),
    "set_retention": st.tuples(FOLDER_PATHS, st.sampled_from(RETENTION_KINDS),
                               st.sampled_from([3600.0, 3600.0, -1.0])),
    "delete": st.tuples(FILE_PATHS),
    "remove_folder": st.tuples(FOLDER_PATHS, st.booleans()),
    "create_session": st.tuples(FILE_PATHS, st.sampled_from([0, 4096, 4096, 4096, -5])),
    "extend_stripe": st.tuples(ORDINALS),
    "put_chunks_ack": st.tuples(ORDINALS, CHUNKS, HOLDERS),
    "commit": st.tuples(ORDINALS, CHUNKS, HOLDERS),
    "abort": st.tuples(ORDINALS),
    "prune": st.tuples(ORDINALS, ORDINALS),
    "drop_benefactor": st.tuples(BENEFACTORS),
    "corrupt": st.tuples(st.integers(0, 5), BENEFACTORS),
    # At least half of all chunk ids, so that two reports from one benefactor
    # overlap and the seen-twice rule has something to authorize.
    "gc_report": st.tuples(BENEFACTORS, st.lists(st.integers(0, 5), min_size=3,
                                                 unique=True)),
    "reconcile": st.tuples(BENEFACTORS, CHUNKS),
}
#: Sessions are what most other operations need, so opening and committing
#: them is drawn more often than anything else.
WEIGHTS = {"create_session": 4, "commit": 4, "put_chunks_ack": 2, "prune": 2}
OPS = st.sampled_from(
    [name for name in ARGS for _ in range(WEIGHTS.get(name, 1))]
).flatmap(lambda name: ARGS[name].map(lambda args: (name, *args)))
#: Benefactors registered before the first drawn call; 0 is the regime where
#: every create_session fails until a ``register`` is drawn.
ONLINE_AT_START = st.sampled_from([0, 2, 3, 3])

#: Defect 1 (ISSUE 16): a create_session that fails for want of a benefactor
#: used to leave the folder, the file and a burnt dataset id behind, none of
#: them journaled; the journaled set_retention on the phantom folder then made
#: the journal unreplayable.
PHANTOM_FOLDER = [
    ("create_session", "/app/a", 4096),
    ("set_retention", "/app", "automated-purge", 3600.0),
    ("register", 0, 0),
    ("create_session", "/app/a", -5),
    ("set_retention", "/app", "automated-purge", 3600.0),
]
#: Defect 2: a session that outlives its reservation lease used to commit in
#: memory, report ReservationError to the writer and journal nothing.
COMMIT_AFTER_LEASE = [
    ("register", 0, 0),
    ("create_session", "/app/a", 4096),
    ("advance", LEASE + 1),
    ("collect",),
    ("commit", 0, [0, 1], [0]),
    ("create_session", "/app/b", 4096),
    ("advance", LEASE + 1),
    ("collect",),
    ("abort", 1),
]
#: Defect 3: a reconcile cleared ledger entries whose corrupt copy was gone
#: without a record, so a replayed or promoted manager kept them and purged
#: the node's next good replica of the chunk.
LEDGER_CLEARED_UNRECORDED = [
    ("register", 0, 0),
    ("register", 1, 0),
    ("create_session", "/app/a", 4096),
    ("commit", 0, [0, 1], [0, 1]),
    ("corrupt", 0, 0),
    ("reconcile", 0, []),
]
#: Two consecutive inventories of b0 lack c0, so the second detaches b0 from
#: its placement (``detach_replicas``); the snapshot lands between the two.
DETACHED_BY_TWO_INVENTORIES = [
    ("register", 0, 0),
    ("register", 1, 0),
    ("create_session", "/app/a", 4096),
    ("commit", 0, [0, 1], [0, 1]),
    ("reconcile", 0, [0]),
    ("reconcile", 0, [0]),
]


@_settings()
@given(online=ONLINE_AT_START, ops=st.lists(OPS, min_size=8, max_size=50),
       snapshot_at=st.integers(0, 49))
@example(online=0, ops=PHANTOM_FOLDER, snapshot_at=1)
@example(online=0, ops=COMMIT_AFTER_LEASE, snapshot_at=3)
@example(online=0, ops=LEDGER_CLEARED_UNRECORDED, snapshot_at=0)
@example(online=0, ops=DETACHED_BY_TWO_INVENTORIES, snapshot_at=5)
def test_live_equals_replicated_equals_replayed(online, ops, snapshot_at):
    ops = [("register", b, 0) for b in range(online)] + ops
    with tempfile.TemporaryDirectory() as journal_dir:
        cluster = Cluster(journal_dir)
        try:
            for index, op in enumerate(ops):
                if index == snapshot_at % len(ops):
                    cluster.snapshot()
                step(cluster, op)
            replayed = cluster.restart()
            cluster.collect()
            expected = document(cluster.primary)
            assert document(replayed) == expected
            assert document(cluster.standby) == expected
            replayed.close_persistence()
        finally:
            cluster.close()


# ------------------------------------------------- the two defects, spelt out
def test_failed_create_session_leaves_nothing_behind(tmp_path):
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    for op, error in (
        (("create_session", "/app/ckpt.0", 4096), NoBenefactorsAvailableError),
        (("register", 0, 0), None),
        (("create_session", "/app/ckpt.0", -5), ReservationError),
    ):
        lsn = primary.persistence.last_lsn
        assert step(cluster, op) is (error is not None)
        if error is not None:
            assert not primary.exists("/app/ckpt.0")
            assert not primary.exists("/app")
            assert primary._dataset_seq == 0 and primary._session_seq == 0
            assert primary.persistence.last_lsn == lsn
    # The phantom /app used to accept this, journal it, and break replay.
    with pytest.raises(FileNotFoundInStdchkError):
        primary.set_retention("/app", "automated-purge")
    replayed = cluster.restart()
    assert document(replayed) == document(primary) == document(cluster.standby)
    replayed.close_persistence()


def test_commit_after_lease_expiry_is_acknowledged_and_durable(tmp_path):
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    calls = cluster.transport.record()
    primary.register_benefactor("b0", "inproc://b0/0", 1 << 30)
    session = primary.create_session("/app/ckpt.0", "writer", expected_size=4096)
    cluster.clock.advance(LEASE + 1)
    assert cluster.collectors[0].collect_expired_reservations() == 1
    appended = []
    append = primary.persistence.append

    def spy(op, data, durable=False):
        appended.append((op, durable))
        return append(op, data, durable=durable)

    primary.persistence.append = spy
    answer = primary.commit_session(session["session_id"],
                                    _chunk_map([0, 1], [0]), size=20)
    assert answer["committed"] and answer["version"] == 1
    assert appended == [("commit", True)]
    assert shipped_ops(calls)[-1] == "commit"
    assert primary.get_versions("/app/ckpt.0")[0]["version"] == 1
    assert document(cluster.standby) == document(primary)
    replayed = cluster.restart()
    assert replayed.dataset_by_path("/app/ckpt.0").version_numbers == [1]
    assert document(replayed) == document(primary)
    replayed.close_persistence()


def test_repeated_corruption_report_changes_nothing(tmp_path):
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    for op in (("register", 0, 0), ("register", 1, 0),
               ("create_session", "/app/a", 4096),
               ("commit", 0, [0], [0, 1]), ("corrupt", 0, 0)):
        assert not step(cluster, op)
    first = document(primary)
    lsn = primary.persistence.last_lsn
    cluster.clock.advance(10.0)
    answer = primary.report_corrupt_chunk("c0", "b0")
    assert answer == {"recorded": True, "replicas_dropped": 0,
                      "healthy_holders": ["b1"]}
    assert document(primary) == first  # first report's timestamp stands
    assert primary.persistence.last_lsn == lsn
    cluster.close()


def test_forced_folder_removal_is_one_critical_section(tmp_path):
    """A create_session from another connection cannot land between the
    per-file deletes and the folder removal (it used to lose its file to the
    forced removal while its dataset stayed in ``_datasets`` for good)."""
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    for op in (("register", 0, 0), ("create_session", "/app/a", 0),
               ("create_session", "/app/sub/c", 0)):
        assert not step(cluster, op)
    calls = cluster.transport.record()
    assert primary.remove_folder("/app", force=True)["files_removed"] == 2
    assert shipped_ops(calls) == ["delete", "delete", "remove_folder"]
    assert primary._datasets == {} and not primary.exists("/app")
    assert document(cluster.standby) == document(primary)
    cluster.close()


def test_a_reconcile_clears_the_ledger_by_record(tmp_path):
    """The ledger entry of a copy the node no longer holds is cleared on the
    primary, the standby and a restarted manager alike, so none of them tells
    the node to purge the fresh replica it stores next; a reconcile that
    clears nothing writes nothing."""
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    for op in LEDGER_CLEARED_UNRECORDED[:-1]:
        assert not step(cluster, op)
    assert primary.corrupt_replicas() == {"c0": ["b0"]}
    lsn = primary.persistence.last_lsn
    assert primary.reconcile_inventory("b0", ["c0", "c1"])["purge"] == ["c0"]
    assert primary.persistence.last_lsn == lsn
    assert not step(cluster, ("reconcile", 0, []))
    assert primary.persistence.last_lsn == lsn + 1
    replayed = cluster.restart()
    try:
        for manager in (primary, cluster.standby, replayed):
            assert manager.corrupt_replicas() == {}
        assert replayed.reconcile_inventory("b0", ["c0", "c1"])["purge"] == []
    finally:
        replayed.close_persistence()


# ----------------------------------------------------------- sessions that end
def test_retried_commit_is_answered_from_the_version(tmp_path):
    """Commit deletes the session.  A retry naming the dataset and version
    the writer holds is answered from the version the session made — on the
    primary, on the promoted standby and on a manager restarted from a
    snapshot taken after the commit — and never commits a second version."""
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    primary.register_benefactor("b0", "inproc://b0/0", 1 << 30)
    info = primary.create_session("/app/ckpt.0", "writer", expected_size=4096)
    commit = dict(session_id=info["session_id"], chunk_map=_chunk_map([0, 1], [0]),
                  size=20)
    primary.commit_session(**commit)
    assert primary._sessions == {} and len(primary.reservations) == 0
    cluster.snapshot()
    cluster.standby.promote()
    replayed = cluster.restart()
    try:
        for manager in (primary, cluster.standby, replayed):
            with pytest.raises(SessionCommittedError):
                manager.commit_session(**commit, dataset_id=info["dataset_id"],
                                       version=info["version"])
            # Without the version it made, the session is simply unknown.
            for named in ({}, {"dataset_id": info["dataset_id"], "version": 2}):
                with pytest.raises(UnknownDatasetError):
                    manager.commit_session(**commit, **named)
            assert manager.dataset_by_path("/app/ckpt.0").version_numbers == [1]
    finally:
        replayed.close_persistence()


def test_a_restarted_manager_never_reuses_a_reservation_id(tmp_path):
    """A snapshot holds only outstanding reservations; its counters carry
    the reservation sequence so a restart does not hand out ``rsv-1`` again."""
    cluster = Cluster(str(tmp_path / "wal"))
    primary = cluster.primary
    primary.register_benefactor("b0", "inproc://b0/0", 1 << 30)
    first = primary.create_session("/app/a", "writer", expected_size=4096)
    primary.commit_session(first["session_id"], _chunk_map([0], [0]), size=10)
    cluster.snapshot()
    replayed = cluster.restart()
    try:
        replayed.register_benefactor("b0", "inproc://b0/0", 1 << 30)
        second = replayed.create_session("/app/b", "writer", expected_size=4096)
        assert first["reservation_id"] == "rsv-1"
        assert second["reservation_id"] == "rsv-2"
    finally:
        replayed.close_persistence()


# ------------------------------------------------------- the cluster machine
#: The grid's chunk size: a few chunks per file keeps every step cheap.
GRID_CHUNK = 4 * 1024
#: Plain files are written by a client with similarity detection off
#: (position-addressed chunks), FsCH files by one with FsCH on
#: (content-addressed ``sha1:`` chunks, deduplicated across versions).
PLAIN_PATHS = ["/app/a", "/app/b", "/app/sub/c"]
FSCH_PATHS = ["/fsch/a", "/fsch/b"]
GRID_PATHS = PLAIN_PATHS + FSCH_PATHS
GRID_SIZES = [0, 1000, GRID_CHUNK, 2 * GRID_CHUNK + 100, 4 * GRID_CHUNK]
#: The manager RPCs a write makes, where a kill-primary step may strike.
KILL_METHODS = ["create_session", "put_chunks_ack", "commit_session",
                "get_existing_chunks"]
#: Maintenance rounds of a quiescent heal.
HEAL_ROUNDS = 8


def grid_config() -> StdchkConfig:
    return StdchkConfig(
        chunk_size=GRID_CHUNK, stripe_width=2, replication_level=2,
        replication_quorum=1, push_parallelism=1, read_parallelism=1,
        ack_batch_size=1, reservation_lease=LEASE, failover_jitter=0.0,
        failover_backoff_base=0.5, failover_backoff_max=2.0,
        failover_deadline=10.0, trace_rate=0.0,
    )


def grid_payload(previous: bytes, size: int, seed: int) -> bytes:
    """``size`` bytes: fresh, or the previous version with one chunk changed."""
    fresh = make_bytes(size, seed=seed)
    if not previous or seed % 3 == 0 or size == 0:
        return fresh
    data = bytearray((previous * (size // len(previous) + 1))[:size])
    at = (seed % -(-size // GRID_CHUNK)) * GRID_CHUNK
    data[at:at + GRID_CHUNK] = fresh[at:at + GRID_CHUNK]
    return bytes(data)


class Grid:
    """A whole ``StdchkPool`` on its ``FaultyTransport`` and ``VirtualClock``.

    Every step goes through the deployment's own helpers or the clients;
    the model beside it is two dicts: ``written[path][version]``, the bytes
    each session that was handed ``version`` wrote (committed or not — a
    write whose answer was lost may have landed), and ``acked[path]``, the
    versions whose commit was acknowledged and that nothing pruned or
    deleted since.
    """

    def __init__(self, benefactors: int) -> None:
        self.pool = StdchkPool(benefactor_count=benefactors, config=grid_config())
        self.managers = [self.pool.manager, self.pool.add_standby("standby-0")]
        self.standbys_made = 1
        self.clients = {
            "plain": self.pool.client("plain"),
            "fsch": self.pool.client(
                "fsch", similarity_heuristic=SimilarityHeuristic.FSCH),
        }
        self.nodes = sorted(self.pool.benefactors)
        self.written: dict = {}
        self.acked: dict = {}
        self.partitioned: set = set()

    def close(self) -> None:
        self.pool.close()

    # -- what the machine reads ---------------------------------------------
    def client_for(self, path: str):
        return self.clients["fsch" if path in FSCH_PATHS else "plain"]

    def listed(self, path: str) -> list:
        """The versions the primary lists for ``path`` (none if it is gone)."""
        try:
            return [v["version"] for v in self.pool.manager.get_versions(path)]
        except StdchkError:
            return []

    def committed_chunks(self) -> dict:
        """``chunk_id -> (bytes, replication target, placed holders)`` of
        every chunk a committed version references."""
        manager, chunks = self.pool.manager, {}
        for dataset in manager.datasets():
            target = manager.replication_target_for(dataset.dataset_id)
            for version in dataset.versions:
                data = self.written[dataset.name][version.version]
                for placement in version.chunk_map:
                    ref = placement.ref
                    chunk = data[ref.offset:ref.offset + ref.length]
                    known, most, placed = chunks.get(ref.chunk_id, (chunk, 0, set()))
                    assert known == chunk, f"chunk {ref.chunk_id} names two payloads"
                    chunks[ref.chunk_id] = (chunk, max(most, target),
                                            placed | set(placement.benefactors))
        return chunks

    def real_holders(self, chunk_id: str, data: bytes, placed: set) -> set:
        """The placed holders whose store holds the chunk's bytes (a copy no
        placement names is one no reader finds)."""
        stores = {b: self.pool.benefactors[b].store for b in placed}
        return {b for b, store in stores.items()
                if store.contains(chunk_id) and store.get(chunk_id).data == data}

    def down(self) -> list:
        return [b for b in self.nodes if not self.pool.benefactors[b].online]

    # -- steps -----------------------------------------------------------------
    def write(self, path: str, size: int, seed: int, end: str = "close") -> None:
        """Open, write and close (or ``abort``, or ``abandon``) one version."""
        previous = self.written.get(path, {})
        latest = previous[max(previous)] if previous else b""
        data = grid_payload(latest, size, seed)
        session = None
        try:
            session = self.client_for(path).open_write(path, expected_size=size)
            session.write(data)
            if end == "abandon":
                return
            if end == "abort":
                session.abort()
                return
            session.close()
        except StdchkError:
            if session is not None:
                self.written.setdefault(path, {})[session.session_info["version"]] = data
                session.abort()
            return
        version = session.session_info["version"]
        self.written.setdefault(path, {})[version] = data
        self.acked.setdefault(path, set()).add(version)

    def promote(self) -> None:
        """The primary dies answering: its standby takes over, if it has one
        the deployment can reach."""
        standby = next(iter(self.pool.standbys.values()), None)
        if standby is None or standby.address in self.partitioned:
            return
        self.pool.promote_standby()

    def read(self, path: str, must_succeed: bool = False) -> None:
        for version in self.listed(path):
            try:
                data = self.client_for(path).read_file(path, version=version)
            except StdchkError:
                if must_succeed:
                    raise
                continue
            assert data == self.written[path][version], (
                f"{path} v{version} read back other bytes")

    def lose_disk_allowed(self, benefactor_id: str) -> bool:
        """Every committed chunk the node holds has another real holder."""
        store = self.pool.benefactors[benefactor_id].store
        return all(self.real_holders(chunk_id, data, placed) - {benefactor_id}
                   for chunk_id, (data, _, placed) in self.committed_chunks().items()
                   if store.contains(chunk_id))

    def corruptible(self) -> list:
        """``(benefactor, chunk)`` pairs of FsCH chunks with another real holder."""
        pairs = []
        for chunk_id, (data, _, placed) in sorted(self.committed_chunks().items()):
            holders = self.real_holders(chunk_id, data, placed)
            if chunk_id.startswith("sha1:") and len(holders) > 1:
                pairs.extend((b, chunk_id) for b in sorted(holders))
        return pairs

    # -- checks ----------------------------------------------------------------
    def check_always(self, op) -> None:
        """fsck's *always* set, and no acknowledged version unlisted."""
        primary = self.pool.manager
        state = document(primary)
        standbys = [document(s) for s in self.pool.standbys.values()]
        roles = [m.manager_status() for m in self.managers]
        assert fsck(state, standbys=standbys, managers=roles) == [], (
            f"invariant broken after {op}")
        for path, versions in self.acked.items():
            missing = versions - set(self.listed(path))
            assert not missing, f"acknowledged {path} v{sorted(missing)} lost after {op}"

    def repair_quiescence(self) -> None:
        """All nodes up, partitions healed, leases collected, ``heal``: each
        committed chunk has its target count of holders that store it."""
        for address in sorted(self.partitioned):
            self.pool.transport.heal(address)
        self.partitioned.clear()
        for benefactor_id in self.down():
            self.pool.recover_benefactor(benefactor_id)
        self.pool.clock.advance(LEASE + 1)
        self.pool.garbage_collector.collect_expired_reservations()
        self.pool.heal(HEAL_ROUNDS)
        for chunk_id, (data, target, placed) in self.committed_chunks().items():
            stored = self.real_holders(chunk_id, data, placed)
            assert len(stored) >= target, (
                f"chunk {chunk_id} is stored by {sorted(stored)}, target {target}")
        for path in GRID_PATHS:
            self.read(path, must_succeed=True)

    def full_quiescence(self) -> None:
        """Every abandoned writer's successor aborts its session: fsck finds
        nothing, its *at quiescence* set included."""
        primary = self.pool.manager
        for session in primary.active_sessions():
            primary.abort_session(session.session_id)
        self.pool.heal(2)
        inventories = {b: node.store.chunk_ids()
                       for b, node in self.pool.benefactors.items()}
        assert fsck(document(primary), inventories=inventories,
                    managers=[m.manager_status() for m in self.managers],
                    quiescent=True) == []


def run_grid_op(grid: Grid, op) -> None:
    """One step against the grid; a refusal the product types is an answer."""
    pool, name, args = grid.pool, op[0], op[1:]

    def node(drawn: int) -> str:
        return grid.nodes[drawn % len(grid.nodes)]

    if name in ("write", "abandon", "abort"):
        path, size, seed = args
        grid.write(GRID_PATHS[path], GRID_SIZES[size], seed,
                   end={"write": "close"}.get(name, name))
    elif name == "kill_primary":
        method, nth, path, size, seed = args
        if pool.standbys:
            pool.transport.lose_answer(pool.manager_address, KILL_METHODS[method],
                                       nth=nth, then=grid.promote)
        grid.write(GRID_PATHS[path], GRID_SIZES[size], seed)
    elif name == "enroll_standby":
        if not pool.standbys:
            grid.managers.append(pool.add_standby(f"standby-{grid.standbys_made}"))
            grid.standbys_made += 1
    elif name == "read":
        grid.read(GRID_PATHS[args[0]])
    elif name == "prune":
        path = GRID_PATHS[args[0]]
        versions = grid.listed(path)
        if versions:
            version = versions[args[1] % len(versions)]
            grid.acked.get(path, set()).discard(version)
            dataset = pool.manager.dataset_by_path(path)
            pool.manager.prune_version(dataset.dataset_id, version)
    elif name == "delete":
        path = GRID_PATHS[args[0]]
        grid.acked.pop(path, None)
        grid.client_for(path).delete(path)
        grid.written.pop(path, None)
    elif name == "kill_benefactor":
        if pool.benefactors[node(args[0])].online:
            pool.kill_benefactor(node(args[0]))
    elif name == "fail_benefactor":
        victim, lose_data = node(args[0]), args[1]
        if pool.benefactors[victim].online and (
                not lose_data or grid.lose_disk_allowed(victim)):
            pool.fail_benefactor(victim, lose_data=lose_data)
    elif name == "recover_benefactor":
        down = grid.down()
        if down and pool.manager_address not in grid.partitioned:
            pool.recover_benefactor(down[args[0] % len(down)])
    elif name == "partition":
        addresses = ([pool.benefactors[b].address for b in grid.nodes]
                     + list(pool.standby_endpoints().values())
                     + [pool.manager_address])
        address = addresses[args[0] % len(addresses)]
        grid.partitioned.add(address)
        pool.transport.partition(address)
    elif name == "heal":
        if grid.partitioned:
            address = sorted(grid.partitioned)[args[0] % len(grid.partitioned)]
            grid.partitioned.discard(address)
            pool.transport.heal(address)
    elif name == "maintenance":
        pool.run_maintenance_once()
    elif name == "services":
        pool.run_services_once()
    elif name == "advance":
        pool.clock.advance(args[0])
    elif name == "corrupt":  # FsCH chunks only: see the module docstring
        pairs = grid.corruptible()
        if pairs:
            victim, chunk_id = pairs[args[0] % len(pairs)]
            store = pool.benefactors[victim].store
            good = store.get(chunk_id).data
            store._chunks[chunk_id] = bytes([good[0] ^ 0xFF]) + good[1:]
    else:  # pragma: no cover - a typo in a strategy
        raise AssertionError(f"unknown op {name!r}")


def grid_step(grid: Grid, op) -> None:
    try:
        run_grid_op(grid, op)
    except StdchkError:
        pass
    grid.check_always(op)


def run_grid(benefactors: int, ops) -> Grid:
    """Run ``ops``, then both quiescence checks; the caller closes the grid."""
    grid = Grid(benefactors)
    for op in ops:
        grid_step(grid, op)
    grid.repair_quiescence()
    grid.full_quiescence()
    return grid


GRID_PATH = st.integers(0, len(GRID_PATHS) - 1)
GRID_SIZE = st.integers(0, len(GRID_SIZES) - 1)
SEEDS = st.integers(1, 1000)
WRITE = (GRID_PATH, GRID_SIZE, SEEDS)
NODE = st.integers(0, 4)
#: Each step's arguments; a step is drawn as ``(name, *arguments)``.
GRID_ARGS = {
    "write": WRITE,
    "abandon": WRITE,
    "abort": WRITE,
    "kill_primary": (st.integers(0, len(KILL_METHODS) - 1), st.integers(1, 3),
                     *WRITE),
    "enroll_standby": (),
    "read": (GRID_PATH,),
    "prune": (GRID_PATH, ORDINALS),
    "delete": (GRID_PATH,),
    "kill_benefactor": (NODE,),
    "fail_benefactor": (NODE, st.booleans()),
    "recover_benefactor": (NODE,),
    "partition": (st.integers(0, 6),),
    "heal": (NODE,),
    "maintenance": (),
    "services": (),
    "advance": (st.sampled_from([1.0, 30.0, LEASE + 1]),),
    "corrupt": (st.integers(0, 20),),
}
GRID_WEIGHTS = {"write": 6, "kill_primary": 2, "read": 3, "maintenance": 2,
                "recover_benefactor": 2, "heal": 2}
#: Tuples of plain values, so a falsifying example prints as one to paste.
GRID_OPS = st.sampled_from(
    [name for name in GRID_ARGS for _ in range(GRID_WEIGHTS.get(name, 1))]
).flatmap(lambda name: st.tuples(st.just(name), *GRID_ARGS[name]))
#: Examples the cluster machine runs in tier-1 (CI runs ten times as many).
GRID_EXAMPLES = 200

#: Each sequence below reproduced a healer fault before it was mended.
#: An abandoned session (open, never closed) withheld every repair hint for
#: good, so an optimistic write never got its second copy.
ABANDONED_SESSION = [
    ("write", 0, 4, 7),
    ("abandon", 1, 2, 8),
]
#: A holder that came back with an empty disk still counted as a replica,
#: so its chunks stayed stored once while listed twice.
EMPTY_DISK_RETURNS = [
    ("write", 0, 4, 7),
    ("maintenance",),
    ("maintenance",),
    ("fail_benefactor", 0, True),
    ("recover_benefactor", 0),
]
#: A corruption report whose record missed its standby quorum (standby
#: partitioned) was applied, but the survivors were flagged only after the
#: record, so none of them reconciled and the dropped copy was never made.
REPORT_MISSES_QUORUM = [
    ("write", 3, 1, 1),
    ("maintenance",),
    ("partition", 4),
    ("corrupt", 1),
    ("maintenance",),
    ("maintenance",),
]
#: The primary dies answering the write's first ack: the promoted standby
#: has the holder reconcile before the commit, so the new version's missing
#: copy was judged by nobody (the holder's inventory never changed again).
COMMIT_AFTER_PROMOTION = [
    ("kill_primary", 1, 1, 0, 1, 1),
]


@_settings(GRID_EXAMPLES)
@given(benefactors=st.integers(4, 5), ops=st.lists(GRID_OPS, min_size=10, max_size=40))
@example(benefactors=4, ops=ABANDONED_SESSION)
@example(benefactors=4, ops=EMPTY_DISK_RETURNS)
@example(benefactors=4, ops=REPORT_MISSES_QUORUM)
@example(benefactors=4, ops=COMMIT_AFTER_PROMOTION)
def test_a_grid_keeps_every_acknowledged_checkpoint(benefactors, ops):
    run_grid(benefactors, ops).close()


def test_a_grid_example_replays_the_same_call_log():
    """The machine is deterministic: one example, run twice, makes the same
    calls in the same order, so a failing seed replays exactly."""
    ops = EMPTY_DISK_RETURNS + [
        ("kill_primary", 1, 2, 1, 3, 9), ("partition", 0), ("write", 3, 3, 10),
        ("corrupt", 1), ("read", 3), ("heal", 0), ("enroll_standby",),
    ]
    logs = []
    for _ in range(2):
        grid = Grid(4)
        calls = grid.pool.transport.record()
        for op in ops:
            grid_step(grid, op)
        grid.repair_quiescence()
        logs.append([(c.address, c.method, c.destinations) for c in calls])
        grid.close()
    assert logs[0] == logs[1] and len(logs[0]) > 100


# ------------------------------------------------------- source-level guard
JOURNALED_TABLES = {"_datasets", "_sessions", "_replication_targets",
                    "_corrupt", "_session_seq", "_dataset_seq"}
DICT_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault",
                 "__setitem__", "__delitem__"}
MUTATORS = {
    "namespace": {"make_folder", "ensure_folder", "remove_folder",
                  "set_retention", "add_file", "remove_file", "rename_file"},
    "reservations": {"restore", "release", "collect_expired"},
}
#: Where ``manager.py`` may touch a journaled table without a record: the
#: empty tables of construction.
EXEMPT = {"__init__", "_reset_state"}


def _self_attr(node) -> str:
    """``X`` for ``self.X`` / ``self.X[...]``, else ``""``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return ""


def inline_mutations(source: str):
    """``(function, line, what)`` for every mutation of journaled state."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, ast.FunctionDef) or func.name in EXEMPT:
                continue
            for node in ast.walk(func):
                targets = []
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if _self_attr(target) in JOURNALED_TABLES:
                        found.append((func.name, node.lineno, _self_attr(target)))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner, method = _self_attr(node.func.value), node.func.attr
                    if ((owner in JOURNALED_TABLES and method in DICT_MUTATORS)
                            or method in MUTATORS.get(owner, ())):
                        found.append((func.name, node.lineno, f"{owner}.{method}"))
    return found


def test_manager_module_mutates_journaled_state_only_through_commit():
    source = inspect.getsource(manager_module)
    assert inline_mutations(source) == []
    assert "_replaying" not in source
    # The guard sees what it is meant to see.
    planted = (
        "class M:\n"
        "    def delete(self, path):\n"
        "        entry = self.namespace.remove_file(path)\n"
        "        self._datasets.pop(entry.dataset_id, None)\n"
        "        self._session_seq += 1\n"
        "        del self._corrupt[path]\n"
    )
    assert {what for _func, _line, what in inline_mutations(planted)} == {
        "namespace.remove_file", "_datasets.pop", "_session_seq", "_corrupt"}
