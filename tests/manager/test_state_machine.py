"""The manager is one journaled state machine: live = replayed = replicated.

A differential test.  Hypothesis draws sequences of manager calls — all 15
journaled operations plus benefactor online/offline flips, inventory
reconciliation, clock advances past the reservation lease and lease
collection — with arguments chosen so
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
from repro import StdchkConfig
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
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from tests.conftest import STATE_MACHINE_EXAMPLES

LEASE = 300.0


def _settings() -> settings:
    if settings.default is settings.get_profile("ci"):  # --hypothesis-profile=ci
        return settings.default
    return settings(max_examples=STATE_MACHINE_EXAMPLES, derandomize=True,
                    deadline=None)


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
        transport = InProcessTransport()
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


@_settings()
@given(online=ONLINE_AT_START, ops=st.lists(OPS, min_size=8, max_size=50),
       snapshot_at=st.integers(0, 49))
@example(online=0, ops=PHANTOM_FOLDER, snapshot_at=1)
@example(online=0, ops=COMMIT_AFTER_LEASE, snapshot_at=3)
@example(online=0, ops=LEDGER_CLEARED_UNRECORDED, snapshot_at=0)
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
    shipped = []
    cluster.shipper.ship_hook = lambda lsn, record: shipped.append(record["op"])
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
    assert shipped[-1] == "commit"
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
    shipped = []
    for op in (("register", 0, 0), ("create_session", "/app/a", 0),
               ("create_session", "/app/sub/c", 0)):
        assert not step(cluster, op)

    def hook(lsn, record):
        shipped.append(record["op"])
        # Every record of the removal is emitted with the meta lock held.
        assert primary._meta_lock._is_owned()

    cluster.shipper.ship_hook = hook
    assert primary.remove_folder("/app", force=True)["files_removed"] == 2
    assert shipped == ["delete", "delete", "remove_folder"]
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
    assert primary.reconcile_inventory("b0", ["c0"])["purge"] == ["c0"]
    assert primary.persistence.last_lsn == lsn
    assert not step(cluster, ("reconcile", 0, []))
    assert primary.persistence.last_lsn == lsn + 1
    replayed = cluster.restart()
    try:
        for manager in (primary, cluster.standby, replayed):
            assert manager.corrupt_replicas() == {}
        assert replayed.reconcile_inventory("b0", ["c0"])["purge"] == []
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
