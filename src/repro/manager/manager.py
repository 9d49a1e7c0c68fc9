"""The centralized metadata manager.

The manager owns all system metadata: the namespace, dataset version chains
and chunk-maps, benefactor liveness and free space, space reservations and
in-flight write sessions.  Clients interact with it in four steps per write
(visible in Figure 8's "four transactions per write"): create a session,
(optionally) fetch the previous version's chunk inventory for incremental
checkpointing, refresh/extend the stripe if needed, and commit the final
chunk-map at close time.

The data path never traverses the manager: chunks flow directly between
clients and benefactors.

**One state machine.**  The durable metadata — namespace, dataset version
chains, replication targets, open write sessions, outstanding reservations,
id counters, the corruption ledger, benefactor membership, the epoch — is
changed by exactly one piece of code,
:func:`repro.manager.persistence.recovery.apply_record`.
A mutating handler keeps its guards, *decides* by reading only (the clock,
the next session/dataset/reservation/version id, a stripe allocation),
builds the logical redo record and hands it to :meth:`MetadataManager._commit`,
which applies it and then journals and ships it.  Crash recovery and standby
managers run the same applier on the same record, so live, replayed and
replicated state cannot drift; an applier raises before touching anything or
completes, so a call that fails changes nothing anywhere.

**Sessions that end.**  A write session or a reservation exists exactly
while it is open.  Commit and abort delete the session and its reservation;
the commit leaves the session's id on the version it made, and that version
answers a retried commit (:class:`~repro.exceptions.SessionCommittedError`).
Nothing decides when to forget a finished one, and a snapshot holds live
state only.

**Soft state**, by design outside that machine and written without records
(a recovered or promoted manager re-learns it from registrations, heartbeats
and inventory reconciliation): benefactor liveness and space
(``register_benefactor``'s refresh, ``heartbeat``,
``report_benefactor_failure``, ``expire_benefactors``), replica placements
learnt after a commit (``reconcile_inventory`` and ``record_replicas``), the
registry's ``repair_pending`` flags, the per-benefactor seen-sets of
``gc_report`` and reservation lease expiry
(``GarbageCollector.collect_expired_reservations``).  Reads write nothing:
``get_chunk_map`` only answers.

**One judge of under-replication.**  :meth:`MetadataManager.reconcile_inventory`
is the only place that decides a chunk needs more replicas (section IV.A: the
manager notices, the holders copy).  Its answer's ``repair`` list is the
shadow chunk-map: one online healthy holder per chunk is told how many
replicas are missing and who holds one already; the benefactor's anti-entropy
pass makes the copies and reports them through ``record_replicas``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.benefactor.maintenance.digest import compute_inventory_digest
from repro.core.dataset import DatasetMetadata, DatasetVersion
from repro.core.namespace import Namespace, normalize_path, split_path
from repro.core.reservation import ReservationTable
from repro.core.striping import RoundRobinStriping
from repro.exceptions import (
    ConfigurationError,
    FileNotFoundInStdchkError,
    ManagerRecoveringError,
    ManagerUnavailableError,
    NotPrimaryError,
    QuorumNotReachedError,
    SessionCommittedError,
    StaleEpochError,
    UnknownDatasetError,
)
from repro.manager.persistence import (
    ManagerPersistence,
    RecoveryReport,
    apply_record,
    encode_manager_state,
    restore_manager_state,
)
from repro.manager.registry import BenefactorRegistry
from repro.obs import MetricsRegistry
from repro.transport.base import Endpoint, Transport, control, rpc
from repro.util.clock import Clock, SystemClock
from repro.util.config import StdchkConfig

#: Bound on repairs handed to one benefactor per reconcile answer; a node
#: with more work than this stays flagged and gets the rest next time.
MAX_REPAIR_HINTS = 256


@dataclass
class WriteSessionRecord:
    """Manager-side state of one open write session (commit and abort
    delete it)."""

    session_id: str
    client_id: str
    path: str
    dataset_id: str
    version: int
    stripe: List[Dict[str, str]]
    reservation_id: str
    created_at: float
    replication_level: int
    #: chunk id -> benefactors acknowledged mid-session via ``put_chunks_ack``
    #: (batched by the client; advisory until the commit).
    acked_chunks: Dict[str, List[str]] = field(default_factory=dict)


class MetadataManager(Endpoint):
    """Centralized metadata manager (one per stdchk pool)."""

    def __init__(
        self,
        transport: Transport,
        config: Optional[StdchkConfig] = None,
        clock: Optional[Clock] = None,
        manager_id: str = "manager",
        persistence: Optional[ManagerPersistence] = None,
    ) -> None:
        self.config = config if config is not None else StdchkConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.transport = transport
        self.manager_id = manager_id
        self.address = f"manager://{manager_id}"
        self.striping = RoundRobinStriping()
        #: ``"primary"`` serves clients and benefactors; ``"standby"``
        #: (see :class:`~repro.manager.replication.StandbyManager`) applies
        #: shipped journal records and refuses normal RPCs until promoted;
        #: ``"fenced"`` is a deposed primary that learned of a successor and
        #: refuses everything with a redirect.
        self.role = "primary"
        self.online = True
        #: Monotonically increasing primary epoch.  Every promotion bumps it;
        #: replication RPCs carry it and standbys reject stale epochs, so a
        #: deposed primary that reawakens cannot split-brain the stream.
        #: Persisted in snapshots and journaled at promotion time.
        self.epoch = 1
        #: Where the fencing successor serves (best hint), set by :meth:`fence`.
        self.fenced_by: Optional[str] = None
        #: True while the manager replays its journal; RPCs fail fast with
        #: :class:`ManagerRecoveringError` instead of racing half-restored state.
        self.recovering = False
        #: Per-node metrics registry; ``Endpoint.dispatch`` also uses it for
        #: per-method RPC handling latency, and stamps server-side trace
        #: spans with ``obs_component``/``obs_node_id``.
        self.obs = MetricsRegistry(component="manager", node_id=manager_id,
                                   clock=self.clock)
        self.obs_component = "manager"
        self.obs_node_id = manager_id
        #: Transaction counter (any client- or benefactor-facing call); the
        #: metric reads it at snapshot time, so it counts with telemetry off.
        self.transactions = 0
        self.obs.counter(
            "manager_transactions_total",
            "Client- and benefactor-facing calls handled.",
        ).set_function(lambda: self.transactions)
        if persistence is None and self.config.journal_dir is not None:
            persistence = ManagerPersistence(
                self.config.journal_dir,
                fsync_policy=self.config.journal_fsync_policy,
                snapshot_every_n_records=self.config.snapshot_every_n_records,
            )
        self._persistence = persistence
        if self._persistence is not None:
            self._persistence.attach_metrics(self.obs)
        #: Log shipper streaming journal records to standby managers; wired
        #: by the deployment helpers via :meth:`attach_shipper`.
        self._shipper = None

        self._reset_state()
        #: Records :func:`apply_record` has applied here (live, replayed or
        #: shipped); ``health()`` re-runs fsck only when it moves.
        self.records_applied = 0
        self._fsck_cache: tuple = (None, 0)

        # Concurrency audit (parallel chunk pushers call into the manager from
        # many threads at once): metadata mutations — namespace, datasets,
        # sessions, reservations — serialize on ``_meta_lock``; the registry
        # has its own internal lock so liveness traffic (heartbeats, failure
        # reports) never contends with metadata operations; the transaction
        # counter has a dedicated lock so read-mostly calls stay cheap.
        self._meta_lock = threading.RLock()
        self._txn_lock = threading.Lock()

        #: Guards against silently appending to (and thereby corrupting) a
        #: journal left behind by a previous manager life: prior state is
        #: always replayed before the first new record.
        self._recovered = False
        self.last_recovery: Optional[RecoveryReport] = None
        if self._persistence is not None and self._persistence.has_prior_state():
            self.recover_from_journal()

        self.transport.register(self.address, self)

    def _reset_state(self) -> None:
        """Empty metadata tables (construction; a standby's snapshot install
        is a replace, not a merge)."""
        self.namespace = Namespace()
        self.registry = BenefactorRegistry(heartbeat_timeout=self.config.heartbeat_timeout)
        self.reservations = ReservationTable(default_lease=self.config.reservation_lease)
        self._datasets: Dict[str, DatasetMetadata] = {}
        self._replication_targets: Dict[str, int] = {}
        self._sessions: Dict[str, WriteSessionRecord] = {}
        #: Last allocated session/dataset ordinals: handlers peek the next
        #: one, the ``create_session`` applier consumes it.
        self._session_seq = 0
        self._dataset_seq = 0
        #: Per-benefactor set of chunk ids seen in the previous GC report.
        #: A chunk is declared dead only when it is unreferenced *and* was
        #: already present in the previous report ("seen twice" rule), which
        #: protects chunks pushed by sessions that have not committed yet.
        self._gc_seen: Dict[str, Set[str]] = {}
        #: Corruption ledger: ``chunk_id -> {benefactor_id: reported_at}``.
        #: An entry means that benefactor's replica served provably corrupt
        #: bytes; the placement was dropped when the report arrived, and the
        #: entry guards against soft-state reconciliation re-attaching the
        #: bad copy before the holder purges it.  Durable (journaled): a
        #: recovered manager must not resurrect a corrupt replica.
        self._corrupt: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ guard
    def _admit(self) -> None:
        """The one guard of every :func:`~repro.transport.base.rpc` handler.

        Only an online primary that is done replaying serves; an admitted
        call is a transaction.  A deposed primary redirects to its
        successor, a standby sends the caller to re-resolve, a recovering
        manager asks it to retry.  Control RPCs (status, health, metrics,
        fencing, replication) bypass it.
        """
        if self.role == "fenced":
            raise NotPrimaryError(
                f"manager {self.manager_id} was deposed at epoch {self.epoch}; "
                "a newer primary serves",
                primary_address=self.fenced_by,
                epoch=self.epoch,
            )
        if self.role == "standby":
            raise NotPrimaryError(
                f"manager {self.manager_id} is a standby replica; "
                "re-resolve the active primary and retry"
            )
        if self.recovering:
            raise ManagerRecoveringError(
                f"manager {self.manager_id} is replaying its journal; retry shortly"
            )
        if not self.online:
            raise ManagerUnavailableError(f"manager {self.manager_id} is offline")
        with self._txn_lock:
            self.transactions += 1

    @control
    def get_metrics(self) -> Dict[str, object]:
        """Metrics-snapshot RPC for scrapers (served even while recovering)."""
        return self.obs.snapshot()

    @control
    def manager_status(self) -> Dict[str, object]:
        """Role/liveness probe for failover discovery.

        Served regardless of ``online``/``recovering`` (like ``get_metrics``)
        so a client's manager directory can tell a promoted primary from a
        standby, a recovering manager, or a deliberately failed one without
        tripping the fail-fast guards.
        """
        return {
            "manager_id": self.manager_id,
            "role": self.role,
            "online": self.online,
            "recovering": self.recovering,
            "epoch": self.epoch,
            "last_lsn": (
                self._persistence.last_lsn if self._persistence is not None
                else getattr(self._shipper, "last_lsn", 0)
            ),
        }

    @control
    def fence(self, epoch: int, primary_address: Optional[str] = None
              ) -> Dict[str, object]:
        """Depose this manager: a successor serves under ``epoch``.

        Served regardless of the guard (like ``manager_status``) so a
        supervisor can fence an old primary whatever state it is in.  Fencing
        only ever moves the cluster forward: an ``epoch`` below our own (at
        or below it, on a primary) is refused with
        :class:`~repro.exceptions.StaleEpochError` and changes nothing, and a
        fence without ``primary_address`` keeps the successor hint already
        known.  Once fenced, every normal RPC answers
        :class:`~repro.exceptions.NotPrimaryError` with that hint, so clients
        and benefactors re-resolve instead of mutating a deposed replica's
        state.
        """
        epoch = int(epoch)
        with self._meta_lock:
            if epoch < self.epoch or (epoch == self.epoch and self.role == "primary"):
                raise StaleEpochError(
                    f"manager {self.manager_id} is {self.role} at epoch "
                    f"{self.epoch}; refusing fence at {epoch}",
                    epoch=self.epoch,
                    primary_address=(self.address if self.role == "primary"
                                     else self.fenced_by),
                )
            self.epoch = epoch
            self.role = "fenced"
            if primary_address is not None:
                self.fenced_by = primary_address
        return {"fenced": True, "epoch": self.epoch}

    @control
    def health(self) -> Dict[str, object]:
        """Role-aware health document (served regardless of liveness guards).

        ``ready`` means "serving clients now": a primary that is online and
        done replaying.  A standby is alive but not ready (readiness flips at
        promotion), a recovering manager reports ``recovering`` until replay
        finishes.  ``heartbeat_age`` is the freshest benefactor heartbeat —
        the manager's view of how current its soft state is.
        """
        ready = self.role == "primary" and self.online and not self.recovering
        if self.role == "standby":
            status = "standby"
        elif self.role == "fenced":
            status = "fenced"
        elif self.recovering:
            status = "recovering"
        elif not self.online:
            status = "offline"
        else:
            status = "ok"
        now = self.clock.now()
        known = self.registry.known()
        heartbeat_age = min(
            (now - record.last_heartbeat for record in known
             if record.online and record.last_heartbeat > 0),
            default=None,
        )
        under_replicated: Optional[int] = None
        if ready:
            under_replicated = self.under_replicated_count()
        return {
            "component": "manager",
            "node_id": self.manager_id,
            "role": self.role,
            "epoch": self.epoch,
            "status": status,
            "ready": ready,
            "online": self.online,
            "recovering": self.recovering,
            "journal_lsn": (
                self._persistence.last_lsn if self._persistence is not None
                else getattr(self._shipper, "last_lsn", 0)
            ),
            "applied_lsn": getattr(self, "applied_lsn", None),
            # Replay holds the meta lock; a probe must not wait it out.
            "fsck_violations": None if self.recovering else self.fsck_violations(),
            "benefactors_online": sum(1 for record in known if record.online),
            "benefactors_known": len(known),
            "heartbeat_age": heartbeat_age,
            "under_replicated_chunks": under_replicated,
            "active_sessions": len(self._sessions),
            "slo": self.obs.window_summary("rpc_handled_seconds"),
        }

    def fsck_violations(self) -> int:
        """How many violations of fsck's *always* invariants this state holds.

        :func:`repro.manager.fsck.fsck` over the encoded state, recomputed
        only once a record has been applied (or a snapshot installed) since
        the last answer.
        """
        # Imported here: ``python -m repro.manager.fsck`` imports this
        # package first, and must find the module not yet loaded.
        from repro.manager.fsck import fsck

        with self._meta_lock:
            moved = (self.records_applied, getattr(self, "applied_lsn", None))
            if self._fsck_cache[0] != moved:
                self._fsck_cache = (moved, len(fsck(encode_manager_state(self))))
            return self._fsck_cache[1]

    def under_replicated_count(self) -> int:
        """Committed replica placements still below their target level."""
        count = 0
        with self._meta_lock:
            for dataset in self._datasets.values():
                target = self.replication_target_for(dataset.dataset_id)
                for version in dataset.versions:
                    count += len(version.chunk_map.under_replicated(target))
        return count

    def fail(self) -> None:
        """Simulate a manager failure (every call raises until recovery)."""
        self.online = False

    def recover(self) -> None:
        self.online = True

    # ------------------------------------------------------------- durability
    def _commit(self, op: str, data: Dict[str, object], durable: bool = False):
        """Apply one record, then journal and ship it; returns the applier's value.

        The one way a handler changes journaled metadata: ``apply_record`` is
        what crash recovery and standbys run on the same record, so the live
        mutation cannot differ from the replayed one.  An applier that raises
        has touched nothing and nothing is appended — the call failed, and
        memory, journal and standbys are where they were.

        Callers already inside ``_meta_lock`` re-enter it for free; the lock
        spans apply, append and ship so record order always matches
        application order and snapshots see a consistent state.

        Appends are *fail-stop*: the record is written after the in-memory
        mutation (the meta lock hides the window from other callers), so if
        the append itself fails — journal volume full, I/O error — the
        in-memory state now leads the durable state and serving on would
        hand out results that recovery cannot restore.  The manager takes
        itself offline and propagates the error; a restart recovers the
        consistent journal prefix.
        """
        record = {"op": op, "data": data}
        with self._meta_lock:
            result = apply_record(self, record)
            lsn = None
            if self._persistence is not None:
                try:
                    lsn = self._persistence.append(op, data, durable=durable)
                    if self._persistence.should_snapshot():
                        self._persistence.take_snapshot(encode_manager_state(self))
                except Exception:
                    self.online = False
                    raise
            if self._shipper is not None:
                # Shipping under the meta lock pins the stream order to the
                # application order; a standby therefore never observes a
                # record permutation the primary did not serve.  Shipper
                # failures are fail-stop like journal appends: a record the
                # primary acknowledged but neither journaled nor shipped
                # would be lost to every successor.  Two exceptions are
                # *answers*, not corruption, and must not take the node
                # down: a missed ack quorum (state is consistent and locally
                # durable — the client just must not see success) and a
                # fencing rejection (a successor primary exists; this node
                # already self-demoted and redirects).
                try:
                    self._shipper.offer(record, lsn=lsn, durable=durable)
                except (QuorumNotReachedError, NotPrimaryError, StaleEpochError):
                    raise
                except Exception:
                    self.online = False
                    raise
        return result

    @property
    def persistence(self) -> Optional[ManagerPersistence]:
        return self._persistence

    @property
    def shipper(self):
        return self._shipper

    def attach_shipper(self, shipper) -> None:
        """Stream every subsequent journal record through ``shipper``.

        Works with or without a journal directory: the shipper receives the
        same logical redo records the journal would, so an in-memory manager
        can still replicate to hot standbys.
        """
        self._shipper = shipper

    def close_persistence(self) -> None:
        """Release the journal file handle (restart helpers call this)."""
        if self._persistence is not None:
            self._persistence.close()

    def recover_from_journal(self) -> RecoveryReport:
        """Restore state from snapshot + journal replay (crash recovery).

        While replaying, every RPC fails fast with
        :class:`ManagerRecoveringError`.  The journal's torn tail (a record
        the crash interrupted mid-append) is truncated, so the recovered
        state is exactly the longest consistent prefix of the pre-crash
        operation history — in particular every committed version whose
        commit record reached the journal is intact.
        """
        if self._persistence is None:
            raise ConfigurationError(
                "cannot recover: manager has no journal_dir configured"
            )
        if self._recovered:
            # Construction already recovered this journal (auto-recovery on a
            # pre-existing journal_dir); replaying twice would double-apply.
            return self.last_recovery
        start = time.perf_counter()
        report = RecoveryReport()
        self.recovering = True
        try:
            with self._meta_lock:
                state, records, torn_bytes = self._persistence.load()
                if state is not None:
                    restore_manager_state(self, state)
                    report.snapshot_loaded = True
                for record in records:
                    apply_record(self, record)
                report.records_replayed = len(records)
                report.torn_bytes_dropped = torn_bytes
        finally:
            self.recovering = False
        report.duration = time.perf_counter() - start
        report.datasets = len(self._datasets)
        report.versions = sum(len(d) for d in self._datasets.values())
        report.sessions_active = len(self._sessions)
        report.benefactors_known = len(self.registry)
        self._recovered = True
        self.last_recovery = report
        return report

    # ------------------------------------------------- benefactor-facing calls
    @rpc
    def register_benefactor(self, benefactor_id: str, address: str, free_space: int,
                            used_space: int = 0, chunk_count: int = 0) -> Dict[str, object]:
        """Soft-state registration; also used as the periodic heartbeat."""
        now = self.clock.now()
        # The meta lock spans the prior-address read, the membership record
        # and the liveness refresh so concurrent re-registrations cannot
        # journal in an order that disagrees with the order they were applied.
        with self._meta_lock:
            if self.registry.known_address(benefactor_id) != address:
                # Membership (id, address) is journaled; the refresh below is
                # liveness, which stays soft state like a heartbeat.
                self._commit(
                    "register",
                    {"benefactor_id": benefactor_id, "address": address, "t": now},
                )
            record = self.registry.register(
                benefactor_id, address, free_space, used_space, chunk_count,
                now=now,
            )
        return {
            "registered": True,
            "heartbeat_interval": self.config.heartbeat_interval,
            "known_benefactors": len(self.registry),
            "benefactor_id": record.benefactor_id,
            "peers": self._online_peers(),
        }

    def _online_peers(self) -> List[Dict[str, object]]:
        """The membership a benefactor learns from each answer: who is online."""
        return [
            {
                "benefactor_id": record.benefactor_id,
                "address": record.address,
                "free_space": record.free_space,
            }
            for record in self.registry.online()
        ]

    @rpc
    def heartbeat(self, benefactor_id: str, free_space: int,
                  inventory_digest: str, used_space: int = 0,
                  chunk_count: int = 0) -> Dict[str, object]:
        """Soft-state liveness refresh carrying the node's inventory digest.

        When the digest diverges from the inventory this benefactor last
        reconciled (or repair hints / corruption-ledger entries are waiting
        for it), the answer sets ``inventory_requested`` and the benefactor
        follows up with a full ``reconcile_inventory`` — so the common case
        (nothing changed) costs one digest per beat instead of the full id
        list.  ``peers`` lists every online benefactor: the node's whole
        view of the pool, replaced beat by beat.
        """
        self.registry.heartbeat(
            benefactor_id, free_space, used_space, chunk_count,
            now=self.clock.now(),
        )
        inventory_requested = self.registry.needs_reconcile(
            benefactor_id, inventory_digest
        )
        if not inventory_requested:
            with self._meta_lock:
                # A ledger entry for this node means it still holds a copy
                # the pool must not trust: ask for a reconcile, whose answer
                # instructs the purge.
                inventory_requested = any(
                    benefactor_id in holders for holders in self._corrupt.values()
                )
        return {
            "acknowledged": True,
            "inventory_requested": inventory_requested,
            # The serving epoch rides on every beat so a benefactor notices
            # a promotion (epoch change) and re-registers even when the new
            # primary happens to know it from the shipped stream.
            "epoch": self.epoch,
            "peers": self._online_peers(),
        }

    @rpc
    def report_benefactor_failure(self, benefactor_id: str) -> Dict[str, object]:
        """Clients report data-path failures so the manager reacts promptly."""
        if self.registry.mark_offline(benefactor_id):
            self._request_reconciles()
        return {"acknowledged": True}

    @rpc
    def gc_report(self, benefactor_id: str, chunk_ids: Sequence[str]) -> Dict[str, List[str]]:
        """Garbage-collection exchange: reply with the chunks that may be deleted.

        A chunk is collectible when it is referenced by no committed version
        of any dataset *and* it already appeared in this benefactor's previous
        report (so a chunk pushed by an in-flight session that has not yet
        committed its chunk-map is never collected).
        """
        with self._meta_lock:
            reported = set(chunk_ids)
            live = self.live_chunk_ids()
            # Chunks acknowledged by open sessions are protected
            # immediately, without waiting for the seen-twice rule.
            for session in self._sessions.values():
                live.update(session.acked_chunks)
            previously_seen = self._gc_seen.get(benefactor_id, set())
            dead = sorted(cid for cid in reported if cid not in live and cid in previously_seen)
            # The reported set itself is soft state (losing it merely delays
            # collection by one seen-twice round, the safe direction); only
            # the deletion authorization is a record, whose applier re-adds
            # ``dead`` to a seen-set that live already holds it.
            self._gc_seen[benefactor_id] = reported
            if dead:
                self._commit(
                    "gc", {"benefactor_id": benefactor_id, "dead": dead},
                    durable=True,
                )
            return {"collectible": dead}

    def expire_benefactors(self) -> List[str]:
        """Expire benefactors whose heartbeats went silent (called by services)."""
        expired = self.registry.expire(self.clock.now())
        if expired:
            self._request_reconciles()
        return expired

    def _request_reconciles(self) -> None:
        """Flag every online benefactor ``repair_pending`` (soft state).

        For whatever lowers a chunk's healthy replica count, or takes its
        designated source away, without changing a survivor's inventory: the
        survivors' digests still match, so only the flag makes their next
        heartbeat reconcile and pick up the ``repair`` work.  Under the meta
        lock, so a reconcile in progress cannot clear a flag that was set for
        a change it did not see.
        """
        with self._meta_lock:
            for record in self.registry.online():
                self.registry.set_repair_pending(record.benefactor_id)

    @rpc
    def reconcile_inventory(self, benefactor_id: str,
                            chunk_ids: Sequence[str]) -> Dict[str, object]:
        """Reconcile a benefactor's advertised chunk inventory (soft state).

        Benefactors re-advertise the chunks they hold when they (re)register
        or when a heartbeat's inventory digest diverges.  A recovered manager
        uses the advertisement to repair what the journal cannot carry:
        replica placements created by background replication after the last
        commit record are *re-attached* — unless the corruption ledger marks
        this benefactor's copy bad, in which case the answer's ``purge`` list
        tells the holder to drop the chunk instead.  Chunks no committed
        version references are reported back as orphans but deliberately NOT
        marked seen for the GC exchange: an "orphan" may be an in-flight
        chunk whose ack record did not survive the crash, and the seen-twice
        rule (two consecutive unreferenced reports) is exactly the grace
        period that lets its session commit first.

        The answer is also where the manager *judges under-replication*, the
        only place that does (section IV.A's shadow chunk-map): ``repair``
        lists the chunks whose healthy replica count is below their dataset's
        target **and** whose designated source is this benefactor — the first
        healthy holder the registry has online, so exactly one node copies.
        Each entry says how many replicas are ``missing``, who ``holders``
        are already and which corrupt holders to ``exclude`` as targets; the
        node's anti-entropy pass makes the copies and reports them through
        :meth:`record_replicas`.  New files have priority over replication:
        while an open write session still holds its reservation nothing is
        handed out.  A session whose lease expired (its writer abandoned it:
        only commit or abort ends a session) holds nothing back.  A node
        whose work was withheld, or cut off by ``MAX_REPAIR_HINTS``, stays
        flagged ``repair_pending`` so its next heartbeat reconciles again; so
        does a node holding chunks a live session acked, whose commit will
        make them a version nobody judged yet.

        The advertisement is also evidence of what the node no longer holds.
        The node lists its store before the call, so a chunk that landed and
        committed since is missing from the list without being lost: a
        committed placement naming the node is *detached* only when two
        consecutive inventories lack its chunk (the first miss is remembered
        as soft state and the node is flagged to reconcile again).  A holder
        back with an empty disk thus stops counting as a replica one
        heartbeat later.  Unlike a re-attachment the detach is journaled
        (``detach_replicas``, durable like ``clear_corrupt``), so no standby
        or replayed manager keeps the lost copy from its commit record, and
        the remaining holders are flagged so the designated source reconciles
        and picks up the repair.
        """
        inventory = set(chunk_ids)
        reattached = 0
        repair: List[Dict[str, object]] = []
        hinted: Set[str] = set()
        unserved = False
        with self._meta_lock:
            withheld = any(session.reservation_id in self.reservations
                           for session in self._sessions.values())
            # Ledger entries for chunks this inventory no longer carries are
            # cleared, durably like the reports that made them: the corrupt
            # copy is gone, and a fresh replica the node stores must not be
            # purged by a successor that still holds the entry.
            gone = sorted(chunk_id for chunk_id, holders in self._corrupt.items()
                          if benefactor_id in holders and chunk_id not in inventory)
            if gone:
                self._commit("clear_corrupt", {"benefactor_id": benefactor_id,
                                               "chunk_ids": gone}, durable=True)
            purge = sorted(
                chunk_id for chunk_id in inventory
                if benefactor_id in self._corrupt.get(chunk_id, ())
            )
            referenced: Set[str] = set()
            #: chunk -> its holders, for placements naming this node whose
            #: chunk the inventory lacks.
            lost: Dict[str, Set[str]] = {}
            for dataset in self._datasets.values():
                target = self.replication_target_for(dataset.dataset_id)
                for version in dataset.versions:
                    for placement in version.chunk_map:
                        chunk_id = placement.ref.chunk_id
                        if chunk_id not in inventory:
                            if benefactor_id in placement.benefactors:
                                lost.setdefault(chunk_id, set()).update(
                                    placement.benefactors)
                            continue
                        referenced.add(chunk_id)
                        corrupt_holders = set(self._corrupt.get(chunk_id, ()))
                        if benefactor_id in corrupt_holders:
                            # Never re-attach a copy the ledger says is bad.
                            continue
                        if benefactor_id not in placement.benefactors:
                            placement.add_replica(benefactor_id)
                            reattached += 1
                        healthy = [
                            b for b in placement.benefactors
                            if b not in corrupt_holders
                        ]
                        if len(healthy) >= target or chunk_id in hinted:
                            continue
                        source = next(filter(self.registry.is_online, healthy), None)
                        if source != benefactor_id:
                            continue
                        hinted.add(chunk_id)
                        if withheld or len(repair) >= MAX_REPAIR_HINTS:
                            unserved = True
                            continue
                        repair.append({
                            "chunk_id": chunk_id,
                            "reason": ("corrupt_elsewhere" if corrupt_holders
                                       else "under_replicated"),
                            "missing": target - len(healthy),
                            "holders": healthy,
                            "exclude": sorted(corrupt_holders),
                        })
            missed_twice = sorted(
                set(lost) & self.registry.note_missing(benefactor_id, set(lost)))
            if missed_twice:
                # The remaining holders are flagged first, as in
                # report_corrupt_chunk.
                survivors = set().union(*(lost[c] for c in missed_twice))
                survivors.discard(benefactor_id)
                for survivor in survivors:
                    self.registry.set_repair_pending(survivor)
                self._commit("detach_replicas", {"benefactor_id": benefactor_id,
                                                 "chunk_ids": missed_twice},
                             durable=True)
            protected: Set[str] = set()
            uncommitted: Set[str] = set()
            for session in self._sessions.values():
                protected.update(session.acked_chunks)
                if session.reservation_id in self.reservations:
                    uncommitted.update(session.acked_chunks)
            orphans = sorted(inventory - referenced - protected)
            # Digest what was actually reported, so divergence checks on later
            # heartbeats compare against ground truth rather than a self-report.
            self.registry.note_reconciled(
                benefactor_id, compute_inventory_digest(inventory)
            )
            if (unserved or len(missed_twice) < len(lost)
                    or not uncommitted.isdisjoint(inventory)):
                self.registry.set_repair_pending(benefactor_id)
        return {
            "reattached": reattached,
            "orphans": orphans,
            "purge": purge,
            "repair": repair,
        }

    @rpc
    def report_corrupt_chunk(self, chunk_id: str, benefactor_id: str,
                             reporter: str = "") -> Dict[str, object]:
        """Record that ``benefactor_id``'s replica of ``chunk_id`` is corrupt.

        Fed by the client read path (a replica that failed digest/length
        verification during a striped read) and by benefactor anti-entropy
        comparisons.  The placement is dropped from every committed chunk-map
        so readers stop trying the bad copy, the ledger entry prevents
        soft-state reconciliation from re-attaching it, and the surviving
        holders are flagged ``repair_pending`` so their next heartbeat
        reconciles and the designated one picks up the repair.  Durable: a
        ghost corrupt replica after recovery would satisfy the replication
        target and mask real under-replication (same rationale as
        ``drop_benefactor``).
        """
        now = self.clock.now()
        with self._meta_lock:
            survivors: Set[str] = set()
            for dataset in self._datasets.values():
                for version in dataset.versions:
                    for placement in version.chunk_map.placements_for(chunk_id):
                        survivors.update(placement.benefactors)
            survivors.discard(benefactor_id)
            # Flagged before the record: one that misses its standby quorum
            # is applied all the same, and only the flags make the survivors
            # reconcile and the designated one copy.
            for survivor in survivors:
                self.registry.set_repair_pending(survivor)
            dropped = 0
            # A repeat of a report already in the ledger changes nothing: the
            # first report's timestamp stands and its placements are gone.
            if benefactor_id not in self._corrupt.get(chunk_id, ()):
                dropped = self._commit(
                    "corrupt_chunk",
                    {"chunk_id": chunk_id, "benefactor_id": benefactor_id,
                     "reporter": reporter, "t": now},
                    durable=True,
                )
        return {
            "recorded": True,
            "replicas_dropped": dropped,
            "healthy_holders": sorted(survivors),
        }

    @rpc
    def record_replicas(self, benefactor_id: str,
                        chunk_ids: Sequence[str]) -> Dict[str, object]:
        """Attach replicas a repair source created (or found already present).

        Repair copies flow benefactor-to-benefactor; this call commits them
        into the chunk-maps afterwards (the paper's "commit the shadow map
        once the copies are done").  Soft state — not journaled: a recovered
        manager re-learns the placements from the holder's own inventory
        reconciliation.
        """
        wanted = set(chunk_ids)
        attached = 0
        with self._meta_lock:
            for dataset in self._datasets.values():
                for version in dataset.versions:
                    for placement in version.chunk_map:
                        chunk_id = placement.ref.chunk_id
                        if chunk_id not in wanted:
                            continue
                        if benefactor_id in self._corrupt.get(chunk_id, ()):
                            continue
                        if benefactor_id not in placement.benefactors:
                            placement.add_replica(benefactor_id)
                            attached += 1
        return {"attached": attached}

    def corrupt_replicas(self) -> Dict[str, List[str]]:
        """Ledger snapshot: ``chunk_id -> benefactors with corrupt copies``."""
        with self._meta_lock:
            return {
                chunk_id: sorted(holders)
                for chunk_id, holders in self._corrupt.items()
            }

    # ------------------------------------------------------ namespace operations
    @rpc
    def make_folder(self, path: str, retention_kind: Optional[str] = None,
                    purge_after: float = 3600.0, keep_last: int = 1,
                    exist_ok: bool = True) -> Dict[str, object]:
        """Create an application folder, optionally with a retention policy."""
        path = normalize_path(path)
        self._commit("make_folder", {
            "path": path,
            "retention_kind": retention_kind,
            "purge_after": purge_after,
            "keep_last": keep_last,
            "t": self.clock.now(),
        })
        return {"created": True, "path": path}

    @rpc
    def set_retention(self, path: str, retention_kind: str,
                      purge_after: float = 3600.0, keep_last: int = 1) -> Dict[str, object]:
        self._commit("set_retention", {
            "path": normalize_path(path),
            "retention_kind": retention_kind,
            "purge_after": purge_after,
            "keep_last": keep_last,
        })
        return {"updated": True}

    @rpc
    def list_dir(self, path: str) -> List[str]:
        return self.namespace.list_dir(path)

    @rpc
    def exists(self, path: str) -> bool:
        return self.namespace.exists(path)

    @rpc
    def stat(self, path: str) -> Dict[str, object]:
        """File or folder attributes (getattr equivalent)."""
        if self.namespace.folder_exists(path):
            folder = self.namespace.get_folder(path)
            return {
                "type": "directory",
                "entries": len(folder.folders) + len(folder.files),
                "created_at": folder.created_at,
            }
        entry = self.namespace.get_file(path)
        dataset = self._dataset(entry.dataset_id)
        latest = dataset.latest
        return {
            "type": "file",
            "dataset_id": dataset.dataset_id,
            "size": dataset.size,
            "versions": dataset.version_numbers,
            "created_at": entry.created_at,
            "modified_at": latest.created_at if latest is not None else entry.created_at,
        }

    @rpc
    def delete(self, path: str) -> Dict[str, object]:
        """Delete a file: metadata is dropped; chunks become GC-able orphans."""
        removed_versions = self._commit(
            "delete", {"path": normalize_path(path)}, durable=True
        )
        return {"deleted": True, "versions_removed": removed_versions}

    @rpc
    def remove_folder(self, path: str, force: bool = False) -> Dict[str, object]:
        removed = 0
        # One lock hold across the per-file deletes and the folder removal: a
        # create_session landing between them would have its file dropped
        # with the folder and its dataset left behind for good.
        with self._meta_lock:
            self.namespace.check_removable(path, force)
            if force:
                # Deleting a folder drops all files beneath it first, one
                # ``delete`` record each.
                for file_path, _entry in list(self.namespace.iter_files(path)):
                    self._commit("delete", {"path": file_path}, durable=True)
                    removed += 1
            self._commit(
                "remove_folder",
                {"path": normalize_path(path), "force": force},
                durable=True,
            )
        return {"deleted": True, "files_removed": removed}

    # ------------------------------------------------------------ write sessions
    def _dataset(self, dataset_id: str) -> DatasetMetadata:
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise UnknownDatasetError(f"unknown dataset id: {dataset_id}") from None

    def _dataset_for_path(self, path: str) -> DatasetMetadata:
        entry = self.namespace.get_file(path)
        return self._dataset(entry.dataset_id)

    def _allocate_stripe(self, stripe_width: int, required_space: int,
                         exclude: Optional[Set[str]] = None) -> List[Dict[str, str]]:
        views = self.registry.online_views()
        allocation = self.striping.select(
            views, stripe_width, exclude=exclude, required_space=required_space
        )
        return [
            {"benefactor_id": bid, "address": self.registry.address_of(bid)}
            for bid in allocation
        ]

    @rpc
    def create_session(self, path: str, client_id: str, expected_size: int = 0,
                       stripe_width: Optional[int] = None,
                       replication_level: Optional[int] = None) -> Dict[str, object]:
        """Open a write session for ``path`` and allocate its stripe.

        If ``path`` already exists the session targets a *new version* of the
        same dataset (checkpoint versioning); otherwise a dataset is created.
        """
        now = self.clock.now()
        width = stripe_width if stripe_width is not None else self.config.stripe_width
        replication = (
            replication_level if replication_level is not None
            else self.config.replication_level
        )

        with self._meta_lock:
            path = normalize_path(path)
            if self.namespace.file_exists(path):
                dataset = self._dataset_for_path(path)
                dataset_id, version = dataset.dataset_id, dataset.next_version
            else:
                dataset_id, version = f"ds-{self._dataset_seq + 1}", 1
            stripe = self._allocate_stripe(width, expected_size)
            # Logical redo record: carries the *results* (ids, stripe,
            # version) so applying it is deterministic without registry
            # state.  Ids are peeked here and consumed by the applier, so a
            # call that fails (no benefactor online, bad size) burns none.
            record = {
                "session_id": f"session-{self._session_seq + 1}",
                "client_id": client_id,
                "path": path,
                "dataset_id": dataset_id,
                "version": version,
                "stripe": stripe,
                "reservation_id": self.reservations.next_id,
                "created_at": now,
                "replication_level": replication,
                "expected_size": expected_size,
            }
            self._commit("create_session", record)
        return {
            "session_id": record["session_id"],
            "dataset_id": dataset_id,
            "version": version,
            "stripe": stripe,
            "chunk_size": self.config.chunk_size,
            "reservation_id": record["reservation_id"],
            "replication_level": replication,
            # Echoed so a failover-aware client can replay the whole session
            # (re-open + re-commit) against a promoted standby that never
            # received this session's journal record.
            "path": path,
            "client_id": client_id,
        }

    @rpc
    def extend_stripe(self, session_id: str, additional_space: int = 0) -> Dict[str, object]:
        """Re-allocate the stripe for a session (e.g. a benefactor went away)."""
        with self._meta_lock:
            session = self._session(session_id)
            stripe = self._allocate_stripe(len(session.stripe) or self.config.stripe_width,
                                           additional_space)
            self._commit("extend_stripe", {"session_id": session_id, "stripe": stripe})
        return {"stripe": stripe}

    @rpc
    def put_chunks_ack(self, session_id: str,
                       placements: Sequence[Dict[str, object]]) -> Dict[str, object]:
        """Record a batch of successful chunk placements for an open session.

        The parallel data path sends one ``put_chunks_ack`` per
        ``ack_batch_size`` stored chunks instead of one transaction per
        chunk, so the manager learns placements early (GC protection,
        failure recovery) at a fraction of the transaction cost.  The commit
        at close time still carries the full chunk-map in a single RPC and
        remains the only step that makes a version visible.
        """
        with self._meta_lock:
            session = self._session(session_id)
            normalized = [
                {
                    "chunk_id": str(placement["chunk_id"]),  # type: ignore[index]
                    "benefactors": list(placement.get("benefactors", ())),  # type: ignore[union-attr]
                }
                for placement in placements
            ]
            self._commit("put_chunks_ack", {
                "session_id": session_id, "placements": normalized,
            })
            acked_total = len(session.acked_chunks)
        return {"acked": len(placements), "session_chunks": acked_total}

    def _session(self, session_id: str) -> WriteSessionRecord:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownDatasetError(f"unknown session: {session_id}") from None

    @rpc
    def commit_session(self, session_id: str, chunk_map: Dict, size: int,
                       producer: str = "", timestep: Optional[int] = None,
                       attributes: Optional[Dict[str, str]] = None,
                       dataset_id: Optional[str] = None,
                       version: Optional[int] = None) -> Dict[str, object]:
        """Atomically commit the dataset's chunk-map (session semantics).

        ``dataset_id`` and ``version`` are what ``create_session`` answered;
        only a retry needs them.  Once the session is gone, a version of that
        number made by ``session_id`` means the first attempt landed
        (:class:`SessionCommittedError`); anything else is an unknown session.
        """
        with self._meta_lock:
            session = self._sessions.get(session_id)
            if session is None:
                dataset = self._datasets.get(dataset_id)
                if (dataset is not None and dataset.has_version(version)
                        and dataset.get_version(version).session_id == session_id):
                    raise SessionCommittedError(
                        f"session {session_id} already committed version "
                        f"{version} of {dataset_id}"
                    )
                raise UnknownDatasetError(f"unknown session: {session_id}")
            self._dataset(session.dataset_id)
            self._commit("commit", {
                "session_id": session_id,
                "chunk_map": chunk_map,
                "size": size,
                "created_at": self.clock.now(),
                "producer": producer,
                "timestep": timestep,
                "attributes": dict(attributes or {}),
            }, durable=True)
        return {
            "committed": True,
            "dataset_id": session.dataset_id,
            "version": session.version,
            "size": size,
        }

    @rpc
    def abort_session(self, session_id: str) -> Dict[str, object]:
        with self._meta_lock:
            self._session(session_id)
            self._commit("abort", {"session_id": session_id}, durable=True)
        return {"aborted": True}

    def active_sessions(self) -> List[WriteSessionRecord]:
        return list(self._sessions.values())

    # ------------------------------------------------------------------- reads
    @rpc
    def get_chunk_map(self, path: str, version: Optional[int] = None) -> Dict[str, object]:
        """Return the chunk-map of ``path`` (latest version by default)."""
        dataset = self._dataset_for_path(path)
        if dataset.latest is None:
            # The path exists in the namespace (a session was opened) but no
            # version has been committed yet: session semantics hide it.
            raise FileNotFoundInStdchkError(
                f"{path} has no committed versions yet"
            )
        record = dataset.get_version(version)
        addresses = {}
        for benefactor_id in record.chunk_map.stored_benefactors:
            if benefactor_id in self.registry:
                addresses[benefactor_id] = self.registry.address_of(benefactor_id)
        return {
            "dataset_id": dataset.dataset_id,
            "version": record.version,
            "size": record.size,
            "chunk_map": record.chunk_map.to_dict(),
            "addresses": addresses,
            "producer": record.producer,
            "timestep": record.timestep,
        }

    @rpc
    def get_versions(self, path: str) -> List[Dict[str, object]]:
        """Version history of a dataset (for restart/debugging tooling)."""
        dataset = self._dataset_for_path(path)
        return [
            {
                "version": v.version,
                "size": v.size,
                "created_at": v.created_at,
                "producer": v.producer,
                "timestep": v.timestep,
                "chunks": v.chunk_count,
            }
            for v in dataset.versions
        ]

    @rpc
    def get_existing_chunks(self, path: str) -> Dict[str, object]:
        """Chunk ids (with placements) already stored for this application.

        The client's incremental-checkpointing writer uses this to avoid
        re-pushing chunks whose content already lives in the pool: new
        versions reference them copy-on-write.  Following the paper's naming
        convention (all ``A.Ni.Tj`` images of application ``A`` are versions
        of the same logical file), the inventory covers the latest version of
        *every* file in the same application folder, not just prior versions
        of ``path`` itself.
        """
        placements: Dict[str, List[str]] = {}

        def _merge(version) -> None:
            for placement in version.chunk_map:
                existing = placements.setdefault(placement.ref.chunk_id, [])
                for benefactor in placement.benefactors:
                    if benefactor not in existing:
                        existing.append(benefactor)

        parent, _name = split_path(path)
        if self.namespace.folder_exists(parent):
            for _sibling_path, entry in self.namespace.iter_files(parent):
                dataset = self._datasets.get(entry.dataset_id)
                if dataset is None or dataset.latest is None:
                    continue
                _merge(dataset.latest)
        elif self.namespace.file_exists(path):
            dataset = self._dataset_for_path(path)
            if dataset.latest is not None:
                _merge(dataset.latest)
        return {"chunks": placements}

    # ----------------------------------------------------- service-facing helpers
    def live_chunk_ids(self) -> Set[str]:
        """Chunk ids referenced by any committed version of any dataset."""
        live: Set[str] = set()
        for dataset in self._datasets.values():
            live.update(dataset.live_chunk_ids())
        return live

    def datasets(self) -> List[DatasetMetadata]:
        return list(self._datasets.values())

    def dataset_by_path(self, path: str) -> DatasetMetadata:
        return self._dataset_for_path(path)

    def replication_target_for(self, dataset_id: str) -> int:
        return self._replication_targets.get(dataset_id, self.config.replication_level)

    def prune_version(self, dataset_id: str, version: int) -> DatasetVersion:
        """Remove one version's metadata (retention pruning) and journal it."""
        with self._meta_lock:
            self._dataset(dataset_id)
            return self._commit(
                "prune", {"dataset_id": dataset_id, "version": version},
                durable=True,
            )

    def drop_benefactor_placements(self, benefactor_id: str) -> int:
        """Remove a departed benefactor from every committed chunk-map.

        Returns the number of placements that lost a replica.  No survivor's
        inventory changed, so the online benefactors are flagged to reconcile
        and the designated holders re-create the replicas on other nodes.  The
        drop is journaled: a permanently departed benefactor must stay dropped
        after recovery (it will never re-advertise an inventory to correct
        the chunk maps), otherwise its ghost replicas would satisfy the
        replication target and mask real under-replication.
        """
        with self._meta_lock:
            if not any(
                benefactor_id in version.chunk_map.stored_benefactors
                for dataset in self._datasets.values()
                for version in dataset.versions
            ):
                return 0
            # Flagged first, as in report_corrupt_chunk: a record that
            # misses its quorum is applied all the same.
            self._request_reconciles()
            return self._commit(
                "drop_benefactor", {"benefactor_id": benefactor_id},
                durable=True,
            )

    def storage_summary(self) -> Dict[str, object]:
        """Aggregate pool statistics (used by examples and benches)."""
        datasets = self._datasets.values()
        return {
            "datasets": len(self._datasets),
            "versions": sum(len(d) for d in datasets),
            "logical_bytes": sum(d.total_stored_size for d in datasets),
            "unique_chunks": len(self.live_chunk_ids()),
            "benefactors_online": len(self.registry.online()),
            "benefactors_known": len(self.registry),
            "free_space": self.registry.total_free_space(),
            "transactions": self.transactions,
        }
