"""The benefactor node.

A benefactor contributes scavenged storage.  It registers with the manager
using soft-state registration (periodic heartbeats carrying its free space),
serves chunk put/get/delete requests from clients and peers, copies chunks to
other benefactors when the manager's reconcile answer names it the source of
an under-replicated chunk, and participates in the garbage-collection
exchange by periodically reporting the chunks it holds and deleting the ones
the manager declares dead.

The node can be toggled offline/online to model desktop volatility (owner
reclaiming the machine, crash): while offline every data-path operation
raises :class:`~repro.exceptions.BenefactorOfflineError`.  A crash
additionally wipes a memory-backed store, modelling loss of node-local data.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benefactor.chunk_store import ChunkStore, MemoryChunkStore
from repro.benefactor.maintenance.digest import compute_inventory_digest
from repro.benefactor.maintenance.peers import PeerDirectory, RepairTask
from repro.core.chunk import Chunk, ChunkId
from repro.exceptions import (
    BenefactorError,
    BenefactorOfflineError,
    ChunkNotFoundError,
    TransportError,
)
from repro.obs import MetricsRegistry
from repro.transport.base import Endpoint, Transport, control, rpc
from repro.util.clock import Clock, SystemClock
from repro.util.units import GiB

#: The node's own accounting, read through :attr:`Benefactor.stats` and
#: exported as the ``benefactor_<key>_total`` counters.
_STAT_KEYS = (
    "puts",
    "gets",
    "deletes",
    "replications_out",
    "bytes_in",
    "bytes_out",
    "checksum_inventories",
)


class Benefactor(Endpoint):
    """A storage donor node."""

    def __init__(
        self,
        benefactor_id: str,
        transport: Transport,
        store: Optional[ChunkStore] = None,
        capacity: int = 10 * GiB,
        clock: Optional[Clock] = None,
        address: Optional[str] = None,
    ) -> None:
        self.benefactor_id = benefactor_id
        self.store = store if store is not None else MemoryChunkStore(capacity)
        self.transport = transport
        self.clock = clock if clock is not None else SystemClock()
        self.address = address if address is not None else f"benefactor://{benefactor_id}"
        #: The address peers should dial; ``register_with`` overrides it with
        #: the bound socket on TCP deployments.
        self.advertised_address = self.address
        self.online = True
        #: The manager's last list of online peers, replaced by every
        #: registration and heartbeat answer.
        self.peers = PeerDirectory(benefactor_id)
        #: Chunks queued for the anti-entropy pass to re-replicate, keyed by
        #: chunk id; each reconcile answer replaces the queue.
        self._repair_queue: Dict[ChunkId, RepairTask] = {}
        self._repair_lock = threading.Lock()
        #: One reconcile at a time: the manager detaches a copy only when two
        #: consecutive inventories lack it, which holds only if each is
        #: listed after the previous one was answered.
        self._reconcile_lock = threading.Lock()
        #: Inventory digest cached against the store's mutation counter.
        self._digest_cache: Optional[Tuple[int, str]] = None
        #: Per-node metrics registry; ``obs_component``/``obs_node_id`` stamp
        #: server-side RPC spans opened by ``Endpoint.dispatch``.
        self.obs = MetricsRegistry(component="benefactor",
                                   node_id=benefactor_id, clock=self.clock)
        self.obs_component = "benefactor"
        self.obs_node_id = benefactor_id
        #: When this node last heartbeated its manager (clock seconds), set
        #: by the maintenance heartbeat service; ``None`` before the first
        #: beat.  Surfaced through :meth:`health` as ``last_heartbeat_age``.
        self.last_heartbeat_at: Optional[float] = None
        # Accounting, not telemetry: repair, GC and benchmarks read these
        # whether or not observability is on.  Parallel pushers hit one
        # benefactor from several client threads at once, so every update
        # takes the lock; the registry reads the counts when snapshotted.
        self._stats = dict.fromkeys(_STAT_KEYS, 0)
        self._stats_lock = threading.Lock()
        for key in _STAT_KEYS:
            self.obs.counter(
                f"benefactor_{key}_total", f"Benefactor {key} counter."
            ).set_function(functools.partial(self._stats.__getitem__, key))
        store_hist = self.obs.histogram(
            "benefactor_store_seconds",
            "Chunk-store I/O latency by operation.",
            labelnames=("op",),
        )
        self._store_put_timer = store_hist.labels(op="put")
        self._store_get_timer = store_hist.labels(op="get")
        self.transport.register(self.address, self)

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._stats[counter] += 1

    def _bump_transfer(self, counter: str, bytes_counter: str, size: int) -> None:
        """One chunk moved: ``counter`` + 1 and ``bytes_counter`` + ``size``."""
        with self._stats_lock:
            self._stats[counter] += 1
            self._stats[bytes_counter] += size

    @property
    def stats(self) -> Dict[str, int]:
        """The node's counts: chunks and bytes in and out, deletes, inventories."""
        with self._stats_lock:
            return dict(self._stats)

    @control
    def get_metrics(self) -> Dict[str, object]:
        """Metrics-snapshot RPC; deliberately served even while offline."""
        return self.obs.snapshot()

    @control
    def health(self) -> Dict[str, object]:
        """Health document (served even while offline, like metrics).

        ``ready`` tracks :attr:`online`: an owner-reclaimed desktop answers
        503 on its telemetry port until the machine is donated back.
        """
        now = self.clock.now()
        return {
            "component": "benefactor",
            "node_id": self.benefactor_id,
            "status": "ok" if self.online else "offline",
            "ready": self.online,
            "online": self.online,
            "free_space": self.store.free_space,
            "used_space": self.store.used_space,
            "chunk_count": self.store.chunk_count,
            "pending_repairs": self.pending_repairs(),
            "last_heartbeat_age": (
                now - self.last_heartbeat_at
                if self.last_heartbeat_at is not None else None
            ),
            "slo": self.obs.window_summary("rpc_handled_seconds"),
        }

    # -- lifecycle -----------------------------------------------------------
    def _admit(self) -> None:
        """The one guard of every :func:`~repro.transport.base.rpc` handler."""
        if not self.online:
            raise BenefactorOfflineError(
                f"benefactor {self.benefactor_id} is offline"
            )

    def go_offline(self) -> None:
        """Owner reclaimed the machine: stop serving, keep stored chunks."""
        self.online = False

    def go_online(self) -> None:
        self.online = True

    def crash(self, lose_data: bool = False) -> None:
        """Simulate a crash.  ``lose_data`` wipes the store (disk loss)."""
        self.online = False
        if lose_data:
            for chunk_id in self.store.chunk_ids():
                self.store.delete(chunk_id)

    # -- registration ------------------------------------------------------------
    def register_with(self, manager_address: str,
                      advertised_address: Optional[str] = None,
                      reconcile: bool = True) -> Dict[str, object]:
        """Register with the manager and re-advertise the chunk inventory.

        On every (re)registration the benefactor reports what it actually
        holds — for a disk-backed store that is the contributed directory's
        rescanned contents — so a recovered manager can re-attach placements
        its journal could not carry and schedule orphans for collection.
        ``advertised_address`` overrides the address peers should dial (the
        TCP deployment advertises the *bound* ``host:port``, not the advisory
        registration key).  The answer's ``peers`` list replaces the peer
        directory.
        """
        address = advertised_address if advertised_address is not None else self.address
        self.advertised_address = address
        answer = self.transport.call(
            manager_address,
            "register_benefactor",
            benefactor_id=self.benefactor_id,
            address=address,
            free_space=self.store.free_space,
            used_space=self.store.used_space,
            chunk_count=self.store.chunk_count,
        )
        self.peers.replace(answer["peers"])
        result: Dict[str, object] = {"registered": answer, "reconciled": None}
        if reconcile:
            result["reconciled"] = self.reconcile_with(manager_address)
        return result

    def reconcile_with(self, manager_address: str) -> Dict[str, object]:
        """Ship the full chunk inventory and absorb the manager's handoff.

        The answer's ``repair`` list is the manager's whole, current
        judgement of what this node should copy, so it *replaces* the repair
        queue (an empty list — nothing to do, or work withheld while a file
        is being written — empties it).  Local copies the corruption ledger
        attributes to this node are purged so repair pulls a fresh replica
        from a good holder instead of trusting bad bytes.
        """
        with self._reconcile_lock:
            answer = self.transport.call(
                manager_address,
                "reconcile_inventory",
                benefactor_id=self.benefactor_id,
                chunk_ids=self.store.chunk_ids(),
            )
        for chunk_id in answer.get("purge", ()):
            self.store.delete(chunk_id)
        with self._repair_lock:
            self._repair_queue.clear()
        for hint in answer.get("repair", ()):
            self.enqueue_repair(
                str(hint["chunk_id"]),
                reason=str(hint.get("reason", "under_replicated")),
                exclude=hint.get("exclude", ()),
                missing=int(hint.get("missing", 1)),
                holders=hint.get("holders", ()),
            )
        return answer

    # -- inventory summaries ----------------------------------------------------
    def inventory_digest(self) -> str:
        """The inventory digest (heartbeat payload), cached against the
        store's mutation counter."""
        mutations = self.store.mutation_count
        cached = self._digest_cache
        if cached is None or cached[0] != mutations:
            cached = (mutations, compute_inventory_digest(self.store.chunk_ids()))
            self._digest_cache = cached
        return cached[1]

    @rpc
    def checksum_inventory(self) -> Dict[ChunkId, str]:
        """``chunk_id -> payload digest`` map served to anti-entropy peers."""
        self._bump("checksum_inventories")
        return self.store.checksums()

    # -- repair queue -----------------------------------------------------------
    def enqueue_repair(self, chunk_id: ChunkId,
                       reason: str = "under_replicated",
                       exclude: Sequence[str] = (), missing: int = 1,
                       holders: Sequence[str] = ()) -> None:
        """Queue ``missing`` more replicas of a chunk for the anti-entropy pass.

        A chunk already queued keeps its count and merges the new holders
        and exclusions.
        """
        with self._repair_lock:
            task = self._repair_queue.get(chunk_id)
            if task is None:
                self._repair_queue[chunk_id] = RepairTask(
                    chunk_id=chunk_id, reason=reason, missing=missing,
                    holders=set(holders), exclude=set(exclude),
                )
            else:
                task.holders.update(holders)
                task.exclude.update(exclude)

    def drain_repairs(self, limit: int) -> List[RepairTask]:
        """Pop up to ``limit`` queued repair tasks (FIFO)."""
        with self._repair_lock:
            taken = list(self._repair_queue)[:max(limit, 0)]
            return [self._repair_queue.pop(chunk_id) for chunk_id in taken]

    def pending_repairs(self) -> int:
        with self._repair_lock:
            return len(self._repair_queue)

    # -- data path ----------------------------------------------------------------
    @rpc
    def put_chunks(self, chunk_ids: Sequence[ChunkId],
                   data: Sequence[bytes]) -> Dict[str, object]:
        """Store the chunks of one frame (a chunk that travels alone is a
        frame of one); returns how many were stored and the free space.

        An offline node refuses the whole frame; otherwise this raises at the
        first chunk that fails (integrity, capacity).  Those before it stay
        stored: storing is idempotent, and a chunk no committed version names
        is collected like any aborted push.
        """
        if len(chunk_ids) != len(data):
            raise ValueError(
                f"{len(chunk_ids)} chunk ids for {len(data)} payloads")
        for chunk_id, payload in zip(chunk_ids, data):
            chunk = Chunk(chunk_id=chunk_id, data=payload)
            chunk.verify()
            with self._store_put_timer.time():
                self.store.put(chunk)
            self._bump_transfer("puts", "bytes_in", len(payload))
        return {"stored": len(chunk_ids), "free_space": self.store.free_space}

    @rpc
    def get_chunks(self, chunk_ids: Sequence[ChunkId]) -> List[bytes]:
        """Payloads of the chunks of one frame, in order.

        Raises at the first chunk that fails; the caller asks again chunk by
        chunk to learn which.
        """
        payloads = []
        for chunk_id in chunk_ids:
            with self._store_get_timer.time():
                chunk = self.store.get(chunk_id)
            self._bump_transfer("gets", "bytes_out", chunk.size)
            payloads.append(chunk.data)
        return payloads

    @rpc
    def has_chunk(self, chunk_id: ChunkId) -> bool:
        return self.store.contains(chunk_id)

    @rpc
    def delete_chunks(self, chunk_ids: Sequence[ChunkId]) -> int:
        """Bulk delete; returns the number of chunks actually removed."""
        removed = 0
        for chunk_id in chunk_ids:
            if self.store.delete(chunk_id):
                removed += 1
                self._bump("deletes")
        return removed

    @rpc
    def list_chunks(self) -> List[ChunkId]:
        """Inventory report used by the garbage-collection exchange."""
        return self.store.chunk_ids()

    # -- replication ------------------------------------------------------------------
    def replicate_to(self, chunk_ids: Sequence[ChunkId],
                     target_address: str) -> Dict[str, List[ChunkId]]:
        """Copy ``chunk_ids`` from this node to the benefactor at ``target_address``.

        The executing half of repair: the anti-entropy pass calls it for the
        chunks the manager named this node the source of, and each chunk is
        pushed to the target as a frame of one, like a client push (the data
        never flows through the manager).  A target that refuses a chunk
        (store full, offline, unreachable) ends the batch.  Returns the ids
        that were copied and the ids that were missing locally; an id in
        neither list was not copied.
        """
        copied: List[ChunkId] = []
        missing: List[ChunkId] = []
        for chunk_id in chunk_ids:
            try:
                chunk = self.store.get(chunk_id)
            except ChunkNotFoundError:
                missing.append(chunk_id)
                continue
            try:
                self.transport.call(target_address, "put_chunks",
                                    chunk_ids=[chunk_id], data=[chunk.data])
            except (BenefactorError, TransportError):
                break
            copied.append(chunk_id)
            self._bump_transfer("replications_out", "bytes_out", chunk.size)
        return {"copied": copied, "missing": missing}

    # -- convenience -------------------------------------------------------------------
    @property
    def free_space(self) -> int:
        return self.store.free_space

    @property
    def used_space(self) -> int:
        return self.store.used_space

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return (
            f"Benefactor({self.benefactor_id!r}, {state}, "
            f"chunks={self.store.chunk_count})"
        )
