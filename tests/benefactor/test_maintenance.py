"""Tests for decentralized replica maintenance on benefactor nodes.

Covers the inventory digest (determinism, divergence localization, the
benefactor-side mutation-count cache), the peer directory soft state, the
digest-carrying heartbeat protocol (reconcile only on divergence, transparent
re-registration after a manager restart, the answer's peer list as the one
source of membership), the RPC cost of a steady-state round, and the
anti-entropy pass (copy repair, orphan re-attachment without re-copying,
corruption attribution for content-addressed chunks).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from repro import StdchkPool
from repro.benefactor.benefactor import Benefactor
from repro.benefactor.chunk_store import MemoryChunkStore
from repro.benefactor.maintenance import (
    AntiEntropyService,
    HeartbeatService,
    PeerDirectory,
    compute_inventory_digest,
)
from repro.core.chunk import content_chunk_id
from repro.transport.inprocess import InProcessTransport
from repro.util.clock import VirtualClock
from repro.util.hashing import chunk_digest
from repro.util.units import MiB
from tests.conftest import make_bytes


def peer_records(nodes):
    """``nodes`` in the form the manager lists online benefactors."""
    return [
        {"benefactor_id": node.benefactor_id, "address": node.address,
         "free_space": node.free_space}
        for node in nodes
    ]


def peer_group(count: int):
    """``count`` benefactors on one transport with fully-seeded directories."""
    transport = InProcessTransport()
    clock = VirtualClock()
    nodes = [
        Benefactor(
            benefactor_id=f"node-{index:02d}",
            transport=transport,
            store=MemoryChunkStore(64 * MiB),
            clock=clock,
        )
        for index in range(count)
    ]
    for node in nodes:
        node.peers.replace(peer_records(nodes))
    return transport, clock, nodes


class TestInventoryDigest:
    def test_digest_is_order_independent(self):
        ids = [f"sha1:{index:040x}" for index in range(50)]
        forward = compute_inventory_digest(ids)
        backward = compute_inventory_digest(reversed(ids))
        shuffled = list(ids)
        random.Random(7).shuffle(shuffled)
        assert forward == backward == compute_inventory_digest(shuffled)

    def test_single_chunk_change_changes_the_digest(self):
        ids = [f"chunk-{index}" for index in range(100)]
        base = compute_inventory_digest(ids)
        assert compute_inventory_digest(ids + ["chunk-new"]) != base
        assert compute_inventory_digest(ids[1:]) != base
        # Ids are delimited: moving a character across a boundary is a change.
        assert compute_inventory_digest(["ab", "c"]) != compute_inventory_digest(["a", "bc"])

    def test_empty_and_singleton_inventories_differ(self):
        empty = compute_inventory_digest([])
        one = compute_inventory_digest(["c0"])
        assert empty != one
        # The empty digest is still well-formed and self-equal.
        assert empty == compute_inventory_digest(()) == hashlib.sha1().hexdigest()


class TestBenefactorInventorySummaries:
    def test_digest_cached_until_store_mutates(self):
        _, _, (node,) = peer_group(1)
        first = node.inventory_digest()
        assert node.inventory_digest() is first  # no mutation, no re-hash
        payload = make_bytes(512, seed=1)
        node.put_chunks([content_chunk_id(payload)], [payload])
        second = node.inventory_digest()
        assert second is not first
        assert second != first
        # Deleting the chunk mutates again; the digest returns to the
        # empty-inventory value but is a freshly computed object.
        node.delete_chunks([content_chunk_id(payload)])
        third = node.inventory_digest()
        assert third is not second
        assert third == first

    def test_checksum_inventory_maps_ids_to_payload_digests(self):
        _, _, (node,) = peer_group(1)
        payloads = [make_bytes(256, seed=s) for s in (1, 2)]
        for payload in payloads:
            node.put_chunks([content_chunk_id(payload)], [payload])
        assert node.checksum_inventory() == {
            content_chunk_id(p): chunk_digest(p) for p in payloads
        }
        assert node.stats["checksum_inventories"] == 1


class TestPeerDirectory:
    def test_replace_skips_the_owner(self):
        directory = PeerDirectory("me")
        directory.replace([
            {"benefactor_id": "me", "address": "addr-me", "free_space": 1},
            {"benefactor_id": "p1", "address": "addr-p1", "free_space": 2},
        ])
        assert len(directory) == 1
        assert "me" not in directory

    def test_replace_drops_peers_the_new_list_omits(self):
        directory = PeerDirectory("me")
        directory.replace([
            {"benefactor_id": "p1", "address": "old-addr", "free_space": 10},
            {"benefactor_id": "p2", "address": "addr-p2", "free_space": 10},
        ])
        directory.replace([
            {"benefactor_id": "p1", "address": "new-addr", "free_space": 99},
        ])
        assert "p2" not in directory
        record = directory.get("p1")
        assert record.address == "new-addr"
        assert record.free_space == 99

    def test_random_peers_skips_peers_marked_offline(self):
        directory = PeerDirectory("me")
        directory.replace(
            {"benefactor_id": peer_id, "address": f"addr-{peer_id}",
             "free_space": 0}
            for peer_id in ("a", "b")
        )
        directory.mark_offline("b")
        picked = directory.random_peers(random.Random(0), 5)
        assert [p.peer_id for p in picked] == ["a"]


class TestHeartbeatService:
    def test_unchanged_digest_skips_reconciliation(self, pool: StdchkPool):
        service = pool.maintenance["benefactor-00"].heartbeat
        answer = service.run_once()
        assert answer.pop("peers")
        assert answer == {
            "acknowledged": True,
            "inventory_requested": False,
            "epoch": 1,
        }
        assert service.beats == 1
        assert service.reconciles == 0
        assert service.last_epoch == 1

    def test_diverged_digest_triggers_one_reconcile(self, pool: StdchkPool):
        client = pool.client("writer")
        client.write_file("/hb/ckpt.N0.T1", make_bytes(200 * 1024, seed=4))
        reconciled = 0
        for bundle in pool.maintenance.values():
            bundle.heartbeat.run_once()
            reconciled += bundle.heartbeat.reconciles
        # Every benefactor that received chunks diverged exactly once...
        assert reconciled >= 2
        # ...and a second round finds everything reconciled again.
        for bundle in pool.maintenance.values():
            answer = bundle.heartbeat.run_once()
            assert answer["inventory_requested"] is False

    def test_heartbeat_refreshes_the_peer_directory(self, pool: StdchkPool):
        service = pool.maintenance["benefactor-00"].heartbeat
        service.run_once()
        directory = pool.benefactors["benefactor-00"].peers
        assert len(directory) == 3  # everyone but itself
        assert "benefactor-01" in directory

    def test_directory_is_the_managers_online_set_minus_self(self, pool: StdchkPool):
        # benefactor-03 falls silent: the manager expires it and the next
        # beat takes it out of every directory, before any call to it fails.
        pool.kill_benefactor("benefactor-03")
        pool.clock.advance(pool.config.heartbeat_timeout + 1)
        pool.heal(1)
        assert pool.manager.expire_benefactors() == ["benefactor-03"]
        pool.heal(1)
        online = {r.benefactor_id: r.address for r in pool.manager.registry.online()}
        assert sorted(online) == ["benefactor-00", "benefactor-01", "benefactor-02"]
        for benefactor_id in online:
            directory = pool.benefactors[benefactor_id].peers
            assert {p.peer_id: p.address for p in directory.peers()} == {
                peer_id: address for peer_id, address in online.items()
                if peer_id != benefactor_id
            }

    def test_reported_failure_stops_copies_at_the_next_beat(self, pool: StdchkPool):
        pool.heal(1)
        assert "benefactor-02" in pool.benefactors["benefactor-00"].peers
        pool.fail_benefactor("benefactor-02")
        pool.maintenance["benefactor-00"].heartbeat.run_once()
        assert "benefactor-02" not in pool.benefactors["benefactor-00"].peers

    def test_registration_answer_lists_the_peers(self, pool: StdchkPool):
        late = Benefactor(
            benefactor_id="late-joiner",
            transport=pool.transport,
            store=MemoryChunkStore(64 * MiB),
            clock=pool.clock,
        )
        late.register_with(pool.manager.address)
        assert sorted(p.peer_id for p in late.peers.peers()) == sorted(pool.benefactors)

    def test_unknown_benefactor_reregisters_transparently(self, pool: StdchkPool):
        late = Benefactor(
            benefactor_id="late-joiner",
            transport=pool.transport,
            store=MemoryChunkStore(64 * MiB),
            clock=pool.clock,
        )
        service = HeartbeatService(late, pool.manager.address)
        service.run_once()
        assert service.reregistrations == 1
        assert pool.manager.registry.is_online("late-joiner")

    def test_offline_benefactor_skips_the_beat(self, pool: StdchkPool):
        pool.benefactors["benefactor-00"].go_offline()
        service = pool.maintenance["benefactor-00"].heartbeat
        assert service.run_once() is None
        assert service.beats == 0

    def test_epoch_change_triggers_reregistration(self, pool: StdchkPool):
        service = pool.maintenance["benefactor-00"].heartbeat
        service.run_once()
        assert service.last_epoch == 1
        assert service.reregistrations == 0
        # A failover lands behind the same address (directory re-point, VIP,
        # in-process promotion): the answering manager's epoch moved.  The
        # new incarnation's soft state may predate this node, so the next
        # beat re-registers the full inventory.
        pool.manager.epoch = 2
        service.run_once()
        assert service.reregistrations == 1
        assert service.last_epoch == 2
        # A stable epoch does not keep re-registering.
        service.run_once()
        assert service.reregistrations == 1


class TestSteadyStateRound:
    def test_a_round_costs_one_heartbeat_and_one_comparison_per_node(self, small_config):
        pool = StdchkPool(benefactor_count=6, benefactor_capacity=64 * MiB,
                          config=small_config)
        pool.client("writer").write_file("/steady/ckpt.N0.T1",
                                         make_bytes(400 * 1024, seed=31))
        pool.heal(3)
        calls = pool.transport.record()
        transactions = pool.manager.transactions
        reports = pool.run_maintenance_once()
        assert not any(r.repaired or r.reattached for r in reports.values())
        assert Counter(call.method for call in calls) == {
            "heartbeat": 6, "checksum_inventory": 6}
        assert pool.manager.transactions - transactions == 6


class TestAntiEntropyService:
    def test_under_replicated_chunk_is_copied_to_a_peer(self):
        _, _, nodes = peer_group(3)
        holder = nodes[0]
        payload = make_bytes(4096, seed=21)
        chunk_id = content_chunk_id(payload)
        holder.put_chunks([chunk_id], [payload])
        # Under-replication is the manager's call: the repair arrives queued
        # (as the reconcile handoff would deliver it), the node only copies.
        holder.enqueue_repair(chunk_id)
        service = AntiEntropyService(holder, seed=5)
        report = service.run_once()
        assert report.repaired == 1
        assert report.healed_chunks == [chunk_id]
        copies = [n for n in nodes[1:] if n.store.contains(chunk_id)]
        assert len(copies) == 1
        assert holder.stats["replications_out"] == 1

    def test_orphaned_copy_is_reattached_not_recopied(self):
        _, _, nodes = peer_group(2)
        holder, orphan_host = nodes
        payload = make_bytes(4096, seed=22)
        chunk_id = content_chunk_id(payload)
        holder.put_chunks([chunk_id], [payload])
        # The peer already holds the chunk but nobody knows (an orphan:
        # e.g. a recovered node whose placements the manager dropped).
        orphan_host.put_chunks([chunk_id], [payload])
        # A repair hint arrives (as the manager's reconcile handoff would
        # deliver it) before any checksum comparison reveals the orphan.
        holder.enqueue_repair(chunk_id)
        service = AntiEntropyService(holder, seed=5)
        report = service.run_once()
        assert report.reattached == 1
        assert report.repaired == 0
        # No bytes moved: the copy was found, not pushed.
        assert holder.stats["replications_out"] == 0

    def test_corrupt_remote_copy_is_detected_and_queued_for_repair(self):
        _, _, nodes = peer_group(2)
        good, bad = nodes
        payload = make_bytes(4096, seed=23)
        chunk_id = content_chunk_id(payload)
        good.put_chunks([chunk_id], [payload])
        bad.put_chunks([chunk_id], [payload])
        bad.store._chunks[chunk_id] = b"\x00" * 4096  # silent bit rot
        service = AntiEntropyService(good, seed=5)
        report = service.run_once()
        assert report.corrupt_remote == 1
        # The only possible copy target is the corrupt holder, which is
        # excluded: the repair stays queued for a tick with more peers.
        assert report.repair_failures >= 1
        assert good.pending_repairs() == 1

    def test_corrupt_local_copy_is_dropped(self):
        _, _, nodes = peer_group(2)
        victim, good = nodes
        payload = make_bytes(4096, seed=24)
        chunk_id = content_chunk_id(payload)
        victim.put_chunks([chunk_id], [payload])
        good.put_chunks([chunk_id], [payload])
        victim.store._chunks[chunk_id] = b"\xff" * 4096
        service = AntiEntropyService(victim, seed=5)
        report = service.run_once()
        assert report.corrupt_local == 1
        assert not victim.store.contains(chunk_id)
        # The good copy on the peer is untouched.
        assert good.store.get(chunk_id).data == payload

    def test_offline_node_does_nothing(self):
        _, _, nodes = peer_group(2)
        nodes[0].go_offline()
        report = AntiEntropyService(nodes[0]).run_once()
        assert report.repaired == 0
        assert report.peers_compared == 0

    def test_position_addressed_divergence_is_counted_not_attributed(self):
        _, _, nodes = peer_group(2)
        left, right = nodes
        chunk_id = "ds-1:v1:c0"
        left.put_chunks([chunk_id], [b"a" * 128])
        right.put_chunks([chunk_id], [b"b" * 128])
        service = AntiEntropyService(left, seed=5)
        report = service.run_once()
        assert report.divergent_unattributed == 1
        assert report.corrupt_local == 0
        assert report.corrupt_remote == 0
        # Neither side deleted anything: there is no ground truth.
        assert left.store.contains(chunk_id)
        assert right.store.contains(chunk_id)


class TestPromotedStandbyAmnesia:
    """Heartbeats against the replicated metadata plane (manager failover).

    A promoted standby can suffer "manager amnesia" toward a node in a new
    way: the node registered with the old primary *after* the last shipped
    record, so the standby has never seen it at all.  The heartbeat service
    must treat that exactly like a restarted manager — re-register with the
    full inventory — and must tolerate beating against a not-yet-promoted
    standby without raising.
    """

    def test_heartbeat_tolerates_unpromoted_standby(self, pool: StdchkPool):
        standby = pool.add_standby("standby-0")
        service = HeartbeatService(
            pool.benefactors["benefactor-00"], standby.address
        )
        # NotPrimaryError is transient (promotion may be seconds away):
        # the beat is skipped, not raised, and nothing is re-registered.
        assert service.run_once() is None
        assert service.beats == 0
        assert service.reregistrations == 0

    def test_node_unknown_to_promoted_standby_reregisters_with_inventory(
        self, pool: StdchkPool
    ):
        standby = pool.add_standby("standby-0")
        client = pool.client("writer")
        client.write_file("/ha/ckpt.N0.T1", make_bytes(200 * 1024, seed=51))

        # The standby goes dark; a node joins and acquires a replica while
        # only the doomed primary is watching.  Neither the registration nor
        # the (soft-state) replica placement ever reaches the standby.
        pool.transport.partition(standby.address)
        late = Benefactor(
            benefactor_id="late-joiner",
            transport=pool.transport,
            store=MemoryChunkStore(64 * MiB),
            clock=pool.clock,
        )
        late.register_with(pool.manager.address)
        dataset = pool.manager.dataset_by_path("/ha/ckpt.N0.T1")
        placement = dataset.latest.chunk_map.placements[0]
        donor = pool.benefactors[placement.benefactors[0]]
        late.store.put(donor.store.get(placement.chunk_id))
        pool.manager.record_replicas(
            benefactor_id="late-joiner", chunk_ids=[placement.chunk_id]
        )

        pool.kill_primary()
        pool.transport.heal(standby.address)
        standby.promote()
        assert "late-joiner" not in standby.registry

        # The extended amnesia path: the promoted standby answers but has
        # never seen this node -> full re-registration + inventory
        # re-advertisement, which re-attaches the replica placement.
        service = HeartbeatService(late, standby.address)
        answer = service.run_once()
        assert answer == {"acknowledged": True, "inventory_requested": False}
        assert service.reregistrations == 1
        assert standby.registry.is_online("late-joiner")
        standby_placement = next(
            p for p in standby.dataset_by_path("/ha/ckpt.N0.T1").latest.chunk_map
            if p.chunk_id == placement.chunk_id
        )
        assert "late-joiner" in standby_placement.benefactors

    def test_known_node_readvertises_on_first_beat_after_promotion(
        self, pool: StdchkPool
    ):
        # The other half of promotion amnesia: the standby knows the node
        # (its registration shipped), but replicated state never carries
        # reconciliation progress -- the first digest-bearing beat against
        # the promoted standby must trigger one full re-advertisement.
        standby = pool.add_standby("standby-0")
        client = pool.client("writer")
        client.write_file("/ha/ckpt.N0.T1", make_bytes(200 * 1024, seed=52))
        pool.kill_primary()
        standby.promote()

        for bundle in pool.maintenance.values():
            bundle.manager_address = standby.address
        reconciles = 0
        for bundle in pool.maintenance.values():
            answer = bundle.heartbeat.run_once()
            assert answer is not None and answer["acknowledged"]
            reconciles += bundle.heartbeat.reconciles
        assert reconciles == len(pool.benefactors)
        # A second round finds every digest reconciled again.
        for bundle in pool.maintenance.values():
            assert bundle.heartbeat.run_once()["inventory_requested"] is False
