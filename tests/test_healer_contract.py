"""One healer, one contract, on both transports.

The manager is the only judge of under-replication (``reconcile_inventory``:
per-dataset target, corruption ledger, one designated source per chunk) and
the benefactors' anti-entropy passes are the only executors.  Every scenario
below ends in the same place:

* every placement of every committed version has **exactly** its dataset's
  level of healthy replicas — not fewer, and not more (no overshoot);
* the pool stores exactly ``level x unique bytes``;
* every file reads back byte-identical;
* convergence took at most ``ROUNDS`` ``heal`` rounds, and one more round
  moves no byte (``replications_out`` unchanged).
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.util.config import SimilarityHeuristic, WriteSemantics
from tests.conftest import make_bytes

CHUNK = 16 * 1024
ROUNDS = 4
#: A lease short enough to expire on the wall clock of a TCP deployment.
SHORT_LEASE = 0.3

KINDS = pytest.mark.parametrize("build", [StdchkPool, TcpDeployment],
                                ids=["inprocess", "tcp"])


def config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK, stripe_width=4, replication_level=2,
        incremental_file_size=4 * CHUNK,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


# ------------------------------------------------------------------ helpers
def nodes(dep) -> dict:
    """``benefactor_id -> Benefactor`` whatever shape ``.benefactors`` has."""
    found = dep.benefactors
    return found if isinstance(found, dict) else {b.benefactor_id: b for b in found}


def copies_made(dep) -> int:
    return sum(node.stats["replications_out"] for node in nodes(dep).values())


def placements(dep):
    """``(target level, placement)`` of every committed version."""
    manager = dep.manager
    for dataset in manager.datasets():
        target = manager.replication_target_for(dataset.dataset_id)
        for version in dataset.versions:
            for placement in version.chunk_map:
                yield target, placement


def replica_counts(dep) -> set:
    """The distinct ``(target, healthy replicas)`` pairs across the pool."""
    corrupt = dep.manager.corrupt_replicas()
    return {
        (target, len(set(p.benefactors) - set(corrupt.get(p.ref.chunk_id, ()))))
        for target, p in placements(dep)
    }


def expected_stored_bytes(dep) -> int:
    unique = {}
    for target, placement in placements(dep):
        unique[placement.ref.chunk_id] = target * placement.ref.length
    return sum(unique.values())


def write(dep, path: str, size: int, seed: int, **session_options) -> bytes:
    data = make_bytes(size, seed=seed)
    client = dep.client("writer")
    with client.open_write(path, **session_options) as session:
        session.write(data)
    return data


def lose_a_holder(dep) -> None:
    """One holder departs for good: disk lost, placements dropped."""
    victim = sorted({b for _, p in placements(dep) for b in p.benefactors})[0]
    dep.fail_benefactor(victim, lose_data=True)
    assert dep.manager.drop_benefactor_placements(victim) > 0


# ---------------------------------------------------------------- scenarios
# Each takes a fresh deployment, does its damage and returns ``{path: bytes}``
# of what must read back; the shared epilogue in ``test_healer_contract``
# heals and checks the contract.

def optimistic_write(dep):
    """An optimistic write (one replica at close) is replicated afterwards."""
    files = {"/app/a.N0.T1": write(dep, "/app/a.N0.T1", 400_000, seed=1)}
    assert replica_counts(dep) == {(2, 1)}
    return files


def global_level_three(dep):
    return {"/app/b.N0.T1": write(dep, "/app/b.N0.T1", 1_000_000, seed=2)}


def dataset_level_above_the_global_one(dep):
    files = {"/app/c.N0.T1": write(dep, "/app/c.N0.T1", 200_000, seed=3,
                                   replication_level=3)}
    assert replica_counts(dep) == {(3, 1)}
    return files


def dataset_level_below_the_global_one(dep):
    """A dataset written at level 1 is left alone whatever the global level."""
    files = {"/app/d.N0.T1": write(dep, "/app/d.N0.T1", 200_000, seed=4,
                                   replication_level=1)}
    dep.heal(1)
    assert copies_made(dep) == 0
    return files


def departure_in_steady_state(dep):
    """Replicas lost *after* the pool went quiet: no digest diverges any
    more, only the manager's flags make the survivors reconcile."""
    files = {"/app/e.N0.T1": write(dep, "/app/e.N0.T1", 300_000, seed=5)}
    dep.heal(ROUNDS)
    assert replica_counts(dep) == {(2, 2)}
    lose_a_holder(dep)
    assert (2, 1) in replica_counts(dep)
    return files


def corrupt_replica(dep):
    """A reader finds a rotten replica: it is dropped, purged and replaced."""
    path = "/app/f.N0.T1"
    files = {path: write(dep, path, 6 * CHUNK, seed=6)}
    assert replica_counts(dep) == {(2, 2)}
    placement = next(p for _, p in placements(dep))
    chunk_id, victim = placement.ref.chunk_id, placement.benefactors[0]
    store = nodes(dep)[victim].store
    store._chunks[chunk_id] = make_bytes(placement.ref.length, seed=0xBAD)
    reader = dep.client("reader")
    for _ in range(8):
        assert reader.read_file(path) == files[path]
        if dep.manager.corrupt_replicas():
            break
    assert dep.manager.corrupt_replicas() == {chunk_id: [victim]}
    return files


def designated_source_dies(dep, reported: bool = True):
    """The one holder told to copy dies first: the next holder takes over
    once the registry has the first one offline."""
    files = {"/app/g.N0.T1": write(dep, "/app/g.N0.T1", 300_000, seed=7)}
    dep.heal(ROUNDS)
    assert replica_counts(dep) == {(3, 3)}
    lose_a_holder(dep)
    # Whoever is first in an under-replicated placement is its source.
    source = next(p.benefactors[0] for target, p in placements(dep)
                  if len(p.benefactors) < target)
    # Disk intact either way: the dead node's replicas still count.
    if reported:
        dep.fail_benefactor(source)
    else:
        dep.kill_benefactor(source)
        dep.heal(1)  # every flag is spent while the registry still trusts it
        assert any(len(p.benefactors) < target for target, p in placements(dep))
        dep.garbage_collector.run_once()  # finds it unreachable
    return files


def designated_source_dies_silently(dep):
    """Nobody reports the death; the garbage-collection exchange notices."""
    return designated_source_dies(dep, reported=False)


def repair_withheld_while_a_file_is_written(dep):
    """New files have priority: nothing is copied while a session is open."""
    files = {"/app/h.N0.T1": write(dep, "/app/h.N0.T1", 200_000, seed=8)}
    session = dep.client("writer").open_write("/app/i.N0.T1")
    files["/app/i.N0.T1"] = make_bytes(100_000, seed=9)
    session.write(files["/app/i.N0.T1"])
    dep.heal(2)
    assert copies_made(dep) == 0
    assert replica_counts(dep) == {(2, 1)}
    session.close()
    return files


def abandoned_session_holds_no_repair_back(dep):
    """A writer opens a session and never closes it.  Once the session's
    lease has expired it no longer withholds the first background copy."""
    files = {"/app/k.N0.T1": write(dep, "/app/k.N0.T1", 4 * CHUNK, seed=11)}
    assert replica_counts(dep) == {(2, 1)}
    dep.client("abandoned").open_write("/app/l.N0.T1")
    dep.clock.sleep(SHORT_LEASE + 0.1)
    assert dep.garbage_collector.collect_expired_reservations() == 1
    return files


def holder_back_with_an_empty_disk(dep):
    """A holder loses its disk and comes back empty: the inventory it
    advertises detaches it, so its chunks count as under-replicated."""
    files = {"/app/m.N0.T1": write(dep, "/app/m.N0.T1", 4 * CHUNK, seed=12)}
    dep.heal(ROUNDS)
    assert replica_counts(dep) == {(2, 2)}
    victim = sorted({b for _, p in placements(dep) for b in p.benefactors})[0]
    dep.fail_benefactor(victim, lose_data=True)
    dep.recover_benefactor(victim)
    return files


def pessimistic_write_needs_nothing(dep):
    files = {"/app/j.N0.T1": write(dep, "/app/j.N0.T1", 200_000, seed=10)}
    assert replica_counts(dep) == {(2, 2)}
    dep.heal(1)
    assert copies_made(dep) == 0
    return files


PESSIMISTIC = dict(write_semantics=WriteSemantics.PESSIMISTIC)
SCENARIOS = [
    (optimistic_write, {}),
    (global_level_three, dict(replication_level=3)),
    (dataset_level_above_the_global_one, {}),
    (dataset_level_below_the_global_one, dict(replication_level=3)),
    (departure_in_steady_state, {}),
    (corrupt_replica, dict(PESSIMISTIC, stripe_width=2,
                           similarity_heuristic=SimilarityHeuristic.FSCH)),
    (designated_source_dies, dict(replication_level=3)),
    (designated_source_dies_silently, dict(replication_level=3)),
    (repair_withheld_while_a_file_is_written, {}),
    (abandoned_session_holds_no_repair_back, dict(reservation_lease=SHORT_LEASE)),
    (holder_back_with_an_empty_disk, {}),
    (pessimistic_write_needs_nothing, PESSIMISTIC),
]


@KINDS
@pytest.mark.parametrize("scenario,overrides", SCENARIOS,
                         ids=[scenario.__name__ for scenario, _ in SCENARIOS])
def test_healer_contract(build, scenario, overrides):
    with build(benefactor_count=6, config=config(**overrides)) as dep:
        files = scenario(dep)

        dep.heal(ROUNDS)

        counts = replica_counts(dep)
        assert counts and all(healthy == target for target, healthy in counts), counts
        assert dep.stored_bytes() == expected_stored_bytes(dep)
        reader = dep.client("restart")
        for path, data in files.items():
            assert reader.read_file(path) == data
        settled = copies_made(dep)
        dep.heal(1)
        assert copies_made(dep) == settled
        assert dep.stored_bytes() == expected_stored_bytes(dep)


def test_a_chunk_committed_while_its_holder_reconciles_stays_placed():
    """The holder lists its store before the reconcile call, so a chunk that
    lands and commits in between is missing from the list without being
    lost: one such inventory detaches nothing, and the version (one replica,
    on that holder) stays readable."""
    with StdchkPool(benefactor_count=1,
                    config=config(replication_level=1, stripe_width=1)) as pool:
        node = next(iter(nodes(pool).values()))
        path, files = "/app/n.N0.T1", {}

        def write_meanwhile(*_):
            files[path] = write(pool, path, 2 * CHUNK, seed=13)

        pool.transport.before(pool.manager_address, "reconcile_inventory",
                              write_meanwhile)
        node.reconcile_with(pool.manager_address)
        assert files and replica_counts(pool) == {(1, 1)}
        assert pool.client("restart").read_file(path) == files[path]
        pool.heal(ROUNDS)
        assert replica_counts(pool) == {(1, 1)}
        assert pool.stored_bytes() == expected_stored_bytes(pool)
