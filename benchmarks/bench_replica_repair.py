"""Replica repair — time-to-repair under churn.

Every repair below runs through the pool's one healer: the manager judges
what is under-replicated when a benefactor reconciles its inventory, and the
benefactors' maintenance stacks copy (digest heartbeats -> reconcile answer
-> anti-entropy, with the heartbeat answer listing the copy targets).  Two fault
scenarios are measured on an in-process pool, with the churn schedule drawn
from ``simulation.churn.ChurnModel``:

* **corrupt + churn** — a read detects a corrupt replica and reports it;
  the churn trace then kills the benefactor holding the only fresh copy of
  that chunk.  Once the trace brings the node back, maintenance rounds must
  return every committed dataset to the replication target (gated in CI).
* **node departure** — the pool first heals until a round heals nothing
  (steady state: every digest reconciled, nothing queued), then one
  benefactor leaves for good (disk and all); the surviving holders
  re-replicate everything it held.

Reported per scenario: maintenance rounds and wall-clock seconds until the
pool is back at the replication target.  Acceptance gates: both scenarios
converge, within ``MAX_ROUNDS`` rounds and ``MAX_REPAIR_SECONDS`` seconds.

Results are also dumped to ``BENCH_replica_repair.json`` so CI can archive
them alongside the other ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import random
import time

from repro import StdchkConfig, StdchkPool
from repro.obs import merge_snapshots
from repro.simulation.churn import ChurnModel
from repro.util.config import SimilarityHeuristic, WriteSemantics
from repro.util.units import MiB

from benchmarks.conftest import print_table, write_bench_results

CHUNK = 32 * 1024
CHUNKS = 24
BENEFACTORS = 6
REPLICATION = 2
#: Gates: repair must converge this fast.
MAX_ROUNDS = 8
MAX_REPAIR_SECONDS = 20.0
RESULTS_PATH = "BENCH_replica_repair.json"


def make_config() -> StdchkConfig:
    return StdchkConfig(
        chunk_size=CHUNK,
        stripe_width=4,
        replication_level=REPLICATION,
        write_semantics=WriteSemantics.PESSIMISTIC,
        similarity_heuristic=SimilarityHeuristic.FSCH,
        incremental_file_size=4 * CHUNK,
    )


def make_bytes(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


def build_pool() -> StdchkPool:
    pool = StdchkPool(
        benefactor_count=BENEFACTORS,
        benefactor_capacity=64 * MiB,
        config=make_config(),
    )
    client = pool.client("writer")
    client.write_file("/bench/ckpt.N0.T1", make_bytes(CHUNKS * CHUNK, seed=17))
    return pool


def at_target(pool: StdchkPool) -> bool:
    for dataset in pool.manager.datasets():
        for version in dataset.versions:
            online = {
                b.benefactor_id
                for b in pool.benefactors.values() if b.online
            }
            for placement in version.chunk_map:
                holders = [h for h in placement.benefactors if h in online]
                if len(holders) < REPLICATION:
                    return False
    return True


def heal_until_converged(pool: StdchkPool, max_rounds: int) -> dict:
    """Run maintenance rounds until the target is restored."""
    start = time.perf_counter()
    for rounds in range(1, max_rounds + 1):
        pool.run_maintenance_once()
        if at_target(pool):
            return {
                "rounds": rounds,
                "repair_s": time.perf_counter() - start,
                "converged": True,
            }
    return {
        "rounds": max_rounds,
        "repair_s": time.perf_counter() - start,
        "converged": False,
    }


def run_corrupt_plus_churn() -> dict:
    """The acceptance scenario: corrupt replica, then churn the fresh copy."""
    pool = build_pool()
    record = pool.manager.dataset_by_path("/bench/ckpt.N0.T1").latest
    placement = next(iter(record.chunk_map))
    chunk_id = placement.ref.chunk_id
    # Corrupt the first-listed holder: the replica rotation starts there,
    # so the very first read detects and reports it (deterministic with an
    # even chunk count, where rotation parity repeats across whole reads).
    corrupted, survivor = placement.benefactors[0], placement.benefactors[1]
    store = pool.benefactors[corrupted].store
    store._chunks[chunk_id] = make_bytes(placement.ref.length, seed=0xBAD)
    # Reads keep succeeding off the fresh replica; rotation eventually hits
    # the rotten copy and the reader reports it to the corruption ledger.
    reader = pool.client("reader")
    payload = make_bytes(CHUNKS * CHUNK, seed=17)
    for _ in range(8):
        assert reader.read_file("/bench/ckpt.N0.T1") == payload
        if pool.manager.corrupt_replicas():
            break
    assert pool.manager.corrupt_replicas() == {chunk_id: [corrupted]}

    # The churn trace kills the holder of the only fresh copy, then
    # brings it back; the downtime rounds are part of the repair story
    # but only post-recovery rounds can heal this chunk.
    trace = ChurnModel(mean_uptime=300.0, mean_downtime=120.0,
                       seed=11).trace_for(survivor, horizon=3600.0)
    assert trace.failure_times(), "churn trace produced no failure"
    pool.fail_benefactor(survivor)
    pool.heal(rounds=1)  # the pool notices; nothing can repair the chunk yet
    pool.recover_benefactor(survivor)

    outcome = heal_until_converged(pool, MAX_ROUNDS)
    outcome["scenario"] = "corrupt + churn of fresh copy"
    outcome["chunks_at_risk"] = 1
    return outcome, pool.metrics()["aggregate"]


def run_node_departure() -> dict:
    """One benefactor leaves a pool at rest; the survivors re-replicate its load."""
    pool = build_pool()
    # Steady state first: afterwards no digest diverges and no repair is
    # queued, so only the departure itself can set the repair going.
    for _ in range(MAX_ROUNDS):
        reports = pool.run_maintenance_once().values()
        if not any(report.healed_chunks for report in reports):
            break
    else:
        raise AssertionError("the undamaged pool never stopped healing")
    assert at_target(pool)
    departed = "benefactor-02"
    at_risk = pool.benefactors[departed].store.chunk_count
    pool.fail_benefactor(departed, lose_data=True)
    pool.manager.drop_benefactor_placements(departed)

    outcome = heal_until_converged(pool, MAX_ROUNDS)
    outcome["scenario"] = "permanent node departure"
    outcome["chunks_at_risk"] = at_risk
    return outcome, pool.metrics()["aggregate"]


def test_replica_repair_under_churn():
    outcomes = [run_corrupt_plus_churn(), run_node_departure()]
    metrics = merge_snapshots(
        [snapshot for _, snapshot in outcomes]
    )
    rows = [outcome for outcome, _ in outcomes]
    rows = [
        {
            "scenario": row["scenario"],
            "chunks_at_risk": row["chunks_at_risk"],
            "rounds": row["rounds"],
            "repair_s": row["repair_s"],
            "converged": row["converged"],
        }
        for row in rows
    ]
    print_table(
        "Replica repair — manager judges, benefactors copy "
        f"({BENEFACTORS} benefactors, {CHUNKS} x {CHUNK // 1024} KiB chunks, "
        f"replication {REPLICATION})",
        rows,
        note=(f"acceptance gates: convergence within {MAX_ROUNDS} rounds "
              f"and {MAX_REPAIR_SECONDS:.0f}s per scenario"),
    )
    write_bench_results(
        RESULTS_PATH, "replica_repair",
        {
            "benefactors": BENEFACTORS,
            "chunks": CHUNKS,
            "chunk_size": CHUNK,
            "replication_level": REPLICATION,
            "rows": rows,
        },
        metrics=metrics,
    )
    for row in rows:
        assert row["converged"], f"{row['scenario']} never reached the target"
        assert row["rounds"] <= MAX_ROUNDS
        assert row["repair_s"] <= MAX_REPAIR_SECONDS, (
            f"{row['scenario']} took {row['repair_s']:.1f}s "
            f"(gate {MAX_REPAIR_SECONDS:.0f}s)"
        )
