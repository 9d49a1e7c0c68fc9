"""Ablation (beyond the paper's tables) — design choices called out in DESIGN.md.

Two stdchk design decisions get quantified here on the functional system:

* **Write semantics** (section IV.A): optimistic commit returns after the
  first replica, pessimistic commit pays for every replica synchronously.
  The ablation measures the client-visible network effort per write and the
  replication debt left for the background service.
* **Replication level**: higher levels multiply the physical storage
  footprint of the same logical data (the cost of durability on volatile
  donors).
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool
from repro.util.config import WriteSemantics
from repro.util.units import MB, MiB

from benchmarks.conftest import print_table

FILE_SIZE = 8 * MiB
FILES = 4


def run_semantics(semantics: WriteSemantics, replication: int):
    config = StdchkConfig(
        chunk_size=256 * 1024,
        stripe_width=4,
        replication_level=replication,
        write_semantics=semantics,
        incremental_file_size=2 * MiB,
    )
    pool = StdchkPool(benefactor_count=6, config=config)
    client = pool.client("ablation")
    for index in range(FILES):
        client.write_file(f"/abl/file-{index}", bytes(FILE_SIZE))
    pending_before = pool.manager.under_replicated_count()
    pool.heal()
    return {
        "semantics": semantics.value,
        "replication_level": replication,
        "client_pushed_MB": client.lifetime_stats.bytes_pushed / MB,
        "pending_replicas_at_commit": pending_before,
        "stored_MB_after_stabilize": pool.stored_bytes() / MB,
        "logical_MB": FILES * FILE_SIZE / MB,
    }


def run_ablation():
    rows = []
    for semantics in (WriteSemantics.OPTIMISTIC, WriteSemantics.PESSIMISTIC):
        for replication in (1, 2, 3):
            rows.append(run_semantics(semantics, replication))
    return rows


def test_ablation_report(benchmark):
    rows = run_ablation()
    print_table(
        "Ablation — write semantics and replication level (functional system)",
        rows,
        note="optimistic: client pushes one copy, background replication fills the rest",
    )
    by_key = {(row["semantics"], row["replication_level"]): row for row in rows}
    logical = FILES * FILE_SIZE / MB

    # Optimistic clients push exactly one copy regardless of the target level.
    for level in (1, 2, 3):
        assert by_key[("optimistic", level)]["client_pushed_MB"] == pytest.approx(logical, rel=0.01)
    # Pessimistic clients push one copy per replica.
    for level in (1, 2, 3):
        assert by_key[("pessimistic", level)]["client_pushed_MB"] == pytest.approx(
            logical * level, rel=0.01
        )
    # After stabilization both semantics converge to the same physical footprint.
    for level in (1, 2, 3):
        assert by_key[("optimistic", level)]["stored_MB_after_stabilize"] == pytest.approx(
            by_key[("pessimistic", level)]["stored_MB_after_stabilize"], rel=0.01
        )
        assert by_key[("optimistic", level)]["stored_MB_after_stabilize"] == pytest.approx(
            logical * level, rel=0.05
        )
    # Only optimistic writes leave replication debt behind at commit time.
    assert by_key[("pessimistic", 3)]["pending_replicas_at_commit"] == 0
    assert by_key[("optimistic", 3)]["pending_replicas_at_commit"] > 0
