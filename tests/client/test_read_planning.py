"""How a read picks its replicas: by cover of its chunks, ties seeded by client id.

A restart storm — every process of a parallel job restarting at once, each
through a fresh client — must spread over a hot chunk's replicas with no
state shared between the clients, and a read's frames must not depend on
what its client read before.
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.client.read_path import ReplicaScheduler
from repro.util.config import WriteSemantics
from tests.conftest import make_bytes

KIB = 1024
KINDS = pytest.mark.parametrize("build", [StdchkPool, TcpDeployment],
                                ids=["inprocess", "tcp"])


def two_replicas() -> StdchkConfig:
    """``durable_small``'s shape: 64 KiB chunks, two replicas pushed
    pessimistically over four benefactors."""
    return StdchkConfig(chunk_size=64 * KIB, stripe_width=4, replication_level=2,
                        write_semantics=WriteSemantics.PESSIMISTIC)


def gets(deployment) -> dict:
    found = deployment.benefactors
    nodes = found.values() if isinstance(found, dict) else found
    return {node.benefactor_id: node.stats["gets"] for node in nodes}


@KINDS
@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_restart_storm_spreads_over_the_replicas_of_a_hot_chunk(build, parallelism):
    """Sixteen fresh clients read a one-chunk image with two replicas: each
    starts its ties at an offset hashed from its id, so both holders serve."""
    with build(benefactor_count=4, config=two_replicas()) as deployment:
        image = make_bytes(64 * KIB, seed=1)
        deployment.client("writer").write_file("/storm/image", image)
        holders = deployment.manager.get_chunk_map(path="/storm/image")[
            "chunk_map"]["placements"][0]["benefactors"]
        assert len(holders) == 2
        before = gets(deployment)
        for rank in range(16):
            client = deployment.client(f"restart-{rank:02d}", read_parallelism=parallelism)
            assert client.read_file("/storm/image") == image
        served = {b: count - before[b] for b, count in gets(deployment).items()}
        assert sum(served.values()) == 16
        assert all(4 <= served[holder] <= 12 for holder in holders)


def read_frames(client, data_rpcs, path: str, data: bytes) -> int:
    del data_rpcs[:]
    assert client.read_file(path) == data
    assert sum(chunks for _method, chunks in data_rpcs) == len(data) // (64 * KIB)
    return len(data_rpcs)


@KINDS
def test_a_reads_frames_do_not_depend_on_where_its_ties_start(build, data_rpcs):
    """512 KiB in 64 KiB chunks, chunk i on benefactors i and i + 1: two
    frames cover it at ``read_parallelism=2`` whatever offset the ties start
    at."""
    with build(benefactor_count=4, config=two_replicas()) as deployment:
        client = deployment.client("reader", push_parallelism=2, read_parallelism=2)
        data = make_bytes(512 * KIB, seed=2)
        client.write_file("/parity/f", data)
        for start in range(6):
            client.replica_scheduler = ReplicaScheduler(seed=start)
            assert read_frames(client, data_rpcs, "/parity/f", data) == 2


@KINDS
def test_a_reads_frames_do_not_depend_on_what_its_client_read_before(build, data_rpcs):
    """An odd-sized read in between leaves the next read of the same file at
    two frames."""
    with build(benefactor_count=4, config=two_replicas()) as deployment:
        client = deployment.client("reader", push_parallelism=2, read_parallelism=2)
        data = make_bytes(512 * KIB, seed=3)
        odd = make_bytes(7 * 64 * KIB, seed=4)
        client.write_file("/parity/f", data)
        client.write_file("/parity/odd", odd)
        assert read_frames(client, data_rpcs, "/parity/f", data) == 2
        for _ in range(3):
            read_frames(client, data_rpcs, "/parity/odd", odd)
            assert read_frames(client, data_rpcs, "/parity/f", data) == 2
