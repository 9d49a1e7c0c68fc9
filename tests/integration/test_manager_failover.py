"""Manager failover end-to-end: crash-point sweep and TCP kill-mid-write.

The sweep extends the persistence crash-point methodology to replication:
the primary is killed at *every* journal record boundary during a parallel
write (the shipper's ``ship_hook`` fires under the meta lock, exactly at the
boundary), a standby is promoted, and the failover-aware client must finish
the write without ever seeing :class:`ManagerRecoveringError` — with a
byte-identical read-back from the promoted standby.

The TCP half is the acceptance scenario from the issue: one primary plus one
standby on real localhost sockets, ``push_parallelism >= 4``, primary killed
mid-write, client unscathed.
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.exceptions import EndpointUnreachableError, ManagerRecoveringError
from tests.conftest import make_bytes

CHUNK = 64 * 1024


def sweep_config(**overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=CHUNK,
        stripe_width=2,
        replication_level=1,
        push_parallelism=4,
        ack_batch_size=1,
        failover_backoff_base=0.001,
        failover_backoff_max=0.01,
        failover_deadline=10.0,
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


def count_journal_records(data: bytes, **overrides) -> int:
    """Pilot run: how many records does this write ship end to end?"""
    pool = StdchkPool(benefactor_count=4, config=sweep_config(**overrides))
    pool.add_standby("standby-0")
    seen = []
    pool.manager.shipper.ship_hook = lambda lsn, record: seen.append(lsn)
    pool.client("pilot").write_file("/app/ckpt.N0.T1", data)
    return len(seen)


def write_with_kill_at(kill_at: int, data: bytes, **overrides) -> StdchkPool:
    """Write ``data`` while the primary dies at record boundary ``kill_at``.

    The hook runs inside ``_journal`` (fail-stop path): it tears the primary
    down, promotes the standby, and raises — so the mutating RPC that shipped
    record ``kill_at`` fails toward the client exactly like a mid-RPC death.
    """
    pool = StdchkPool(benefactor_count=4, config=sweep_config(**overrides))
    pool.add_standby("standby-0")
    client = pool.client("survivor")
    state = {"count": 0, "killed": False}

    def hook(lsn, record):
        state["count"] += 1
        if state["count"] == kill_at and not state["killed"]:
            state["killed"] = True
            pool.kill_primary()
            pool.promote_standby()
            raise EndpointUnreachableError("primary died at record boundary")

    pool.manager.shipper.ship_hook = hook
    try:
        client.write_file("/app/ckpt.N0.T1", data)
    except ManagerRecoveringError as exc:  # pragma: no cover - regression
        raise AssertionError(
            f"client saw ManagerRecoveringError at boundary {kill_at}"
        ) from exc
    assert state["killed"], f"sweep never reached record boundary {kill_at}"
    assert client.read_file("/app/ckpt.N0.T1") == data
    pool.survivor = client  # the pool holds its clients weakly
    return pool


class TestCrashPointSweep:
    def test_kill_primary_at_every_record_boundary(self):
        data = make_bytes(4 * CHUNK, seed=31)
        total = count_journal_records(data)
        assert total >= 6  # create_session + per-chunk acks + commit
        for kill_at in range(1, total + 1):
            pool = write_with_kill_at(kill_at, data)
            assert pool.manager.role == "primary"
            assert pool.manager.applied_lsn >= kill_at - 1

    def test_kill_primary_at_every_boundary_with_batched_shipping(self):
        # ship_batch_records > 1 leaves the session's early records buffered
        # (never shipped) when the primary dies, forcing the client's full
        # session-replay path on the promoted standby.
        data = make_bytes(3 * CHUNK, seed=32)
        total = count_journal_records(data, ship_batch_records=4)
        for kill_at in range(1, total + 1):
            write_with_kill_at(kill_at, data, ship_batch_records=4)

    def test_survivor_client_keeps_writing_after_failover(self):
        data = make_bytes(4 * CHUNK, seed=33)
        pool = write_with_kill_at(2, data)
        client = pool.survivor
        later = make_bytes(2 * CHUNK, seed=34)
        client.write_file("/app/ckpt.N0.T2", later)
        assert client.read_file("/app/ckpt.N0.T2") == later
        assert sorted(client.listdir("/app")) == ["ckpt.N0.T1", "ckpt.N0.T2"]


class TestQuorumCrashPointSweep:
    """Zero acknowledged-commit loss with ``replication_quorum >= 1``.

    The shipper fires ``ship_hook`` *after* the quorum wait, so a hook kill
    models the narrowest loss window there is: the primary dies between
    quorum-ack and client-ack.  With quorum >= 1 every record that reached
    that window is already applied on the standby, so the promoted standby's
    LSN must cover the kill boundary — at *every* boundary.  The async
    contrast test below shows the same sweep leaking records when shipping
    is buffered, which is exactly the window quorum closes.
    """

    def lsn_at_promotion(self, kill_at: int, data: bytes, **overrides) -> int:
        """One kill: report the promoted standby's LSN at takeover time.

        Captured inside the hook, before the client's retry/replay tops the
        standby back up — this is the honest measure of what survived.
        """
        pool = StdchkPool(benefactor_count=4, config=sweep_config(**overrides))
        pool.add_standby("standby-0")
        client = pool.client("survivor")
        state = {"count": 0, "killed": False, "lsn": -1}

        def hook(lsn, record):
            state["count"] += 1
            if state["count"] == kill_at and not state["killed"]:
                state["killed"] = True
                pool.kill_primary()
                promoted = pool.promote_standby()
                state["lsn"] = promoted.applied_lsn
                raise EndpointUnreachableError(
                    "primary died between quorum-ack and client-ack")

        pool.manager.shipper.ship_hook = hook
        client.write_file("/app/ckpt.N0.T1", data)
        assert state["killed"], f"sweep never reached boundary {kill_at}"
        assert client.read_file("/app/ckpt.N0.T1") == data
        return state["lsn"]

    def test_no_acknowledged_record_lost_at_any_boundary(self):
        data = make_bytes(4 * CHUNK, seed=41)
        total = count_journal_records(data, replication_quorum=1)
        assert total >= 6
        for kill_at in range(1, total + 1):
            lsn = self.lsn_at_promotion(kill_at, data, replication_quorum=1)
            assert lsn >= kill_at, (
                f"standby promoted at LSN {lsn} lost quorum-acked record "
                f"{kill_at}"
            )

    def test_async_buffered_shipping_leaves_the_loss_window_open(self):
        # Documented contrast, not a bug: with buffered async shipping the
        # promoted standby can be *behind* the kill boundary — the journaled
        # records were acknowledged locally but never left the primary.  The
        # client's session replay still recovers the data end to end (the
        # read-back assertion inside the helper), but the gap quorum closes
        # is real and measurable.
        data = make_bytes(3 * CHUNK, seed=42)
        total = count_journal_records(data, ship_batch_records=8)
        gaps = [
            kill_at - self.lsn_at_promotion(kill_at, data,
                                            ship_batch_records=8)
            for kill_at in range(1, total + 1)
        ]
        assert max(gaps) > 0, "expected at least one boundary with lag"

    def test_quorum_sweep_survivor_keeps_writing(self):
        data = make_bytes(3 * CHUNK, seed=43)
        pool = StdchkPool(benefactor_count=4,
                          config=sweep_config(replication_quorum=1))
        pool.add_standby("standby-0")
        client = pool.client("survivor")
        state = {"count": 0, "killed": False}

        def hook(lsn, record):
            state["count"] += 1
            if state["count"] == 3 and not state["killed"]:
                state["killed"] = True
                pool.kill_primary()
                pool.promote_standby()
                raise EndpointUnreachableError("primary died mid-write")

        pool.manager.shipper.ship_hook = hook
        client.write_file("/app/ckpt.N0.T1", data)
        assert state["killed"]
        # The promoted primary has no standbys yet; quorum gating only
        # applies while a shipper is attached, so writes keep flowing.
        later = make_bytes(2 * CHUNK, seed=44)
        client.write_file("/app/ckpt.N0.T2", later)
        assert client.read_file("/app/ckpt.N0.T2") == later
        assert pool.manager.epoch == 2


class TestTcpFailover:
    def test_kill_primary_mid_write_over_tcp(self, tmp_path):
        # The acceptance scenario: 1 primary + 1 standby over real sockets,
        # push_parallelism >= 4, primary killed at a mid-write record
        # boundary; the client finishes, the read-back is byte-identical.
        config = sweep_config(journal_dir=str(tmp_path / "wal"))
        with TcpDeployment(benefactor_count=3, config=config) as deployment:
            deployment.add_standby("tcp-standby-0")
            client = deployment.client("tcp-survivor")
            data = make_bytes(6 * CHUNK, seed=35)
            state = {"count": 0, "killed": False}

            def hook(lsn, record):
                state["count"] += 1
                if state["count"] == 4 and not state["killed"]:
                    state["killed"] = True
                    deployment.promote_standby(
                        journal_dir=str(tmp_path / "promoted-wal")
                    )
                    raise EndpointUnreachableError("primary died mid-write")

            deployment.manager.shipper.ship_hook = hook
            try:
                client.write_file("/grid/ckpt.N0.T1", data)
            except ManagerRecoveringError as exc:  # pragma: no cover
                raise AssertionError(
                    "client saw ManagerRecoveringError during failover"
                ) from exc
            assert state["killed"]
            assert client.read_file("/grid/ckpt.N0.T1") == data
            assert deployment.manager.role == "primary"

            # A fresh client against the promoted primary sees the file too.
            fresh = deployment.client("tcp-late")
            assert fresh.read_file("/grid/ckpt.N0.T1") == data

    def test_standby_receives_stream_over_tcp(self):
        config = sweep_config()
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            standby = deployment.add_standby("tcp-standby-0")
            client = deployment.client("tcp-writer")
            data = make_bytes(3 * CHUNK, seed=36)
            client.write_file("/grid/a.N0.T1", data)
            assert standby.applied_lsn == deployment.manager.shipper.last_lsn
            assert standby.namespace.file_exists("/grid/a.N0.T1")

    def test_promotion_after_clean_kill_over_tcp(self):
        config = sweep_config()
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            deployment.add_standby("tcp-standby-0")
            client = deployment.client("tcp-client")
            data = make_bytes(3 * CHUNK, seed=37)
            client.write_file("/grid/a.N0.T1", data)

            deployment.kill_primary()
            promoted = deployment.promote_standby()
            assert promoted.role == "primary"
            assert client.read_file("/grid/a.N0.T1") == data
            client.write_file("/grid/a.N0.T2", data)
            assert client.read_file("/grid/a.N0.T2") == data

    def test_benefactors_heartbeat_against_promoted_standby(self):
        config = sweep_config()
        with TcpDeployment(benefactor_count=2, config=config) as deployment:
            deployment.add_standby("tcp-standby-0")
            client = deployment.client("tcp-client")
            client.write_file("/grid/a.N0.T1", make_bytes(2 * CHUNK, seed=38))
            deployment.kill_primary()
            promoted = deployment.promote_standby()
            for bundle in deployment.maintenance.values():
                answer = bundle.heartbeat.run_once()
                assert answer is not None and answer["acknowledged"]
            assert len(promoted.registry.online()) == 2
