"""Manager failover end-to-end: crash-point sweep and TCP kill-mid-write.

The sweep extends the persistence crash-point methodology to replication:
a pilot write lists the manager RPCs a write makes (each writes exactly one
journal record), and then the primary dies answering *every* one of them in
turn — ``FaultyTransport.lose_answer(manager, method, nth=j, then=promote)``:
the call takes effect, the standby is promoted, the answer is lost — and the
failover-aware client must finish the write without ever seeing
:class:`ManagerRecoveringError`, with a byte-identical read-back from the
promoted standby.

The TCP half is the acceptance scenario: one primary plus one standby on
real localhost sockets, ``push_parallelism >= 4``, primary killed mid-write,
client unscathed.  Its client is a ``ClientProxy`` over
``FaultyTransport(deployment.transport)``; the deployment's own transport is
not wrapped.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.client.proxy import ClientProxy
from repro.exceptions import ManagerRecoveringError
from repro.transport.faulty import FaultyTransport
from tests.conftest import make_bytes

CHUNK = 64 * 1024
PATH = "/app/ckpt.N0.T1"


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


def pilot(data: bytes, **overrides) -> List[str]:
    """The manager RPCs this write makes, in order; each is one record."""
    pool = StdchkPool(benefactor_count=4, config=sweep_config(**overrides))
    pool.add_standby("standby-0")
    lsn = pool.manager.shipper.last_lsn
    calls = pool.transport.record()
    pool.client("pilot").write_file(PATH, data)
    methods = [call.method for call in calls if call.address == pool.manager_address]
    assert len(methods) == pool.manager.shipper.last_lsn - lsn
    return methods


def kill_answering(transport: FaultyTransport, address: str, methods: List[str],
                   kill_at: int, then) -> None:
    """The primary dies answering the ``kill_at``-th RPC of ``methods``."""
    method = methods[kill_at - 1]
    transport.lose_answer(address, method, nth=methods[:kill_at].count(method),
                          then=then)


class Kill(NamedTuple):
    """What one swept write left behind."""

    pool: StdchkPool
    #: The surviving client (the pool holds its clients weakly).
    client: ClientProxy
    #: The primary's last LSN when it died, read under its meta lock: no
    #: record was in flight, so it covers the lost call's own record.
    died_at: int
    #: The promoted standby's LSN at takeover, before the client's retry or
    #: replay tops it back up — the honest measure of what survived.
    promoted_lsn: int


def drop_first_shipment(transport: FaultyTransport, standby: str, lsn: int) -> None:
    """Drop the first ``replicate_records`` to ``standby`` that carries
    record ``lsn``; the shipments before it are delivered."""
    def check(address: str, method: str, payload) -> None:
        first = payload["from_lsn"]
        if first <= lsn < first + len(payload["records"]):
            transport.drop(address, method)  # refuses this very call
        else:
            transport.before(address, method, check)

    transport.before(standby, "replicate_records", check)


def write_with_kill_at(kill_at: int, methods: List[str], data: bytes,
                       drop_shipment: bool = False, **overrides) -> Kill:
    """Write ``data`` while the primary dies answering RPC ``kill_at``;
    with ``drop_shipment``, the first shipment of record ``kill_at`` to the
    standby is lost on the way."""
    pool = StdchkPool(benefactor_count=4, config=sweep_config(**overrides))
    pool.add_standby("standby-0")
    client = pool.client("survivor")
    lsns: List[int] = []
    if drop_shipment:
        drop_first_shipment(pool.transport, pool.standby_endpoints()["standby-0"],
                            pool.manager.shipper.last_lsn + kill_at)

    def die() -> None:
        primary = pool.manager
        with primary._meta_lock:
            lsns.append(primary.shipper.last_lsn)
        lsns.append(pool.promote_standby().applied_lsn)

    kill_answering(pool.transport, pool.manager_address, methods, kill_at, then=die)
    try:
        client.write_file(PATH, data)
    except ManagerRecoveringError as exc:  # pragma: no cover - regression
        raise AssertionError(
            f"client saw ManagerRecoveringError at boundary {kill_at}"
        ) from exc
    assert lsns, f"sweep never reached RPC {kill_at}"
    assert client.read_file(PATH) == data
    return Kill(pool, client, *lsns)


#: What a four-chunk write asks of the manager with ``ack_batch_size=1``.
FOUR_CHUNK_WRITE = ["create_session"] + 4 * ["put_chunks_ack"] + ["commit_session"]


class TestCrashPointSweep:
    def test_kill_primary_at_every_record_boundary(self):
        data = make_bytes(4 * CHUNK, seed=31)
        methods = pilot(data)
        assert methods == FOUR_CHUNK_WRITE
        for kill_at in range(1, len(methods) + 1):
            pool = write_with_kill_at(kill_at, methods, data).pool
            assert pool.manager.role == "primary"
            assert pool.manager.applied_lsn >= kill_at - 1

    def test_kill_primary_at_every_boundary_with_batched_shipping(self):
        # ship_batch_records > 1 leaves the session's early records buffered
        # (never shipped) when the primary dies, forcing the client's full
        # session-replay path on the promoted standby.
        data = make_bytes(3 * CHUNK, seed=32)
        methods = pilot(data, ship_batch_records=4)
        for kill_at in range(1, len(methods) + 1):
            write_with_kill_at(kill_at, methods, data, ship_batch_records=4)

    def test_survivor_client_keeps_writing_after_failover(self):
        data = make_bytes(4 * CHUNK, seed=33)
        client = write_with_kill_at(2, FOUR_CHUNK_WRITE, data).client
        later = make_bytes(2 * CHUNK, seed=34)
        client.write_file("/app/ckpt.N0.T2", later)
        assert client.read_file("/app/ckpt.N0.T2") == later
        assert sorted(client.listdir("/app")) == ["ckpt.N0.T1", "ckpt.N0.T2"]


class TestQuorumCrashPointSweep:
    """Zero acknowledged-commit loss with ``replication_quorum >= 1``.

    A lost answer is the narrowest loss window there is: the record was
    applied, journaled and quorum-acked, and the primary dies before the
    client hears of it.  With quorum >= 1 every record that reached that
    window is already applied on the standby, so the promoted standby's LSN
    must cover the primary's last record — at *every* boundary.  Two sweeps:
    four push workers, whose acks race for the meta lock (the lost ack's
    record may be any of the four), and one worker, where RPC ``k`` is
    record ``k`` exactly.  At every boundary the first shipment of record
    ``k`` is dropped on its way to the standby: at one record per batch a
    record is shipped before its call returns anyway, so only a lost
    shipment tells quorum (flush again until the standby acks) from async
    shipping (ack regardless).  The async contrast test below runs the same
    sweep without the quorum and loses the killed call's record, which is
    exactly the window quorum closes.
    """

    def test_no_acknowledged_record_lost_at_any_boundary(self):
        data = make_bytes(4 * CHUNK, seed=41)
        for parallelism in (4, 1):
            overrides = dict(replication_quorum=1, push_parallelism=parallelism)
            methods = pilot(data, **overrides)
            assert methods == FOUR_CHUNK_WRITE
            for kill_at in range(1, len(methods) + 1):
                kill = write_with_kill_at(kill_at, methods, data,
                                          drop_shipment=True, **overrides)
                if parallelism == 1:
                    assert kill.died_at == kill_at  # RPC k is record k
                assert kill.promoted_lsn >= kill.died_at, (
                    f"standby promoted at LSN {kill.promoted_lsn} lost quorum-acked "
                    f"records up to {kill.died_at} (killed at RPC {kill_at}, "
                    f"{parallelism} push workers)"
                )

    def test_async_buffered_shipping_leaves_the_loss_window_open(self):
        # Documented contrast, not a bug: with buffered async shipping the
        # promoted standby can be *behind* the primary's last record — the
        # journaled records were acknowledged locally but never left the
        # primary.  The client's session replay still recovers the data end
        # to end (the read-back assertion inside the helper), but the gap
        # quorum closes is real and measurable.
        data = make_bytes(3 * CHUNK, seed=42)
        methods = pilot(data, ship_batch_records=8)
        gaps = []
        for kill_at in range(1, len(methods) + 1):
            kill = write_with_kill_at(kill_at, methods, data, ship_batch_records=8)
            gaps.append(kill.died_at - kill.promoted_lsn)
        assert max(gaps) > 0, "expected at least one boundary with lag"

    def test_async_shipping_loses_the_record_whose_shipment_was_lost(self):
        # Documented contrast, not a bug: the quorum sweep without the
        # quorum.  The killed call's record was journaled and acknowledged,
        # but its one shipment was dropped, so the promoted standby is one
        # record behind the primary at every boundary.  The client's
        # session replay still recovers the data end to end (the read-back
        # assertion inside the helper), but the gap quorum closes is real.
        data = make_bytes(4 * CHUNK, seed=45)
        overrides = dict(push_parallelism=1)
        methods = pilot(data, **overrides)
        gaps = []
        for kill_at in range(1, len(methods) + 1):
            kill = write_with_kill_at(kill_at, methods, data,
                                      drop_shipment=True, **overrides)
            assert kill.died_at == kill_at
            gaps.append(kill.died_at - kill.promoted_lsn)
        assert gaps == [1] * len(methods)

    def test_quorum_sweep_survivor_keeps_writing(self):
        data = make_bytes(3 * CHUNK, seed=43)
        pool, client, _died_at, _lsn = write_with_kill_at(
            3, FOUR_CHUNK_WRITE, data, replication_quorum=1)
        # The promoted primary has no standbys yet; quorum gating only
        # applies while a shipper is attached, so writes keep flowing.
        later = make_bytes(2 * CHUNK, seed=44)
        client.write_file("/app/ckpt.N0.T2", later)
        assert client.read_file("/app/ckpt.N0.T2") == later
        assert pool.manager.epoch == 2


class TestTcpFailover:
    def test_kill_primary_mid_write_over_tcp(self, tmp_path):
        # The acceptance scenario: 1 primary + 1 standby over real sockets,
        # push_parallelism >= 4, the primary dies answering the write's
        # fourth manager RPC; the client finishes, the read-back is
        # byte-identical.
        config = sweep_config(journal_dir=str(tmp_path / "wal"))
        with TcpDeployment(benefactor_count=3, config=config) as deployment:
            deployment.add_standby("tcp-standby-0")
            faulty = FaultyTransport(deployment.transport)
            client = ClientProxy(
                "tcp-survivor", faulty, deployment.manager_address,
                config=config, clock=deployment.clock,
                standby_addresses=list(deployment.standby_endpoints().values()))
            data = make_bytes(6 * CHUNK, seed=35)
            promoted = []
            faulty.lose_answer(
                deployment.manager_address, "put_chunks_ack", nth=3,
                then=lambda: promoted.append(deployment.promote_standby(
                    journal_dir=str(tmp_path / "promoted-wal"))))
            try:
                client.write_file("/grid/ckpt.N0.T1", data)
            except ManagerRecoveringError as exc:  # pragma: no cover
                raise AssertionError(
                    "client saw ManagerRecoveringError during failover"
                ) from exc
            assert promoted
            assert client.read_file("/grid/ckpt.N0.T1") == data
            assert deployment.manager.role == "primary"
            client.close()

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
