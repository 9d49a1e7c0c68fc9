"""FaultyTransport: one case per rule on an in-process pool, and one over TCP.

A ``StdchkPool`` runs on ``FaultyTransport(InProcessTransport())``, so each
rule is exercised through ``pool.transport`` against a real manager.  The
last case wraps a TCP deployment's transport: the wrapper neither loses a
read's ``into`` nor hides its RPCs, and the chunks still land in place.
"""

from __future__ import annotations

import pytest

from repro import StdchkConfig, StdchkPool, TcpDeployment
from repro.client.failover import FailoverTransport, ManagerDirectory
from repro.exceptions import EndpointUnreachableError, NotPrimaryError
from repro.transport import tcp
from repro.transport.faulty import Call, FaultyTransport
from repro.transport.inprocess import InProcessTransport
from repro.transport.tcp import OUT_OF_BAND_MIN
from tests.conftest import make_bytes


@pytest.fixture
def pool():
    with StdchkPool(benefactor_count=2) as pool:
        yield pool


def test_a_pool_runs_on_a_faulty_in_process_transport(pool):
    assert type(pool.transport) is FaultyTransport
    assert type(pool.transport.inner) is InProcessTransport


def test_a_partition_refuses_every_call_until_healed(pool):
    manager = pool.manager_address
    pool.transport.partition(manager)
    for _ in range(2):
        with pytest.raises(EndpointUnreachableError):
            pool.transport.call(manager, "make_folder", path="/cut")
    assert not pool.manager.exists("/cut")
    pool.transport.heal(manager)
    pool.transport.call(manager, "make_folder", path="/cut")
    assert pool.manager.exists("/cut")


def test_a_drop_refuses_the_next_calls_of_one_method_undelivered(pool):
    manager = pool.manager_address
    pool.transport.drop(manager, "make_folder", times=2)
    assert pool.transport.call(manager, "exists", path="/a") is False  # other methods pass
    for _ in range(2):
        with pytest.raises(EndpointUnreachableError):
            pool.transport.call(manager, "make_folder", path="/a")
        assert not pool.manager.exists("/a")
    pool.transport.call(manager, "make_folder", path="/a")
    assert pool.manager.exists("/a")


def test_a_lost_answer_is_delivered_then_refused(pool):
    manager = pool.manager_address
    died = []
    pool.transport.lose_answer(manager, "make_folder", then=lambda: died.append(True))
    with pytest.raises(EndpointUnreachableError):
        pool.transport.call(manager, "make_folder", path="/landed")
    assert pool.manager.exists("/landed") and died == [True]
    # One-shot: the next answer arrives.
    assert pool.transport.call(manager, "make_folder", path="/next")["created"]


def test_the_nth_answer_is_lost_and_only_that_one(pool):
    manager = pool.manager_address
    died = []
    pool.transport.lose_answer(manager, "make_folder", nth=3,
                               then=lambda: died.append(True))
    for path in ("/one", "/two"):
        assert pool.transport.call(manager, "make_folder", path=path)["created"]
    assert pool.transport.call(manager, "exists", path="/one")  # not counted
    with pytest.raises(EndpointUnreachableError):
        pool.transport.call(manager, "make_folder", path="/three")
    assert pool.manager.exists("/three") and died == [True]
    assert pool.transport.call(manager, "make_folder", path="/four")["created"]


def test_only_delivered_calls_count_toward_the_nth(pool):
    manager = pool.manager_address
    died = []
    pool.transport.lose_answer(manager, "make_folder", nth=2,
                               then=lambda: died.append("second"))
    pool.transport.lose_answer(manager, "make_folder", nth=1,
                               then=lambda: died.append("first"))
    pool.transport.partition(manager)
    with pytest.raises(EndpointUnreachableError):  # refused: not counted
        pool.transport.call(manager, "make_folder", path="/refused")
    pool.transport.heal(manager)
    for path in ("/one", "/two"):
        with pytest.raises(EndpointUnreachableError):
            pool.transport.call(manager, "make_folder", path=path)
    assert died == ["first", "second"] and not pool.manager.exists("/refused")
    assert pool.manager.exists("/two")


def test_scripted_answers_replace_delivery_and_the_last_repeats(pool):
    manager = pool.manager_address
    transactions = pool.manager.transactions
    hint = NotPrimaryError("standby here", primary_address="elsewhere")
    pool.transport.script(manager, [{"role": "standby"}, hint])
    assert pool.transport.call(manager, "manager_status") == {"role": "standby"}
    for _ in range(2):
        with pytest.raises(NotPrimaryError):
            pool.transport.probe(manager, "manager_status", 0.1)
    assert pool.manager.transactions == transactions


def test_a_one_shot_action_runs_before_delivery(pool):
    manager = pool.manager_address
    seen = []
    pool.transport.before(manager, "make_folder",
                          lambda address, method, payload: seen.append(
                              (address, method, payload["path"],
                               pool.manager.exists(payload["path"]))))
    pool.transport.call(manager, "make_folder", path="/first")
    pool.transport.call(manager, "make_folder", path="/second")
    assert seen == [(manager, "make_folder", "/first", False)]

    def die(address, method, payload):
        raise EndpointUnreachableError("killed on the way in")

    pool.transport.before(manager, "make_folder", die)
    with pytest.raises(EndpointUnreachableError, match="on the way in"):
        pool.transport.call(manager, "make_folder", path="/never")
    assert not pool.manager.exists("/never")


def test_the_call_log_starts_when_asked(pool):
    manager = pool.manager_address
    pool.transport.call(manager, "exists", path="/before")
    calls = pool.transport.record()
    pool.transport.call(manager, "exists", path="/x")
    windows = [memoryview(bytearray(4))] * 3
    pool.transport.call(manager, "exists", path="/y", into=windows)
    assert calls == [Call(manager, "exists", 0, {"path": "/x"}),
                     Call(manager, "exists", 3, {"path": "/y"})]
    assert pool.transport.record() == []  # a fresh log


def test_a_wrapped_tcp_transport_still_receives_fetches_in_place(monkeypatch):
    chunk, chunks = 2 * OUT_OF_BAND_MIN, 7
    filled = []
    recv_into = tcp._recv_into

    def counting(sock, into):
        filled.append(into.nbytes)
        return recv_into(sock, into)

    monkeypatch.setattr(tcp, "_recv_into", counting)
    config = StdchkConfig(chunk_size=chunk, stripe_width=4, replication_level=1)
    with TcpDeployment(benefactor_count=4, config=config) as deployment:
        client = deployment.client("seam", read_parallelism=2)
        data = make_bytes(chunks * chunk, seed=9)
        client.write_file("/seam/f", data)
        reader = client.open_read("/seam/f")
        faulty = FaultyTransport(deployment.transport)
        calls = faulty.record()
        reader.transport = FailoverTransport(
            faulty, ManagerDirectory([deployment.manager_address]))
        image = reader.read_all()
    assert type(image) is bytes and image == data
    # Seven chunks on four benefactors: three frames of two chunks and one
    # of one, each ``into`` a window per chunk, filled straight off the socket.
    assert sorted((call.method, call.destinations) for call in calls) == (
        [("get_chunks", 1)] + [("get_chunks", 2)] * 3)
    assert filled == [chunk] * chunks
