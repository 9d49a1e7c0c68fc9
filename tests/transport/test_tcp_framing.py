"""The TCP frame: its layout, round trips, out-of-band sections, hostile input.

One frame layout carries every RPC
(``[meta_len][k][len_1 .. len_k][meta][section_1] .. [section_k]``), so these
tests drive the private framing functions over ``socketpair`` with starved
socket buffers, and a real :class:`TcpServer` with raw sockets playing the
misbehaving peer.
"""

from __future__ import annotations

import inspect
import logging
import os
import pickle
import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import exceptions
from repro.exceptions import (
    EndpointUnreachableError,
    NotPrimaryError,
    ProtocolError,
    QuorumNotReachedError,
    StaleEpochError,
    StdchkError,
    TransportError,
)
from repro.transport import tcp
from repro.transport.base import Endpoint, rpc
from repro.transport.tcp import OUT_OF_BAND_MIN, TcpTransport
from tests.conftest import make_bytes as blob

MIB = 1 << 20
SIZES = [0, 1, OUT_OF_BAND_MIN - 1, OUT_OF_BAND_MIN, OUT_OF_BAND_MIN + 1, MIB]
HEADER = struct.Struct(">QQ")


def starved_pair(timeout):
    """A connected pair whose kernel buffers hold a small fraction of a frame."""
    left, right = socket.socketpair()
    for sock in (left, right):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(timeout)
    return left, right


def through_the_wire(tag, body, timeout=None, sender=lambda sock: sock):
    left, right = starved_pair(timeout)
    with left, right, ThreadPoolExecutor(max_workers=1) as executor:
        received = executor.submit(tcp._recv_frame, right)
        tcp._send_frame(sender(left), *tcp._encode(tag, body))
        return received.result(timeout=30)


def assert_same_message(sent, received):
    """Byte-identical, and every bytes-like arrives as real ``bytes``."""
    if isinstance(sent, dict):
        assert list(received) == list(sent)
        for key, value in sent.items():
            assert_same_message(value, received[key])
    elif isinstance(sent, list) and sent and isinstance(sent[0], (bytes, memoryview)):
        assert type(received) is list and len(received) == len(sent)
        for value, got in zip(sent, received):
            assert_same_message(value, got)
    elif isinstance(sent, (bytes, memoryview)):
        assert type(received) is bytes
        assert received == sent
    else:
        assert received == sent and type(received) is type(sent)


bytes_values = st.builds(blob, st.sampled_from(SIZES), st.integers(0, 3))
#: What a data RPC carries: its chunks, travelling as sections when large.
chunk_lists = st.lists(st.one_of(bytes_values, bytes_values.map(memoryview)),
                       min_size=1, max_size=3)
plain_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40), st.text(max_size=20),
    st.lists(st.integers(0, 9), max_size=4),
    st.just({"nested": b"in-band", "pair": (1, "two")}),
)
payload_dicts = st.dictionaries(
    st.text("abcdefgh", min_size=1, max_size=6),
    st.one_of(bytes_values, bytes_values.map(memoryview), chunk_lists, plain_values),
    max_size=5,
)


class RecvSpy:
    """Records what each ``recv`` returned and whose memory each ``recv_into`` filled."""

    def __init__(self, sock):
        self.sock = sock
        self.received = []
        self.destinations = []

    def recv(self, *args):
        data = self.sock.recv(*args)
        self.received.append(data)
        return data

    def recv_into(self, buffer, *args):
        self.destinations.append(buffer.obj)
        return self.sock.recv_into(buffer, *args)


def wire_bytes(meta, sections):
    """Every byte ``_send_frame`` puts on the wire for one frame."""
    left, right = socket.socketpair()
    with left, right:
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * MIB)
        tcp._send_frame(left, meta, sections)
        left.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: right.recv(MIB), b""))


class CountingSocket:
    """Counts the socket calls one frame costs and the sizes ``recv`` was asked for."""

    def __init__(self, sock):
        self.sock = sock
        self.calls = []
        self.asked = []

    def recv(self, size, *flags):
        self.calls.append("recv")
        self.asked.append(size)
        return self.sock.recv(size, *flags)

    def __getattr__(self, name):
        def method(*args):
            self.calls.append(name)
            return getattr(self.sock, name)(*args)
        return method


#: ``_encode("stat", {"path": "/a/b", "n": 1})`` on the wire: a frame with
#: k = 0 is byte for byte the small frame every peer already speaks.
SMALL_FRAME = bytes.fromhex(
    "000000000000002d0000000000000000"
    "80059522000000000000008c0473746174947d94288c0470617468948c042f612f62948c"
    "016e944b017586942e")


class TestWireLayout:
    """``[meta_len][k][len_1 .. len_k][meta][section_1] .. [section_k]``, for
    k = 0, 1 and 3: the bytes, the syscalls, the caps."""

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_header_table_meta_and_sections_byte_for_byte(self, count):
        chunks = unequal_sections(count, seed=count)
        body = {"chunk_ids": [f"c{i}" for i in range(count)], "data": chunks}
        meta, sections = tcp._encode("put_chunks", body)
        assert [section.obj for section in sections] == chunks
        lengths = [len(chunk) for chunk in chunks]
        assert wire_bytes(meta, sections) == (
            struct.pack(">QQ", len(meta), count)
            + struct.pack(f">{count}Q", *lengths)
            + meta + b"".join(chunks))

    def test_a_frame_without_sections_is_the_small_frame_it_always_was(self):
        meta, sections = tcp._encode("stat", {"path": "/a/b", "n": 1})
        assert not sections
        assert wire_bytes(meta, sections) == SMALL_FRAME
        left, right = socket.socketpair()
        with left, right:
            left.sendall(SMALL_FRAME)
            assert tcp._recv_frame(right) == ("stat", {"path": "/a/b", "n": 1})

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_send_and_two_plus_k_receives(self, count):
        chunks = unequal_sections(count, seed=count + 1)
        body = {"chunk_ids": [f"c{i}" for i in range(count)], "data": chunks}
        left, right = socket.socketpair()
        with left, right:
            for sock in (left, right):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 * MIB)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * MIB)
            sender, receiver = CountingSocket(left), CountingSocket(right)
            tcp._send_frame(sender, *tcp._encode("put_chunks", body))
            assert sender.calls == ["sendmsg" if count else "sendall"]
            method, received = tcp._recv_frame(receiver)
        assert (method, received) == ("put_chunks", body)
        # The header, then the section table and meta together, then a
        # receive per section.
        assert receiver.calls == ["recv"] * (2 + count)
        assert receiver.asked[2:] == [len(chunk) for chunk in chunks]

    @pytest.mark.parametrize("cap,header,table", [
        ("count", (10, tcp.MAX_SECTIONS + 1), b""),
        ("meta", (tcp.MAX_SECTION_BYTES + 1, 0), b""),
        ("meta-with-sections", (tcp.MAX_SECTION_BYTES + 1, 1), struct.pack(">Q", 5)),
        ("section-total", (10, 2),
         struct.pack(">2Q", tcp.MAX_SECTION_BYTES // 2, tcp.MAX_SECTION_BYTES // 2 + 1)),
    ])
    def test_every_cap_rejects_before_allocating(self, cap, header, table):
        """Counts and meta on the 16-byte header; the sections' total once the
        table (with the 10 bytes of meta) is in: nothing they size is asked for."""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(HEADER.pack(*header) + table + b"0123456789")
            receiver = CountingSocket(right)
            with pytest.raises(ProtocolError, match="frame claims"):
                tcp._recv_frame(receiver, [memoryview(bytearray(64))] * 2)
        if cap == "section-total":
            assert receiver.asked == [HEADER.size, len(table) + 10]
        else:
            assert receiver.asked == [HEADER.size]
        assert "recv_into" not in receiver.calls


class TestFrameRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(payload=payload_dicts, timeout=st.sampled_from([None, 10.0]))
    def test_payload_dicts_survive_starved_sockets(self, payload, timeout):
        method, received = through_the_wire("put_chunks", payload, timeout)
        assert method == "put_chunks"
        assert_same_message(payload, received)

    @settings(max_examples=30, deadline=None)
    @given(result=st.one_of(bytes_values, chunk_lists, payload_dicts, plain_values),
           timeout=st.sampled_from([None, 10.0]))
    def test_results_survive_starved_sockets(self, result, timeout):
        status, received = through_the_wire("ok", result, timeout)
        assert status == "ok"
        assert_same_message(result, received)

    def test_a_bytes_value_outside_a_list_travels_in_band(self):
        """Only a list of bytes-likes is chunks: any other value, however
        large, is part of the pickle (a memoryview copied into it)."""
        first, second = blob(OUT_OF_BAND_MIN, 1), blob(2 * OUT_OF_BAND_MIN, 2)
        body = {"small": b"x" * 10, "first": first, "second": memoryview(second)}
        meta, sections = tcp._encode("m", body)
        assert not sections
        assert first in meta and second in meta
        assert type(body["second"]) is memoryview  # the caller's dict is left alone

    def test_out_of_band_payload_is_received_without_a_copy(self):
        """The handler gets the very object the kernel filled."""
        left, right = socket.socketpair()
        with left, right:
            data = blob(MIB, 5)
            body = {"chunk_ids": ["c1"], "data": [data]}
            sender = threading.Thread(
                target=lambda: tcp._send_frame(left, *tcp._encode("put_chunks", body))
            )
            sender.start()
            spy = RecvSpy(right)
            _method, payload = tcp._recv_frame(spy)
            sender.join(timeout=10)
        assert payload["data"] == [data]
        assert payload["data"][0] is spy.received[-1]

    @pytest.mark.parametrize("first_send", [5, 16, 40, 10_000, 10**9])
    def test_partial_sendmsg_resumes_where_it_stopped(self, first_send):
        """Split inside the header, the table, ``meta`` and the section."""

        class Dribble:
            def __init__(self, sock):
                self.sock = sock
                self.sendall = sock.sendall

            def sendmsg(self, buffers):
                joined = b"".join(bytes(part) for part in buffers)
                self.sock.sendall(joined[:first_send])
                return min(first_send, len(joined))

        body = {"chunk_ids": ["c1"], "data": [blob(3 * OUT_OF_BAND_MIN, 9)]}
        _method, received = through_the_wire("put_chunks", body, sender=Dribble)
        assert_same_message(body, received)

    def test_small_frames_cost_one_send_and_two_receives(self):
        """The per-RPC floor: no ``sendmsg``, no third ``recv``, no loop."""
        left, right = socket.socketpair()
        with left, right:
            body = {"path": "/a/b", "data": [b"x" * (OUT_OF_BAND_MIN - 1)]}
            sender, receiver = CountingSocket(left), CountingSocket(right)
            tcp._send_frame(sender, *tcp._encode("stat", body))
            assert sender.calls == ["sendall"]
            assert tcp._recv_frame(receiver) == ("stat", body)
            assert receiver.calls == ["recv", "recv"]


def reply_into(into, tag, body, timeout=None):
    """Send one reply frame over starved sockets to a receiver holding ``into``."""
    left, right = starved_pair(timeout)
    spy = RecvSpy(right)
    with left, right, ThreadPoolExecutor(max_workers=1) as executor:
        received = executor.submit(tcp._recv_frame, spy, into)
        tcp._send_frame(left, *tcp._encode(tag, body))
        return received.result(timeout=30), spy


LARGE = [OUT_OF_BAND_MIN, OUT_OF_BAND_MIN + 1, 3 * OUT_OF_BAND_MIN + 5, MIB]
PATTERN = 0xEE


class TestReceiveIntoADestination:
    """A frame of one and ``_recv_frame(sock, [view])``: the section lands in
    ``view`` or nowhere near it."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from(LARGE), seed=st.integers(0, 3),
           as_view=st.booleans(), timeout=st.sampled_from([None, 10.0]))
    def test_matching_payload_lands_in_place(self, size, seed, as_view, timeout):
        data = blob(size, seed)
        image = bytearray([PATTERN]) * (size + 64)
        with memoryview(image)[32:32 + size] as into:
            (status, body), spy = reply_into(
                [into], "ok", [memoryview(data) if as_view else data], timeout)
            assert status == "ok"
            assert type(body) is list and len(body) == 1
            assert body[0] is into, "the destination itself is the result"
        # All of it arrived in place (over starved buffers: in many pieces) ...
        assert image[32:32 + size] == data
        assert image[:32] == image[-32:] == bytes([PATTERN]) * 32
        assert spy.destinations and all(owner is image for owner in spy.destinations)
        # ... and nothing the size of the section was received on the side.
        assert sum(len(piece) for piece in spy.received) < 200
        # No view is left behind (one would pin a reader's whole image).
        del body
        image.extend(b"resizing fails while any export is alive")

    @settings(max_examples=40, deadline=None)
    @given(sent=st.sampled_from([0, 1, OUT_OF_BAND_MIN - 1, OUT_OF_BAND_MIN,
                                 2 * OUT_OF_BAND_MIN - 1, 2 * OUT_OF_BAND_MIN + 1]),
           timeout=st.sampled_from([None, 10.0]))
    def test_any_other_length_leaves_the_destination_alone(self, sent, timeout):
        """Shorter, longer, empty and in-band chunks come back as ``bytes``."""
        data = blob(sent, 1)
        image = bytearray([PATTERN]) * (2 * OUT_OF_BAND_MIN)
        with memoryview(image) as into:
            (status, body), spy = reply_into([into], "ok", [data], timeout)
        assert status == "ok" and body == [data] and type(body[0]) is bytes
        assert image == bytes([PATTERN]) * len(image)
        assert not spy.destinations

    @pytest.mark.parametrize("body", [
        exceptions.ChunkNotFoundError("chunk not stored here: c1"),
        KeyError("missing"),
        {"stored": 1, "free_space": 7},
        None,
    ], ids=["library-error", "builtin-error", "dict", "none"])
    def test_error_and_small_replies_are_untouched_by_a_destination(self, body):
        tag = "error" if isinstance(body, Exception) else "ok"
        image = bytearray([PATTERN]) * OUT_OF_BAND_MIN
        with memoryview(image) as into:
            (status, received), spy = reply_into([into], tag, body)
        assert status == tag and type(received) is type(body)
        assert str(received) == str(body)
        assert image == bytes([PATTERN]) * len(image) and not spy.destinations

    def test_small_frames_still_cost_two_receives_with_a_destination(self):
        image = bytearray(OUT_OF_BAND_MIN)
        with memoryview(image) as into:
            (_status, body), spy = reply_into([into], "ok", {"n": 1})
        assert body == {"n": 1}
        assert len(spy.received) == 2 and not spy.destinations

    def test_payload_nested_in_the_reply_is_not_mistaken_for_the_result(self):
        """A section of the right size whose list is not the body itself."""
        data = blob(OUT_OF_BAND_MIN, 2)
        image = bytearray(OUT_OF_BAND_MIN)
        with memoryview(image) as into:
            (status, body), _spy = reply_into([into], "ok", {"data": [data]})
            assert status == "ok" and type(body) is dict
            assert body["data"] == [data]
            del body
        image.extend(b"no export left")


def unequal_sections(count, seed=0):
    """``count`` large payloads, no two of the same length."""
    return [blob(OUT_OF_BAND_MIN + 1000 * index + 1, seed + index) for index in range(count)]


class TestSeveralSections:
    """A list of bytes-likes travels as one frame with a section per large element."""

    @pytest.mark.parametrize("count", [1, 2, 16])
    @pytest.mark.parametrize("as_result", [False, True], ids=["request", "reply"])
    def test_sections_of_unequal_length_round_trip(self, count, as_result):
        sections = unequal_sections(count)
        views = [memoryview(section) for section in sections]
        mixed = [views[0], *sections[1:]]  # views and bytes alike
        if as_result:
            tag, received = through_the_wire("ok", mixed, timeout=10.0)
            assert tag == "ok"
        else:
            body = {"chunk_ids": [f"c{i}" for i in range(count)], "data": mixed}
            tag, answer = through_the_wire("put_chunks", body, timeout=10.0)
            assert tag == "put_chunks" and answer["chunk_ids"] == body["chunk_ids"]
            received = answer["data"]
        assert all(type(part) is bytes for part in received)
        assert received == sections

    @pytest.mark.parametrize("count", [2, 16])
    def test_one_sendmsg_out_and_a_receive_per_section_in(self, count):
        sections = unequal_sections(count, seed=3)
        left, right = socket.socketpair()
        with left, right:
            for sock in (left, right):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 * MIB)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * MIB)
            sender, receiver = CountingSocket(left), CountingSocket(right)
            tcp._send_frame(sender, *tcp._encode("ok", sections))
            assert sender.calls == ["sendmsg"]
            assert tcp._recv_frame(receiver) == ("ok", sections)
            # header, section table and meta, then one receive per section
            assert receiver.calls == ["recv"] * (2 + count)

    def test_the_caller_s_buffers_are_sent_and_meta_holds_no_chunk_bytes(self):
        """The reason the in-band ``put_chunks`` was deleted: 256 KiB of
        chunks inside the pickle is 256 KiB copied on each side."""
        image = blob(4 * 64 * 1024, 5)
        chunks = [memoryview(image)[i * 65536:(i + 1) * 65536] for i in range(4)]
        meta, sections = tcp._encode(
            "put_chunks", {"chunk_ids": ["a", "b", "c", "d"], "data": chunks})
        assert len(meta) < 1024
        assert [section.obj for section in sections] == [image] * 4
        assert [section.nbytes for section in sections] == [65536] * 4

    def test_small_elements_stay_in_band_and_sections_keep_their_order(self):
        small, large = blob(100, 1), unequal_sections(2, seed=7)
        body = [large[0], memoryview(small), large[1], b""]
        meta, sections = tcp._encode("ok", body)
        assert [section.nbytes for section in sections] == [len(large[0]), len(large[1])]
        assert small in meta
        assert through_the_wire("ok", body) == ("ok", [large[0], small, large[1], b""])

    def test_one_large_element_is_a_frame_of_one_section(self):
        """No second form for a lone chunk: k = 1 and a table of one length."""
        data = blob(2 * OUT_OF_BAND_MIN, 2)
        meta, sections = tcp._encode("ok", [b"tiny", data])
        assert len(sections) == 1 and sections[0].obj is data
        left, right = socket.socketpair()
        with left, right:
            tcp._send_frame(left, meta, sections)
            assert right.recv(HEADER.size + 8) == (
                HEADER.pack(len(meta), 1) + struct.pack(">Q", len(data)))

    def test_only_the_first_liftable_value_is_lifted(self):
        first, second = unequal_sections(2), unequal_sections(2, seed=9)
        meta, sections = tcp._encode("m", {"first": first, "second": second,
                                           "third": second[0]})
        assert [section.obj for section in sections] == first
        assert second[0] in meta and second[1] in meta

    def test_more_elements_than_a_frame_has_sections_overflow_in_band(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_SECTIONS", 3)
        sections = unequal_sections(5, seed=11)
        meta, lifted = tcp._encode("ok", sections)
        assert len(lifted) == 3 and sections[3] in meta and sections[4] in meta
        assert through_the_wire("ok", sections) == ("ok", sections)

    @pytest.mark.parametrize("first_send", [5, 16, 30, 60, 20_000, 40_000, 10**9])
    def test_partial_sendmsg_resumes_inside_any_buffer(self, first_send):
        """Split in the header, the table, ``meta`` and the first and second section."""

        class Dribble:
            def __init__(self, sock):
                self.sock = sock
                self.sendall = sock.sendall

            def sendmsg(self, buffers):
                joined = b"".join(bytes(part) for part in buffers)
                self.sock.sendall(joined[:first_send])
                return min(first_send, len(joined))

        sections = unequal_sections(3, seed=13)
        assert through_the_wire("ok", sections, sender=Dribble) == ("ok", sections)


def windows_of(image, lengths, gap=16):
    """Disjoint windows of ``image`` of the given lengths, ``gap`` bytes apart."""
    views, offset = [], gap
    for length in lengths:
        views.append(memoryview(image)[offset:offset + length])
        offset += length + gap
    return views


class TestReceiveIntoSeveralDestinations:
    """``into=[view_1 .. view_k]``: all sections land in place, or none is touched."""

    @settings(max_examples=25, deadline=None)
    @given(count=st.sampled_from([1, 2, 16]), as_views=st.booleans(),
           timeout=st.sampled_from([None, 10.0]))
    def test_matching_sections_land_in_their_destinations(self, count, as_views, timeout):
        sections = unequal_sections(count, seed=count)
        lengths = [len(section) for section in sections]
        image = bytearray([PATTERN]) * (sum(lengths) + 16 * (count + 1))
        into = windows_of(image, lengths)
        body = [memoryview(s) for s in sections] if as_views else sections
        (status, received), spy = reply_into(into, "ok", body, timeout)
        assert status == "ok" and type(received) is list
        assert all(got is window for got, window in zip(received, into))
        assert [bytes(window) for window in into] == sections
        assert image.count(PATTERN) >= 16 * (count + 1)  # the gaps are untouched
        assert sum(len(piece) for piece in spy.received) < 400
        for window in into:
            window.release()
        del received
        image.extend(b"no export is left behind")

    @pytest.mark.parametrize("case", ["one-fewer", "one-more", "one-length-off",
                                      "in-band-element", "no-destinations"])
    def test_any_mismatch_leaves_every_destination_alone(self, case):
        sections = unequal_sections(3, seed=5)
        lengths = [len(section) for section in sections]
        body = list(sections)
        if case == "one-fewer":
            lengths = lengths[:2]
        elif case == "one-more":
            lengths = lengths + [OUT_OF_BAND_MIN]
        elif case == "one-length-off":
            lengths[1] += 1
        elif case == "in-band-element":
            body[1] = b"short"  # two sections for three destinations
        image = bytearray([PATTERN]) * (sum(lengths) + 16 * (len(lengths) + 1))
        into = [] if case == "no-destinations" else windows_of(image, lengths)
        (status, received), spy = reply_into(into, "ok", body)
        assert status == "ok" and received == body
        assert all(type(part) is bytes for part in received)
        assert image == bytes([PATTERN]) * len(image) and not spy.destinations

    @pytest.mark.parametrize("body", [
        exceptions.ChunkNotFoundError("chunk not stored here: c2"),
        {"stored": 3},
        [],
    ], ids=["error", "dict", "empty-list"])
    def test_error_and_small_replies_leave_every_destination_alone(self, body):
        tag = "error" if isinstance(body, Exception) else "ok"
        image = bytearray([PATTERN]) * (3 * OUT_OF_BAND_MIN)
        into = windows_of(image, [OUT_OF_BAND_MIN] * 2)
        (status, received), spy = reply_into(into, tag, body)
        assert status == tag and str(received) == str(body)
        assert image == bytes([PATTERN]) * len(image)
        assert len(spy.received) == 2 and not spy.destinations

    def test_sections_nested_in_the_reply_are_not_mistaken_for_the_result(self):
        sections = unequal_sections(2)
        image = bytearray(sum(map(len, sections)))
        into = [memoryview(image)[:len(sections[0])], memoryview(image)[len(sections[0]):]]
        (status, body), _spy = reply_into(into, "ok", {"data": sections})
        assert status == "ok" and type(body) is dict
        assert body["data"] == sections


class EchoEndpoint(Endpoint):
    def __init__(self):
        self.failures = {}

    @rpc
    def echo(self, **values):
        return values

    @rpc
    def first(self, value):
        return value

    @rpc
    def fail(self, name):
        raise self.failures[name]


@pytest.fixture(scope="module")
def served():
    """(transport, address, endpoint) with one EchoEndpoint behind a TcpServer.

    Shared by the module: stopping a server waits out its 0.5 s poll interval.
    """
    transport = TcpTransport(pool_size=1)
    endpoint = EchoEndpoint()
    transport.register("127.0.0.1:0", endpoint)
    try:
        yield transport, transport.bound_address("127.0.0.1:0"), endpoint
    finally:
        transport.close()


class TestThroughARealServer:
    @pytest.mark.parametrize("size", SIZES + [8 * MIB])
    def test_probe_with_a_timeout_round_trips(self, served, size):
        transport, address, _ = served
        data = blob(size, size % 7)
        answer = transport.probe(address, "echo", 10.0, data=data, more=memoryview(data), n=3)
        assert_same_message({"data": data, "more": data, "n": 3}, answer)
        assert type(transport.probe(address, "first", 10.0, value=data)) is bytes

    def test_call_hands_handlers_real_bytes_both_ways(self, served):
        transport, address, _ = served
        data = blob(MIB, 3)
        view = memoryview(data)[100:100 + 4 * OUT_OF_BAND_MIN]
        answer = transport.call(address, "echo", data=view, tiny=memoryview(data)[:7])
        assert_same_message({"data": view, "tiny": data[:7]}, answer)

    @pytest.mark.parametrize("size", LARGE)
    def test_call_delivers_the_result_into_the_destination(self, served, size):
        transport, address, _ = served
        data = blob(size, 4)
        image = bytearray(size + 10)
        with memoryview(image)[10:] as into:
            [received] = transport.call(address, "first", into=[into], value=[data])
            assert received is into
            del received
        assert image[10:] == data and image[:10] == bytes(10)
        assert transport._pool(address)._total == 1

    @pytest.mark.parametrize("size", [0, 7, OUT_OF_BAND_MIN - 1, 2 * OUT_OF_BAND_MIN])
    def test_call_ignores_a_destination_of_another_size(self, served, size):
        transport, address, endpoint = served
        data = blob(size, 6)
        image = bytearray([PATTERN]) * OUT_OF_BAND_MIN
        endpoint.failures["gone"] = exceptions.ChunkNotFoundError("gone")
        with memoryview(image) as into:
            answer = transport.call(address, "first", into=[into], value=[data])
            assert answer == [data] and type(answer[0]) is bytes
            with pytest.raises(exceptions.ChunkNotFoundError):
                transport.call(address, "fail", into=[into], name="gone")
        assert image == bytes([PATTERN]) * len(image)
        assert transport._pool(address)._total == 1

    @pytest.mark.parametrize("count", [2, 16])
    def test_call_moves_a_list_of_sections_both_ways(self, served, count):
        transport, address, endpoint = served
        sections = unequal_sections(count, seed=2)
        answer = transport.call(address, "echo", chunk_ids=list(range(count)),
                                data=[memoryview(section) for section in sections])
        assert answer["chunk_ids"] == list(range(count))
        assert all(type(part) is bytes for part in answer["data"])
        assert answer["data"] == sections

        lengths = [len(section) for section in sections]
        image = bytearray(sum(lengths) + 16 * (count + 1))
        into = windows_of(image, lengths)
        received = transport.call(address, "first", into=into, value=sections)
        assert all(got is window for got, window in zip(received, into))
        assert [bytes(window) for window in into] == sections

        # One destination short, and an error reply: nothing is written.
        blank = bytearray(len(image))
        spare = windows_of(blank, lengths[:-1])
        assert transport.call(address, "first", into=spare, value=sections) == sections
        endpoint.failures["gone"] = exceptions.ChunkNotFoundError("gone")
        with pytest.raises(exceptions.ChunkNotFoundError):
            transport.call(address, "fail", into=windows_of(blank, lengths), name="gone")
        assert blank == bytes(len(blank))
        assert transport._pool(address)._total == 1

    def test_handlers_never_see_the_destination(self, served):
        """``into`` is a hint to the transport, not part of the payload."""
        transport, address, _ = served
        with memoryview(bytearray(OUT_OF_BAND_MIN)) as into:
            assert transport.call(address, "echo", into=[into], value=1) == {"value": 1}

    def test_unknown_payload_keys_round_trip(self, served):
        """The benchmark's tracer links spans through an extra payload key."""
        transport, address, _ = served
        answer = transport.call(address, "echo", __bench_span__=(7, 3), value=1)
        assert answer == {"__bench_span__": (7, 3), "value": 1}


def library_exceptions():
    return sorted(
        (cls for _name, cls in inspect.getmembers(exceptions, inspect.isclass)
         if issubclass(cls, BaseException) and cls.__module__ == exceptions.__name__),
        key=lambda cls: cls.__name__,
    )


def sample_of(cls):
    if cls is NotPrimaryError:
        return cls("boom", primary_address="10.0.0.1:7000", epoch=7)
    if cls is StaleEpochError:
        return cls("boom", epoch=9, primary_address="10.0.0.1:7001")
    if cls is QuorumNotReachedError:
        return cls("boom", acked=1, required=2)
    if issubclass(cls, TransportError):
        return cls("boom", endpoint="10.0.0.2:9")
    return cls("boom")


class LocalError(Exception):
    """Defined outside the registry: must not be resolvable by a peer."""


class TestExceptionsCrossTheWire:
    @pytest.mark.parametrize("cls", library_exceptions(), ids=lambda cls: cls.__name__)
    def test_library_exception_keeps_type_and_attributes(self, served, cls):
        transport, address, endpoint = served
        original = sample_of(cls)
        endpoint.failures["it"] = original
        with pytest.raises(cls) as caught:
            transport.call(address, "fail", name="it")
        assert type(caught.value) is cls
        assert str(caught.value) == "boom"
        assert vars(caught.value) == vars(original)
        # An application error leaves the pooled socket usable.
        assert transport.call(address, "first", value=1) == 1
        assert transport._pool(address)._total == 1

    def test_builtin_exceptions_keep_their_type(self, served):
        transport, address, endpoint = served
        endpoint.failures["k"] = KeyError("missing")
        endpoint.failures["o"] = FileNotFoundError(2, "No such file", "/x")
        with pytest.raises(KeyError, match="missing"):
            transport.call(address, "fail", name="k")
        with pytest.raises(FileNotFoundError) as caught:
            transport.call(address, "fail", name="o")
        assert caught.value.errno == 2 and caught.value.filename == "/x"

    def test_unregistered_exception_arrives_as_a_named_stand_in(self, served):
        transport, address, endpoint = served
        endpoint.failures["l"] = LocalError("disk on fire")
        with pytest.raises(StdchkError, match="LocalError: disk on fire") as caught:
            transport.call(address, "fail", name="l")
        assert type(caught.value) is StdchkError
        assert transport.call(address, "first", value=1) == 1


class RunsACommand:
    def __init__(self, command):
        self.command = command

    def __reduce__(self):
        return (os.system, (self.command,))


def raw_frame(meta: bytes, *sections: bytes) -> bytes:
    return (HEADER.pack(len(meta), len(sections))
            + struct.pack(f">{len(sections)}Q", *map(len, sections))
            + meta + b"".join(sections))


def hostile_frames(marker):
    command = RunsACommand(f"touch {marker}")
    return {
        "global-in-payload": raw_frame(pickle.dumps(("first", {"value": command}), protocol=5)),
        "global-as-method": raw_frame(pickle.dumps((command, {}), protocol=2)),
        "builtin-callable": raw_frame(pickle.dumps(("first", {"value": eval}), protocol=5)),
        "absurd-meta-length": HEADER.pack(1 << 62, 0),
        "absurd-section-length": (
            HEADER.pack(10, 1) + struct.pack(">Q", 1 << 62) + b"0123456789"),
        "garbage-meta": raw_frame(b"not a pickle at all"),
        "empty-meta": raw_frame(b""),
        "not-a-pair": raw_frame(pickle.dumps([1, 2, 3], protocol=5)),
        "missing-buffer": raw_frame(
            pickle.dumps(("first", {"value": pickle.PickleBuffer(b"x" * 64)}),
                         protocol=5, buffer_callback=lambda _buffer: None)),
        "truncated": HEADER.pack(100, 0) + b"only ten b",
        "absurd-section-count": HEADER.pack(10, 1 << 32) + b"0123456789",
        "absurd-section-total": (
            HEADER.pack(10, 3)
            + struct.pack(">3Q", *[tcp.MAX_SECTION_BYTES // 2] * 3) + b"0123456789"),
        "section-table-cut-short": HEADER.pack(10, 4) + struct.pack(">2Q", 5, 5),
    }


FRAME_NAMES = sorted(hostile_frames("unused"))


def connect(address: str) -> socket.socket:
    host, _, port = address.partition(":")
    return socket.create_connection((host, int(port)), timeout=10)


def closed_by_server(sock: socket.socket) -> bool:
    """Half-close, then expect EOF (or a reset, when bytes were left unread)."""
    try:
        sock.shutdown(socket.SHUT_WR)
        return sock.recv(1) == b""
    except OSError:
        return True


class TestHostileClient:
    @pytest.mark.parametrize("name", FRAME_NAMES)
    def test_bad_frame_costs_only_its_own_connection(self, served, name, tmp_path,
                                                     caplog, capfd):
        transport, address, _ = served
        marker = tmp_path / "executed"
        assert transport.call(address, "first", value=1) == 1  # a healthy pooled socket
        with caplog.at_level(logging.WARNING, logger="repro.tcp-server"):
            with connect(address) as sock:
                sock.sendall(hostile_frames(marker)[name])
                assert closed_by_server(sock), "the server must close, not answer"
        assert not marker.exists(), "the frame's pickle was executed"
        # The endpoint keeps serving: the old connection and a new one.
        assert transport.call(address, "first", value=2) == 2
        assert transport.probe(address, "first", 5.0, value=3) == 3
        records = [r for r in caplog.records if r.name == "repro.tcp-server"]
        assert len(records) == 1 and "closing connection" in records[0].getMessage()
        assert records[0].component == "tcp-server"
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("lengths", [(1 << 62, 0), (10, 1 << 62)])
    @pytest.mark.parametrize("into", [None, [memoryview(bytearray(64))]], ids=["plain", "into"])
    def test_absurd_length_allocates_nothing(self, lengths, into):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(HEADER.pack(*lengths) + b"0123456789")
            with pytest.raises(ProtocolError, match="frame claims"):
                tcp._recv_frame(right, into)

    @pytest.mark.parametrize("name", ["absurd-section-count", "absurd-section-total",
                                      "absurd-section-length"])
    @pytest.mark.parametrize("into", [None, [memoryview(bytearray(64))] * 3],
                             ids=["plain", "into"])
    def test_absurd_sections_allocate_nothing(self, name, into):
        """Refused on the header, or on the table (received with the 10 bytes
        of ``meta``): no section is asked of the socket, let alone allocated."""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(hostile_frames("unused")[name])
            spy = RecvSpy(right)
            with pytest.raises(ProtocolError, match="frame claims"):
                tcp._recv_frame(spy, into)
            assert sum(len(piece) for piece in spy.received) <= HEADER.size + 24 + 10
            assert not spy.destinations

    def test_clean_disconnect_between_frames_is_not_logged(self, served, caplog):
        transport, address, _ = served
        with caplog.at_level(logging.DEBUG, logger="repro"):
            with connect(address) as sock:
                sock.sendall(raw_frame(pickle.dumps(("first", {"value": 5}), protocol=5)))
                assert tcp._recv_frame(sock) == ("ok", 5)
            assert transport.call(address, "first", value=6) == 6
        assert not [r for r in caplog.records if r.name == "repro.tcp-server"]


class TestHostileServer:
    """The client trusts a server's frames no more than a server trusts its."""

    @pytest.mark.parametrize("with_into", [False, True], ids=["plain", "into"])
    @pytest.mark.parametrize("name", FRAME_NAMES)
    def test_bad_reply_is_an_unreachable_endpoint(self, name, with_into, tmp_path):
        marker = tmp_path / "executed"
        # ``missing-buffer`` promises 64 out-of-band bytes it never sends.
        hint = {"into": [memoryview(bytearray(64))]} if with_into else {}
        listener = socket.create_server(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def serve():
            for _ in range(2):  # the pooled call, then the probe
                conn, _peer = listener.accept()
                with conn:
                    tcp._recv_frame(conn)
                    conn.sendall(hostile_frames(marker)[name])

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        transport = TcpTransport(pool_size=2)
        try:
            with pytest.raises(EndpointUnreachableError) as caught:
                transport.call(address, "first", value=1, **hint)
            assert caught.value.endpoint == address
            assert transport._pool(address)._total == 0, "the socket must not be reused"
            with pytest.raises(EndpointUnreachableError):
                transport.probe(address, "first", 5.0, value=1)
        finally:
            transport.close()
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()
        assert not marker.exists(), "the reply's pickle was executed"


    @pytest.mark.parametrize("sent", [0, 1, OUT_OF_BAND_MIN, 3 * OUT_OF_BAND_MIN - 1])
    def test_connection_cut_mid_payload_discards_the_socket(self, sent):
        """The destination holds garbage afterwards; the caller is told so."""
        size = 3 * OUT_OF_BAND_MIN
        meta, [section] = tcp._encode("ok", [blob(size, 8)])
        listener = socket.create_server(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def serve():
            conn, _peer = listener.accept()
            with conn:
                tcp._recv_frame(conn)
                conn.sendall(HEADER.pack(len(meta), 1) + struct.pack(">Q", size)
                             + meta + bytes(section[:sent]))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        transport = TcpTransport(pool_size=2)
        try:
            with memoryview(bytearray(size)) as into:
                with pytest.raises(EndpointUnreachableError, match="closed mid-frame"):
                    transport.call(address, "first", into=[into], value=1)
            assert transport._pool(address)._total == 0, "the socket must not be reused"
        finally:
            transport.close()
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()

    def test_hostile_reply_sized_like_the_destination_runs_nothing(self, tmp_path):
        """A foreign global behind a section that does fit ``into``."""
        marker = tmp_path / "executed"
        size = OUT_OF_BAND_MIN
        meta = pickle.dumps(("ok", RunsACommand(f"touch {marker}")), protocol=5)
        left, right = socket.socketpair()
        with left, right, memoryview(bytearray(size)) as into:
            left.sendall(raw_frame(meta, b"z" * size))
            with pytest.raises(ProtocolError, match="not allowed in a frame"):
                tcp._recv_frame(right, [into])
        assert not marker.exists()
