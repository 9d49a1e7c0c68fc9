"""Tracing: span parenting, worker propagation, RPC injection, span trees."""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro import StdchkPool
from repro.obs import SPAN_STORE, current_context, set_enabled, start_span, use_context
from repro.obs.tracing import (
    NO_SPAN,
    TRACE_KEY,
    SpanStore,
    TraceContext,
    extract,
    inject,
    new_id,
)


class TestIds:
    def test_ids_from_four_threads_are_distinct_16_digit_hex(self):
        """Drawn from one seeded generator, not one ``urandom`` syscall each."""
        batches = [[] for _ in range(4)]

        def draw(batch):
            batch.extend(new_id() for _ in range(25_000))

        threads = [threading.Thread(target=draw, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        ids = [identifier for batch in batches for identifier in batch]
        assert len(ids) == 100_000 == len(set(ids))
        assert all(re.fullmatch(r"[0-9a-f]{16}", identifier) for identifier in ids)

    def test_ids_cost_no_syscall(self, monkeypatch):
        def no_urandom(_count):
            raise AssertionError("new_id() went to the OS")

        monkeypatch.setattr("os.urandom", no_urandom)
        context = TraceContext(trace_id=new_id(), span_id=new_id())
        assert TraceContext.from_wire(context.to_wire()) == context


class TestSpans:
    def test_nested_spans_share_trace_and_link_parent(self):
        with start_span("outer") as outer:
            with start_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = {s.name: s for s in SPAN_STORE.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_exception_marks_span_error(self):
        with pytest.raises(ValueError):
            with start_span("doomed"):
                raise ValueError("boom")
        (span,) = SPAN_STORE.spans()
        assert span.status == "error"
        assert "ValueError" in span.error

    def test_context_restored_after_span(self):
        assert current_context() is None
        with start_span("a"):
            assert current_context() is not None
        assert current_context() is None

    def test_use_context_adopts_captured_context_in_worker(self):
        with start_span("root") as root:
            captured = current_context()
        seen = {}

        def worker():
            with use_context(captured):
                with start_span("child"):
                    seen["ctx"] = current_context()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["ctx"].trace_id == root.trace_id
        child = next(s for s in SPAN_STORE.spans() if s.name == "child")
        assert child.parent_id == root.span_id

    def test_use_context_none_is_noop(self):
        with use_context(None):
            assert current_context() is None

    def test_an_open_span_is_the_threads_context(self):
        with start_span("outer") as outer:
            assert current_context() is outer
            with use_context(TraceContext("t", "s")):
                assert current_context() == TraceContext("t", "s")
            assert current_context() is outer

    def test_disabled_spans_are_one_shared_scope(self):
        prior = set_enabled(False)
        try:
            assert start_span("a") is start_span("b") is NO_SPAN
            with start_span("a") as span:
                assert span is None
                assert current_context() is None
        finally:
            set_enabled(prior)
        assert SPAN_STORE.spans() == []


class TestWirePropagation:
    def test_inject_extract_roundtrip_pops_key(self):
        payload = {"x": 1}
        with start_span("op") as span:
            inject(payload)
            assert TRACE_KEY in payload
        ctx = extract(payload)
        assert TRACE_KEY not in payload
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id

    def test_extract_without_context_returns_none(self):
        assert extract({"x": 1}) is None

    def test_inject_without_context_is_noop(self):
        payload = {}
        inject(payload)
        assert payload == {}

    def test_from_wire_rejects_garbage(self):
        assert TraceContext.from_wire("nope") is None
        assert TraceContext.from_wire({"trace_id": ""}) is None
        assert TraceContext.from_wire(("a", "b", "c")) is None
        assert TraceContext.from_wire(("a", "")) is None

    def test_wire_form_is_a_pair_and_the_dict_form_still_parses(self):
        context = TraceContext("abc", "def")
        assert context.to_wire() == ("abc", "def")
        assert TraceContext.from_wire({"trace_id": "abc", "span_id": "def"}) == context
        assert TraceContext.from_wire(["abc", "def"]) == context


class TestSpanStore:
    def test_store_is_bounded(self):
        store = SpanStore(max_spans=4)
        for index in range(10):
            with start_span(f"s{index}", store=store):
                pass
        assert len(store) == 4

    def test_tree_nests_children_under_roots(self):
        store = SpanStore()
        with start_span("root", store=store) as root:
            with start_span("child", store=store):
                pass
        (tree,) = store.tree(root.trace_id)
        assert tree["name"] == "root"
        assert [child["name"] for child in tree["children"]] == ["child"]

    def test_dump_json_writes_file(self, tmp_path):
        store = SpanStore()
        with start_span("only", store=store):
            pass
        path = tmp_path / "spans.json"
        text = store.dump_json(str(path))
        decoded = json.loads(path.read_text())
        assert decoded == json.loads(text)
        assert decoded["spans"][0]["name"] == "only"


class TestPoolTraces:
    def test_write_and_read_produce_linked_component_spans(self, small_config):
        pool = StdchkPool(benefactor_count=3, config=small_config)
        client = pool.client()
        data = bytes(range(256)) * 1024  # 4 chunks at 64 KiB
        client.write_file("/app/ckpt.N0.T1", data)
        assert client.read_file("/app/ckpt.N0.T1") == data

        traces = SPAN_STORE.traces()
        roots = {s.name: s for s in SPAN_STORE.spans() if s.parent_id is None}
        assert {"client.write_file", "client.read_file"} <= set(roots)

        write_spans = traces[roots["client.write_file"].trace_id]
        components = {s.component for s in write_spans}
        assert {"client", "manager", "benefactor"} <= components
        # Every chunk push crossed the wire inside the write's trace.
        assert any(s.name == "rpc.server:put_chunks" for s in write_spans)
        assert all(s.status == "ok" for s in write_spans)

        read_spans = traces[roots["client.read_file"].trace_id]
        assert {"client", "manager", "benefactor"} <= {
            s.component for s in read_spans
        }
        assert any(s.name == "rpc.server:get_chunks" for s in read_spans)

    def test_parallel_read_workers_stay_in_the_read_trace(self, small_config):
        config = small_config.with_overrides(read_parallelism=4)
        pool = StdchkPool(benefactor_count=3, config=config)
        client = pool.client()
        data = b"z" * (6 * 64 * 1024)
        client.write_file("/app/ckpt.N0.T2", data)
        SPAN_STORE.clear()
        assert client.read_file("/app/ckpt.N0.T2") == data
        root = next(
            s for s in SPAN_STORE.spans() if s.name == "client.read_file"
        )
        # Six chunks on three benefactors are three frames, two chunks each.
        fetch_spans = [
            s for s in SPAN_STORE.spans() if s.name == "rpc.server:get_chunks"
        ]
        assert len(fetch_spans) == 3
        assert all(s.trace_id == root.trace_id for s in fetch_spans)
        assert sum(b.stats["gets"] for b in pool.benefactors.values()) == 6

    def test_untraced_maintenance_records_no_spans(self, small_config):
        pool = StdchkPool(benefactor_count=3, config=small_config)
        SPAN_STORE.clear()
        pool.run_maintenance_once()
        assert len(SPAN_STORE) == 0
