"""The per-layer table of the traced run.

Metrics are named ``<module>.<what>``.  Three sources: span times from the
tracer, *probes* (isolated micro-measurements on the workload's own inputs)
and *counts* (exact counters read through public attributes).  A layer a
workload does not use reports 0.  Counts are per timed block, because a run
is as long as ``--seconds`` says and its number of blocks varies.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.core.chunk import Chunk, content_chunk_id

from benchmarks.perf import tracer
from benchmarks.perf.harness import MIB, BlockSample, Harness, Totals, peak_rss_bytes
from benchmarks.perf.stats import percentile

MANAGER_HANDLERS = ("create_session", "commit_session", "get_chunk_map",
                    "get_existing_chunks", "stat", "list_dir", "delete")

#: name -> (unit, better); the per_layer list of BENCHMARK.json mirrors this.
CATALOGUE: Dict[str, tuple] = {
    "client.proxy.write_file.p50_ms": ("ms", "lower"),
    "client.proxy.write_file.p99_ms": ("ms", "lower"),
    "client.proxy.read_file.p50_ms": ("ms", "lower"),
    "client.proxy.read_file.p99_ms": ("ms", "lower"),
    "client.proxy.meta_op.p50_ms": ("ms", "lower"),
    "client.session.self_ms_per_mib": ("ms/MiB", "lower"),
    "client.session.chunks_pushed": ("count/block", "lower"),
    "client.session.chunks_deduplicated": ("count/block", "higher"),
    "client.session.dedup_hit_ratio": ("ratio", "higher"),
    "client.write_protocols.asb_mbps": ("MB/s", "higher"),
    "client.read_path.self_ms_per_mib": ("ms/MiB", "lower"),
    "client.read_path.chunks_fetched": ("count/block", "lower"),
    "client.read_path.replica_fallbacks": ("count", "lower"),
    "core.chunk.sha1_ms_per_mib": ("ms/MiB", "lower"),
    "transport.tcp.call_self_ms_per_mib": ("ms/MiB", "lower"),
    "transport.tcp.call_self_us_per_rpc": ("us", "lower"),
    "transport.tcp.rpcs": ("count/block", "lower"),
    "transport.tcp.rpcs_per_client_op": ("ratio", "lower"),
    "transport.tcp.echo_rtt_us": ("us", "lower"),
    "benefactor.benefactor.put_chunk_self_us": ("us", "lower"),
    "benefactor.benefactor.get_chunk_self_us": ("us", "lower"),
    "benefactor.chunk_store.put_ms_per_mib": ("ms/MiB", "lower"),
    "benefactor.chunk_store.get_ms_per_mib": ("ms/MiB", "lower"),
    "benefactor.chunk_store.puts": ("count/block", "lower"),
    "benefactor.chunk_store.gets": ("count/block", "lower"),
    "benefactor.chunk_store.bytes_in": ("B/block", "lower"),
    "benefactor.chunk_store.bytes_out": ("B/block", "lower"),
    **{f"manager.manager.{method}_us": ("us", "lower") for method in MANAGER_HANDLERS},
    "manager.manager.rpcs_per_client_op": ("ratio", "lower"),
    "manager.persistence.append_us": ("us", "lower"),
    "manager.persistence.fsyncs_per_commit": ("ratio", "lower"),
    "manager.persistence.journal_bytes_per_op": ("B", "lower"),
    "manager.replication.shipper.offer_us": ("us", "lower"),
    "manager.replication.shipper.quorum_degrades": ("count", "lower"),
    "manager.garbage_collector.round_ms": ("ms", "lower"),
    "manager.garbage_collector.chunks_collected": ("count/block", "lower"),
    "manager.pruner.run_ms": ("ms", "lower"),
    **{f"{layer}.wall_share_pct": ("%", "lower") for layer in tracer.LAYERS},
    "harness.unattributed_share_pct": ("%", "lower"),
    "harness.trace_overhead_pct": ("%", "lower"),
    "harness.footprint_peak_mib": ("MiB", "lower"),
    "process.peak_rss_mib": ("MiB", "lower"),
    "process.threads_max": ("count", "lower"),
    "process.open_fds_max": ("count", "lower"),
    "process.calib_mbps": ("MB/s", "higher"),
}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class LayerProfile:
    """Folds each traced block's spans into per-layer samples, then drops them."""

    def __init__(self, recorder: tracer.Recorder) -> None:
        self.recorder = recorder
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.uncovered = 0.0
        self.wall = 0.0
        #: metric name -> one value per block
        self.per_block: Dict[str, List[float]] = defaultdict(list)
        #: metric name -> one value per span
        self.per_span: Dict[str, List[float]] = defaultdict(list)
        self.last_spans: List[tracer.Span] = []

    def on_block(self, sample: BlockSample) -> None:
        spans = self.recorder.drain()
        if not spans:
            return
        self.last_spans = spans
        # One sweep per client operation: its wall time is shared out among
        # the spans of its own request tree, wherever their threads ran.
        requests: Dict[int, List[tracer.Span]] = defaultdict(list)
        for span in spans:
            requests[span[tracer.REQUEST]].append(span)
        covered = 0.0
        for request, members in requests.items():
            root = next(s for s in members if s[tracer.ID] == request)
            for layer, seconds in tracer.exclusive_times(
                    members, (root[tracer.START], root[tracer.END])).items():
                self.exclusive[layer] += seconds
            covered += root[tracer.END] - root[tracer.START]
        # the clients' time between operations: loop, timing, thread start
        self.uncovered += sample.clients * sample.wall_s - covered
        self.wall += sample.clients * sample.wall_s

        own = tracer.self_times(spans)
        layer_self: Dict[str, float] = defaultdict(float)
        store = {"put": 0.0, "get": 0.0}
        calls = manager_rpcs = 0
        for span in spans:
            layer, name = span[tracer.LAYER], span[tracer.NAME]
            duration = span[tracer.END] - span[tracer.START]
            layer_self[layer] += own[span[tracer.ID]]
            if layer == "transport.tcp":
                calls += 1
            elif layer == "manager.manager":
                manager_rpcs += 1
                if name in MANAGER_HANDLERS:
                    self.per_span[f"manager.manager.{name}_us"].append(duration * 1e6)
            elif layer == "benefactor.benefactor" and name in ("put_chunk", "get_chunk"):
                self.per_span[f"benefactor.benefactor.{name}_self_us"].append(
                    own[span[tracer.ID]] * 1e6)
            elif layer == "benefactor.chunk_store":
                store[name] += duration
            elif layer == "manager.persistence":
                self.per_span["manager.persistence.append_us"].append(duration * 1e6)
            elif layer == "manager.replication.shipper":
                self.per_span["manager.replication.shipper.offer_us"].append(duration * 1e6)

        def per_mib(seconds: float, size: int) -> float:
            return seconds * 1e3 / (size / MIB) if size else 0.0

        block = self.per_block
        block["client.session.self_ms_per_mib"].append(
            per_mib(layer_self["client.session"], sample.bytes_written))
        block["client.read_path.self_ms_per_mib"].append(
            per_mib(layer_self["client.read_path"], sample.bytes_read))
        block["transport.tcp.call_self_ms_per_mib"].append(
            per_mib(layer_self["transport.tcp"], sample.bytes_pushed + sample.bytes_read))
        block["transport.tcp.call_self_us_per_rpc"].append(
            layer_self["transport.tcp"] * 1e6 / max(calls, 1))
        block["transport.tcp.rpcs"].append(calls)
        block["transport.tcp.rpcs_per_client_op"].append(calls / max(sample.ops, 1))
        block["manager.manager.rpcs_per_client_op"].append(manager_rpcs / max(sample.ops, 1))
        block["benefactor.chunk_store.put_ms_per_mib"].append(
            per_mib(store["put"], sample.store_bytes_in))
        block["benefactor.chunk_store.get_ms_per_mib"].append(
            per_mib(store["get"], sample.store_bytes_out))

    def shares(self) -> Dict[str, float]:
        """Percent of the clients' traced wall time per layer, plus ``unattributed``.

        Sums to 100: every instant of every client thread inside a timed block
        belongs to the deepest span of the operation it was running, or to none.
        """
        wall = self.wall or 1.0
        table = {layer: 100.0 * self.exclusive.get(layer, 0.0) / wall
                 for layer in tracer.LAYERS}
        table["unattributed"] = 100.0 * (
            self.uncovered + sum(seconds for layer, seconds in self.exclusive.items()
                                 if layer not in tracer.LAYERS)) / wall
        return table


def probe_sha1_ms_per_mib(chunks: Sequence[bytes], repeats: int = 20) -> float:
    """``content_chunk_id`` + ``Chunk.verify`` on the workload's own chunks."""
    samples = []
    for _ in range(repeats):
        for data in chunks:
            start = time.perf_counter()
            chunk_id = content_chunk_id(data)
            middle = time.perf_counter()
            Chunk(chunk_id=chunk_id, data=data).verify()
            end = time.perf_counter()
            samples += [(middle - start), (end - middle)]
    return statistics.median(samples) * 1e3 / (len(chunks[0]) / MIB)


def probe_echo_rtt_us(deployment, repeats: int = 300) -> float:
    """``has_chunk`` round trip on a warm pooled socket."""
    benefactor = deployment.benefactors[0]
    address = deployment.transport.bound_address(benefactor.address)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        deployment.transport.call(address, "has_chunk", chunk_id="perf-probe")
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples[repeats // 10:])


def per_layer(harness: Harness, totals: Totals, profile: LayerProfile,
              reference: Optional[Totals], calib_mbps: float) -> Dict[str, dict]:
    """Every metric of :data:`CATALOGUE` for one traced run."""
    values: Dict[str, float] = dict.fromkeys(CATALOGUE, 0.0)
    blocks = totals.blocks
    for kind in ("write_file", "read_file"):
        latencies = totals.latencies(kind)
        values[f"client.proxy.{kind}.p50_ms"] = _median(latencies)
        values[f"client.proxy.{kind}.p99_ms"] = percentile(latencies, 99)
    values["client.proxy.meta_op.p50_ms"] = _median(totals.latencies("meta_op"))

    pushed = totals.total("chunks_pushed")
    deduplicated = totals.total("chunks_deduplicated")
    values["client.session.chunks_pushed"] = pushed / len(blocks)
    values["client.session.chunks_deduplicated"] = deduplicated / len(blocks)
    values["client.session.dedup_hit_ratio"] = (
        totals.total("bytes_deduplicated") / totals.total("bytes_written"))
    values["client.write_protocols.asb_mbps"] = _median(totals.merged("asb_mbps"))

    values["client.read_path.chunks_fetched"] = totals.chunks_fetched / len(blocks)
    values["client.read_path.replica_fallbacks"] = totals.replica_fallbacks

    for name, samples in profile.per_block.items():
        values[name] = _median(samples)
    for name, samples in profile.per_span.items():
        values[name] = _median(samples)
    for layer, share in profile.shares().items():
        key = ("harness.unattributed_share_pct" if layer == "unattributed"
               else f"{layer}.wall_share_pct")
        values[key] = share

    values["benefactor.chunk_store.puts"] = sum(b.store_puts for b in blocks) / len(blocks)
    values["benefactor.chunk_store.gets"] = sum(b.store_gets for b in blocks) / len(blocks)
    values["benefactor.chunk_store.bytes_in"] = (
        sum(b.store_bytes_in for b in blocks) / len(blocks))
    values["benefactor.chunk_store.bytes_out"] = (
        sum(b.store_bytes_out for b in blocks) / len(blocks))

    values["manager.persistence.fsyncs_per_commit"] = _median(totals.fsyncs_per_commit)
    values["manager.persistence.journal_bytes_per_op"] = _median(totals.journal_bytes_per_op)
    values["manager.replication.shipper.quorum_degrades"] = (
        harness.deployment.manager.obs.counter("manager_quorum_degrades_total").value)
    values["manager.garbage_collector.round_ms"] = _median(totals.gc_round_ms)
    values["manager.garbage_collector.chunks_collected"] = _median(totals.gc_collected)
    values["manager.pruner.run_ms"] = _median(totals.prune_ms)

    values["core.chunk.sha1_ms_per_mib"] = probe_sha1_ms_per_mib(
        harness.workload.sample_chunks())
    values["transport.tcp.echo_rtt_us"] = probe_echo_rtt_us(harness.deployment)
    if reference is not None and reference.blocks:
        untraced = _median([b.ops / b.wall_s for b in reference.blocks])
        traced = _median([b.ops / b.wall_s for b in blocks])
        values["harness.trace_overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    values["harness.footprint_peak_mib"] = harness.footprint_peak / MIB
    values["process.peak_rss_mib"] = peak_rss_bytes() / MIB
    values["process.threads_max"] = harness.threads_max
    values["process.open_fds_max"] = harness.open_fds_max
    values["process.calib_mbps"] = calib_mbps
    return {name: {"value": float(values[name]), "unit": CATALOGUE[name][0]}
            for name in CATALOGUE}
