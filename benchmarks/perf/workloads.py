"""The four workloads, each a closed loop over ``TcpDeployment``.

The two 32 MiB workloads keep their chunks in ``DiskChunkStore``; the two
small-file workloads use the deployment's default ``MemoryChunkStore``
(README, "Noise": at 1400-2000 chunk files a second the checkout's ext4 alone
moves their rate by a quarter).  Each class states the only ``StdchkConfig``
fields it changes; everything else is the shipped default.  ``block()`` is the timed section and returns
one :class:`~benchmarks.perf.harness.Sink` per client thread; ``cleanup()``
is untimed and removes what the block wrote (the harness follows it with two
GC rounds).  All inputs come from ``random.Random(seed).randbytes``.
"""

from __future__ import annotations

import itertools
import random
import threading
from pathlib import Path
from typing import Dict, List

from repro import StdchkConfig, TcpDeployment
from repro.benefactor.chunk_store import DiskChunkStore
from repro.manager.pruner import RetentionPruner
from repro.util.config import SimilarityHeuristic, WriteSemantics

from benchmarks.perf.harness import MIB, Sink

KIB = 1 << 10
BENEFACTORS = 4
IMAGE_BYTES = 32 * MIB


class Workload:
    """Builds the deployment and inputs; subclasses define the block."""

    name = ""
    why = ""
    #: Warm-up blocks run (and counted into ``setup_s``) before timing.
    warmup_blocks = 8
    #: Σ bytes_pushed / Σ bytes_written this workload is defined to give;
    #: anything else means it did not run as defined (dedup off, retries).
    net_bytes_per_user_byte = 1.0
    #: Chunks go to ``DiskChunkStore`` under ``root``; False keeps the
    #: deployment's default in-memory store.
    disk_store = True

    def __init__(self, seed: int, root: Path) -> None:
        self.rng = random.Random(seed)
        self.root = root
        self.make_inputs()
        counter = itertools.count()
        self.deployment = TcpDeployment(
            benefactor_count=BENEFACTORS,
            config=StdchkConfig(**self.config_fields()),
            store_factory=(lambda capacity: DiskChunkStore(
                str(root / f"benefactor-{next(counter)}"), capacity))
            if self.disk_store else None,
        )
        self.start()

    def config_fields(self) -> Dict[str, object]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Create clients (and whatever else the workload needs running)."""
        self.clients = [self._client("bench-client")]
        self.client = self.clients[0]

    def _client(self, client_id: str):
        return self.deployment.client(client_id, push_parallelism=2, read_parallelism=2)

    def prepare(self) -> None:
        """Untimed input preparation for the next block."""

    def block(self) -> List[Sink]:
        raise NotImplementedError

    def cleanup(self) -> bool:
        """Remove what the last block wrote; True when the pruner ran."""
        return False

    def sample_chunks(self) -> List[bytes]:
        """A few of this workload's own chunks (inputs of the SHA-1 probe)."""
        raise NotImplementedError

    def close(self) -> None:
        self.deployment.manager.close_persistence()
        self.deployment.close()


class StreamLarge(Workload):
    name = "stream_large"
    why = ("32 MiB incompressible images, 1 MiB chunks: session buffering, TCP framing "
           "and copies and the chunk store do the work; the manager sees 4 RPCs per image")

    def config_fields(self):
        return {"replication_level": 1}

    def make_inputs(self):
        self.images = [self.rng.randbytes(IMAGE_BYTES) for _ in range(2)]
        self.turn = 0

    def block(self):
        sink = Sink()
        image = self.images[self.turn % 2]
        self.turn += 1
        sink.write(self.client, "/stream/image", image)
        sink.read(self.client, "/stream/image", image)
        return [sink]

    def cleanup(self):
        self.client.delete("/stream/image")
        return False

    def sample_chunks(self):
        return [self.images[0][i * MIB:(i + 1) * MIB] for i in range(8)]


class IncrementalFsch(Workload):
    name = "incremental_fsch"
    why = ("successive versions differing in 8 of 32 chunks under FsCH: SHA-1, "
           "known-chunk lookup and get_existing_chunks do the work, transport moves a quarter")

    net_bytes_per_user_byte = 0.25

    def config_fields(self):
        return {"replication_level": 1,
                "similarity_heuristic": SimilarityHeuristic.FSCH}

    def make_inputs(self):
        self.image = bytearray(self.rng.randbytes(IMAGE_BYTES))

    def start(self):
        super().start()
        self.client.mkdir("/fsch", retention_kind="automated-replace", keep_last=1)
        self.pruner = RetentionPruner(self.deployment.manager)

    def prepare(self):
        for chunk in self.rng.sample(range(IMAGE_BYTES // MIB), 8):
            offset = chunk * MIB + self.rng.randrange(0, MIB - 4 * KIB)
            self.image[offset:offset + 4 * KIB] = self.rng.randbytes(4 * KIB)
        self.version = bytes(self.image)

    def block(self):
        sink = Sink()
        sink.write(self.client, "/fsch/image", self.version)
        sink.read(self.client, "/fsch/image", self.version)
        return [sink]

    def cleanup(self):
        self.pruner.run_once()
        return True

    def sample_chunks(self):
        return [bytes(self.image[i * MIB:(i + 1) * MIB]) for i in range(8)]


class DurableSmall(Workload):
    name = "durable_small"
    why = ("512 KiB files with every durability mechanism on (2 replicas pushed "
           "pessimistically, journal, standby, quorum 1): per-RPC cost, fsync and acks dominate")
    warmup_blocks = 4
    disk_store = False
    net_bytes_per_user_byte = 2.0
    files = 40

    def config_fields(self):
        return {"chunk_size": 64 * KIB, "replication_level": 2,
                "write_semantics": WriteSemantics.PESSIMISTIC,
                "journal_dir": str(self.root / "journal"),
                "journal_fsync_policy": "never",
                "replication_quorum": 1}

    def make_inputs(self):
        self.payloads = [self.rng.randbytes(512 * KIB) for _ in range(self.files)]

    def start(self):
        self.deployment.add_standby()
        super().start()

    def block(self):
        sink = Sink()
        client = self.client
        for index, payload in enumerate(self.payloads):
            path = f"/durable/f{index}"
            sink.write(client, path, payload)
            sink.meta(client.stat, path)
            sink.read(client, path, payload)
        for index in range(self.files):
            sink.meta(client.delete, f"/durable/f{index}")
        return [sink]

    def sample_chunks(self):
        return [self.payloads[0][i * 64 * KIB:(i + 1) * 64 * KIB] for i in range(8)]


class MetaStorm(Workload):
    name = "meta_storm"
    why = ("two clients, 4 KiB files: manager handlers, journal and per-RPC transport "
           "overhead are everything, data bytes nothing (fig 8's regime), HA off")
    warmup_blocks = 4
    disk_store = False
    files = 100
    threads = 2

    def config_fields(self):
        return {"stripe_width": 2, "replication_level": 1,
                "journal_dir": str(self.root / "journal"),
                "journal_fsync_policy": "never"}

    def make_inputs(self):
        self.payloads = [[self.rng.randbytes(4 * KIB) for _ in range(self.files)]
                         for _ in range(self.threads)]

    def start(self):
        self.clients = [self._client(f"bench-client-{i}") for i in range(self.threads)]

    def _storm(self, index: int, sink: Sink) -> None:
        client = self.clients[index]
        folder = f"/storm/t{index}"
        for number, payload in enumerate(self.payloads[index]):
            path = f"{folder}/f{number}"
            sink.write(client, path, payload)
            sink.meta(client.stat, path)
            sink.read(client, path, payload)
            if number % 10 == 9:
                sink.meta(client.listdir, folder)
        for number in range(self.files):
            sink.meta(client.delete, f"{folder}/f{number}")

    def block(self):
        sinks = [Sink() for _ in range(self.threads)]
        workers = [threading.Thread(target=self._storm, args=(i, sinks[i]))
                   for i in range(self.threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return sinks

    def sample_chunks(self):
        return self.payloads[0][:8]


WORKLOADS = {cls.name: cls for cls in (StreamLarge, IncrementalFsch, DurableSmall, MetaStorm)}
