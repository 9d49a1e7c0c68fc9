"""Configuration objects shared by the functional system and the simulator.

The paper exposes a small number of tunables to applications (section IV):
the write protocol, the write semantics (optimistic vs. pessimistic), the
replication level, the stripe width, the chunk size and the incremental-write
temporary-file size.  They are grouped here in a single validated dataclass so
that clients, the FS facade and the simulated deployments agree on defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.util.units import MiB


class WriteProtocol(enum.Enum):
    """The three write-optimized protocols of section IV.B."""

    #: Dump the full image to node-local storage, push after close().
    COMPLETE_LOCAL = "complete-local-write"
    #: Bounded temporary files pushed while the application keeps writing.
    INCREMENTAL = "incremental-write"
    #: Push straight from the in-memory write buffer, no local disk at all.
    SLIDING_WINDOW = "sliding-window"


class WriteSemantics(enum.Enum):
    """Commit semantics governing the durability/throughput tradeoff."""

    #: Return once the first replica is safely stored; replicate in background.
    OPTIMISTIC = "optimistic"
    #: Return only after the requested replication level is reached.
    PESSIMISTIC = "pessimistic"


class RetentionPolicyKind(enum.Enum):
    """Per-application-folder lifetime management scenarios (section IV.D)."""

    #: Keep every version of every timestep indefinitely.
    NO_INTERVENTION = "no-intervention"
    #: A newer checkpoint image makes the previous ones obsolete.
    AUTOMATED_REPLACE = "automated-replace"
    #: Purge images after a configurable age.
    AUTOMATED_PURGE = "automated-purge"


class SimilarityHeuristic(enum.Enum):
    """Heuristics for incremental-checkpoint similarity detection.

    The live write path dedups with FsCH only: chunks are named by content
    hash at the chunk size.  Content-based chunking (CbCH) is an analysis
    detector in :mod:`repro.similarity` (Tables 3-4), not a write-path mode.
    """

    NONE = "none"
    FSCH = "fixed-size-compare-by-hash"


@dataclass
class StdchkConfig:
    """Client- and system-level tunables with paper defaults.

    Defaults follow the prototype evaluated in section V: 1 MB chunks,
    stripe width of 4, sliding-window writes, optimistic commit with a
    replication level of 2, and FsCH-based incremental checkpointing disabled
    unless requested.
    """

    chunk_size: int = 1 * MiB
    stripe_width: int = 4
    write_protocol: WriteProtocol = WriteProtocol.SLIDING_WINDOW
    write_semantics: WriteSemantics = WriteSemantics.OPTIMISTIC
    replication_level: int = 2
    similarity_heuristic: SimilarityHeuristic = SimilarityHeuristic.NONE

    #: Incremental-write temporary-file size bound.
    incremental_file_size: int = 64 * MiB

    #: Pushes a client runs concurrently.  What is pushed is a *frame*: the
    #: chunks of one ``write`` call bound for one benefactor, at most a
    #: transfer unit (1 MiB) — one chunk at the default chunk size.  1 keeps
    #: the fully-synchronous data path (one RPC at a time); higher values
    #: overlap chunk production with propagation the way section IV.B
    #: describes ("as fast as the hardware allows").  Together with ``read_parallelism`` it sizes the one
    #: worker pool of a ``ClientProxy`` (``max`` of the two), so the bound
    #: holds across all the client's open sessions, not per session; the
    #: chunk a session's close flushes is pushed by the caller on top of it.
    #: A session keeps at most ``2 * push_parallelism`` frames submitted but
    #: not yet stored (the in-flight window), so every worker stays pipelined.
    push_parallelism: int = 1
    #: Fetches a client runs concurrently: frames (the chunks chosen from
    #: one benefactor, at most a transfer unit).  Every read fetches spans of
    #: frames planned at about one frame per fetcher: the span a read needs
    #: has this many fetchers, the calling thread included (it submits
    #: ``read_parallelism - 1`` tasks to the pool), a span read ahead this
    #: many pool tasks.  1 keeps the fully-synchronous read path (one RPC at
    #: a time; read-ahead still uses one pool worker); higher values overlap
    #: integrity verification and network transfer so restart reads exploit
    #: the striping the same way pipelined writes do.  Shares the client's
    #: worker pool with ``push_parallelism``: a bound across all the
    #: client's open readers, not per reader.  A stream reads spans of at
    #: most ``read_parallelism`` transfer units and holds two of them.
    read_parallelism: int = 1
    #: Client->manager placement acknowledgements are batched in groups of
    #: this many chunks (one ``put_chunks_ack`` transaction per batch).
    #: 0 disables mid-session acks entirely, preserving the paper's
    #: four-transactions-per-write profile (Figure 8).
    ack_batch_size: int = 0
    #: Persistent TCP connections kept per endpoint by the pooled transport;
    #: concurrent pushes beyond this share (and wait for) pooled sockets.
    transport_pool_size: int = 4

    #: Soft-state registration: benefactors are evicted after this silence.
    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 30.0

    #: Space reservations are garbage collected after this lease expires.
    reservation_lease: float = 300.0

    #: Directory holding the manager's write-ahead journal and snapshots.
    #: ``None`` keeps the historical volatile manager (no durability).
    journal_dir: Optional[str] = None
    #: When to fsync journal appends: ``"always"`` (every record),
    #: ``"commit"`` (durability points only: commit/abort/delete/prune —
    #: fsync flushes the whole journal prefix, so committed state is always
    #: crash-durable), or ``"never"`` (leave flushing to the OS).
    journal_fsync_policy: str = "commit"
    #: Take a snapshot (and truncate the journal) every this many records.
    snapshot_every_n_records: int = 4096

    #: Standby manager endpoints clients may fail over to.  Populated by the
    #: deployment helpers (``add_standby``); an empty tuple keeps the
    #: historical single-manager client with no retry layer.
    standby_endpoints: Tuple[str, ...] = field(default_factory=tuple)
    #: Journal records buffered by the primary's log shipper before a ship
    #: to the standbys.  1 ships synchronously (every record reaches the
    #: standbys before the mutating RPC returns); durable records (commit,
    #: abort, delete, …) always flush the buffer regardless.
    ship_batch_records: int = 1
    #: Standby acknowledgements a mutating manager op must collect before it
    #: is acknowledged to the client.  0 keeps the historical asynchronous
    #: best-effort shipping (an unshipped suffix dies with the primary and is
    #: recovered only by client session replay); >= 1 guarantees every
    #: acknowledged record survives on at least that many standbys.
    replication_quorum: int = 0
    #: How long one mutating op waits (retrying ships) for the quorum before
    #: the degrade policy applies.
    quorum_timeout: float = 2.0
    #: What to do when the quorum is unreachable within ``quorum_timeout``:
    #: ``"fail"`` raises :class:`~repro.exceptions.QuorumNotReachedError`
    #: toward the client (fail-fast — the op is applied and locally durable
    #: but deliberately not acknowledged), ``"async"`` falls back to
    #: best-effort shipping for that record with a metric/log breadcrumb.
    quorum_degrade: str = "fail"
    #: First retry delay of the client failover backoff (seconds); doubles
    #: per attempt up to ``failover_backoff_max``.
    failover_backoff_base: float = 0.05
    failover_backoff_max: float = 2.0
    #: Total budget for one manager RPC across retries and re-discovery;
    #: when exhausted the last manager error propagates to the caller.
    failover_deadline: float = 30.0
    #: Jitter fraction applied to each backoff delay (0 disables; 0.5 means
    #: delays are stretched by a uniform factor in [1.0, 1.5)).
    failover_jitter: float = 0.5
    #: Per-candidate connect/RPC budget of one re-discovery probe, so a
    #: single hung socket cannot consume the whole ``failover_deadline``.
    #: 0 disables the bound (historical behavior: probes share the caller's
    #: transport timeouts, which may be none at all).
    failover_probe_timeout: float = 1.0
    #: Minimum spacing between two automatic promotions by the
    #: :class:`~repro.manager.replication.FailoverSupervisor` — the flap
    #: damper: a primary bouncing in and out of ``dead`` cannot trigger a
    #: promotion storm.
    failover_cooldown: float = 5.0

    #: Trace budget of one client: the root operations (``write_file``,
    #: ``read_file``) per second each ``ClientProxy`` traces, paced by a token
    #: bucket on the client's clock that holds ``TRACE_BURST`` (32, in
    #: ``client/proxy.py``).  A root over budget is not traced at all — no
    #: span, no context, no ``__trace__`` in its frames, no server spans —
    #: unless it fails, which leaves one error span.  An operation inside an
    #: active trace context is always recorded as a child.  At ~14 spans per
    #: root the default keeps a busy client at ~110 spans/s, so the 8 192-span
    #: store holds over a minute of it, and a client below 8 operations per
    #: second (a periodic checkpointer, a test) is traced completely.  0
    #: traces nothing; ``math.inf`` traces every operation.
    trace_rate: float = 8.0

    #: Period of the cluster health monitor's probe loop (seconds).
    health_probe_interval: float = 1.0
    #: Silence (no successful health probe) after which a node is suspected.
    health_suspect_after: float = 3.0
    #: Silence after which a node is declared dead and ``on_transition``
    #: subscribers (the automatic-promotion groundwork) are notified.
    health_dead_after: float = 10.0

    #: Read-ahead of the FS facade (bytes): before every read a handle asks
    #: its reader for at least this much from its position, the range it
    #: reads included, fetched as a span on the client's worker pool; the
    #: read waits only for the frames holding its own chunks.  0 turns
    #: read-ahead off.
    read_ahead: int = 4 * MiB

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` when values are inconsistent."""
        if self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.stripe_width <= 0:
            raise ConfigurationError("stripe_width must be positive")
        if self.replication_level <= 0:
            raise ConfigurationError("replication_level must be positive")
        if self.incremental_file_size < self.chunk_size:
            raise ConfigurationError(
                "incremental_file_size must hold at least one chunk"
            )
        if self.push_parallelism <= 0:
            raise ConfigurationError("push_parallelism must be positive")
        if self.read_parallelism <= 0:
            raise ConfigurationError("read_parallelism must be positive")
        if self.ack_batch_size < 0:
            raise ConfigurationError("ack_batch_size must be non-negative")
        if self.transport_pool_size <= 0:
            raise ConfigurationError("transport_pool_size must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if self.journal_fsync_policy not in ("never", "commit", "always"):
            raise ConfigurationError(
                "journal_fsync_policy must be 'never', 'commit' or 'always'"
            )
        if self.snapshot_every_n_records <= 0:
            raise ConfigurationError("snapshot_every_n_records must be positive")
        if self.ship_batch_records <= 0:
            raise ConfigurationError("ship_batch_records must be positive")
        if self.replication_quorum < 0:
            raise ConfigurationError("replication_quorum must be non-negative")
        if self.quorum_timeout <= 0:
            raise ConfigurationError("quorum_timeout must be positive")
        if self.quorum_degrade not in ("fail", "async"):
            raise ConfigurationError(
                "quorum_degrade must be 'fail' or 'async'"
            )
        if self.failover_backoff_base <= 0:
            raise ConfigurationError("failover_backoff_base must be positive")
        if self.failover_backoff_max < self.failover_backoff_base:
            raise ConfigurationError(
                "failover_backoff_max must be at least failover_backoff_base"
            )
        if self.failover_deadline <= 0:
            raise ConfigurationError("failover_deadline must be positive")
        if self.failover_jitter < 0:
            raise ConfigurationError("failover_jitter must be non-negative")
        if self.failover_probe_timeout < 0:
            raise ConfigurationError(
                "failover_probe_timeout must be non-negative"
            )
        if self.failover_cooldown < 0:
            raise ConfigurationError("failover_cooldown must be non-negative")
        if not self.trace_rate >= 0:  # NaN too
            raise ConfigurationError("trace_rate must be non-negative")
        if self.health_probe_interval <= 0:
            raise ConfigurationError("health_probe_interval must be positive")
        if not (0 < self.health_suspect_after <= self.health_dead_after):
            raise ConfigurationError(
                "health_suspect_after must be positive and at most "
                "health_dead_after"
            )
        if self.read_ahead < 0:
            raise ConfigurationError("read_ahead must be non-negative")

    def with_overrides(self, **kwargs) -> "StdchkConfig":
        """Return a copy with ``kwargs`` replaced and re-validated."""
        return replace(self, **kwargs)


@dataclass
class BenefactorConfig:
    """Per-benefactor contribution settings."""

    contributed_space: int = 10 * 1024 * MiB
    node_id: Optional[str] = None
    #: Root directory for the disk-backed store; None selects the memory store.
    storage_root: Optional[str] = None

    def __post_init__(self) -> None:
        if self.contributed_space <= 0:
            raise ConfigurationError("contributed_space must be positive")


@dataclass
class RetentionConfig:
    """Retention policy attached to an application folder."""

    kind: RetentionPolicyKind = RetentionPolicyKind.NO_INTERVENTION
    #: For AUTOMATED_PURGE: images older than this many seconds are removed.
    purge_after: float = 3600.0
    #: For AUTOMATED_REPLACE: how many most-recent timesteps to keep.
    keep_last: int = 1

    def __post_init__(self) -> None:
        if self.purge_after <= 0:
            raise ConfigurationError("purge_after must be positive")
        if self.keep_last <= 0:
            raise ConfigurationError("keep_last must be positive")


DEFAULT_CONFIG = StdchkConfig()
