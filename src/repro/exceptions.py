"""Exception hierarchy for the stdchk reproduction.

All library errors derive from :class:`StdchkError` so callers can install a
single ``except`` clause around storage operations.  The hierarchy mirrors the
major subsystems: metadata management, benefactor storage, client sessions and
the file-system facade.
"""

from __future__ import annotations


class StdchkError(Exception):
    """Base class for every error raised by the stdchk reproduction."""


class ConfigurationError(StdchkError):
    """A configuration object is inconsistent or out of range."""


class NamingError(StdchkError):
    """A checkpoint file name does not follow the ``A.Ni.Tj`` convention."""


# --------------------------------------------------------------------------
# Metadata manager errors
# --------------------------------------------------------------------------
class ManagerError(StdchkError):
    """Base class for metadata-manager failures."""


class UnknownDatasetError(ManagerError):
    """The requested dataset (file) is not present in the manager metadata."""


class UnknownBenefactorError(ManagerError):
    """An operation referenced a benefactor that never registered."""


class NoBenefactorsAvailableError(ManagerError):
    """A stripe allocation could not find any online benefactor."""


class InsufficientSpaceError(ManagerError):
    """A space reservation exceeds the aggregate free space of the pool."""


class ReservationError(ManagerError):
    """A reservation was unknown, expired or already committed."""


class CommitConflictError(ManagerError):
    """A chunk-map commit conflicts with an already-committed version."""


class SessionCommittedError(CommitConflictError):
    """A retried commit named a session that already committed.

    Commit deletes the session; the version it made carries its id, and
    that version is what answers a retry naming its dataset and number.
    """


class ManagerUnavailableError(ManagerError):
    """The manager is offline (simulated manager failure)."""


class ManagerRecoveringError(ManagerError):
    """The manager is replaying its journal; retry once recovery completes.

    Raised instead of serving RPCs against half-restored state: clients and
    benefactors are expected to back off and retry, exactly as they would for
    a manager that is still booting.
    """


class NotPrimaryError(ManagerError):
    """The contacted manager is a standby replica, not the serving primary.

    Standbys apply the primary's shipped journal but refuse normal client
    and benefactor RPCs until promoted; callers are expected to re-resolve
    the active primary (``primary_address`` carries the standby's best hint
    when it has one, ``epoch`` the highest primary epoch it has observed)
    and retry there.
    """

    def __init__(self, message: str = "",
                 primary_address: "str | None" = None,
                 epoch: "int | None" = None) -> None:
        super().__init__(message)
        self.primary_address = primary_address
        self.epoch = epoch

    def __reduce__(self):
        # Keep the hints across pickling (TCP frames carry exceptions).
        return (type(self), (str(self), self.primary_address, self.epoch))


class StaleEpochError(ManagerError):
    """A replication call carried an epoch older than the receiver's.

    Raised by ``replicate_records``/``install_snapshot`` (and the ``fence``
    RPC) to a primary that was deposed: a newer primary exists under
    ``epoch``.  The deposed primary self-demotes on receipt instead of
    split-braining; ``primary_address`` carries the rejecting node's best
    hint at where the newer primary serves.
    """

    def __init__(self, message: str = "", epoch: int = 0,
                 primary_address: "str | None" = None) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.primary_address = primary_address

    def __reduce__(self):
        return (type(self), (str(self), self.epoch, self.primary_address))


class QuorumNotReachedError(ManagerError):
    """A mutating op could not collect its standby-ack quorum in time.

    With ``quorum_degrade="fail"`` the op is applied and locally durable but
    deliberately *not acknowledged*: the client sees this error and retries
    (idempotently) once replication heals — no acknowledged write can sit
    only on the primary.
    """

    def __init__(self, message: str = "", acked: int = 0,
                 required: int = 0) -> None:
        super().__init__(message)
        self.acked = acked
        self.required = required

    def __reduce__(self):
        return (type(self), (str(self), self.acked, self.required))


class JournalCorruptError(ManagerError):
    """A journal or snapshot file is unreadable beyond torn-tail damage."""


class JournalClosedError(ManagerError):
    """The journal was closed (manager handed over) and rejects appends.

    Raised when a straggler operation on a dead manager tries to write the
    journal a replacement manager has already recovered from.
    """


# --------------------------------------------------------------------------
# Benefactor errors
# --------------------------------------------------------------------------
class BenefactorError(StdchkError):
    """Base class for benefactor-side failures."""


class ChunkNotFoundError(BenefactorError):
    """The requested chunk is not stored on the contacted benefactor."""


class ChunkIntegrityError(BenefactorError):
    """A chunk's content does not match its content-addressed name."""


class BenefactorOfflineError(BenefactorError):
    """The benefactor is offline (owner reclaimed the machine or it crashed)."""


class StoreFullError(BenefactorError):
    """The benefactor's contributed space is exhausted."""


# --------------------------------------------------------------------------
# Client / session errors
# --------------------------------------------------------------------------
class ClientError(StdchkError):
    """Base class for client-proxy failures."""


class SessionStateError(ClientError):
    """An operation was attempted on a closed or not-yet-open session."""


class WriteFailedError(ClientError):
    """A write could not be completed even after retrying other benefactors."""


class ReadFailedError(ClientError):
    """A read could not be satisfied because chunks are unavailable."""


class ReplicationError(ClientError):
    """The requested replication level could not be achieved."""


# --------------------------------------------------------------------------
# File-system facade errors
# --------------------------------------------------------------------------
class FileSystemError(StdchkError):
    """Base class for the POSIX-like facade errors."""


class FileNotFoundInStdchkError(FileSystemError):
    """Path does not exist in the stdchk namespace."""


class FileExistsInStdchkError(FileSystemError):
    """Path already exists and exclusive creation was requested."""


class NotADirectoryError_(FileSystemError):
    """Path component used as a directory is a regular file."""


class IsADirectoryError_(FileSystemError):
    """A file operation was attempted on a directory."""


class InvalidFileModeError(FileSystemError):
    """The open() mode string is not supported by the facade."""


class FileHandleClosedError(FileSystemError):
    """I/O was attempted on a closed file handle."""


# --------------------------------------------------------------------------
# Transport errors
# --------------------------------------------------------------------------
class TransportError(StdchkError):
    """Base class for RPC/transport failures.

    Transport errors carry the ``endpoint`` (address) they originated from so
    that callers with many calls in flight — the parallel chunk pusher above
    all — can tell *which* benefactor failed and report it to the manager.
    """

    def __init__(self, message: str = "", endpoint: "str | None" = None) -> None:
        super().__init__(message)
        self.endpoint = endpoint

    def __reduce__(self):
        # Keep ``endpoint`` across pickling (TCP frames carry exceptions).
        return (type(self), (str(self), self.endpoint))


class EndpointUnreachableError(TransportError):
    """The remote endpoint did not answer (connection refused / timeout)."""


class ProtocolError(TransportError):
    """A malformed message was received."""


# --------------------------------------------------------------------------
# Simulation errors
# --------------------------------------------------------------------------
class SimulationError(StdchkError):
    """Base class for discrete-event simulation failures."""


class SimulationTimeError(SimulationError):
    """An event was scheduled in the past."""
