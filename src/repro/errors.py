"""Exception hierarchy for the GUESSTIMATE reproduction.

Every error raised by the library derives from :class:`GuesstimateError`
so callers can catch library failures with a single ``except`` clause.
The hierarchy mirrors the subsystems: core programming model, runtime /
synchronizer, network substrate, specification checking, and the
evaluation kit.
"""

from __future__ import annotations


class GuesstimateError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Core programming-model errors
# ---------------------------------------------------------------------------


class SharedObjectError(GuesstimateError):
    """Problems creating, registering, or copying shared objects."""


class UnknownObjectError(SharedObjectError):
    """An operation referenced an object id that is not registered."""

    def __init__(self, unique_id: str):
        super().__init__(f"no shared object registered with id {unique_id!r}")
        self.unique_id = unique_id


class DuplicateObjectError(SharedObjectError):
    """A shared object with this unique id already exists."""

    def __init__(self, unique_id: str):
        super().__init__(f"shared object id {unique_id!r} already registered")
        self.unique_id = unique_id


class NotSubscribedError(SharedObjectError):
    """The machine has not joined the instance it tried to operate on."""

    def __init__(self, unique_id: str):
        super().__init__(
            f"this machine has not joined shared object {unique_id!r}; "
            "call join_instance first"
        )
        self.unique_id = unique_id


class OperationError(GuesstimateError):
    """Problems building or executing shared operations."""


class UnknownMethodError(OperationError):
    """CreateOperation named a method the shared class does not define."""

    def __init__(self, type_name: str, method_name: str):
        super().__init__(
            f"shared class {type_name!r} has no shared method {method_name!r}"
        )
        self.type_name = type_name
        self.method_name = method_name


class NonBooleanResultError(OperationError):
    """A shared method returned something other than a bool.

    The GUESSTIMATE model requires every shared operation to report
    success or failure; the runtime enforces this at execution time.
    """

    def __init__(self, method_name: str, result: object):
        super().__init__(
            f"shared method {method_name!r} must return bool, got "
            f"{type(result).__name__}"
        )
        self.method_name = method_name
        self.result = result


class IssueBlockedError(OperationError):
    """An operation was issued inside a blocked window.

    The runtime forbids issuing operations during the flush window
    [tBeginFlush, tEndFlush] and the update window
    [tBeginUpdate, tEndUpdate] (paper section 4).  Callers that cannot
    block should use ``Guesstimate.issue_when_possible`` which defers
    the issue until the window closes.
    """

    def __init__(self, window: str):
        super().__init__(f"operations cannot be issued during the {window} window")
        self.window = window


class ReadIsolationError(GuesstimateError):
    """Misuse of the BeginRead/EndRead protocol."""


# ---------------------------------------------------------------------------
# Runtime / synchronizer errors
# ---------------------------------------------------------------------------


class RuntimeFailure(GuesstimateError):
    """Internal synchronizer failures (protocol violations, bad state)."""


class NodeCrashedError(RuntimeFailure):
    """An API call was made on a node that has crashed or been removed."""

    def __init__(self, machine_id: str):
        super().__init__(f"machine {machine_id!r} is not running")
        self.machine_id = machine_id


# ---------------------------------------------------------------------------
# Network substrate errors
# ---------------------------------------------------------------------------


class NetworkError(GuesstimateError):
    """Problems in the simulated or real-time transport."""


class NotInMeshError(NetworkError):
    """A node sent or received on a mesh it has not joined."""

    def __init__(self, node_id: str, mesh_name: str):
        super().__init__(f"node {node_id!r} is not a member of mesh {mesh_name!r}")
        self.node_id = node_id
        self.mesh_name = mesh_name


class SerializationError(NetworkError):
    """A value could not be encoded for transport (or decoded back)."""


class TransportError(NetworkError):
    """Problems in the real socket transport (repro.transport)."""


class FrameError(TransportError):
    """A length-prefixed wire frame is malformed or oversized."""


class ClusterConfigError(TransportError):
    """A cluster.yaml deployment description is invalid or incomplete."""


class GatewayError(TransportError):
    """Problems in the HTTP/WebSocket service gateway (repro.gateway)."""


# ---------------------------------------------------------------------------
# Durability / storage errors
# ---------------------------------------------------------------------------


class StorageError(GuesstimateError):
    """Problems in the durability subsystem (WAL, snapshots, recovery)."""


class WalCorruptionError(StorageError):
    """The write-ahead log holds damage that cannot be safely dropped.

    Damage limited to the final records of the log (a torn append, a
    bit-flipped tail) is recovered from silently by truncation; this
    error means an *earlier* record is unreadable, i.e. committed
    history has been lost.
    """


# ---------------------------------------------------------------------------
# Simulation-kernel errors
# ---------------------------------------------------------------------------


class SimulationError(GuesstimateError):
    """Misuse of the discrete-event simulation kernel."""


class ClockMonotonicityError(SimulationError):
    """An event was scheduled in the past."""

    def __init__(self, now: float, when: float):
        super().__init__(f"cannot schedule at t={when} before now t={now}")
        self.now = now
        self.when = when


# ---------------------------------------------------------------------------
# Specification / verification errors
# ---------------------------------------------------------------------------


class SpecError(GuesstimateError):
    """Problems declaring or checking specifications."""


class ContractViolation(SpecError):
    """A runtime-checked contract failed during execution."""

    def __init__(self, kind: str, description: str, subject: str):
        super().__init__(f"{kind} violated on {subject}: {description}")
        self.kind = kind
        self.description = description
        self.subject = subject


# ---------------------------------------------------------------------------
# Evaluation-kit errors
# ---------------------------------------------------------------------------


class ExperimentError(GuesstimateError):
    """An experiment configuration is invalid or a run failed."""
