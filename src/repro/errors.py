"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the failure domain (graph construction, query
validation, index usage, ...) when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphBuildError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "GraphIOError",
    "QueryError",
    "QueryValidationError",
    "QueryVertexNotFoundError",
    "QueryEdgeNotFoundError",
    "BoundsError",
    "QueryFileError",
    "IndexError_",
    "IndexNotBuiltError",
    "StaleIndexError",
    "GraphMutationError",
    "CAPError",
    "CAPStateError",
    "SessionError",
    "ActionError",
    "LatencyConfigError",
    "DatasetError",
    "ExperimentError",
    "ResilienceError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "ServiceError",
    "SessionNotFoundError",
    "SessionEvictedError",
    "AdmissionError",
    "OverloadConfigError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "CheckpointError",
    "ProtocolError",
    "StorageError",
    "BasisFormatError",
    "AnalysisError",
    "LintUsageError",
    "LockOrderViolationError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library.

    Every class carries a stable machine-readable ``code`` (what the
    wire protocol and scripts switch on) and the class-level ``retryable``
    verdict.  This is their one declaration: a subclass that says nothing
    inherits both from its first base that does, and
    :mod:`repro.service.protocol` only reads the attributes when it
    serialises a failure.  ``tests/test_service_protocol_v2.py`` freezes
    the whole table, since clients switch on it.
    """

    code: str = "engine_error"
    retryable: bool = False


# --------------------------------------------------------------------------
# Graph substrate
# --------------------------------------------------------------------------
class GraphError(ReproError):
    """Base class for graph-substrate failures."""


class GraphBuildError(GraphError):
    """Raised when a graph cannot be assembled from the provided pieces.

    Typical causes: self loops, parallel edges in simple-graph mode, labels
    missing for some vertices, or inconsistent vertex ids.
    """


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex id the graph lacks."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge the graph lacks."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class GraphIOError(GraphError):
    """Raised when a graph cannot be parsed from or serialized to a file."""


class GraphMutationError(GraphError, ValueError):
    """Raised when an edge update cannot be applied to the data graph.

    Covers self loops, inserting an edge that already exists, and
    deleting an edge that does not — the same simplicity invariants
    :class:`~repro.graph.builder.GraphBuilder` enforces at build time,
    re-checked by :mod:`repro.updates` before any in-place mutation, so
    a refused update leaves the graph (and its epoch) untouched.
    """

    code = "graph_mutation_invalid"


# --------------------------------------------------------------------------
# BPH query model
# --------------------------------------------------------------------------
class QueryError(ReproError):
    """Base class for BPH-query failures."""


class QueryValidationError(QueryError):
    """Raised when a BPH query violates a structural invariant.

    BPH queries must be simple, connected, undirected graphs whose edges
    carry bounds ``[lower, upper]`` with ``1 <= lower <= upper``.
    """


class QueryVertexNotFoundError(QueryError, KeyError):
    """Raised when a query-vertex id is referenced but absent."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"query vertex {vertex!r} is not in the query")
        self.vertex = vertex


class QueryEdgeNotFoundError(QueryError, KeyError):
    """Raised when a query-edge is referenced but absent."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"query edge ({u!r}, {v!r}) is not in the query")
        self.edge = (u, v)


class BoundsError(QueryError, ValueError):
    """Raised for malformed ``[lower, upper]`` path-length bounds."""


class QueryFileError(QueryError, ValueError):
    """Raised when a textual query file cannot be parsed.

    Subclasses :class:`ValueError` so legacy callers that caught the
    untyped parse errors keep working; the stable ``code`` lets scripts
    and the wire protocol distinguish a malformed query file from other
    query failures.
    """

    code = "query_file_invalid"


# --------------------------------------------------------------------------
# Indexes (PML, CAP)
# --------------------------------------------------------------------------
class IndexError_(ReproError):
    """Base class for index failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class IndexNotBuiltError(IndexError_):
    """Raised when an index is queried before :meth:`build` completed."""


class StaleIndexError(IndexError_):
    """Raised when an index (or stored basis) describes an older graph epoch.

    The graph moved — :mod:`repro.updates` bumped
    :attr:`~repro.graph.graph.Graph.epoch` — and a derived structure
    (PML labels, a saved :class:`~repro.storage.basis.EngineBasis`) was
    not maintained to match.  Serving from it would silently return
    pre-mutation distances, so every epoch-checked read path raises this
    instead.  ``expected`` is the graph's current epoch, ``actual`` the
    epoch the stale structure was built at.
    """

    code = "stale_index"

    def __init__(
        self,
        what: str,
        expected: int | None = None,
        actual: int | None = None,
    ) -> None:
        detail = ""
        if expected is not None and actual is not None:
            detail = f" (graph epoch {expected}, index epoch {actual})"
        super().__init__(f"{what} is stale{detail}; rebuild or apply updates")
        self.expected = expected
        self.actual = actual


class CAPError(ReproError):
    """Base class for CAP-index failures."""


class CAPStateError(CAPError):
    """Raised when a CAP operation is invalid for the index's current state.

    Example: processing a query edge whose endpoints have not been added,
    or enumerating results while unprocessed edges remain in the pool.
    """


# --------------------------------------------------------------------------
# Visual session / actions
# --------------------------------------------------------------------------
class SessionError(ReproError):
    """Base class for visual-session failures."""

    code = "session_state"


class ActionError(SessionError):
    """Raised for malformed or out-of-order GUI actions."""

    code = "bad_action"


class LatencyConfigError(SessionError, ValueError):
    """Raised for invalid GUI latency-model parameters.

    Subclasses :class:`ValueError` for backward compatibility with
    callers that validated latency configuration generically; the stable
    ``code`` identifies the failure domain.
    """

    code = "latency_config_invalid"


# --------------------------------------------------------------------------
# Resilience (the Run deadline and the client's retries)
# --------------------------------------------------------------------------
class ResilienceError(ReproError):
    """Base class for the verdicts of a bound that ran out.

    A Run past its deadline and a client past its retry attempts raise a
    subclass; a session never returns a partial or different match set
    instead.
    """


class DeadlineExceededError(ResilienceError, TimeoutError):
    """Raised at a cooperative checkpoint once a
    :class:`~repro.utils.timing.Deadline` expires.

    Carries the phase that overran so callers (and the CLI, which maps this
    to exit code 3) can report *where* the budget went.
    """

    code = "deadline_exceeded"

    def __init__(self, context: str = "operation", limit: float | None = None) -> None:
        detail = f" (budget {limit:.3f}s)" if limit is not None else ""
        super().__init__(f"deadline exceeded during {context}{detail}")
        self.context = context
        self.limit = limit


class RetryExhaustedError(ResilienceError):
    """Raised when a :class:`~repro.service.client.RetryPolicy` runs out
    of attempts.

    ``last_error`` holds the final underlying exception (also chained as
    ``__cause__``); ``attempts`` is how many times the operation was tried.
    """

    code = "retry_exhausted"

    def __init__(self, operation: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"{operation} failed after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error


# --------------------------------------------------------------------------
# Multi-session service (see repro.service)
# --------------------------------------------------------------------------
class ServiceError(ReproError):
    """Base class for multi-session query-service failures."""


class SessionNotFoundError(ServiceError, KeyError):
    """Raised when a service operation references an unknown session id."""

    code = "session_not_found"

    def __init__(self, session_id: str) -> None:
        super().__init__(f"session {session_id!r} does not exist")
        self.session_id = session_id


class SessionEvictedError(ServiceError):
    """Raised when the referenced session was evicted by admission control.

    Distinct from :class:`SessionNotFoundError` so clients can tell a typo
    from a session the server reclaimed under memory pressure (the client
    should recreate the session and replay its formulation).
    """

    code = "session_evicted"
    retryable = True

    def __init__(self, session_id: str, reason: str = "memory pressure") -> None:
        super().__init__(f"session {session_id!r} was evicted ({reason})")
        self.session_id = session_id
        self.reason = reason


class AdmissionError(ServiceError):
    """Raised when the service refuses to admit (or grow) a session.

    The manager only admits work it can host within its session and
    CAP-entry budgets; when every other session is active (unevictable)
    and the budget is exhausted, creation is refused rather than letting
    one tenant push the process into swap.
    """

    code = "admission_refused"
    retryable = True


class OverloadConfigError(ServiceError, ValueError):
    """Raised for an invalid :class:`repro.service.OverloadPolicy`, or an
    invalid :class:`~repro.service.client.RetryPolicy` that backs off it.

    Watermarks must lie in ``(0, 1]`` and hints/depths must be
    non-negative; a policy that cannot be enforced is refused at
    construction, not discovered mid-shed.
    """

    code = "overload_config"


class ServiceOverloadedError(ServiceError):
    """Raised when backpressure sheds work instead of admitting it.

    Distinct from :class:`AdmissionError` (a hard refusal: the budget is
    exhausted and nothing will free it) — overload shedding is *transient*
    by construction: the service is past a configured watermark (open
    sessions, CAP-entry usage, in-flight requests) or draining for
    shutdown, and the condition clears as in-flight work completes.  The
    ``retry_after_ms`` hint tells well-behaved clients how long to back
    off before retrying; :class:`repro.service.client.ServiceClient`
    honors it through its :class:`~repro.service.client.RetryPolicy`.
    """

    code = "overloaded"
    retryable = True

    def __init__(
        self,
        message: str,
        reason: str = "overload",
        retry_after_ms: int = 50,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_ms = int(retry_after_ms)


class ServiceTimeoutError(ServiceError, TimeoutError):
    """Raised client-side when a service read/write exceeds its socket
    timeout.

    A hung or partitioned server must surface as a *typed, retryable*
    error instead of blocking the client forever; the bound comes from
    the :class:`~repro.service.client.ServiceClient` socket timeout.
    ``retryable`` mirrors the wire protocol's error-envelope hint so the
    client retry path treats local timeouts like remote shedding.
    """

    code = "service_timeout"
    retryable = True

    def __init__(self, operation: str, timeout_seconds: float | None) -> None:
        bound = (
            f" after {timeout_seconds:.1f}s" if timeout_seconds is not None else ""
        )
        super().__init__(f"service {operation!r} timed out{bound}")
        self.operation = operation
        self.timeout_seconds = timeout_seconds


class CheckpointError(ServiceError):
    """Raised when a session checkpoint cannot be captured or restored.

    Covers malformed serialized checkpoints (unknown fields, wrong
    format version) and restore-time contract violations (restoring over
    a live session id, replaying a checkpoint whose actions no longer
    apply).
    """

    code = "checkpoint_invalid"


class ProtocolError(ServiceError, ValueError):
    """Raised for malformed wire requests (bad JSON, unknown op, ...)."""

    code = "bad_request"


# --------------------------------------------------------------------------
# Engine-basis storage (see repro.storage)
# --------------------------------------------------------------------------
class StorageError(ServiceError):
    """Raised for engine-basis storage failures (see :mod:`repro.storage`).

    Covers backend misconfiguration (unknown backend name, a byte budget
    that cannot hold a single page), un-materializable bases (an oracle
    with no frozen label arrays to export), and on-disk basis directories
    that cannot be written.  Subclasses :class:`ServiceError` because the
    storage seam is wire-visible: ``serve --storage mmap`` surfaces these
    through the v2 error envelope.
    """

    code = "storage_error"


class BasisFormatError(StorageError):
    """Raised when an on-disk engine basis cannot be opened.

    A missing or unparsable ``meta.json``, an unsupported format version,
    or an array file whose dtype/shape disagrees with the manifest all
    land here — the basis directory is treated as untrusted input, never
    half-loaded.
    """

    code = "basis_format_invalid"


# --------------------------------------------------------------------------
# Static analysis / invariant checking (see repro.analysis)
# --------------------------------------------------------------------------
class AnalysisError(ReproError):
    """Base class for failures of the :mod:`repro.analysis` machinery."""

    code = "analysis_error"


class LintUsageError(AnalysisError, ValueError):
    """Raised for invalid lint-engine configuration (unknown rule ids,
    missing paths) — not for violations, which are data, not errors."""

    code = "lint_usage_invalid"


class LockOrderViolationError(AnalysisError):
    """Raised by the lock-order race detector when the acquisition graph
    recorded at runtime contains a cycle (a lock-order inversion).

    ``inversions`` holds the detector's
    :class:`~repro.analysis.lockorder.Inversion` records — each names the
    allocation sites forming the cycle and the thread that closed it.
    """

    code = "lock_order_inversion"

    def __init__(self, message: str, inversions: list | None = None) -> None:
        super().__init__(message)
        self.inversions = list(inversions or [])


# --------------------------------------------------------------------------
# Datasets / experiments
# --------------------------------------------------------------------------
class DatasetError(ReproError):
    """Raised when a named dataset configuration cannot be materialized."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""
