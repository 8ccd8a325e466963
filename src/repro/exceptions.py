"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch everything coming from this package with a single except
clause while still being able to discriminate finer-grained failures::

    ReproError
    ├── SchemaError                # data shape violations
    ├── TokenizationError
    ├── DatasetError               # malformed / unloadable datasets
    ├── ModelNotFittedError
    ├── ExplanationError           # a record could not be explained
    ├── ConfigurationError         # invalid knobs (caller bug — never
    │                              #   swallowed by fault isolation)
    ├── MatcherTimeoutError        # guard: call exceeded the timeout
    ├── MatcherUnavailableError    # guard: circuit breaker is open
    ├── CheckpointError            # checkpoint journal missing/corrupt/
    │                              #   config mismatch on resume
    ├── ArtifactError              # saved model artifact missing/corrupt
    │   └── ArtifactMismatchError  #   fingerprint does not match weights
    ├── DeadlineExceededError      # request deadline passed mid-compute
    ├── BackendError               # matcher backend (remote or adapted)
    │   ├── BackendUnavailableError  # connection refused/lost, breaker open
    │   └── BackendProtocolError   # garbage frame / incompatible peer
    └── ServiceError               # explanation service: bad request,
        │                          #   queue full, or service closed
        ├── ServiceOverloadedError # admission control shed the request
        ├── RequestCancelledError  # every waiter abandoned the request
        └── ShardFailedError       # the shard computing the request died
            │                      #   and no live shard could absorb it
            └── HostLostError      # the whole host behind a shard is gone
                                   #   (replacement onto a standby pending)

Error taxonomy
--------------
Every class carries a stable, machine-readable ``code`` (a class
attribute, also available via :func:`error_code`).  The serving layer
stamps that code on JSONL / HTTP error responses, so clients dispatch on
``code`` — never on the human-readable message, which may change.

Every class also carries ``retryable``: whether an identical retry has a
reasonable chance of succeeding without operator intervention (the
failure was load- or liveness-shaped, not a caller bug).  Clients and
drills use it to decide between retrying and surfacing the error.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "TokenizationError",
    "DatasetError",
    "ModelNotFittedError",
    "ExplanationError",
    "ConfigurationError",
    "MatcherTimeoutError",
    "MatcherUnavailableError",
    "CheckpointError",
    "ArtifactError",
    "ArtifactMismatchError",
    "DeadlineExceededError",
    "BackendError",
    "BackendUnavailableError",
    "BackendProtocolError",
    "ServiceError",
    "ServiceOverloadedError",
    "RequestCancelledError",
    "ShardFailedError",
    "HostLostError",
    "error_code",
    "error_fields",
    "error_from_code",
    "is_retryable",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package.

    ``code`` is the stable machine-readable identity of the failure mode;
    subclasses override it.  Wire protocols (JSONL / HTTP) carry it
    verbatim so clients can dispatch without parsing messages.

    ``retryable`` marks failure modes where an identical retry can
    succeed on its own (a process restarted, load drained, a breaker
    closed).  Caller bugs and determinism violations are never retryable.
    """

    code = "internal"
    retryable = False


class SchemaError(ReproError):
    """A record, pair or dataset violates its declared schema."""

    code = "schema_error"


class TokenizationError(ReproError):
    """A token string could not be produced or parsed back."""

    code = "tokenization_error"


class DatasetError(ReproError):
    """A dataset is malformed, empty, or inconsistent with its labels."""

    code = "dataset_error"


class ModelNotFittedError(ReproError):
    """A matcher or surrogate model was used before being fitted."""

    code = "model_not_fitted"


class ExplanationError(ReproError):
    """An explanation could not be generated for the given record."""

    code = "explanation_error"


class ConfigurationError(ReproError):
    """Invalid experiment or component configuration."""

    code = "configuration_error"


class MatcherTimeoutError(ReproError):
    """A guarded matcher call did not return within the call timeout."""

    code = "matcher_timeout"
    retryable = True


class MatcherUnavailableError(ReproError):
    """The matcher guard's circuit breaker is open: calls fail fast
    instead of hammering a matcher that keeps failing."""

    code = "matcher_unavailable"
    retryable = True


class CheckpointError(ReproError):
    """A checkpoint journal is missing, corrupt, or belongs to a
    different experiment configuration."""

    code = "checkpoint_error"


class ArtifactError(ReproError):
    """A persisted model artifact is missing, unreadable, or fails its
    fingerprint check."""

    code = "artifact_error"


class ArtifactMismatchError(ArtifactError):
    """A persisted model artifact loaded cleanly but its stored
    ``matcher_fingerprint`` does not match the loaded weights.

    This is the stale/foreign-weights failure mode: the pickle on disk
    was tampered with, truncated-and-rewritten, or produced by a
    different code version.  Serving paths (shard startup, the backend
    server's ``--model-dir`` load) must *abort* on this instead of
    silently retraining or serving the mismatched weights — request
    keys, the explanation store and cross-shard routing are all keyed by
    the fingerprint, so serving under a wrong one corrupts caches.
    """

    code = "artifact_mismatch"


class BackendError(ReproError):
    """A matcher backend (remote or in-process adapter) failed."""

    code = "backend_error"


class BackendUnavailableError(BackendError):
    """The remote matcher backend cannot be reached: connection refused,
    the connection died mid-call, or the backend's circuit breaker is
    open (then ``guard_no_retry`` is set: the engine does not retry it).

    Retryable: the reference server is supervised externally and the
    client reconnects on its next call, so by the time a client retries
    the backend is typically back.
    """

    code = "backend_unavailable"
    retryable = True


class BackendProtocolError(BackendError):
    """The remote peer spoke garbage: bad magic, an oversized or
    truncated frame that decoded to nonsense, or an incompatible
    protocol version in the handshake.

    *Not* retryable — a peer that violates the framing once is either
    not a matcher server at all or from an incompatible build; retrying
    cannot fix a version skew.  The guard still counts the failure
    against the breaker, but does not burn retry attempts on it.
    """

    code = "backend_protocol"
    #: MatcherGuard honours this: fail fast, do not waste retries.
    guard_no_retry = True


class DeadlineExceededError(ReproError):
    """A request's deadline passed before its computation finished.

    Raised cooperatively — the prediction engine checks the ambient
    :class:`~repro.core.deadline.Deadline` between matcher chunks, so an
    expired request aborts without paying for the rest of its batch and
    without writing a partial store entry.
    """

    code = "deadline_exceeded"


class ServiceError(ReproError):
    """The explanation service rejected a request: the payload was
    malformed, the work queue was full, or the service is shut down."""

    code = "bad_request"


class ServiceOverloadedError(ServiceError):
    """Admission control shed the request: the queue is too deep or the
    estimated wait exceeds the configured bound.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    returns; the HTTP front-end forwards it as a ``Retry-After`` header
    on the 429 response.
    """

    code = "overloaded"
    retryable = True

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class RequestCancelledError(ServiceError):
    """Every waiter abandoned the request before a worker started it, so
    the service dropped it without computing."""

    code = "cancelled"
    retryable = True


class ShardFailedError(ServiceError):
    """The shard process computing this request died (crash, OOM kill or
    missed heartbeats) and the request could not be absorbed by a live
    shard.

    Always *retryable*: the request was never partially persisted, and by
    the time the client retries the supervisor has either restarted the
    shard or the router will assign a different one.  The HTTP front-end
    maps this to 503.
    """

    code = "shard_failed"
    retryable = True


class HostLostError(ShardFailedError):
    """The machine hosting a remote shard is unreachable: reconnect
    attempts (per-attempt timeout, capped jittered backoff) were
    exhausted, so the supervisor is replacing the shard id onto a
    configured standby host.

    Retryable like its parent — by the time the client retries, either
    the standby has adopted the shard or the partition healed and the
    supervisor reconnected.  The HTTP front-end maps this to 503 too,
    but with its own ``host_lost`` code so operators can tell a process
    crash from a machine loss in client-side logs.
    """

    code = "host_lost"
    retryable = True


def error_code(error: BaseException) -> str:
    """The stable wire code of *error* (``"internal"`` for foreign ones)."""
    code = getattr(error, "code", None)
    if isinstance(code, str) and code:
        return code
    return ReproError.code


def error_fields(error: BaseException) -> dict:
    """The fields of a failed wire response: ``ok``, ``error``, ``code``
    and, for :class:`ServiceOverloadedError`, ``retry_after``."""
    fields = {"ok": False, "error": str(error), "code": error_code(error)}
    if isinstance(error, ServiceOverloadedError):
        fields["retry_after"] = round(error.retry_after, 3)
    return fields


def error_from_code(
    code: object, message: str, retry_after: float | None = None
) -> ReproError | None:
    """The taxonomy error whose :func:`error_code` is *code*, or ``None``.

    The inverse of :func:`error_code` across a wire: ``"internal"``
    decodes to a plain :class:`ReproError`; an unknown code to ``None``,
    leaving the fallback to the caller.  A decoded
    :class:`ServiceOverloadedError` keeps *retry_after* when given.
    """
    cls = _BY_CODE.get(code) if isinstance(code, str) else None
    if cls is None:
        return None
    if retry_after is not None and issubclass(cls, ServiceOverloadedError):
        return cls(message, retry_after=retry_after)
    return cls(message)


def is_retryable(error: BaseException) -> bool:
    """Whether an identical retry of the failed request can succeed."""
    return bool(getattr(error, "retryable", False))


#: Wire code -> taxonomy class (every code is unique).
_BY_CODE = {
    cls.code: cls
    for cls in (globals()[name] for name in __all__)
    if isinstance(cls, type) and issubclass(cls, ReproError)
}
