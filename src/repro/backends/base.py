"""What a matcher server and its clients agree on at handshake.

Landmark explanations need exactly one model capability — *score a batch
of record pairs* — and that is :meth:`~repro.matchers.base.EntityMatcher.
predict_proba_columnar`.  A model too heavy to replicate per service
shard runs once behind a :class:`~repro.backends.server.MatcherServer`,
and each shard talks to it through a
:class:`~repro.backends.client.RemoteBackend`, which is itself an
:class:`~repro.matchers.base.EntityMatcher`: the engine and the service
take it like any other matcher.

The server advertises its :class:`BackendCapabilities` in every
handshake: the model's content :func:`~repro.core.serialize.
matcher_fingerprint` (request keys, caches and the explanation store are
keyed by it) and the largest batch one wire request may carry (the
client splits larger batches to it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Version of the backend wire protocol / capabilities contract.  A
#: remote peer advertising a different version is an incompatible build
#: and the handshake fails rather than limping along.
PROTOCOL_VERSION = 3

#: Default cap on rows per wire request a matcher server advertises.
#: Bounds a single frame's memory on both sides of a socket; the engine
#: already chunks at ``EngineConfig.batch_size`` (512), so this only
#: bites deliberately-large callers.
DEFAULT_MAX_BATCH_SIZE = 4096


@dataclass(frozen=True)
class BackendCapabilities:
    """What a matcher server advertised at handshake time.

    Immutable for the lifetime of the connection: the fingerprint is the
    identity every cache key downstream depends on, so a backend whose
    model changes must present as a *new* backend (the remote client
    refuses a reconnect handshake with a different fingerprint).
    """

    #: Content hash of the model (:func:`matcher_fingerprint`).
    fingerprint: str
    #: Largest row count one wire request may carry.
    max_batch_size: int
    #: Matcher class name, for logs and /healthz — never for dispatch.
    matcher_class: str = ""
    #: Wire/contract version (:data:`PROTOCOL_VERSION`).
    protocol_version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if not self.fingerprint:
            raise ConfigurationError("backend capabilities need a fingerprint")
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )

    def to_dict(self) -> dict:
        """A wire-friendly view (the handshake payload)."""
        return {
            "fingerprint": self.fingerprint,
            "max_batch_size": self.max_batch_size,
            "matcher_class": self.matcher_class,
            "protocol_version": self.protocol_version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BackendCapabilities":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            max_batch_size=int(payload["max_batch_size"]),
            matcher_class=str(payload.get("matcher_class", "")),
            protocol_version=int(payload.get("protocol_version", 0)),
        )
