"""The matcher-backend protocol: decoupling explanations from placement.

Landmark explanations need exactly one model capability — *score a batch
of record pairs* — but until this module everything assumed the model
object lived in the calling process.  A :class:`MatcherBackend` abstracts
*where* that capability runs (it scores one payload shape, a
:class:`~repro.core.columnar.ColumnarPairBatch`; a caller holding pairs
wraps them with :func:`~repro.core.columnar.pairs_batch`):

* :class:`InProcessBackend` wraps any :class:`~repro.matchers.base.
  EntityMatcher` so today's matchers keep working unchanged (and stay
  bit-identical: the adapter adds no computation, only delegation);
* :class:`~repro.backends.client.RemoteBackend` speaks the
  length-prefixed socket protocol to a matcher server in another process
  or on another host, so N service shards can share one heavy model.

The :class:`~repro.core.engine.PredictionEngine` talks only to backends.
Capabilities are negotiated up front — :meth:`MatcherBackend.capabilities`
returns the model's content :func:`~repro.core.serialize.
matcher_fingerprint` (request keys, caches and the explanation store are
keyed by it) and the largest batch one call may carry (the engine clamps
its chunk width to it).  How a columnar batch is scored is the matcher's
own decision (:meth:`~repro.matchers.base.EntityMatcher.
predict_proba_columnar`), so it is not negotiated.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.columnar import ColumnarPairBatch, pairs_batch
from repro.data.records import RecordPair
from repro.exceptions import BackendError, ConfigurationError
from repro.matchers.base import EntityMatcher

#: Version of the backend wire protocol / capabilities contract.  A
#: remote peer advertising a different version is an incompatible build
#: and the handshake fails rather than limping along.
PROTOCOL_VERSION = 3

#: Default cap on rows per backend call when the backend itself does not
#: impose a tighter one.  Bounds a single frame's memory on both sides of
#: a socket; the engine already chunks at ``EngineConfig.batch_size``
#: (512), so this only bites deliberately-large callers.
DEFAULT_MAX_BATCH_SIZE = 4096


@dataclass(frozen=True)
class BackendCapabilities:
    """What a matcher backend negotiated at handshake time.

    Immutable for the lifetime of the connection: the fingerprint is the
    identity every cache key downstream depends on, so a backend whose
    model changes must present as a *new* backend (the remote client
    refuses a reconnect handshake with a different fingerprint).
    """

    #: Content hash of the model (:func:`matcher_fingerprint`).
    fingerprint: str
    #: Largest row count one scoring call may carry.
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


class MatcherBackend(ABC):
    """Where matcher predictions come from, as seen by the engine.

    The contract mirrors :class:`EntityMatcher`'s scoring surface —
    probabilities bit-identical to calling the underlying model directly,
    shape ``(n,)`` float64 — with placement, batching limits and
    transport failures hidden behind it.
    """

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Negotiated capabilities (connects lazily for remote backends)."""

    @abstractmethod
    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        """Match probabilities, one per row of a columnar batch.

        The one scoring method: pairs reach a backend as a
        :func:`~repro.core.columnar.pairs_batch`.
        """

    def health(self) -> dict:
        """Liveness view for /healthz: at least ``{"available": bool}``."""
        return {"available": True}

    def as_matcher(self) -> EntityMatcher:
        """An :class:`EntityMatcher`-shaped facade over this backend.

        Lets matcher-typed call sites (explainer constructors, eval
        helpers) accept a backend without knowing it.  In-process
        backends return the real matcher; remote ones return a
        :class:`BackendMatcher` proxy that cannot be ``fit``.
        """
        return BackendMatcher(self)

    def close(self) -> None:
        """Release transport resources (idempotent; no-op in-process)."""


class InProcessBackend(MatcherBackend):
    """Adapter presenting a live :class:`EntityMatcher` as a backend.

    Pure delegation: predictions flow straight through, so outputs are
    bit-identical to calling the matcher directly.  The fingerprint is
    computed lazily, on first :meth:`capabilities` call (so wrapping an
    unfitted matcher that is trained later — the eval flows — never
    bakes pre-training state into cache keys).

    Duck-typed on purpose: test doubles and counting/fault-injection
    shims that only implement ``predict_proba`` wrap exactly like real
    matchers; their batches are materialized, as :class:`EntityMatcher`'s
    default does.
    """

    def __init__(
        self,
        matcher,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
    ) -> None:
        if not callable(getattr(matcher, "predict_proba", None)):
            raise ConfigurationError(
                f"InProcessBackend wraps a matcher exposing predict_proba, "
                f"got {type(matcher).__name__}"
            )
        self.matcher = matcher
        self.max_batch_size = int(max_batch_size)
        self._capabilities: BackendCapabilities | None = None

    def capabilities(self) -> BackendCapabilities:
        if self._capabilities is None:
            # Late import: repro.core.engine imports this module, and
            # repro.core.serialize pulls the whole core package in.
            from repro.core.serialize import matcher_fingerprint

            self._capabilities = BackendCapabilities(
                fingerprint=matcher_fingerprint(self.matcher),
                max_batch_size=self.max_batch_size,
                matcher_class=type(self.matcher).__name__,
            )
        return self._capabilities

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        columnar = getattr(self.matcher, "predict_proba_columnar", None)
        if columnar is None:
            return self.matcher.predict_proba(batch.pairs())
        return columnar(batch)

    def as_matcher(self) -> EntityMatcher:
        return self.matcher


class BackendMatcher(EntityMatcher):
    """A matcher-shaped proxy over a backend (the remote case).

    Satisfies call sites that want an :class:`EntityMatcher` — the
    landmark explainer's constructor, ``predict_one`` conveniences —
    while routing every prediction through the backend.  Training is a
    placement decision the backend owner made; ``fit`` refuses.
    """

    def __init__(self, backend: MatcherBackend) -> None:
        self._backend = backend

    def fit(self, dataset) -> "BackendMatcher":
        raise BackendError(
            "a backend-served matcher cannot be trained through the proxy; "
            "train where the model lives and restart the backend"
        )

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return self._backend.predict_proba_columnar(pairs_batch(pairs))

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        return self._backend.predict_proba_columnar(batch)


def as_backend(matcher_or_backend) -> MatcherBackend:
    """Normalize to a backend: wrap bare matchers, pass backends through.

    Accepts anything ``predict_proba``-shaped, exactly as the engine
    always has (test doubles, wrapper shims), not just
    :class:`EntityMatcher` subclasses.
    """
    if isinstance(matcher_or_backend, MatcherBackend):
        return matcher_or_backend
    if callable(getattr(matcher_or_backend, "predict_proba", None)):
        return InProcessBackend(matcher_or_backend)
    raise ConfigurationError(
        f"expected a matcher (predict_proba) or MatcherBackend, got "
        f"{type(matcher_or_backend).__name__}"
    )
