"""Serialization: dual explanations as JSON, matchers as fingerprinted
artifacts, content digests for both.

Explanations are review artifacts: they get attached to data-quality
tickets, diffed across model versions, and rendered later by someone who
cannot re-run the model.  This module round-trips a
:class:`~repro.core.explanation.DualExplanation` through plain JSON.

It also persists *trained matchers*: :func:`save_matcher` /
:func:`load_matcher` write a pickled artifact stamped with
:func:`matcher_fingerprint`, a stable content hash of the matcher's class
and learned parameters.  The serving layer (:mod:`repro.service`) keys its
explanation store on that fingerprint, so a cached explanation can never be
served for a model other than the one that produced it.  Finally,
:func:`pair_digest` and :func:`dual_digest` give canonical content hashes
of records and explanations (cache keys, store checksums, bit-identity
tests).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.core.explanation import DualExplanation, LandmarkExplanation
from repro.core.generation import GeneratedInstance
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.exceptions import (
    ArtifactError,
    ArtifactMismatchError,
    ExplanationError,
)
from repro.explainers.base import Explanation
from repro.matchers.base import EntityMatcher
from repro.text.tokenize import PrefixedToken

FORMAT_VERSION = 1

#: Format version of matcher artifacts written by :func:`save_matcher`.
MATCHER_FORMAT_VERSION = 1


def pair_to_dict(pair: RecordPair) -> dict:
    """*pair* as the JSON object explanations and request keys embed."""
    return {
        "attributes": list(pair.schema.attributes),
        "left": dict(pair.left),
        "right": dict(pair.right),
        "label": pair.label,
        "pair_id": pair.pair_id,
    }


def _pair_from_dict(payload: dict) -> RecordPair:
    schema = PairSchema(tuple(payload["attributes"]))
    return RecordPair(
        schema=schema,
        left=payload["left"],
        right=payload["right"],
        label=payload["label"],
        pair_id=payload["pair_id"],
    )


def _explanation_to_dict(explanation: Explanation) -> dict:
    return {
        "weights": [float(weight) for weight in explanation.weights],
        "intercept": explanation.intercept,
        "score": explanation.score,
        "model_probability": explanation.model_probability,
        "surrogate_probability": explanation.surrogate_probability,
        "n_samples": explanation.n_samples,
        "metadata": _jsonable(explanation.metadata),
    }


def _side_to_dict(side: LandmarkExplanation) -> dict:
    return {
        "landmark_side": side.landmark_side,
        "generation": side.generation,
        "tokens": [
            {"attribute": token.attribute, "position": token.position,
             "word": token.word}
            for token in side.instance.tokens
        ],
        "injected": list(side.instance.injected),
        "explanation": _explanation_to_dict(side.explanation),
    }


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _side_from_dict(payload: dict, pair: RecordPair) -> LandmarkExplanation:
    tokens = tuple(
        PrefixedToken(entry["attribute"], entry["position"], entry["word"])
        for entry in payload["tokens"]
    )
    instance = GeneratedInstance(
        pair=pair,
        landmark_side=payload["landmark_side"],
        generation=payload["generation"],
        tokens=tokens,
        injected=tuple(bool(flag) for flag in payload["injected"]),
    )
    explanation_payload = payload["explanation"]
    explanation = Explanation(
        feature_names=instance.feature_names,
        weights=np.array(explanation_payload["weights"], dtype=np.float64),
        intercept=explanation_payload["intercept"],
        score=explanation_payload["score"],
        model_probability=explanation_payload["model_probability"],
        surrogate_probability=explanation_payload["surrogate_probability"],
        n_samples=explanation_payload["n_samples"],
        metadata=dict(explanation_payload.get("metadata", {})),
    )
    return LandmarkExplanation(instance=instance, explanation=explanation)


def dual_to_dict(dual: DualExplanation) -> dict:
    """A JSON-serializable view of a dual explanation."""
    return {
        "format_version": FORMAT_VERSION,
        "pair": pair_to_dict(dual.pair),
        "left_landmark": _side_to_dict(dual.left_landmark),
        "right_landmark": _side_to_dict(dual.right_landmark),
    }


def dual_from_dict(payload: dict) -> DualExplanation:
    """Rebuild a :class:`DualExplanation` written by :func:`dual_to_dict`."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ExplanationError(
            f"unsupported explanation format version {version!r}; "
            f"expected {FORMAT_VERSION}"
        )
    pair = _pair_from_dict(payload["pair"])
    return DualExplanation(
        pair=pair,
        left_landmark=_side_from_dict(payload["left_landmark"], pair),
        right_landmark=_side_from_dict(payload["right_landmark"], pair),
    )


def save_explanation(dual: DualExplanation, path: str | Path) -> None:
    """Write a dual explanation to *path* as JSON."""
    Path(path).write_text(
        json.dumps(dual_to_dict(dual), indent=2, sort_keys=True),
        encoding="utf-8",
    )


def load_explanation(path: str | Path) -> DualExplanation:
    """Read a dual explanation previously written by :func:`save_explanation`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return dual_from_dict(payload)


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------


def _canonical_json(payload: dict) -> str:
    """The one canonical text rendering of a JSON-able payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pair_digest(pair: RecordPair) -> str:
    """A stable hex digest of a record pair's full content.

    Covers the schema, both entities, the label and the pair id (the id
    seeds the per-pair perturbation streams, so two pairs with equal values
    but different ids can legitimately explain differently).
    """
    blob = _canonical_json(pair_to_dict(pair)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def dual_digest(dual: DualExplanation) -> str:
    """A stable hex digest of a dual explanation's serialized content.

    Two explanations with equal digests are bit-identical through
    :func:`dual_to_dict` — the equality the service's store and the
    bit-identity tests rely on.
    """
    blob = _canonical_json(dual_to_dict(dual)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Matcher artifacts
# ---------------------------------------------------------------------------


def _canonical_state(value, depth: int = 0):
    """A hashable, order-independent view of a (trained) object graph.

    Numpy arrays are reduced to (dtype, shape, bytes); mappings and object
    ``__dict__``s are sorted by key, so the result does not depend on
    attribute insertion order.  Used to fingerprint matchers by *content*
    rather than by pickle byte stream.
    """
    if depth > 16:
        raise ArtifactError("matcher state is too deeply nested to fingerprint")
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return ("ndarray", str(contiguous.dtype), contiguous.shape,
                contiguous.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return (
            "mapping",
            tuple(
                (str(key), _canonical_state(item, depth + 1))
                for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("sequence", tuple(_canonical_state(item, depth + 1) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(item) for item in value)))
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    if hasattr(value, "__dict__"):
        cls = type(value)
        # Honor a class's own __getstate__ (e.g. the feature extractor
        # drops its volatile memo caches there) so the fingerprint covers
        # exactly the state an artifact would persist.
        state = vars(value)
        getstate = getattr(cls, "__getstate__", None)
        if getstate is not None and getstate is not getattr(
            object, "__getstate__", None
        ):
            candidate = value.__getstate__()
            if isinstance(candidate, Mapping):
                state = candidate
        return (
            f"{cls.__module__}.{cls.__qualname__}",
            _canonical_state(state, depth + 1),
        )
    return repr(value)


def remote_backend(matcher):
    """*matcher* if it is a :class:`~repro.backends.client.RemoteBackend`.

    Looked up in :data:`sys.modules`: an instance implies its module is
    loaded, so an in-process caller never imports the socket client.
    """
    client = sys.modules.get("repro.backends.client")
    if client is not None and isinstance(matcher, client.RemoteBackend):
        return matcher
    return None


def matcher_fingerprint(matcher: EntityMatcher) -> str:
    """A stable hex digest of a matcher's class and learned state.

    Two matcher objects with the same class and equal trained parameters
    fingerprint identically across processes; retraining on different data
    (or changing a hyper-parameter) changes the fingerprint.  The serving
    layer keys cached explanations on this digest.  A remote backend
    holds no weights: it is identified by the fingerprint its server
    advertised at handshake, so its keys equal a local deployment's.
    """
    if remote_backend(matcher) is not None:
        return matcher.capabilities().fingerprint
    cls = type(matcher)
    state = (f"{cls.__module__}.{cls.__qualname__}", _canonical_state(matcher))
    blob = pickle.dumps(state, protocol=4)
    return hashlib.sha256(blob).hexdigest()


def save_matcher(matcher: EntityMatcher, path: str | Path) -> str:
    """Persist a trained matcher to *path*; returns its fingerprint.

    The artifact embeds the fingerprint, which :func:`load_matcher`
    re-derives and verifies — a corrupted or tampered artifact fails to
    load instead of silently serving wrong probabilities.  A remote
    backend is refused: its weights live in the server's process.
    """
    if remote_backend(matcher) is not None:
        raise ArtifactError(
            "a remote backend holds no weights to save; save the matcher "
            "in the process that serves it"
        )
    fingerprint = matcher_fingerprint(matcher)
    envelope = {
        "format_version": MATCHER_FORMAT_VERSION,
        "class": f"{type(matcher).__module__}.{type(matcher).__qualname__}",
        "fingerprint": fingerprint,
        "matcher": matcher,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(envelope, protocol=4))
    return fingerprint


def load_matcher(
    path: str | Path,
    expected_fingerprint: str | None = None,
) -> EntityMatcher:
    """Load a matcher artifact written by :func:`save_matcher`.

    Raises :class:`~repro.exceptions.ArtifactError` when the file is
    missing, unreadable, or from an unsupported format version, and the
    sharper :class:`~repro.exceptions.ArtifactMismatchError` when the
    recomputed fingerprint disagrees with the one stored at save time —
    the stale/foreign-weights case serving paths must abort on rather
    than retrain over.  *expected_fingerprint*, when given, additionally
    pins the artifact to a specific model version (what a shard or
    backend server was told to serve) and mismatches raise the same
    :class:`ArtifactMismatchError`.
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no matcher artifact at {path}")
    try:
        envelope = pickle.loads(path.read_bytes())
    except Exception as error:
        raise ArtifactError(f"matcher artifact {path} is unreadable: {error}") from error
    if not isinstance(envelope, dict) or "matcher" not in envelope:
        raise ArtifactError(f"matcher artifact {path} has an unexpected layout")
    version = envelope.get("format_version")
    if version != MATCHER_FORMAT_VERSION:
        raise ArtifactError(
            f"matcher artifact {path} has format version {version!r}; "
            f"expected {MATCHER_FORMAT_VERSION}"
        )
    matcher = envelope["matcher"]
    recomputed = matcher_fingerprint(matcher)
    if recomputed != envelope.get("fingerprint"):
        raise ArtifactMismatchError(
            f"matcher artifact {path} fails its fingerprint check "
            f"(stored {envelope.get('fingerprint')!r}, recomputed "
            f"{recomputed!r}); refusing to serve from a corrupt model"
        )
    if expected_fingerprint is not None and recomputed != expected_fingerprint:
        raise ArtifactMismatchError(
            f"matcher artifact {path} holds a different model than "
            f"requested (artifact {recomputed!r}, expected "
            f"{expected_fingerprint!r}); refusing to serve stale weights"
        )
    return matcher
