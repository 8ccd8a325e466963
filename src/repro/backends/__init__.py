"""Matcher backends: where predictions come from, decoupled from where
explanations are computed.

* :mod:`repro.backends.base` — the :class:`MatcherBackend` protocol,
  negotiated :class:`BackendCapabilities`, and the
  :class:`InProcessBackend` adapter over today's matchers;
* :mod:`repro.backends.protocol` — length-prefixed frames with
  out-of-order request ids;
* :mod:`repro.backends.client` — the pipelined, guard-protected
  :class:`RemoteBackend` socket client;
* :mod:`repro.backends.server` — the reference :class:`MatcherServer`
  behind the ``serve-matcher`` CLI.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_MAX_BATCH_SIZE": ".base",
    "PROTOCOL_VERSION": ".base",
    "BackendCapabilities": ".base",
    "BackendMatcher": ".base",
    "InProcessBackend": ".base",
    "MatcherBackend": ".base",
    "MatcherServer": ".server",
    "RemoteBackend": ".client",
    "RemoteBackendConfig": ".client",
    "as_backend": ".base",
    "parse_address": ".client",
})
