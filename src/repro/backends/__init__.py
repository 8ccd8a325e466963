"""Matcher backends: where predictions come from, decoupled from where
explanations are computed.

* :mod:`repro.backends.base` — the :class:`BackendCapabilities` a
  server advertises at handshake, and the protocol version;
* :mod:`repro.backends.protocol` — length-prefixed frames with
  out-of-order request ids;
* :mod:`repro.backends.client` — the pipelined, guard-protected
  :class:`RemoteBackend` socket client, an
  :class:`~repro.matchers.base.EntityMatcher` like any other;
* :mod:`repro.backends.server` — the reference :class:`MatcherServer`
  behind the ``serve-matcher`` CLI.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_MAX_BATCH_SIZE": ".base",
    "PROTOCOL_VERSION": ".base",
    "BackendCapabilities": ".base",
    "MatcherServer": ".server",
    "RemoteBackend": ".client",
    "RemoteBackendConfig": ".client",
    "parse_address": ".client",
})
