"""Consistent-hash routing of request keys onto shards.

The sharded service must send equal request keys to the same shard —
that is what keeps in-flight coalescing and SQLite store locality
working after the single process splits into N.
A plain ``hash(key) % n`` would satisfy that only while the shard set
never changes; every shard death or ring resize would remap almost every
key and cold-start every partition.

:class:`HashRing` is the classic fix: each shard owns ``virtual_nodes``
pseudo-random positions on a 64-bit ring (SHA-256 of ``"shard:{id}#{v}"``),
and a key routes to the first shard position at or after the key's own
ring position.  Properties the serving layer relies on:

* **deterministic** — positions depend only on shard ids, never on
  process state, so a restarted router reproduces the same assignment
  and a shard's store partition stays warm across supervisor restarts;
* **stable under failure** — :meth:`assign` walks clockwise past dead
  shards, so only the keys owned by a dead shard move (to its ring
  successors), and they move *back* when the shard returns;
* **bounded movement** — adding or removing one shard relocates roughly
  ``1/n`` of the key space (covered by ``tests/service/test_router.py``).

Request keys are already SHA-256 hex digests
(:func:`repro.service.request.request_key`), so the key's ring position
is simply its leading 64 bits — no second hash needed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left

from repro.exceptions import ConfigurationError

__all__ = ["HashRing"]

#: Ring positions live in [0, 2**64).
_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


def _position(text: str) -> int:
    """A stable 64-bit ring position for *text*."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[: _RING_BITS // 4], 16)


def key_position(key: str) -> int:
    """The ring position of a request *key*.

    Keys produced by :func:`~repro.service.request.request_key` are
    SHA-256 hex already — their leading 16 hex digits are uniform on the
    ring.  Anything else (tests, ad-hoc keys) is hashed first.
    """
    if len(key) >= _RING_BITS // 4:
        try:
            return int(key[: _RING_BITS // 4], 16)
        except ValueError:
            pass
    return _position(key)


class HashRing:
    """A consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids, virtual_nodes: int = 64) -> None:
        self.shard_ids = tuple(shard_ids)
        if not self.shard_ids:
            raise ConfigurationError("HashRing needs at least one shard id")
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ConfigurationError(
                f"duplicate shard ids: {self.shard_ids}"
            )
        if virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = virtual_nodes
        points: list[tuple[int, int]] = []
        for shard_id in self.shard_ids:
            for replica in range(virtual_nodes):
                points.append(
                    (_position(f"shard:{shard_id}#{replica}"), shard_id)
                )
        # Ties (astronomically unlikely) resolve by shard id so the ring
        # is a pure function of its inputs.
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def owner(self, key: str) -> int:
        """The shard that owns *key* with every shard live."""
        return self._walk(key_position(key), live=None)

    def assign(self, key: str, live=None) -> int | None:
        """The live shard *key* routes to right now.

        *live* is the set of shard ids currently accepting work (``None``
        = all).  Dead shards are skipped clockwise, so a key fails over
        to its owner's ring successor and snaps back when the owner
        returns.  Returns ``None`` when no live shard exists — the
        caller's "ring degraded" path.
        """
        return self._walk(key_position(key), live=live)

    def preference(self, key: str) -> list[int]:
        """Every shard id in failover order for *key* (owner first).

        The order is the clockwise ring walk with duplicates removed —
        the same order :meth:`assign` realises as shards die one by one.
        """
        start = bisect_left(self._positions, key_position(key))
        seen: list[int] = []
        n = len(self._points)
        for step in range(n):
            shard_id = self._points[(start + step) % n][1]
            if shard_id not in seen:
                seen.append(shard_id)
                if len(seen) == len(self.shard_ids):
                    break
        return seen

    def _walk(self, position: int, live) -> int | None:
        if live is not None:
            live = set(live) & set(self.shard_ids)
            if not live:
                return None
        start = bisect_left(self._positions, position)
        n = len(self._points)
        for step in range(n):
            shard_id = self._points[(start + step) % n][1]
            if live is None or shard_id in live:
                return shard_id
        return None
