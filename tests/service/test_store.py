"""Tests for the persistent explanation store.

The store's contract: a valid entry is served byte-for-byte; anything
else — absent, expired, corrupt, truncated, stale-format — is deleted and
reported as a miss so the service recomputes it.
"""

import hashlib
import json
import sqlite3

import pytest

from repro.config import StoreConfig
from repro.service.store import (
    STORE_DB_NAME,
    STORE_FORMAT_VERSION,
    ExplanationStore,
)


def payload_for(index: int) -> dict:
    return {"format_version": 1, "key": f"k{index}", "value": index}


class FakeClock:
    """A manually advanced epoch clock for deterministic TTL tests."""

    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tamper(store, key: str, **columns) -> None:
    """Overwrite columns of *key*'s row behind the store's back."""
    sets = ", ".join(f"{name} = ?" for name in columns)
    with sqlite3.connect(str(store.path)) as conn:
        conn.execute(
            f"UPDATE explanations SET {sets} WHERE key = ?",
            (*columns.values(), key),
        )
        conn.commit()


@pytest.fixture()
def store(tmp_path):
    with ExplanationStore(tmp_path / "store") as s:
        yield s


class TestRoundTrip:
    def test_put_get(self, store):
        store.put("k1", payload_for(1))
        assert store.get("k1") == payload_for(1)
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_miss(self, store):
        assert store.get("absent") is None
        assert store.stats.misses == 1

    def test_overwrite(self, store):
        store.put("k1", payload_for(1))
        store.put("k1", payload_for(2))
        assert store.get("k1") == payload_for(2)
        assert len(store) == 1

    def test_persists_across_reopen(self, tmp_path):
        with ExplanationStore(tmp_path / "store") as first:
            first.put("k1", payload_for(1))
        with ExplanationStore(tmp_path / "store") as second:
            assert second.get("k1") == payload_for(1)

    def test_contains_does_not_touch_counters(self, store):
        store.put("k1", payload_for(1))
        assert store.contains("k1")
        assert not store.contains("absent")
        assert store.stats.hits == 0
        assert store.stats.misses == 0


class TestLRUEviction:
    def test_capacity_bound(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store", StoreConfig(max_entries=3), clock=clock
        )
        for index in range(5):
            clock.advance(1)
            store.put(f"k{index}", payload_for(index))
        assert len(store) == 3
        assert store.stats.evictions == 2
        # The two oldest-accessed entries are the ones evicted.
        assert store.get("k0") is None
        assert store.get("k1") is None
        assert store.get("k4") == payload_for(4)

    def test_get_refreshes_recency(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store", StoreConfig(max_entries=2), clock=clock
        )
        clock.advance(1)
        store.put("old", payload_for(0))
        clock.advance(1)
        store.put("new", payload_for(1))
        clock.advance(1)
        assert store.get("old") is not None  # touch: old is now most recent
        clock.advance(1)
        store.put("newest", payload_for(2))
        assert store.get("old") is not None
        assert store.get("new") is None


class TestTTL:
    def test_expired_entry_is_a_miss(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store",
            StoreConfig(ttl_seconds=60.0),
            clock=clock,
        )
        store.put("k1", payload_for(1))
        clock.advance(30)
        assert store.get("k1") == payload_for(1)
        clock.advance(61)
        assert store.get("k1") is None
        assert store.stats.expirations == 1
        assert len(store) == 0  # expired rows are deleted, not kept

    def test_no_ttl_never_expires(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(tmp_path / "store", clock=clock)
        store.put("k1", payload_for(1))
        clock.advance(10_000_000)
        assert store.get("k1") == payload_for(1)


class TestCorruption:
    def test_bit_flip_detected(self, store):
        store.put("k1", payload_for(1))
        text = json.dumps(payload_for(999))
        tamper(store, "k1", payload=text)
        assert store.get("k1") is None  # checksum mismatch, not wrong data
        assert store.stats.corruptions == 1
        assert len(store) == 0

    def test_truncated_payload_detected(self, store):
        store.put("k1", payload_for(1))
        tamper(store, "k1", payload='{"format_version": 1, "ke')
        assert store.get("k1") is None
        assert store.stats.corruptions == 1

    def test_stale_format_version_recomputed(self, store):
        store.put("k1", payload_for(1))
        tamper(store, "k1", format_version=STORE_FORMAT_VERSION + 1)
        assert store.get("k1") is None
        assert store.stats.corruptions == 1

    def test_corrupt_entry_can_be_rewritten(self, store):
        store.put("k1", payload_for(1))
        tamper(store, "k1", payload="garbage")
        assert store.get("k1") is None
        store.put("k1", payload_for(1))
        assert store.get("k1") == payload_for(1)


class TestBatchWrites:
    """put_many/get_many: one transaction per chunk, unchanged semantics."""

    def test_put_many_round_trip(self, store):
        n = store.put_many([(f"k{i}", payload_for(i)) for i in range(4)])
        assert n == 4
        assert store.stats.puts == 4
        for i in range(4):
            assert store.get(f"k{i}") == payload_for(i)

    def test_put_many_empty_is_noop(self, store):
        assert store.put_many([]) == 0
        assert store.stats.puts == 0

    def test_batch_eviction_matches_sequential(self, tmp_path):
        """Same clock, same keys: batch and sequential puts leave the
        identical surviving set and identical eviction count."""
        config = StoreConfig(max_entries=3)
        clock_a, clock_b = FakeClock(), FakeClock()
        sequential = ExplanationStore(
            tmp_path / "seq", config, clock=clock_a
        )
        batch = ExplanationStore(tmp_path / "batch", config, clock=clock_b)
        items = [(f"k{i}", payload_for(i)) for i in range(7)]
        for key, payload in items:
            sequential.put(key, payload)
        batch.put_many(items)
        assert sorted(batch.keys()) == sorted(sequential.keys())
        assert len(batch) == len(sequential) == 3
        assert batch.stats.evictions == sequential.stats.evictions == 4
        assert batch.stats.puts == sequential.stats.puts == 7
        sequential.close()
        batch.close()

    def test_batch_ttl_matches_sequential(self, tmp_path):
        """Rows written by put_many expire on the same schedule as put."""
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store", StoreConfig(ttl_seconds=60.0), clock=clock
        )
        store.put("seq", payload_for(0))
        store.put_many([("bat", payload_for(1))])
        clock.advance(30)
        assert store.get("seq") is not None
        assert store.get("bat") is not None
        clock.advance(61)
        assert store.get("seq") is None
        assert store.get("bat") is None
        assert store.stats.expirations == 2
        store.close()

    def test_get_many_hits_and_misses(self, store):
        store.put_many([("a", payload_for(1)), ("b", payload_for(2))])
        found = store.get_many(["a", "b", "absent", "gone"])
        assert found == {"a": payload_for(1), "b": payload_for(2)}
        assert store.stats.hits == 2
        assert store.stats.misses == 2

    def test_get_many_refreshes_recency(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store", StoreConfig(max_entries=2), clock=clock
        )
        clock.advance(1)
        store.put("old", payload_for(0))
        clock.advance(1)
        store.put("new", payload_for(1))
        clock.advance(1)
        assert "old" in store.get_many(["old"])  # touch refreshes LRU
        clock.advance(1)
        store.put("newest", payload_for(2))
        assert store.get("old") is not None
        assert store.get("new") is None
        store.close()

    def test_get_many_skips_expired(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(
            tmp_path / "store", StoreConfig(ttl_seconds=10.0), clock=clock
        )
        store.put("k", payload_for(1))
        clock.advance(11)
        assert store.get_many(["k"]) == {}
        assert store.stats.expirations == 1
        store.close()

    def test_put_many_persists_across_reopen(self, tmp_path):
        with ExplanationStore(tmp_path / "store") as first:
            first.put_many([("k1", payload_for(1)), ("k2", payload_for(2))])
        with ExplanationStore(tmp_path / "store") as second:
            assert second.get("k2") == payload_for(2)

    def test_put_many_recovers_from_corrupt_file(self, tmp_path):
        store = ExplanationStore(tmp_path / "store")
        store.put("k0", payload_for(0))
        # Simulate mid-run file damage: swap the connection for one whose
        # backing file has been replaced by garbage.
        store._conn.close()
        store.path.write_bytes(b"this is not a database")
        store._conn = sqlite3.connect(str(store.path))
        store.put_many([("k1", payload_for(1))])
        assert store.stats.recoveries == 1
        assert store.get("k1") == payload_for(1)
        assert list(tmp_path.glob("store/*.corrupt-*"))
        store.close()


#: Counter moves of one lookup of key "k", per state of its row.
ROW_STATES = {
    "valid": {"hits": 1},
    "absent": {"misses": 1},
    "ttl-expired": {"misses": 1, "expirations": 1},
    "stale-format": {"misses": 1, "corruptions": 1},
    "bad-checksum": {"misses": 1, "corruptions": 1},
    "undecodable-json": {"misses": 1, "corruptions": 1},
}
READ_COUNTERS = ("hits", "misses", "expirations", "corruptions")


def seed_row(store, clock, state: str) -> None:
    """Leave the row of key "k" in *state* (one of :data:`ROW_STATES`)."""
    if state == "absent":
        return
    store.put("k", payload_for(1))
    if state == "ttl-expired":
        clock.advance(61)
    elif state == "stale-format":
        tamper(store, "k", format_version=STORE_FORMAT_VERSION + 1)
    elif state == "bad-checksum":
        tamper(store, "k", checksum="0" * 64)
    elif state == "undecodable-json":
        text = '{"format_version": 1, "ke'
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        tamper(store, "k", payload=text, checksum=digest)


class TestOnePath:
    """get/put are one-key get_many/put_many: same result, same counters."""

    @pytest.mark.parametrize("state", list(ROW_STATES))
    def test_get_matches_get_many(self, tmp_path, state):
        reads = {
            "get": lambda store: store.get("k"),
            "get_many": lambda store: store.get_many(["k"]).get("k"),
        }
        outcomes = {}
        for name, read in reads.items():
            clock = FakeClock()
            with ExplanationStore(
                tmp_path / name, StoreConfig(ttl_seconds=60.0), clock=clock
            ) as store:
                seed_row(store, clock, state)
                before = store.stats
                payload = read(store)
                after = store.stats
                moved = {
                    counter: getattr(after, counter) - getattr(before, counter)
                    for counter in READ_COUNTERS
                }
                outcomes[name] = (payload, moved, len(store))
        assert outcomes["get"] == outcomes["get_many"]
        payload, moved, _ = outcomes["get"]
        assert payload == (payload_for(1) if state == "valid" else None)
        expected = dict.fromkeys(READ_COUNTERS, 0) | ROW_STATES[state]
        assert moved == expected

    def test_put_matches_put_many(self, tmp_path):
        writes = {
            "put": lambda store: store.put("k", payload_for(1)),
            "put_many": lambda store: store.put_many([("k", payload_for(1))]),
        }
        outcomes = {}
        for name, write in writes.items():
            clock = FakeClock()
            with ExplanationStore(
                tmp_path / name, StoreConfig(max_entries=1), clock=clock
            ) as store:
                store.put_many([("old", payload_for(0))])
                clock.advance(1)
                write(store)
                with sqlite3.connect(str(store.path)) as conn:
                    rows = conn.execute(
                        "SELECT * FROM explanations"
                    ).fetchall()
                outcomes[name] = (
                    rows, store.stats.puts, store.stats.evictions
                )
        assert outcomes["put"] == outcomes["put_many"]
        rows, puts, evictions = outcomes["put"]
        assert [row[0] for row in rows] == ["k"]
        assert (puts, evictions) == (2, 1)


class TestIntrospection:
    def test_keys_most_recent_first(self, tmp_path):
        clock = FakeClock()
        store = ExplanationStore(tmp_path / "store", clock=clock)
        for index in range(3):
            clock.advance(1)
            store.put(f"k{index}", payload_for(index))
        assert store.keys() == ["k2", "k1", "k0"]

    def test_hit_rate(self, store):
        store.put("k1", payload_for(1))
        store.get("k1")
        store.get("absent")
        assert store.stats.hit_rate == 0.5

    def test_db_file_location(self, tmp_path):
        store = ExplanationStore(tmp_path / "store")
        assert store.path == tmp_path / "store" / STORE_DB_NAME
        assert store.path.exists()
        store.close()
