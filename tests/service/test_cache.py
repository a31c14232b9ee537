"""Tiered cache: LRU semantics, sharded disk persistence, integrity,
concurrency safety."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.service.cache import (
    MISS,
    ResultCache,
    TIER_CHARACTERIZATION,
    TIER_ESTIMATE,
    TIER_RG,
    cache_stamp,
    shard_of,
)
from repro.service.metrics import MetricsRegistry


def entry_path(root, key, tier=TIER_ESTIMATE):
    """Where the disk layer keeps one entry."""
    return root / f"shard-{shard_of(key):02d}" / tier / f"{key}.json"


class TestMemoryTier:
    def test_get_put_and_stats(self):
        cache = ResultCache(max_entries=4)
        assert cache.get(TIER_ESTIMATE, "k1") is MISS
        cache.put(TIER_ESTIMATE, "k1", {"v": 1})
        assert cache.get(TIER_ESTIMATE, "k1") == {"v": 1}
        stats = cache.stats()[TIER_ESTIMATE]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_tiers_are_isolated(self):
        cache = ResultCache()
        cache.put(TIER_RG, "k", "rg-value")
        assert cache.get(TIER_ESTIMATE, "k") is MISS
        assert cache.get(TIER_RG, "k") == "rg-value"
        with pytest.raises(KeyError):
            cache.get("nonsense", "k")

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(TIER_ESTIMATE, "a", 1)
        cache.put(TIER_ESTIMATE, "b", 2)
        cache.get(TIER_ESTIMATE, "a")  # refresh a; b is now LRU
        cache.put(TIER_ESTIMATE, "c", 3)
        assert cache.get(TIER_ESTIMATE, "a") == 1
        assert cache.get(TIER_ESTIMATE, "b") is MISS
        assert cache.stats()[TIER_ESTIMATE]["evictions"] == 1

    def test_metrics_integration(self):
        registry = MetricsRegistry()
        cache = ResultCache(metrics=registry)
        cache.get(TIER_ESTIMATE, "k")
        cache.put(TIER_ESTIMATE, "k", 1)
        cache.get(TIER_ESTIMATE, "k")
        counter = registry.get("repro_cache_requests_total")
        assert counter.value(tier=TIER_ESTIMATE, result="miss") == 1
        assert counter.value(tier=TIER_ESTIMATE, result="hit") == 1


class TestDiskTier:
    def test_persistence_survives_a_new_cache_instance(self, tmp_path):
        first = ResultCache(persist_dir=str(tmp_path))
        first.put(TIER_ESTIMATE, "key1", {"mean": 1.5}, payload={"mean": 1.5})
        second = ResultCache(persist_dir=str(tmp_path))
        assert second.get(TIER_ESTIMATE, "key1") == {"mean": 1.5}
        assert second.stats()[TIER_ESTIMATE]["disk_hits"] == 1
        # Promoted to memory: the next lookup is a memory hit.
        assert second.get(TIER_ESTIMATE, "key1") == {"mean": 1.5}
        assert second.stats()[TIER_ESTIMATE]["hits"] == 1

    def test_revive_rebuilds_live_objects(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        cache.put(TIER_ESTIMATE, "k", None, payload={"x": 2})
        cache.clear_memory()
        value = cache.get(TIER_ESTIMATE, "k",
                          revive=lambda payload: payload["x"] * 10)
        assert value == 20

    def test_no_payload_means_memory_only(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        cache.put(TIER_RG, "k", object())
        assert not entry_path(tmp_path, "k", TIER_RG).exists()

    def test_stale_stamp_invalidates_and_removes(self, tmp_path):
        old = ResultCache(persist_dir=str(tmp_path), stamp="v1:old-rev")
        old.put(TIER_ESTIMATE, "k", 1, payload=1)
        path = entry_path(tmp_path, "k")
        assert path.exists()
        new = ResultCache(persist_dir=str(tmp_path), stamp="v1:new-rev")
        assert new.get(TIER_ESTIMATE, "k") is MISS
        assert not path.exists()  # stale entry cleaned up

    def test_torn_or_foreign_files_read_as_miss(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        for key, text in (("torn", '{"stamp": "x", "pay'),
                          ("foreign", json.dumps([1, 2, 3]))):
            path = entry_path(tmp_path, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert cache.get(TIER_ESTIMATE, "torn") is MISS
        assert cache.get(TIER_ESTIMATE, "foreign") is MISS

    def test_default_stamp_is_versioned(self):
        assert cache_stamp().startswith("v")


class TestConcurrency:
    def test_parallel_writers_never_tear_disk_entries(self, tmp_path):
        """Many threads rewriting the same key: readers always see a
        complete, valid JSON document (atomic temp-file + replace)."""
        cache = ResultCache(persist_dir=str(tmp_path))
        payload = {"blob": "x" * 4096}
        n_writers, rounds = 8, 30
        errors = []
        start = threading.Barrier(n_writers + 1)

        def writer():
            start.wait()
            for round_index in range(rounds):
                cache.put(TIER_ESTIMATE, "contested",
                          {"round": round_index},
                          payload=dict(payload, round=round_index))

        def reader():
            start.wait()
            path = entry_path(tmp_path, "contested")
            seen = 0
            while seen < rounds * 2:
                seen += 1
                if not path.exists():
                    continue
                try:
                    with open(path) as handle:
                        document = json.load(handle)
                except json.JSONDecodeError as exc:
                    errors.append(exc)
                    return
                if document["payload"]["blob"] != payload["blob"]:
                    errors.append(AssertionError("partial payload"))
                    return

        threads = ([threading.Thread(target=writer)
                    for _ in range(n_writers)]
                   + [threading.Thread(target=reader)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No temp files left behind.
        leftovers = [
            name for name in os.listdir(entry_path(tmp_path,
                                                   "contested").parent)
            if name.endswith(".tmp")]
        assert leftovers == []
        # And the final entry is complete and current.
        cache.clear_memory()
        final = cache.get(TIER_ESTIMATE, "contested")
        assert final["blob"] == payload["blob"]

    def test_parallel_distinct_writers_all_land(self, tmp_path):
        cache = ResultCache(max_entries=512, persist_dir=str(tmp_path))
        n_threads, per_thread = 8, 25

        def writer(thread_index):
            for item in range(per_thread):
                key = f"k-{thread_index}-{item}"
                cache.put(TIER_ESTIMATE, key, item, payload=item)

        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.clear_memory()
        for thread_index in range(n_threads):
            for item in range(per_thread):
                assert cache.get(
                    TIER_ESTIMATE, f"k-{thread_index}-{item}") == item


class TestIntegrity:
    """Checksummed disk entries: tampering is detected, quarantined,
    and answered with a MISS — never with corrupt data."""

    def _edit_entry(self, tmp_path, mutate):
        path = entry_path(tmp_path, "k")
        document = json.loads(path.read_text())
        mutate(document)
        path.write_text(json.dumps(document))

    def test_tampered_payload_fails_checksum_and_quarantines(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        cache.put(TIER_ESTIMATE, "k", {"mean": 1.0}, payload={"mean": 1.0})
        self._edit_entry(tmp_path, lambda doc: doc["payload"].update(
            mean=2.0))  # flip a number, keep valid JSON
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, "k") is MISS
        assert cache.stats()[TIER_ESTIMATE]["corruptions"] == 1
        quarantine = tmp_path / "quarantine"
        assert quarantine.exists()
        quarantined = list(quarantine.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(f"{TIER_ESTIMATE}.k.")
        # The original slot is free for a clean recompute.
        assert not entry_path(tmp_path, "k").exists()
        cache.put(TIER_ESTIMATE, "k", {"mean": 1.0}, payload={"mean": 1.0})
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, "k") == {"mean": 1.0}

    def test_stale_stamp_is_dropped_not_quarantined(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        cache.put(TIER_ESTIMATE, "k", {"v": 1}, payload={"v": 1})
        self._edit_entry(tmp_path, lambda doc: doc.update(
            stamp="other-revision"))
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, "k") is MISS
        assert cache.stats()[TIER_ESTIMATE]["corruptions"] == 0
        assert not (tmp_path / "quarantine").exists()

    def test_injected_torn_write_is_caught_on_read(self, tmp_path):
        from repro.service.faults import (
            FaultInjector, FaultRule, SITE_CACHE_WRITE)

        faults = FaultInjector({SITE_CACHE_WRITE: FaultRule(1.0, 1)})
        cache = ResultCache(persist_dir=str(tmp_path), faults=faults)
        cache.put(TIER_ESTIMATE, "k", {"v": 1}, payload={"v": 1})  # torn
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, "k") is MISS  # detected, not trusted
        assert cache.stats()[TIER_ESTIMATE]["corruptions"] == 1
        cache.put(TIER_ESTIMATE, "k", {"v": 1}, payload={"v": 1})  # clean
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, "k") == {"v": 1}

    def test_injected_read_corruption_quarantines(self, tmp_path):
        from repro.service.faults import (
            FaultInjector, FaultRule, SITE_CACHE_READ)

        clean = ResultCache(persist_dir=str(tmp_path))
        clean.put(TIER_ESTIMATE, "k", {"v": 1}, payload={"v": 1})
        faults = FaultInjector({SITE_CACHE_READ: FaultRule(1.0, 1)})
        cache = ResultCache(persist_dir=str(tmp_path), faults=faults,
                            metrics=(registry := MetricsRegistry()))
        assert cache.get(TIER_ESTIMATE, "k") is MISS
        counter = registry.get("repro_cache_corruptions_total")
        assert counter.value(tier=TIER_ESTIMATE) == 1

    def test_checksum_is_key_order_independent(self):
        from repro.service.cache import payload_checksum

        assert (payload_checksum({"a": 1, "b": 2})
                == payload_checksum({"b": 2, "a": 1}))
        assert (payload_checksum({"a": 1})
                != payload_checksum({"a": 2}))


def _writer_main(persist_dir, writer_index, n_keys):
    """Child-process body for the cross-process writer test."""
    cache = ResultCache(persist_dir=persist_dir, stamp="v2:test")
    for item in range(n_keys):
        key = f"proc-{writer_index}-{item}"
        cache.put(TIER_ESTIMATE, key, {"v": item},
                  payload={"v": item, "writer": writer_index})


class TestShardedCache:
    def test_round_trip_lands_in_shard_directories(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        keys = [f"key-{index}" for index in range(16)]
        for index, key in enumerate(keys):
            cache.put(TIER_ESTIMATE, key, {"v": index},
                      payload={"v": index})
        cache.clear_memory()
        for index, key in enumerate(keys):
            assert cache.get(TIER_ESTIMATE, key) == {"v": index}
            assert entry_path(tmp_path, key).exists()
        # 16 hash-distributed keys use more than one shard.
        assert len({shard_of(key) for key in keys}) > 1

    def test_persistence_across_instances(self, tmp_path):
        first = ResultCache(persist_dir=str(tmp_path))
        first.put(TIER_ESTIMATE, "k", {"mean": 2.5}, payload={"mean": 2.5})
        second = ResultCache(persist_dir=str(tmp_path))
        assert second.get(TIER_ESTIMATE, "k") == {"mean": 2.5}

    def test_concurrent_writers_across_processes(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        n_writers, per_writer = 4, 20
        processes = [
            context.Process(target=_writer_main,
                            args=(str(tmp_path), index, per_writer))
            for index in range(n_writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        reader = ResultCache(persist_dir=str(tmp_path), stamp="v2:test")
        for writer_index in range(n_writers):
            for item in range(per_writer):
                key = f"proc-{writer_index}-{item}"
                assert reader.get(TIER_ESTIMATE, key) == {
                    "v": item, "writer": writer_index}

    def test_lock_timeout_degrades_to_miss_never_stalls(self, tmp_path):
        from repro.service.faults import (
            FaultInjector, FaultRule, SITE_SHARD_LOCK_TIMEOUT)

        registry = MetricsRegistry()
        clean = ResultCache(persist_dir=str(tmp_path))
        clean.put(TIER_ESTIMATE, "k", {"v": 1}, payload={"v": 1})
        faults = FaultInjector(
            {SITE_SHARD_LOCK_TIMEOUT: FaultRule(1.0, 2)})
        cache = ResultCache(persist_dir=str(tmp_path), metrics=registry,
                            faults=faults)
        # Fire 1: the read lock "times out" -> miss, not a hang.
        assert cache.get(TIER_ESTIMATE, "k") is MISS
        # Fire 2: the write lock "times out" -> memory updated, disk not.
        cache.put(TIER_ESTIMATE, "k2", {"v": 2}, payload={"v": 2})
        assert cache.get(TIER_ESTIMATE, "k2") == {"v": 2}  # memory hit
        assert not entry_path(tmp_path, "k2").exists()
        counter = registry.get("repro_cache_lock_timeouts_total")
        assert counter.value(tier=TIER_ESTIMATE) == 2
        # Budget spent: the disk layer works again.
        assert cache.get(TIER_ESTIMATE, "k") == {"v": 1}

    def _same_shard_keys(self, count, prefix="shardmate"):
        keys, target = [], None
        index = 0
        while len(keys) < count:
            key = f"{prefix}-{index}"
            index += 1
            shard = shard_of(key)
            if target is None:
                target = shard
            if shard == target:
                keys.append(key)
        return target, keys

    def _break_checksum(self, path):
        document = json.loads(path.read_text())
        document["payload"] = {"v": 999}
        path.write_text(json.dumps(document))

    def test_repeated_corruption_quarantines_the_whole_shard(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path),
                            shard_corruption_threshold=3)
        shard, keys = self._same_shard_keys(4)
        for key in keys:
            cache.put(TIER_ESTIMATE, key, {"v": 1}, payload={"v": 1})
        for key in keys:
            self._break_checksum(entry_path(tmp_path, key))
        cache.clear_memory()
        for key in keys[:3]:  # third corruption trips the shard breaker
            assert cache.get(TIER_ESTIMATE, key) is MISS
        quarantined_shards = [entry for entry
                              in (tmp_path / "quarantine").iterdir()
                              if entry.name.startswith(f"shard-{shard:02d}.")]
        assert len(quarantined_shards) == 1
        # The fourth corrupt entry went with its shard: a fresh read is
        # a plain miss and the slot accepts clean traffic again.
        assert cache.get(TIER_ESTIMATE, keys[3]) is MISS
        cache.put(TIER_ESTIMATE, keys[3], {"v": 5}, payload={"v": 5})
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, keys[3]) == {"v": 5}

    def test_shard_lock_identity_survives_shard_quarantine(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path),
                            shard_corruption_threshold=1)
        shard, (key,) = self._same_shard_keys(1)
        cache.put(TIER_ESTIMATE, key, {"v": 1}, payload={"v": 1})
        # Lock files live outside the shard directory...
        lock_path = tmp_path / "locks" / f"shard-{shard:02d}.lock"
        assert lock_path.exists()
        assert not (tmp_path / f"shard-{shard:02d}" / ".lock").exists()
        inode = lock_path.stat().st_ino
        # ...so when corruption quarantines the whole shard directory,
        # the lock keeps its inode: a writer holding the flock still
        # excludes writers of the replacement shard.
        self._break_checksum(entry_path(tmp_path, key))
        cache.clear_memory()
        assert cache.get(TIER_ESTIMATE, key) is MISS  # trips the breaker
        assert any(entry.name.startswith(f"shard-{shard:02d}.")
                   for entry in (tmp_path / "quarantine").iterdir())
        assert lock_path.stat().st_ino == inode

    def test_rebuild_validates_quarantines_and_drops(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        for index in range(6):
            cache.put(TIER_ESTIMATE, f"good-{index}", {"v": index},
                      payload={"v": index})
        # One corrupt entry (checksum break) and one stale-stamp entry.
        self._break_checksum(entry_path(tmp_path, "good-0"))
        stale_path = entry_path(tmp_path, "good-1")
        document = json.loads(stale_path.read_text())
        document["stamp"] = "v2:other-revision"
        stale_path.write_text(json.dumps(document))

        restarted = ResultCache(persist_dir=str(tmp_path))
        report = restarted.rebuild()
        assert report["scanned"] == 6
        assert report["valid"] == 4
        assert report["quarantined"] == 1
        assert report["stale_dropped"] == 1
        for index in range(2, 6):
            assert restarted.get(TIER_ESTIMATE, f"good-{index}") == {
                "v": index}
        assert restarted.get(TIER_ESTIMATE, "good-0") is MISS
        assert restarted.get(TIER_ESTIMATE, "good-1") is MISS

    def test_rebuild_counts_entries_that_leave_with_a_quarantined_shard(
            self, tmp_path):
        # One shard: 3 valid characterization entries, then 10 corrupt
        # estimate entries. The walk visits characterization first; the
        # 4th corruption trips the shard breaker and the whole shard --
        # valid entries and the 6 not yet visited -- goes to quarantine.
        cache = ResultCache(persist_dir=str(tmp_path))
        shard, keys = self._same_shard_keys(13)
        for key in keys[:3]:
            cache.put(TIER_CHARACTERIZATION, key, {"v": 1},
                      payload={"v": 1})
        for key in keys[3:]:
            cache.put(TIER_ESTIMATE, key, {"v": 1}, payload={"v": 1})
            self._break_checksum(entry_path(tmp_path, key))

        report = ResultCache(persist_dir=str(tmp_path)).rebuild()
        assert report == {"scanned": 13, "valid": 0, "quarantined": 13,
                          "stale_dropped": 0}
        assert not any((tmp_path / f"shard-{shard:02d}").iterdir())
