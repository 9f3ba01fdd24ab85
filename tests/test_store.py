"""The content-addressed result store: fingerprints and cache.

The store's one inviolable property is *no stale hits*: every input
that can change a unit's rows must change its fingerprint, and every
failure mode of the on-disk format (torn writes, corruption, version
skew) must read as a miss, never as wrong data.
"""

import json
import os

import pytest

from repro.core import FunctionProfile, OCSPInstance
from repro.store import (
    CODE_VERSION,
    ResultStore,
    canonical_encode,
    fingerprint_instance,
    fingerprint_unit,
)


def make_instance(
    compile_times=(4.0, 9.0),
    exec_times=(10.0, 6.0),
    calls=("f", "g", "f"),
    name="inst",
):
    profiles = {
        "f": FunctionProfile("f", tuple(compile_times), tuple(exec_times)),
        "g": FunctionProfile("g", (3.0, 7.0), (8.0, 5.0)),
    }
    return OCSPInstance(profiles=profiles, calls=tuple(calls), name=name)


ROWS = [{"benchmark": "inst", "scheme": "iar", "makespan": 123.5}]


class TestCanonicalEncode:
    def test_mapping_order_is_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode(
            {"b": 2, "a": 1}
        )

    def test_int_and_float_encode_differently(self):
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_floats_round_trip_exactly(self):
        assert canonical_encode(0.1 + 0.2) != canonical_encode(0.3)
        assert canonical_encode(0.30000000000000004) == canonical_encode(0.1 + 0.2)


class TestFingerprintSensitivity:
    """Every result-affecting input must perturb the unit fingerprint."""

    def base(self, **overrides):
        kw = dict(
            instance=make_instance(),
            driver="figure5",
            driver_kwargs={"model_seed": 1},
            benchmark="inst",
        )
        kw.update(overrides)
        return fingerprint_unit(**kw)

    def test_is_stable(self):
        assert self.base() == self.base()

    def test_compile_table_changes_it(self):
        assert self.base() != self.base(
            instance=make_instance(compile_times=(4.0, 9.5))
        )

    def test_exec_table_changes_it(self):
        assert self.base() != self.base(
            instance=make_instance(exec_times=(10.0, 6.5))
        )

    def test_call_sequence_changes_it(self):
        assert self.base() != self.base(
            instance=make_instance(calls=("f", "f", "g"))
        )

    def test_driver_name_changes_it(self):
        assert self.base() != self.base(driver="figure6")

    def test_driver_kwargs_change_it(self):
        assert self.base() != self.base(driver_kwargs={"model_seed": 2})
        assert self.base() != self.base(driver_kwargs={})

    def test_benchmark_key_changes_it(self):
        assert self.base() != self.base(benchmark="other")

    def test_code_version_salt_changes_it(self):
        assert self.base() != self.base(code_version=CODE_VERSION + ".bumped")

    def test_instance_label_does_not_change_it(self):
        # The label is carried by the benchmark key; two identical
        # traces under different labels are the same problem.
        assert self.base() == self.base(instance=make_instance(name="renamed"))
        assert fingerprint_instance(make_instance()) == fingerprint_instance(
            make_instance(name="renamed")
        )

    def test_kwarg_order_does_not_change_it(self):
        a = self.base(driver_kwargs={"x": 1, "y": 2})
        b = self.base(driver_kwargs={"y": 2, "x": 1})
        assert a == b


class TestResultStore:
    def test_miss_then_put_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = fingerprint_unit(make_instance(), "figure5")
        assert store.get(fp) is None
        assert fp not in store
        store.put(fp, ROWS, driver="figure5", benchmark="inst")
        assert fp in store
        assert store.get(fp) == ROWS
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_entries_fan_out_by_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = "ab" + "0" * 62
        path = store.put(fp, ROWS)
        assert path == tmp_path / "objects" / "ab" / f"{fp}.json"
        assert path.is_file()

    def test_put_syncs_the_entry_before_renaming_it(self, tmp_path, monkeypatch):
        # The rename makes an entry visible; if it reached the disk
        # before the entry's bytes, a crash could leave a torn entry
        # that the runner's strict read aborts on.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = ResultStore(tmp_path).put("7a" + "0" * 62, ROWS)
        assert [event[0] for event in events] == ["fsync", "replace"]
        (_, synced_ino, synced_size), (_, renamed_ino, target) = events
        assert synced_ino == renamed_ino
        assert synced_size == path.stat().st_size
        assert target == str(path)

    def test_atomic_write_leaves_no_tmp_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cd" + "0" * 62, ROWS)
        assert list(store.objects_dir.glob("*/*.tmp")) == []

    def test_corrupt_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = "ef" + "0" * 62
        path = store.put(fp, ROWS)
        path.write_text('{"version": 1, "rows": [truncated')  # torn write
        assert store.get(fp) is None
        assert not path.exists()

    def test_version_skew_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = "0a" + "0" * 62
        path = store.put(fp, ROWS)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        assert store.get(fp) is None

    def test_entry_claiming_wrong_fingerprint_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        fp_a = "1a" + "0" * 62
        fp_b = "1b" + "0" * 62
        path = store.put(fp_a, ROWS)
        # Simulate a mis-filed entry: content says fp_a, path says fp_b.
        target = store.path_for(fp_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
        assert store.get(fp_b) is None

    def test_implausible_fingerprint_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).path_for("ab")

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("2a" + "0" * 62, ROWS, driver="figure5")
        store.put("2b" + "0" * 62, ROWS, driver="figure5")
        store.put("2c" + "0" * 62, ROWS, driver="table2")
        stats = store.stats()
        assert stats.entries == 3
        assert stats.by_driver == {"figure5": 2, "table2": 1}
        assert stats.total_bytes > 0
        assert stats.oldest is not None and stats.oldest <= stats.newest
        assert stats.as_dict()["entries"] == 3

    def test_gc_removes_stray_tmp_and_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        keep = "3a" + "0" * 62
        store.put(keep, ROWS)
        # A crashed writer's leftovers plus a corrupt entry.
        sub = store.objects_dir / "3b"
        sub.mkdir()
        (sub / ("3b" + "0" * 62 + ".9999.tmp")).write_text("partial")
        (sub / ("3b" + "1" * 62 + ".json")).write_text("not json")
        assert store.gc() == 2
        assert store.get(keep) == ROWS

    def test_gc_by_age(self, tmp_path):
        store = ResultStore(tmp_path)
        old_fp = "4a" + "0" * 62
        path = store.put(old_fp, ROWS)
        doc = json.loads(path.read_text())
        doc["created_at"] -= 10 * 86400
        path.write_text(json.dumps(doc))
        fresh_fp = "4b" + "0" * 62
        store.put(fresh_fp, ROWS)
        assert store.gc(max_age_days=5) == 1
        assert store.get(old_fp) is None
        assert store.get(fresh_fp) == ROWS

    def test_gc_by_code_version(self, tmp_path):
        store = ResultStore(tmp_path)
        stale = "5a" + "0" * 62
        store.put(stale, ROWS, code_version="ancient")
        current = "5b" + "0" * 62
        store.put(current, ROWS, code_version=CODE_VERSION)
        assert store.gc(code_version=CODE_VERSION) == 1
        assert store.get(stale) is None
        assert store.get(current) == ROWS

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("6a" + "0" * 62, ROWS)
        store.put("6b" + "0" * 62, ROWS)
        assert store.clear() == 2
        assert store.stats().entries == 0
