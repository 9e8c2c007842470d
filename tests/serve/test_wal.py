"""Unit coverage for the WAL/snapshot store and the fault injector."""

import errno
import json
import logging
import os
import threading

import pytest

from repro.serve.faults import (
    CRASH_AFTER_WAL_APPEND,
    CRASH_BEFORE_WAL_APPEND,
    LATENCY,
    FaultInjector,
    NO_FAULTS,
)
from repro.serve.wal import (
    MAX_APPLIED_KEYS,
    SNAPSHOT_FILE,
    WAL_FILE,
    StateDir,
    TenantStore,
    WalCorruption,
)

BUNDLE = {
    "schema": {"R": ["A", "B"]},
    "dependencies": ["R: A -> B"],
}


def snapshot_of(premise_hash, store=None, name="t", term=0):
    """A snapshot payload for ``BUNDLE`` at ``store``'s seq, term and keys
    (at seq 0 and ``term`` without a store)."""
    return {
        "name": name,
        "seq": store.seq if store else 0,
        "term": store.term if store else term,
        "premise_hash": premise_hash,
        "bundle": BUNDLE,
        "options": {},
        "applied_keys": dict(store.applied) if store else {},
    }


def make_store(tmp_path, term=0):
    return TenantStore.create(
        str(tmp_path / "t"), snapshot_of("hash0", term=term)
    )


def held(release, snapshot):
    """A checkpoint payload builder that blocks until ``release`` is set,
    holding the store's worker between the roll and the snapshot."""
    def build():
        assert release.wait(timeout=10), "the held checkpoint was never released"
        return snapshot
    return build


def seqs(records):
    return [record["seq"] for record in records]


def recovered_names(state):
    """The tenant names ``state.recover()`` finds; closes their stores."""
    names = []
    for name, store, _snapshot, _tail in state.recover():
        store.close()
        names.append(name)
    return names


class TestFaultInjector:
    def test_unarmed_is_falsy_and_never_trips(self):
        assert not NO_FAULTS
        assert NO_FAULTS.trip(CRASH_BEFORE_WAL_APPEND) is False
        assert NO_FAULTS.latency_seconds() == 0.0

    def test_always_armed_trips_repeatedly(self):
        faults = FaultInjector(CRASH_BEFORE_WAL_APPEND)
        assert faults
        assert faults.trip(CRASH_BEFORE_WAL_APPEND)
        assert faults.trip(CRASH_BEFORE_WAL_APPEND)
        assert faults.fired[CRASH_BEFORE_WAL_APPEND] == 2

    def test_once_disarms_after_first_trip(self):
        faults = FaultInjector(f"{CRASH_AFTER_WAL_APPEND}:once")
        assert faults.trip(CRASH_AFTER_WAL_APPEND)
        assert not faults.trip(CRASH_AFTER_WAL_APPEND)
        assert faults.fired[CRASH_AFTER_WAL_APPEND] == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector("explode-keyboard")

    def test_unknown_modifier_rejected(self):
        with pytest.raises(ValueError, match="modifier"):
            FaultInjector(f"{LATENCY}:twice")

    def test_hold_modifier_only_applies_to_latency(self):
        armed = FaultInjector(f"{LATENCY}:hold", latency_ms=5)
        assert armed.latency_holds is True
        assert armed.latency_seconds() == 0.005
        assert FaultInjector(LATENCY).latency_holds is False
        with pytest.raises(ValueError, match="hold"):
            FaultInjector(f"{CRASH_BEFORE_WAL_APPEND}:hold")

    def test_latency_requires_armed_point_and_positive_ms(self):
        assert FaultInjector(LATENCY).latency_seconds() == 0.0
        armed = FaultInjector(LATENCY, latency_ms=250)
        assert armed.latency_seconds() == 0.25

    def test_stats_shape(self):
        faults = FaultInjector(LATENCY, latency_ms=10)
        faults.latency_seconds()
        stats = faults.stats()
        assert stats["armed"] == [LATENCY]
        assert stats["fired"] == {LATENCY: 1}


class TestTenantStore:
    def test_create_writes_seq_zero_snapshot_and_empty_wal(self, tmp_path):
        store = make_store(tmp_path)
        snapshot = json.loads(
            (tmp_path / "t" / SNAPSHOT_FILE).read_text()
        )
        assert snapshot["seq"] == 0
        assert snapshot["premise_hash"] == "hash0"
        assert snapshot["bundle"] == BUNDLE
        assert (tmp_path / "t" / WAL_FILE).read_text() == ""
        store.close()

    def test_append_reopen_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        first = store.append({"add": ["R: A -> B"]}, key="k1",
                             result={"version": 1})
        assert first["seq"] == 1
        assert store.append({"retract": ["R: A -> B"]})["seq"] == 2
        store.close()

        reopened, snapshot, tail = TenantStore.open(str(tmp_path / "t"))
        assert snapshot["seq"] == 0
        assert [record["seq"] for record in tail] == [1, 2]
        assert tail[0]["patch"] == {"add": ["R: A -> B"]}
        assert reopened.seq == 2
        # append stamps the seq into the recorded result, so a replay
        # after reopen returns the original acknowledgment verbatim.
        assert reopened.applied["k1"] == {"version": 1, "seq": 1}
        # Appends after reopen must not reuse sequence numbers.
        assert reopened.append({"add": ["R: A -> B"]})["seq"] == 3
        reopened.close()

    def test_append_does_not_mutate_callers_result(self, tmp_path):
        store = make_store(tmp_path)
        result = {"version": 7}
        record = store.append({"add": ["R: A -> B"]}, key="k", result=result)
        assert result == {"version": 7}  # caller's dict untouched
        assert record["result"] == {"version": 7, "seq": 1}
        store.close()

    def test_snapshot_truncates_wal_and_filters_tail(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.write_snapshot(snapshot_of("hash1", store))
        assert store.appends_since_snapshot == 0
        assert (tmp_path / "t" / WAL_FILE).read_text() == ""
        store.append({"retract": ["R: A -> B"]})
        store.close()

        reopened, snapshot, tail = TenantStore.open(str(tmp_path / "t"))
        reopened.close()
        assert snapshot["seq"] == 1
        assert snapshot["premise_hash"] == "hash1"
        assert [record["seq"] for record in tail] == [2]

    def test_stale_tail_below_snapshot_seq_is_skipped(self, tmp_path):
        """A crash between snapshot rename and WAL truncation leaves old
        records in the WAL; recovery must not replay them twice."""
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.close()
        # Rewrite the snapshot as if it covered seq 1, WAL untouched.
        snap_path = tmp_path / "t" / SNAPSHOT_FILE
        snapshot = json.loads(snap_path.read_text())
        snapshot["seq"] = 1
        snap_path.write_text(json.dumps(snapshot))

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        reopened.close()
        assert tail == []

    def test_torn_final_line_is_discarded(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.close()
        wal_path = tmp_path / "t" / WAL_FILE
        with open(wal_path, "a", encoding="utf-8") as fp:
            fp.write('{"seq": 2, "patch": {"re')  # crash mid-append

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert [record["seq"] for record in tail] == [1]
        assert reopened.seq == 1
        reopened.close()

    def test_torn_tail_with_trailing_blank_lines_is_discarded(self, tmp_path):
        """A torn final record followed by blank lines (a crash midway
        through an append that had already written the newline, or
        filesystem padding) must recover like a plain torn tail — the
        blanks are not 'records after the tear'."""
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.close()
        wal_path = tmp_path / "t" / WAL_FILE
        with open(wal_path, "a", encoding="utf-8") as fp:
            fp.write('{"seq": 2, "patch": {"re\n\n\n')

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert [record["seq"] for record in tail] == [1]
        assert reopened.seq == 1
        # The log stays appendable: the torn bytes are gone after the
        # next truncating reopen cycle, and new appends advance the seq.
        assert reopened.append({"add": ["R: A -> B"]})["seq"] == 2
        reopened.close()

    def test_first_append_after_a_torn_tail_survives_reopen(self, tmp_path):
        """Recovery cuts a torn final record off the WAL before appending:
        appended after the torn bytes, the next acknowledged record would
        share their line and be lost on the following reopen (or, with a
        record after it, turn the tear into corruption)."""
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.append({"retract": ["R: A -> B"]})
        store.close()
        with open(tmp_path / "t" / WAL_FILE, "a", encoding="utf-8") as fp:
            fp.write('{"seq":3,"term":0,"pa')  # crash mid-append

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert seqs(tail) == [1, 2]
        assert reopened.append({"add": ["R: A -> B"]})["seq"] == 3
        assert reopened.append({"retract": ["R: A -> B"]})["seq"] == 4
        reopened.close()

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert seqs(tail) == [1, 2, 3, 4]
        assert reopened.seq == 4
        reopened.close()

    def test_unterminated_final_record_is_torn(self, tmp_path):
        """An append writes its record and newline in one write before
        the fsync, so a final line without its newline was never
        acknowledged: it is discarded like any torn record."""
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.close()
        with open(tmp_path / "t" / WAL_FILE, "a", encoding="utf-8") as fp:
            fp.write('{"seq":2,"term":0,"patch":{}}')

        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert seqs(tail) == [1]
        assert reopened.append({"add": ["R: A -> B"]})["seq"] == 2
        reopened.close()
        reopened, _, tail = TenantStore.open(str(tmp_path / "t"))
        assert seqs(tail) == [1, 2]
        reopened.close()

    def test_multi_thousand_record_tail_recovers(self, tmp_path):
        """Recovery streams the WAL line-by-line, so a long unsnapshotted
        tail (thousands of records) comes back intact and in order."""
        store = make_store(tmp_path)
        for index in range(3000):
            record = store.append(
                {"add": [f"R: A -> B #{index}"]},
                key=f"k{index}",
                result={"version": index + 1},
            )
            assert record["seq"] == index + 1
        store.close()

        reopened, snapshot, tail = TenantStore.open(str(tmp_path / "t"))
        assert snapshot["seq"] == 0
        assert len(tail) == 3000
        assert [record["seq"] for record in tail] == list(range(1, 3001))
        assert tail[-1]["result"] == {"version": 3000, "seq": 3000}
        assert reopened.seq == 3000
        assert reopened.applied["k2999"] == {"version": 3000, "seq": 3000}
        reopened.close()

    def test_corrupt_interior_record_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.close()
        wal_path = tmp_path / "t" / WAL_FILE
        records = wal_path.read_text()
        wal_path.write_text("GARBAGE\n" + records)

        with pytest.raises(WalCorruption, match="corrupt WAL record"):
            TenantStore.open(str(tmp_path / "t"))

    def test_missing_snapshot_raises(self, tmp_path):
        path = tmp_path / "empty"
        path.mkdir()
        with pytest.raises(WalCorruption, match="no snapshot"):
            TenantStore.open(str(path))

    def test_unparsable_snapshot_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        (tmp_path / "t" / SNAPSHOT_FILE).write_text("{nope")
        with pytest.raises(WalCorruption, match="unreadable snapshot"):
            TenantStore.open(str(tmp_path / "t"))

    def test_snapshot_trims_applied_keys(self, tmp_path):
        store = make_store(tmp_path)
        for index in range(MAX_APPLIED_KEYS + 10):
            store.append({}, key=f"key{index}", result={"version": index})
        store.write_snapshot(snapshot_of("hash1", store))
        assert len(store.applied) == MAX_APPLIED_KEYS
        assert "key0" not in store.applied
        assert f"key{MAX_APPLIED_KEYS + 9}" in store.applied
        store.close()

    def test_snapshot_closes_the_wal_handle_it_replaces(self, tmp_path):
        store = make_store(tmp_path)
        replaced = store._wal
        store.write_snapshot(snapshot_of("hash1", store))
        assert replaced.closed
        assert not store._wal.closed
        store.close()

    def test_read_from_returns_none_below_snapshot_base(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.write_snapshot(snapshot_of("hash1", store))  # truncates the WAL
        store.append({"retract": ["R: A -> B"]})
        # Tailing after the snapshot base works; tailing before it
        # must signal a resync (the records no longer exist).
        assert [r["seq"] for r in store.read_from(1)] == [2]
        assert store.read_from(2) == []
        assert store.read_from(0) is None
        store.close()

    def test_term_round_trips_through_append_snapshot_and_reopen(
        self, tmp_path
    ):
        store = make_store(tmp_path, term=3)
        record = store.append({"add": ["R: A -> B"]})
        assert record["term"] == 3
        store.write_snapshot(snapshot_of("hash1", store))
        store.close()

        reopened, snapshot, _ = TenantStore.open(str(tmp_path / "t"))
        assert snapshot["term"] == 3
        assert reopened.term == 3
        # Replicated records from a newer leader advance the local term.
        reopened.append_replicated({"seq": 2, "term": 5, "patch": {}})
        assert reopened.term == 5
        assert reopened.stats()["term"] == 5
        reopened.close()

    def test_no_tmp_file_left_behind(self, tmp_path):
        store = make_store(tmp_path)
        store.write_snapshot(snapshot_of("hash1", store))
        store.close()
        assert sorted(os.listdir(tmp_path / "t")) == [
            SNAPSHOT_FILE, WAL_FILE
        ]


class TestCheckpointWorker:
    """The roll on the writer's thread and the snapshot on a worker."""

    def test_appends_during_a_held_checkpoint_all_recover(self, tmp_path):
        path = tmp_path / "t"
        store = make_store(tmp_path)
        for _ in range(3):
            store.append({"add": ["R: A -> B"]})
        release = threading.Event()
        store.checkpoint(held(release, snapshot_of("hash1", store)))
        try:
            assert store.snapshots == 1
            assert store.appends_since_snapshot == 0
            acked = [store.append({"retract": ["R: A -> B"]})["seq"]
                     for _ in range(4)]
            assert acked == [4, 5, 6, 7]
            # What a crash would leave on disk right now: the old
            # snapshot, the rolled-off segment and the active log.
            assert sorted(os.listdir(path)) == [
                SNAPSHOT_FILE, "wal-3.jsonl", WAL_FILE
            ]
            reopened, snapshot, tail = TenantStore.open(str(path))
            reopened.close()
            assert snapshot["seq"] == 0
            assert seqs(tail) == [1, 2, 3, 4, 5, 6, 7]
        finally:
            release.set()
            store.close()
        assert sorted(os.listdir(path)) == [SNAPSHOT_FILE, WAL_FILE]
        reopened, snapshot, tail = TenantStore.open(str(path))
        assert (snapshot["seq"], seqs(tail)) == (3, [4, 5, 6, 7])
        assert reopened.seq == 7
        reopened.close()

    def test_read_from_spans_the_closed_segment_and_the_active_log(
        self, tmp_path
    ):
        store = make_store(tmp_path)
        store.append({"add": ["R: A -> B"]})
        store.append({"retract": ["R: A -> B"]})
        release = threading.Event()
        store.checkpoint(held(release, snapshot_of("hash1", store)))
        try:
            store.append({"add": ["R: A -> B"]})
            assert seqs(store.read_from(0)) == [1, 2, 3]
            assert seqs(store.read_from(1)) == [2, 3]
            assert seqs(store.read_from(2)) == [3]
        finally:
            release.set()
            store.join_checkpoint()
        # The snapshot is durable: the segment's records are gone.
        assert store.read_from(1) is None
        assert seqs(store.read_from(2)) == [3]
        store.close()

    def test_segment_left_between_rename_and_delete_replays_nothing_twice(
        self, tmp_path
    ):
        path = tmp_path / "t"
        store = make_store(tmp_path)
        for _ in range(3):
            store.append({"add": ["R: A -> B"]})
        rolled = (path / WAL_FILE).read_bytes()
        store.write_snapshot(snapshot_of("hash1", store))
        # A crash after the snapshot's rename left the segment behind.
        (path / "wal-3.jsonl").write_bytes(rolled)
        store.append({"retract": ["R: A -> B"]})
        store.close()

        reopened, snapshot, tail = TenantStore.open(str(path))
        assert (snapshot["seq"], seqs(tail)) == (3, [4])
        assert seqs(reopened.read_from(3)) == [4]
        # The next checkpoint deletes every segment it covers.
        reopened.write_snapshot(snapshot_of("hash2", reopened))
        assert sorted(os.listdir(path)) == [SNAPSHOT_FILE, WAL_FILE]
        reopened.close()

    def test_failed_worker_keeps_its_segment_for_the_next_checkpoint(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "t"
        store = make_store(tmp_path)
        observed, failures = [], []
        store.on_snapshot = observed.append
        store.on_snapshot_failure = lambda: failures.append(1)
        store.append({"add": ["R: A -> B"]})

        def disk_full(self, snapshot):
            raise OSError(errno.ENOSPC, "No space left on device")

        frozen = snapshot_of("hash1", store)
        with monkeypatch.context() as patch:
            patch.setattr(TenantStore, "_write_snapshot", disk_full)
            with caplog.at_level(logging.ERROR, logger="repro.serve.wal"):
                store.checkpoint(lambda: frozen)
                store.join_checkpoint()
        assert "checkpoint of" in caplog.text
        assert "No space left on device" in caplog.text
        assert (store.snapshot_failures, failures, observed) == (1, [1], [])
        assert store.stats()["snapshot_failures"] == 1
        assert sorted(os.listdir(path)) == [
            SNAPSHOT_FILE, "wal-1.jsonl", WAL_FILE
        ]
        assert seqs(store.read_from(0)) == [1]  # still kept

        store.append({"retract": ["R: A -> B"]})
        frozen = snapshot_of("hash2", store)
        store.checkpoint(lambda: frozen)
        store.join_checkpoint()
        assert len(observed) == 1 and observed[0] > 0
        assert sorted(os.listdir(path)) == [SNAPSHOT_FILE, WAL_FILE]
        store.close()
        reopened, snapshot, tail = TenantStore.open(str(path))
        reopened.close()
        assert (snapshot["seq"], snapshot["premise_hash"], tail) == (
            2, "hash2", []
        )

    def test_parent_layout_recovers_unchanged(self, tmp_path):
        """A state dir from before closed segments existed — a snapshot
        and ``wal.jsonl`` only, here with records the snapshot already
        covers (a crash before that layout's WAL truncation)."""
        path = tmp_path / "t"
        path.mkdir()
        snapshot = dict(snapshot_of("hash0"), seq=1)
        with open(path / SNAPSHOT_FILE, "w", encoding="utf-8") as fp:
            json.dump(snapshot, fp, separators=(",", ":"))
        records = [{"seq": seq, "term": 0, "patch": {"add": ["R: A -> B"]}}
                   for seq in (1, 2, 3)]
        (path / WAL_FILE).write_text("".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ))
        before = {name: (path / name).read_bytes()
                  for name in os.listdir(path)}

        store, loaded, tail = TenantStore.open(str(path))
        assert loaded == snapshot
        assert tail == records[1:]
        assert store.seq == 3
        store.close()
        assert {name: (path / name).read_bytes()
                for name in os.listdir(path)} == before


class TestStateDir:
    def test_tenant_names_are_path_safe(self, tmp_path):
        state = StateDir(str(tmp_path))
        store = state.create_tenant(snapshot_of("hash0", name="a/b c"))
        store.close()
        [(name, store2, _snapshot, tail)] = state.recover()
        assert name == "a/b c"
        assert tail == []
        store2.close()
        entries = os.listdir(os.path.join(str(tmp_path), "tenants"))
        assert entries == ["a%2Fb%20c"]

    def test_recover_is_sorted_and_drop_removes(self, tmp_path):
        state = StateDir(str(tmp_path))
        for name in ("zeta", "alpha"):
            state.create_tenant(snapshot_of("hash0", name=name)).close()
        assert recovered_names(state) == ["alpha", "zeta"]
        state.drop_tenant("zeta")
        assert recovered_names(state) == ["alpha"]
        assert state.stats()["tenants"] == 1

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            StateDir(str(tmp_path), snapshot_every=0)

    def test_term_persists_in_meta_across_reopen(self, tmp_path):
        state = StateDir(str(tmp_path))
        assert state.load_term() == 0
        state.save_term(4)
        assert state.load_term() == 4
        # A fresh handle on the same directory sees the durable term.
        assert StateDir(str(tmp_path)).load_term() == 4
        with pytest.raises(WalCorruption, match="unreadable state-dir"):
            with open(state.meta_path, "w", encoding="utf-8") as fp:
                fp.write("{nope")
            state.load_term()
