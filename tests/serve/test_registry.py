"""Tenant lifecycle and the structural-hash artifact LRU."""

import asyncio
import errno
import io
import json
import os
import random
import sys
import threading

import pytest

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine import ReasoningSession
from repro.model.schema import DatabaseSchema
from repro.obs.tracing import Trace
from repro.serve import ArtifactCache, ServeError, StateDir, TenantRegistry
from repro.serve import wal
from repro.serve.wal import SNAPSHOT_FILE, WAL_FILE, TenantStore, WalCorruption


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict(
        {"MGR": ("NAME", "DEPT"), "EMP": ("NAME", "DEPT"),
         "PERSON": ("NAME",)}
    )


@pytest.fixture
def premises():
    return [
        IND("MGR", ("NAME", "DEPT"), "EMP", ("NAME", "DEPT")),
        IND("EMP", ("NAME",), "PERSON", ("NAME",)),
    ]


BUNDLE = {
    "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"],
               "PERSON": ["NAME"]},
    "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                     "EMP[NAME] <= PERSON[NAME]"],
}


class TestTenantLifecycle:
    def test_create_get_drop(self, schema, premises):
        registry = TenantRegistry()
        tenant = registry.create("app", schema, premises)
        assert registry.get("app") is tenant
        assert tenant.session.premise_hash
        registry.drop("app")
        with pytest.raises(ServeError) as excinfo:
            registry.get("app")
        assert excinfo.value.status == 404

    def test_duplicate_name_conflicts(self, schema, premises):
        registry = TenantRegistry()
        registry.create("app", schema, premises)
        with pytest.raises(ServeError) as excinfo:
            registry.create("app", schema, premises)
        assert excinfo.value.status == 409

    def test_empty_name_rejected(self, schema, premises):
        with pytest.raises(ServeError) as excinfo:
            TenantRegistry().create("", schema, premises)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("name", ["a/b", "a b", "a?b", ".", ".."])
    def test_unroutable_name_rejected(self, schema, premises, name):
        registry = TenantRegistry()
        with pytest.raises(ServeError) as excinfo:
            registry.create(name, schema, premises)
        assert excinfo.value.status == 400
        assert registry.tenants == {}

    def test_url_safe_names_accepted(self, schema, premises):
        registry = TenantRegistry()
        for name in ("app", "lru-a", "t123", "A.b_c~d-9"):
            assert registry.create(name, schema, premises).name == name

    def test_drop_unknown_is_404(self):
        with pytest.raises(ServeError) as excinfo:
            TenantRegistry().drop("ghost")
        assert excinfo.value.status == 404

    def test_create_from_bundle(self):
        registry = TenantRegistry()
        tenant = registry.create_from_bundle("app", BUNDLE)
        assert len(tenant.session.dependencies) == 2
        assert tenant.session.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_create_from_non_object_bundle_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            TenantRegistry().create_from_bundle("app", "not a dict")
        assert excinfo.value.status == 400

    def test_mutate_empty_rejected(self, schema, premises):
        tenant = TenantRegistry().create("app", schema, premises)
        with pytest.raises(ServeError):
            tenant.mutate("add", [])

    def test_mutate_bumps_version(self, schema, premises):
        tenant = TenantRegistry().create("app", schema, premises)
        result = tenant.mutate("add", ["EMP: NAME -> DEPT"])
        assert result["version"] == 1
        assert result["added"] == ["EMP: NAME -> DEPT"]

    def test_whatif_runs_off_loop_and_leaves_parent_untouched(
        self, schema, premises
    ):
        tenant = TenantRegistry().create("app", schema, premises)
        version = tenant.session.version

        async def main():
            return await tenant.whatif_async(
                ["MGR[NAME] <= PERSON[NAME]"],
                retract=["EMP[NAME] <= PERSON[NAME]"],
            )

        result = asyncio.run(main())
        assert result["flipped"] == 1
        assert result["flips"][0]["before"]["verdict"] is True
        assert result["flips"][0]["after"]["verdict"] is False
        assert tenant.session.version == version  # fork, not mutation

    def test_whatif_validates_each_dependency_once(
        self, schema, premises, monkeypatch
    ):
        tenant = TenantRegistry().create("app", schema, premises)
        calls = {"n": 0}
        original = IND.validate

        def counting(self, schema):
            calls["n"] += 1
            return original(self, schema)

        monkeypatch.setattr(IND, "validate", counting)
        result = asyncio.run(tenant.whatif_async(
            ["MGR[NAME] <= PERSON[NAME]", "MGR[DEPT] <= EMP[DEPT]"],
            retract=["EMP[NAME] <= PERSON[NAME]"],
        ))
        assert calls["n"] == 3
        assert (result["flipped"], result["total"]) == (1, 2)
        # The live tenant neither counted nor warmed the speculation.
        assert tenant.session.queries == 0

    def test_stats_carry_identity_and_coalescer(self, schema, premises):
        tenant = TenantRegistry().create("app", schema, premises)
        stats = tenant.stats()
        assert stats["name"] == "app"
        assert stats["premise_hash"] == tenant.session.premise_hash
        assert stats["shared_artifacts"] is False
        assert stats["premises"] == 2
        assert stats["coalescer"]["requests"] == 0


class TestArtifactSharing:
    def test_identical_tenants_share_artifacts(self, schema, premises):
        registry = TenantRegistry()
        first = registry.create("a", schema, premises)
        first.session.implies("MGR[NAME] <= PERSON[NAME]")
        compiles = first.session.index.reach_index.compiles
        second = registry.create("b", schema, premises)
        assert not first.shared_artifacts
        assert second.shared_artifacts
        assert registry.artifacts.stats()["hits"] == 1
        # The adoptee serves the same question from the shared compile.
        assert second.session.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert second.session.index.reach_index.compiles == compiles

    def test_hash_is_insertion_order_independent(self, schema, premises):
        registry = TenantRegistry()
        registry.create("a", schema, premises)
        second = registry.create("b", schema, list(reversed(premises)))
        assert second.shared_artifacts

    def test_different_premises_do_not_share(self, schema, premises):
        registry = TenantRegistry()
        registry.create("a", schema, premises)
        second = registry.create("b", schema, premises[:1])
        assert not second.shared_artifacts
        assert registry.artifacts.stats()["misses"] == 2

    def test_drifted_donor_is_dropped_not_trusted(self, schema, premises):
        registry = TenantRegistry()
        donor = registry.create("a", schema, premises)
        donor.mutate("add", ["EMP: NAME -> DEPT"])  # hash drifts off key
        second = registry.create("b", schema, premises)
        assert not second.shared_artifacts
        assert registry.artifacts.stats()["drifted"] == 1
        # The fresh session replaced the drifted donor under that key.
        third = registry.create("c", schema, premises)
        assert third.shared_artifacts

    def test_lru_evicts_least_recently_used(self, schema, premises):
        cache = ArtifactCache(capacity=2)
        variants = [
            premises,
            premises[:1],
            [FD("EMP", ("NAME",), ("DEPT",))],
        ]
        sessions = [
            ReasoningSession(schema, deps) for deps in variants
        ]
        for session in sessions:
            assert cache.adopt_into(session) is False
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # The first (evicted) hash misses again; the last two hit.
        assert cache.adopt_into(ReasoningSession(schema, variants[0])) is False
        assert cache.adopt_into(ReasoningSession(schema, variants[2])) is True

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_adoptee_mutation_does_not_corrupt_donor(
        self, schema, premises
    ):
        registry = TenantRegistry()
        first = registry.create("a", schema, premises)
        first.session.implies("MGR[NAME] <= PERSON[NAME]")
        second = registry.create("b", schema, premises)
        second.mutate("retract", ["EMP[NAME] <= PERSON[NAME]"])
        assert not second.session.implies(
            "MGR[NAME] <= PERSON[NAME]"
        ).verdict
        assert first.session.implies("MGR[NAME] <= PERSON[NAME]").verdict


def open_fd_targets():
    """Real paths of every file descriptor this process holds open."""
    targets = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.add(os.path.realpath(f"/proc/self/fd/{fd}"))
        except OSError:
            continue  # the fd listing itself, already closed
    return targets


class TestDurableLifecycle:
    def test_drop_closes_the_wal_handle_before_removal(self, tmp_path):
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        tenant = registry.create_from_bundle("app", BUNDLE)
        tenant.mutate("add", ["EMP: NAME -> DEPT"])
        wal_path = os.path.realpath(
            os.path.join(tenant.store.path, WAL_FILE)
        )
        assert wal_path in open_fd_targets()
        registry.drop("app")
        # The handle is released (no fd leak per dropped tenant) and
        # the on-disk state is gone with it.
        assert wal_path not in open_fd_targets()
        assert not os.path.exists(wal_path)

    def test_recovered_state_is_verdict_equivalent(
        self, tmp_path, schema, premises
    ):
        probes = ["MGR[NAME] <= PERSON[NAME]", "PERSON[NAME] <= MGR[NAME]"]
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        tenant = registry.create("app", schema, premises)
        tenant.mutate("retract", [str(premises[0])])
        tenant.mutate("add", [str(premises[0])])
        expected_hash = tenant.session.premise_hash
        expected = [a.verdict for a in tenant.session.implies_all(probes)]
        registry.close()  # crash-like: file handles only, no checkpoint

        rebooted = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        try:
            assert rebooted.recovered_tenants == 1
            assert rebooted.replayed_records == 2
            session = rebooted.get("app").session
            assert session.premise_hash == expected_hash
            assert [a.verdict for a in session.implies_all(probes)] == expected
        finally:
            rebooted.close()

    def test_keyed_retry_replays_exactly_once_across_reboot(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        tenant = registry.create("app", schema, premises)
        first = tenant.mutate("retract", [str(premises[0])], key="req-1")
        registry.close()

        rebooted = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        try:
            tenant = rebooted.get("app")
            replay = tenant.mutate("retract", [str(premises[0])], key="req-1")
            assert replay["idempotent_replay"] is True
            assert replay["seq"] == first["seq"]
            assert tenant.session.version == first["version"]
            assert tenant.replayed_mutations == 1
        finally:
            rebooted.close()


class TestBackgroundCheckpoint:
    """A due checkpoint rolls the WAL before the reply; a worker writes
    the snapshot from the tenant's state frozen at that seq."""

    TOGGLE = "EMP: NAME -> DEPT"

    def toggle(self, tenant, count, trace=None):
        """``count`` keyed writes flipping one FD; returns their seqs."""
        seqs = []
        for _ in range(count):
            seq = tenant.store.seq + 1
            seqs.append(tenant.mutate(
                "add" if seq % 2 else "retract", [self.TOGGLE],
                key=f"write-{seq}", trace=trace,
            )["seq"])
        return seqs

    def test_worker_payload_is_the_tenant_snapshot_at_its_seq(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(
            state_dir=StateDir(str(tmp_path), snapshot_every=2)
        )
        try:
            tenant = registry.create("app", schema, premises)
            self.toggle(tenant, 2)
            expected = tenant.snapshot()
            tenant.store.join_checkpoint()
            path = os.path.join(tenant.store.path, SNAPSHOT_FILE)
            with open(path, encoding="utf-8") as fp:
                written = fp.read()
            assert expected["seq"] == 2
            assert json.loads(written) == expected
            assert expected["premise_hash"] == tenant.session.premise_hash
            # One json.dumps call writes what json.dump would stream.
            dumped = io.StringIO()
            json.dump(expected, dumped, separators=(",", ":"))
            assert written == dumped.getvalue()
        finally:
            registry.close()

    def test_checkpoint_span_and_snapshot_instruments(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(
            state_dir=StateDir(str(tmp_path), snapshot_every=2)
        )
        try:
            tenant = registry.create("app", schema, premises)
            trace = Trace()
            self.toggle(tenant, 1, trace)
            assert "checkpoint" not in [span[0] for span in trace.spans]
            tenant.mutate("retract", [self.TOGGLE], trace=trace)
            [(_, _, seconds, meta)] = [
                span for span in trace.spans if span[0] == "checkpoint"
            ]
            assert seconds > 0 and meta == {"seq": 2}
            tenant.store.join_checkpoint()
            assert registry.snapshot_seconds.count == 1
            assert registry.snapshot_failures.value == 0
            exposition = registry.metrics.render_prometheus()
            assert "repro_wal_snapshot_seconds_count 1" in exposition
            assert "repro_wal_snapshot_failures_total 0" in exposition
        finally:
            registry.close()

    def test_worker_failure_is_counted_and_the_next_checkpoint_heals(
        self, tmp_path, schema, premises, monkeypatch
    ):
        registry = TenantRegistry(
            state_dir=StateDir(str(tmp_path), snapshot_every=2)
        )
        try:
            tenant = registry.create("app", schema, premises)

            def disk_full(self, snapshot):
                raise OSError(errno.ENOSPC, "No space left on device")

            with monkeypatch.context() as patch:
                patch.setattr(TenantStore, "_write_snapshot", disk_full)
                self.toggle(tenant, 2)
                tenant.store.join_checkpoint()
            # The scrape reads the finished worker's result.
            registry.metrics.render_prometheus()
            assert registry.snapshot_failures.value == 1
            assert tenant.stats()["wal"]["snapshot_failures"] == 1
            self.toggle(tenant, 2)
            expected = tenant.session.premise_hash
        finally:
            registry.close()
        assert sorted(os.listdir(tenant.store.path)) == [
            SNAPSHOT_FILE, WAL_FILE
        ]
        rebooted = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        try:
            assert rebooted.replayed_records == 0
            assert rebooted.get("app").session.premise_hash == expected
        finally:
            rebooted.close()

    def test_tail_reads_race_appends_and_checkpoints_without_a_gap(
        self, tmp_path, schema, premises
    ):
        """Appends and checkpoints on one thread, ``read_from`` on two
        others, with the interpreter switching threads as often as it
        can: every tail read is ``None`` or a gap-free run from
        ``after + 1`` through at least the seq acknowledged before it,
        and a reopen returns every acknowledged record."""
        registry = TenantRegistry(
            state_dir=StateDir(str(tmp_path), snapshot_every=2)
        )
        tenant = registry.create("app", schema, premises)
        store = tenant.store
        acked, errors = [], []
        done = threading.Event()

        def write():
            try:
                acked.extend(self.toggle(tenant, 120))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def read(seed):
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    acked_seq = store.seq
                    after = max(0, acked_seq - rng.randrange(6))
                    records = store.read_from(after)
                    if records is not None:
                        got = [record["seq"] for record in records]
                        assert got == list(
                            range(after + 1, after + 1 + len(got))
                        ), (after, got)
                        assert len(got) >= acked_seq - after, (after, got)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(seed,)) for seed in (1, 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            done.set()
            registry.close()
        assert errors == []
        assert acked == list(range(1, 121))
        reopened, snapshot, tail = TenantStore.open(store.path)
        reopened.close()
        recovered = list(range(1, snapshot["seq"] + 1))
        assert recovered + [record["seq"] for record in tail] == acked


class TestIdempotencyKeyMap:
    """Each tenant's log keeps the newest ``MAX_APPLIED_KEYS`` keys."""

    TOGGLE = "EMP: NAME -> DEPT"
    FRESH = "PERSON[NAME] <= EMP[NAME]"

    def toggle(self, tenant, count):
        for index in range(count):
            kind = "add" if index % 2 == 0 else "retract"
            tenant.mutate(kind, [self.TOGGLE], key=f"toggle-{index}")

    def test_retry_replays_after_a_snapshot_trims_the_key_map(
        self, tmp_path, schema, premises, monkeypatch
    ):
        monkeypatch.setattr(wal, "MAX_APPLIED_KEYS", 16)
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        try:
            tenant = registry.create("app", schema, premises)
            # More keyed writes than the default snapshot_every (64), so
            # a checkpoint runs while the key map is over its cap.
            self.toggle(tenant, 80)
            assert tenant.store.snapshots >= 1
            before = len(tenant.session.dependencies)
            first = tenant.mutate("add", [self.FRESH], key="fresh")
            retry = tenant.mutate("add", [self.FRESH], key="fresh")
            assert retry["idempotent_replay"] is True
            assert retry["seq"] == first["seq"]
            assert len(tenant.session.dependencies) == before + 1
        finally:
            registry.close()

    def test_in_memory_key_map_keeps_only_the_newest_keys(
        self, schema, premises, monkeypatch
    ):
        monkeypatch.setattr(wal, "MAX_APPLIED_KEYS", 16)
        registry = TenantRegistry()
        tenant = registry.create("app", schema, premises)
        self.toggle(tenant, 100)
        newest = [f"toggle-{index}" for index in range(84, 100)]
        # What a follower bootstrap ships is capped too.
        bootstrap = registry.replication_snapshot_of("app")
        assert list(bootstrap["applied_keys"]) == newest
        replay = tenant.mutate("retract", [self.TOGGLE], key="toggle-99")
        assert replay["idempotent_replay"] is True


def rewrite_json(path, edit):
    """Load the JSON document at ``path``, apply ``edit``, write it back."""
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp)


class TestRebuildRefusals:
    """A rebuilt tenant must prove it is the state its source describes."""

    def test_edited_snapshot_premise_hash_refuses_recovery(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        store_path = registry.create("app", schema, premises).store.path
        registry.close()
        rewrite_json(
            os.path.join(store_path, SNAPSHOT_FILE),
            lambda snapshot: snapshot.update(premise_hash="0" * 64),
        )
        with pytest.raises(WalCorruption, match="premise_hash"):
            TenantRegistry(state_dir=StateDir(str(tmp_path)))

    def test_unparsable_wal_patch_refuses_recovery_naming_its_seq(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        tenant = registry.create("app", schema, premises)
        tenant.mutate("add", ["EMP: NAME -> DEPT"])
        tenant.mutate("add", ["PERSON[NAME] <= EMP[NAME]"])
        registry.close()
        wal_path = os.path.join(tenant.store.path, WAL_FILE)
        with open(wal_path, encoding="utf-8") as fp:
            records = [json.loads(line) for line in fp]
        records[1]["patch"] = {"add": ["not a dependency"]}
        with open(wal_path, "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps(record) + "\n" for record in records)
        with pytest.raises(WalCorruption, match="seq 2"):
            TenantRegistry(state_dir=StateDir(str(tmp_path)))

    def test_mismatched_replica_premise_hash_installs_nothing(
        self, tmp_path, schema, premises
    ):
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        try:
            existing = registry.create("app", schema, premises)
            payload = registry.replication_snapshot_of("app")
            payload["premise_hash"] = "0" * 64
            with pytest.raises(WalCorruption, match="premise_hash"):
                registry.create_replica("other", payload)
            assert "other" not in registry.tenants
            assert os.listdir(registry.state_dir.tenants_root) == ["app"]
            # A refused re-bootstrap leaves the tenant it would replace.
            with pytest.raises(WalCorruption, match="premise_hash"):
                registry.create_replica("app", payload)
            assert registry.get("app") is existing
        finally:
            registry.close()
