"""Shard checkpoints: atomic commit, verification, fingerprint gating."""

import json
from dataclasses import replace

import pytest

from repro.core import BuildConfig
from repro.errors import StoreError
from repro.io.store import STORE_SCHEMA, StoredShard, open_store, write_store
from repro.shard import (
    ShardCheckpointStore,
    config_fingerprint,
    respawn_config,
)


@pytest.fixture(scope="module")
def artifacts():
    from repro.core.builder import BenchmarkBuilder

    return BenchmarkBuilder(BuildConfig.small(n_products=30)).build()


@pytest.fixture
def base_config(artifacts):
    return artifacts.config


@pytest.fixture
def store(tmp_path):
    return ShardCheckpointStore(tmp_path / "ckpt")


def _offer_ids(shard) -> list[str]:
    return [offer.offer_id for offer in shard.cleansed.offers]


class TestConfigFingerprint:
    def test_equal_configs_fingerprint_equally(self, base_config):
        assert config_fingerprint(base_config) == config_fingerprint(
            BuildConfig.small(n_products=30)
        )

    def test_any_seed_change_changes_the_fingerprint(self, base_config):
        respawned = respawn_config(
            base_config, session_seed=42, shard=0, attempt=2
        )
        assert config_fingerprint(respawned) != config_fingerprint(
            base_config
        )

    def test_store_dir_is_not_part_of_the_fingerprint(self, base_config):
        # Where a store sits on disk is not its identity: a copied or
        # moved store must still resume.
        here = replace(base_config, store_dir="/stores/a/shard-0000")
        there = replace(base_config, store_dir="/elsewhere/shard-0000")
        assert config_fingerprint(here) == config_fingerprint(there)
        assert config_fingerprint(here) == config_fingerprint(base_config)


class TestSaveLoad:
    def test_round_trip(self, store, base_config, artifacts):
        store.save(3, artifacts, base_config=base_config)
        loaded = store.load(3, base_config=base_config)
        assert loaded is not None
        stored, manifest = loaded
        assert isinstance(stored, StoredShard)
        assert _offer_ids(stored) == _offer_ids(artifacts)
        assert manifest["schema"] == STORE_SCHEMA
        assert manifest["shard"] == 3
        assert manifest["attempt"] == 1
        assert manifest["base_fingerprint"] == manifest["config_fingerprint"]
        # The store is the only on-disk format: no pickle payload.
        names = {path.name for path in store.shard_dir(3).iterdir()}
        assert {"manifest.json", "shard.db"} <= names
        assert not any(name.endswith(".pkl") for name in names)

    def test_reseeded_retry_checkpoint_loads_under_the_plan_config(
        self, store, base_config, artifacts
    ):
        built = respawn_config(
            base_config, session_seed=42, shard=0, attempt=2
        )
        store.save(
            0,
            replace(artifacts, config=built),
            base_config=base_config,
            attempt=2,
        )
        loaded = store.load(0, base_config=base_config)
        assert loaded is not None
        _, manifest = loaded
        assert manifest["attempt"] == 2
        assert manifest["base_fingerprint"] != manifest["config_fingerprint"]
        assert manifest["build_seed"] == built.seed
        assert manifest["corpus_seed"] == built.corpus.seed

    def test_absent_checkpoint_is_missing_even_in_strict_mode(
        self, store, base_config
    ):
        assert store.load(7, base_config=base_config) is None
        assert store.load(7, base_config=base_config, strict=True) is None


class TestVerification:
    def test_foreign_config_is_rejected(self, store, base_config, artifacts):
        store.save(0, artifacts, base_config=base_config)
        other = BuildConfig.small(n_products=40)
        assert store.load(0, base_config=other) is None
        with pytest.raises(StoreError, match="fingerprint"):
            store.load(0, base_config=other, strict=True)

    def test_truncated_payload_is_rejected(
        self, store, base_config, artifacts
    ):
        store.save(0, artifacts, base_config=base_config)
        db = store.shard_dir(0) / "shard.db"
        db.write_bytes(db.read_bytes()[:-7])
        assert store.load(0, base_config=base_config) is None
        with pytest.raises(StoreError, match="sha256"):
            store.load(0, base_config=base_config, strict=True)

    def test_garbage_manifest_is_rejected(
        self, store, base_config, artifacts
    ):
        store.save(0, artifacts, base_config=base_config)
        store.manifest_path(0).write_text("{ not json")
        assert store.load(0, base_config=base_config) is None
        with pytest.raises(StoreError, match="unreadable"):
            store.load(0, base_config=base_config, strict=True)

    def test_future_schema_is_rejected(self, store, base_config, artifacts):
        store.save(0, artifacts, base_config=base_config)
        manifest = json.loads(store.manifest_path(0).read_text())
        manifest["schema"] = STORE_SCHEMA + 1
        store.manifest_path(0).write_text(json.dumps(manifest))
        assert store.load(0, base_config=base_config) is None
        with pytest.raises(StoreError, match="schema"):
            store.load(0, base_config=base_config, strict=True)

    def test_completed_shards_reports_only_verifiable_ones(
        self, store, base_config, artifacts
    ):
        configs = [base_config] * 4
        store.save(0, artifacts, base_config=base_config)
        store.save(2, artifacts, base_config=base_config)
        store.save(3, artifacts, base_config=base_config)
        (store.shard_dir(3) / "shard.db").write_bytes(b"corrupt")
        assert store.completed_shards(configs) == [0, 2]


class TestInjectableClock:
    """`created_at` comes from the injected clock, not ambient time.time.

    The manifest timestamp is documentation-only (outside the payload
    sha256s and both config fingerprints); the injectable clock keeps
    the store free of ambient wall-clock reads (repro-lint RNG004) and
    lets this test pin the stamp exactly.
    """

    def test_manifest_uses_injected_clock(
        self, tmp_path, base_config, artifacts
    ):
        store = ShardCheckpointStore(tmp_path / "ckpt", clock=lambda: 1234.5)
        store.save(0, artifacts, base_config=base_config)
        manifest = json.loads(store.manifest_path(0).read_text())
        assert manifest["created_at"] == 1234.5

    def test_clock_does_not_affect_verification(
        self, tmp_path, base_config, artifacts
    ):
        writer = ShardCheckpointStore(tmp_path / "ckpt", clock=lambda: 7.0)
        writer.save(0, artifacts, base_config=base_config)
        # A store with a different clock still verifies and loads the
        # checkpoint — the stamp is outside every integrity check.
        reader = ShardCheckpointStore(tmp_path / "ckpt", clock=lambda: 99.0)
        loaded = reader.load(0, base_config=base_config, strict=True)
        assert loaded is not None
        stored, manifest = loaded
        assert _offer_ids(stored) == _offer_ids(artifacts)
        assert manifest["created_at"] == 7.0

    def test_default_clock_is_wall_clock(
        self, tmp_path, base_config, artifacts
    ):
        import time

        before = time.time()
        store = ShardCheckpointStore(tmp_path / "ckpt")
        store.save(0, artifacts, base_config=base_config)
        manifest = json.loads(store.manifest_path(0).read_text())
        assert before <= manifest["created_at"] <= time.time()


class TestSqliteBackend:
    """Store-specific behaviour: adoption, stale locks, typed refusal."""

    def test_round_trip_returns_stored_shard(self, tmp_path, artifacts):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        store.save(0, artifacts, base_config=artifacts.config)
        loaded = store.load(0, base_config=artifacts.config, strict=True)
        assert loaded is not None
        stored, _ = loaded
        assert isinstance(stored, StoredShard)
        assert len(stored.cleansed.offers) == len(artifacts.cleansed.offers)
        assert store.completed_shards([artifacts.config]) == [0]

    def test_adoption_amends_in_place(self, tmp_path, artifacts):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        # A worker already wrote the store into the shard's directory.
        write_store(store.shard_dir(2), artifacts)
        stored = open_store(store.shard_dir(2), strict=True)
        store.save(2, stored, base_config=artifacts.config, attempt=2)
        manifest = json.loads(
            (store.shard_dir(2) / "manifest.json").read_text()
        )
        assert manifest["shard"] == 2
        assert manifest["attempt"] == 2
        assert manifest["base_fingerprint"] == config_fingerprint(
            artifacts.config
        )
        assert store.load(2, base_config=artifacts.config) is not None

    def test_foreign_directory_adoption_refused(self, tmp_path, artifacts):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        write_store(tmp_path / "elsewhere", artifacts)
        stored = open_store(tmp_path / "elsewhere", strict=True)
        with pytest.raises(StoreError, match="cannot adopt"):
            store.save(1, stored, base_config=artifacts.config)

    def test_corruption_is_typed_store_error(self, tmp_path, artifacts):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        store.save(0, artifacts, base_config=artifacts.config)
        db = store.shard_dir(0) / "shard.db"
        db.write_bytes(db.read_bytes()[:-32])
        assert store.load(0, base_config=artifacts.config) is None
        with pytest.raises(StoreError, match="sha256 mismatch"):
            store.load(0, base_config=artifacts.config, strict=True)

    def test_save_over_a_killed_save_clears_its_stale_lock(
        self, tmp_path, artifacts
    ):
        store = ShardCheckpointStore(tmp_path / "ckpt")
        store.shard_dir(0).mkdir(parents=True)
        # A session killed mid-save leaves its writer.lock behind: the
        # checkpoint is untrusted, and the rebuilt shard's save must
        # not refuse itself.
        (store.shard_dir(0) / "writer.lock").touch()
        assert store.load(0, base_config=artifacts.config) is None
        store.save(0, artifacts, base_config=artifacts.config)
        assert store.load(0, base_config=artifacts.config) is not None
