"""The artifact store: round-trip parity, corruption refusal, concurrency.

The store's contract is twofold.  *Parity*: a shard opened from disk
must answer every question the in-RAM ``BuildArtifacts`` answers, with
byte-identical results — offers, cluster metadata, engine scores (mmap
CSR vs in-memory CSR), signatures, benchmark pair sets, splits,
selections, pre-training clusters, blocked candidates.  *Refusal*: any
torn or foreign state (truncated sidecar, schema mismatch, sha256
mismatch, concurrent second writer) must be detected before anything is
deserialized — ``verify_store`` names the reason, ``open_store`` raises
a typed :class:`~repro.errors.StoreError` in strict mode and returns
``None`` (rebuild) otherwise.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.builder import BenchmarkBuilder, BuildConfig
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.errors import StoreError
from repro.io.store import (
    STORE_SCHEMA,
    StoredShardHandle,
    _writer_lock,
    amend_manifest,
    config_fingerprint,
    open_store,
    verify_store,
    write_store,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def artifacts():
    return BenchmarkBuilder(
        BuildConfig.small(seed=42, blocking_top_k=5)
    ).build()


@pytest.fixture()
def store_dir(tmp_path, artifacts):
    directory = tmp_path / "shard-0000"
    write_store(directory, artifacts, shard=0)
    return directory


class TestRoundTrip:
    def test_offers_and_corpus_parity(self, store_dir, artifacts):
        stored = open_store(store_dir, strict=True)
        assert len(stored.cleansed.offers) == len(artifacts.cleansed.offers)
        for mine, theirs in zip(
            stored.cleansed.offers, artifacts.cleansed.offers
        ):
            assert mine == theirs
        assert stored.cleansed._cluster_meta == artifacts.cleansed._cluster_meta

    def test_engine_scores_parity(self, store_dir, artifacts):
        stored = open_store(store_dir, strict=True)
        engine = stored.engine
        reference = artifacts.engine
        assert engine.metric_names == reference.metric_names
        query = list(range(min(8, len(reference.titles))))
        for metric in reference.metric_names:
            np.testing.assert_array_equal(
                engine.scores_batch(query, metric),
                reference.scores_batch(query, metric),
            )

    def test_engine_matrix_is_memory_mapped(self, store_dir):
        import mmap

        stored = open_store(store_dir, strict=True)
        base = stored.engine._matrix.data
        while getattr(base, "base", None) is not None:
            base = base.base
        # The CSR data's buffer chain must bottom out in an OS mapping —
        # numpy.memmap keeps its own subclass only at the top level, so
        # accept the raw mmap the sliced view ultimately points into.
        assert isinstance(base, (np.memmap, mmap.mmap))

    def test_benchmark_parity(self, store_dir, artifacts):
        stored = open_store(store_dir, strict=True)
        for attribute in ("train_sets", "valid_sets", "test_sets"):
            mine = getattr(stored.benchmark, attribute)
            theirs = getattr(artifacts.benchmark, attribute)
            assert list(mine) == list(theirs)
            for key in theirs:
                pairs_mine = mine[key].pairs
                pairs_theirs = theirs[key].pairs
                assert len(pairs_mine) == len(pairs_theirs)
                for a, b in zip(pairs_mine, pairs_theirs):
                    assert a.pair_id == b.pair_id
                    assert a.offer_a.offer_id == b.offer_a.offer_id
                    assert a.offer_b.offer_id == b.offer_b.offer_id
                    assert a.label == b.label
                    assert a.provenance == b.provenance

    def test_splits_parity(self, store_dir, artifacts):
        def keyed(entries):
            return [(cid, offer.offer_id) for cid, offer in entries]

        stored = open_store(store_dir, strict=True)
        assert set(stored.splits) == set(artifacts.splits)
        for corner, split in artifacts.splits.items():
            mine = stored.splits[corner]
            for dev in DevSetSize:
                assert keyed(mine.train_offers(dev)) == keyed(
                    split.train_offers(dev)
                )
            assert keyed(mine.valid_offers()) == keyed(split.valid_offers())
            for unseen in UnseenRatio:
                assert keyed(mine.test_offers(unseen)) == keyed(
                    split.test_offers(unseen)
                )

    def test_selections_and_pretraining_parity(self, store_dir, artifacts):
        stored = open_store(store_dir, strict=True)
        assert stored.selected_cluster_ids() == artifacts.selected_cluster_ids()
        assert (
            stored.pretraining_clusters() == artifacts.pretraining_clusters()
        )

    def test_blocked_candidates_parity(self, store_dir, artifacts):
        stored = open_store(store_dir, strict=True)
        mine, theirs = stored.blocked_candidates, artifacts.blocked_candidates
        assert mine.k == theirs.k
        assert mine.metrics == theirs.metrics
        assert mine.pairs == theirs.pairs

    def test_stored_shard_pickles_by_path(self, store_dir):
        stored = open_store(store_dir, strict=True)
        clone = pickle.loads(pickle.dumps(stored))
        assert clone.directory == stored.directory
        assert len(clone.cleansed.offers) == len(stored.cleansed.offers)

    def test_handle_opens_lazily(self, store_dir):
        handle = StoredShardHandle(str(store_dir), 0)
        stored = handle.open(strict=True)
        assert stored.manifest["schema"] == STORE_SCHEMA

    def test_manifest_records_store_stage_timing(self, store_dir):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        assert "store" in manifest["stage_timings"]


class TestRefusal:
    def test_verify_ok(self, store_dir, artifacts):
        manifest = verify_store(
            store_dir, base_fingerprint=None
        )
        assert isinstance(manifest, dict)
        assert manifest["config_fingerprint"] == config_fingerprint(
            artifacts.config
        )

    def test_missing_store(self, tmp_path):
        assert verify_store(tmp_path / "nope") == "no manifest"
        assert open_store(tmp_path / "nope") is None
        with pytest.raises(StoreError):
            open_store(tmp_path / "nope", strict=True)

    def test_truncated_sidecar(self, store_dir):
        sidecar = store_dir / "incidence_data.npy"
        sidecar.write_bytes(sidecar.read_bytes()[:-16])
        reason = verify_store(store_dir)
        assert "incidence_data.npy sha256 mismatch" in reason
        assert open_store(store_dir) is None
        with pytest.raises(StoreError, match="sha256 mismatch"):
            open_store(store_dir, strict=True)

    def test_missing_sidecar(self, store_dir):
        (store_dir / "set_sizes.npy").unlink()
        assert "set_sizes.npy missing" in verify_store(store_dir)

    def test_corrupted_db(self, store_dir):
        db = store_dir / "shard.db"
        payload = bytearray(db.read_bytes())
        payload[100] ^= 0xFF
        db.write_bytes(bytes(payload))
        assert "shard.db sha256 mismatch" in verify_store(store_dir)

    def test_schema_mismatch(self, store_dir):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = STORE_SCHEMA + 1
        manifest_path.write_text(json.dumps(manifest))
        reason = verify_store(store_dir)
        assert "schema" in reason
        with pytest.raises(StoreError, match="schema"):
            open_store(store_dir, strict=True)

    def test_truncated_manifest(self, store_dir):
        manifest_path = store_dir / "manifest.json"
        manifest_path.write_text(manifest_path.read_text()[:40])
        assert verify_store(store_dir) == "manifest unreadable or truncated"

    def test_fingerprint_mismatch(self, store_dir):
        reason = verify_store(store_dir, base_fingerprint="not-the-one")
        assert "fingerprint mismatch" in reason

    def test_concurrent_writer_refused(self, store_dir, artifacts, tmp_path):
        # A second writer targeting an in-progress directory must refuse
        # rather than interleave tmp files with the first writer's.
        target = tmp_path / "contended"
        target.mkdir()
        (target / "writer.lock").touch()
        with pytest.raises(StoreError, match="another writer"):
            write_store(target, artifacts)

    def test_lock_present_fails_verification(self, store_dir):
        (store_dir / "writer.lock").touch()
        reason = verify_store(store_dir)
        assert "writer.lock" in reason

    def test_writer_lock_is_exclusive(self, tmp_path):
        target = tmp_path / "locked"
        target.mkdir()
        with _writer_lock(target):
            with pytest.raises(StoreError):
                with _writer_lock(target):
                    pass
        # Released on exit: a new writer may proceed.
        with _writer_lock(target):
            pass


class TestAmendAndLayout:
    def test_amend_manifest_rehashes_nothing_but_updates_keys(
        self, store_dir
    ):
        before = json.loads((store_dir / "manifest.json").read_text())
        amend_manifest(store_dir, shard=7, base_fingerprint="abc", attempt=3)
        after = json.loads((store_dir / "manifest.json").read_text())
        assert after["shard"] == 7
        assert after["base_fingerprint"] == "abc"
        assert after["attempt"] == 3
        assert after["files"] == before["files"]
        assert isinstance(verify_store(store_dir), dict)
