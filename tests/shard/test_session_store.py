"""The store-backed session: parity, lazy worker opens, resume, fallback.

Every session builds through shard stores, with ``store_dir`` or in a
private directory.  Either way it must land on the pinned merged
results — same merged candidate fingerprint, same merged benchmark
fingerprint, across serial and process execution — while never shipping
a ``BuildArtifacts`` across the pool boundary (workers return
:class:`~repro.io.store.StoredShardHandle` path handles).  A corrupted
shard store must fall back to a rebuild in session mode while strict
opens raise :class:`~repro.errors.StoreError`, and a private directory
must be gone once its artifacts are closed or collected.
"""

import gc
import hashlib
import json
import os
import shutil
import sqlite3

import pytest

from repro.blocking.candidates import CandidateBlocker
from repro.core import BuildConfig
from repro.errors import ShardBuildError, StoreError, SweepJoinError
from repro.io.store import StoredShard, StoredShardHandle
from repro.shard import (
    FaultPlan,
    FaultSpec,
    MergedCandidates,
    ShardCheckpointStore,
    ShardPlan,
    ShardedBenchmarkSession,
    StoredMergedCandidates,
    shard_universe,
)
import repro.shard.session as session_module
from repro.shard.sweep import adopt_stored
from repro.similarity.engine import SimilarityEngine
from repro.shard.supervisor import _build_one_shard

# The same geometry and sha256 pins as tests/shard/test_session.py: a
# session with store_dir must land on the byte-identical merged results
# a session without one is pinned to.
N_SHARDS = 3
SWEEP_K = 10
EXPECTED_MERGED_SHA256 = (
    "b0c44624ccefda206ee7d7e2a74bb838a1a071f441b4cbd8a6ea4380738186f6"
)
EXPECTED_BENCHMARK_SHA256 = (
    "113d9e1f2a3759440167dbce87d5c2b298693af433dffcea02009b84ff926b1f"
)


def _plan():
    return ShardPlan.create(
        N_SHARDS, base_config=BuildConfig.small(n_products=30), seed=42
    )


def _candidates_fingerprint(merged) -> str:
    digest = hashlib.sha256()
    for pair in merged.pairs:
        digest.update(
            f"{pair.offer_a.offer_id}|{pair.offer_b.offer_id}|{pair.label}|"
            f"{pair.metric}|{pair.provenance}|{pair.score:.9f}\n".encode()
        )
    return digest.hexdigest()


def _benchmark_fingerprint(benchmark) -> str:
    digest = hashlib.sha256()
    for attribute in ("train_sets", "valid_sets", "test_sets"):
        for dataset in getattr(benchmark, attribute).values():
            digest.update(dataset.name.encode())
            for pair in dataset.pairs:
                digest.update(
                    f"{pair.pair_id}|{pair.offer_a.offer_id}|"
                    f"{pair.offer_b.offer_id}|{pair.label}|"
                    f"{pair.provenance}\n".encode()
                )
    return digest.hexdigest()


def _store_session(store_dir, executor="serial", **kwargs):
    return ShardedBenchmarkSession(
        _plan(),
        sweep_k=SWEEP_K,
        executor=executor,
        store_dir=store_dir,
        **kwargs,
    )


# ``store_root``, ``store_session`` (the serial session of ``_plan()``
# in ``store_root / "serial"``) and ``process_session`` (the process
# session of ``_plan()`` without ``store_dir``) come from
# ``tests/shard/conftest.py``.


class TestParity:
    def test_merged_candidates_pinned(self, store_session):
        assert (
            _candidates_fingerprint(store_session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )

    def test_merged_benchmark_pinned(self, store_session):
        assert (
            _benchmark_fingerprint(store_session.merged_benchmark)
            == EXPECTED_BENCHMARK_SHA256
        )

    def test_process_executor_identical(self, process_session):
        assert (
            _candidates_fingerprint(process_session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )
        assert (
            _benchmark_fingerprint(process_session.merged_benchmark)
            == EXPECTED_BENCHMARK_SHA256
        )

    def test_shards_are_stored_not_in_memory(self, store_session):
        assert all(
            isinstance(shard, StoredShard) for shard in store_session.shards
        )

    def test_merged_views_are_lazy_queries(self, store_session):
        assert isinstance(
            store_session.merged_candidates, StoredMergedCandidates
        )
        assert isinstance(
            store_session.merged_join_candidates, StoredMergedCandidates
        )
        # Iteration is windowed SQL, not a cached list: two passes agree.
        first = _candidates_fingerprint(store_session.merged_candidates)
        second = _candidates_fingerprint(store_session.merged_candidates)
        assert first == second
        assert len(store_session.merged_candidates) == sum(
            1 for _ in store_session.merged_candidates
        )

    def test_merged_db_on_disk(self, store_root, store_session):
        merged = store_root / "serial" / "merged.db"
        assert merged.exists()
        with sqlite3.connect(f"file:{merged}?mode=ro", uri=True) as db:
            tables = {
                row[0]
                for row in db.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        assert {"candidates_completed", "candidates_join_only"} <= tables

    def test_split_candidates_stay_in_memory(self, store_session):
        from repro.core.dimensions import CornerCaseRatio, DevSetSize

        completed, join_only = store_session.split_candidates(
            CornerCaseRatio.CC50, DevSetSize.MEDIUM, k=10
        )
        assert isinstance(completed, MergedCandidates)
        assert isinstance(join_only, MergedCandidates)


class TestLazyWorkerOpens:
    def test_worker_returns_handle_not_artifacts(self, tmp_path):
        from dataclasses import replace

        config = replace(
            _plan().shard_configs[0],
            store_dir=str(tmp_path / "shard-0000"),
        )
        artifacts, summary, elapsed = _build_one_shard(
            config, shard=0, attempt=1, with_signatures=True
        )
        assert isinstance(artifacts, StoredShardHandle)
        assert summary is not None
        assert elapsed > 0
        opened = artifacts.open(strict=True)
        assert isinstance(opened, StoredShard)

    def test_worker_needs_a_store_dir(self):
        config = _plan().shard_configs[0]
        assert config.store_dir is None
        with pytest.raises(ValueError, match="store_dir"):
            _build_one_shard(config, shard=0, attempt=1, with_signatures=True)

    def test_no_build_artifacts_cross_pool_boundary(self, store_root):
        # The handle is the *entire* worker payload for artifacts: its
        # pickled form is a path + shard index, orders of magnitude
        # smaller than any artifact graph.
        import pickle

        handle = StoredShardHandle(str(store_root / "anywhere"), 0)
        assert len(pickle.dumps(handle)) < 512


class TestResumeAndFallback:
    def test_second_session_resumes_from_store(self, store_root):
        session = _store_session(store_root / "serial").build()
        assert all(
            status == "checkpoint"
            for status in session.health.statuses.values()
        )
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )

    def test_copied_store_resumes_every_shard(
        self, store_root, store_session, tmp_path
    ):
        # Resume identity ignores where the store sits on disk: a store
        # copied elsewhere resumes exactly like the original.
        root = tmp_path / "copy"
        shutil.copytree(store_root / "serial", root)
        session = _store_session(root).build()
        assert session.health.statuses == {
            0: "checkpoint", 1: "checkpoint", 2: "checkpoint",
        }
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )

    def test_corrupted_store_falls_back_to_rebuild(
        self, store_root, store_session, tmp_path
    ):
        root = tmp_path / "store"
        shutil.copytree(store_root / "serial", root)
        # Corrupt one shard's sidecar: the next session must rebuild
        # that shard (not crash, not trust the torn store) and still
        # land on the pinned fingerprint.
        sidecar = root / "shard-0001" / "incidence_data.npy"
        sidecar.write_bytes(sidecar.read_bytes()[:-8])
        session = _store_session(root).build()
        statuses = session.health.statuses
        assert statuses[1] == "built"
        assert statuses[0] == statuses[2] == "checkpoint"
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )

    def test_strict_open_of_corrupted_store_raises(self, tmp_path):
        from dataclasses import replace

        from repro.io.store import open_store

        # One shard store is all a strict open needs: no session, sweep
        # or merge.
        root = tmp_path / "store"
        config = replace(
            _plan().shard_configs[0],
            store_dir=str(root / "shard-0000"),
        )
        _build_one_shard(config, shard=0, attempt=1, with_signatures=False)
        manifest_path = root / "shard-0000" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["shard.db"]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="sha256 mismatch"):
            open_store(root / "shard-0000", strict=True)


def _rows(blocked):
    return [
        (pair.row_a, pair.row_b, pair.score, pair.metric, pair.query_row,
         pair.rank)
        for pair in blocked.pairs
    ]


class TestWithinShardJoinInTheBuild:
    """Each shard's build computes and persists its within-shard sweep
    join; the parent only adopts it."""

    def test_persisted_join_equals_the_namespaced_join(self, store_session):
        assert store_session.n_shards == N_SHARDS
        for shard, stored in zip(
            store_session.shard_ids, store_session.shards
        ):
            persisted = stored.blocked_candidates
            oracle = shard_universe(stored, shard).blocker().candidates(
                k=SWEEP_K, metrics=SimilarityEngine.METRICS
            )
            assert persisted.k == SWEEP_K
            assert persisted.metrics == SimilarityEngine.METRICS
            assert persisted.n_queries == oracle.n_queries
            assert _rows(persisted) == _rows(oracle)

    def test_resumed_session_runs_no_within_shard_join(
        self, store_root, store_session, monkeypatch
    ):
        calls = []
        original = CandidateBlocker.candidates

        def recording(self, *args, **kwargs):
            calls.append(kwargs.get("exclude_same_partition") is not None)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CandidateBlocker, "candidates", recording)
        session = _store_session(store_root / "serial").build()
        assert set(session.health.statuses.values()) == {"checkpoint"}
        assert calls and all(calls)
        assert (
            _candidates_fingerprint(session.merged_candidates)
            == EXPECTED_MERGED_SHA256
        )

    def test_every_shard_is_resumable_under_the_session_configs(
        self, store_root, store_session
    ):
        session = _store_session(store_root / "serial")
        store = ShardCheckpointStore(store_root / "serial")
        assert store.completed_shards(session.shard_configs) == list(
            range(N_SHARDS)
        )
        # The plan's own configs run no join, so they key no session store.
        assert store.completed_shards(session.plan.shard_configs) == []

    def test_session_owns_the_blocking_fields(self, tmp_path):
        session = _store_session(tmp_path, shard_metrics=("cosine",))
        for shard, config in enumerate(session.shard_configs):
            assert config.blocking_top_k == SWEEP_K
            assert config.blocking_metrics == ("cosine",)
            assert config.store_dir == str(tmp_path / f"shard-{shard:04d}")
        assert not tmp_path.joinpath("shard-0000").exists()

    def test_mismatched_join_is_a_typed_error(self, store_session):
        stored = store_session.shards[0]
        adopted = adopt_stored(
            stored, 0, k=SWEEP_K, metrics=SimilarityEngine.METRICS
        )
        assert adopted.shard == 0
        assert adopted.database == stored.database
        assert adopted.metrics == SimilarityEngine.METRICS
        with pytest.raises(SweepJoinError, match="k=11"):
            adopt_stored(
                stored, 0, k=SWEEP_K + 1, metrics=SimilarityEngine.METRICS
            )
        with pytest.raises(SweepJoinError, match=r"under \('cosine',\)"):
            adopt_stored(stored, 0, k=SWEEP_K, metrics=("cosine",))

        def with_manifest(**changes):
            manifest = {
                key: value
                for key, value in {**stored.manifest, **changes}.items()
                if value is not None
            }
            return StoredShard(stored.directory, manifest)

        with pytest.raises(SweepJoinError, match="no within-shard join"):
            adopt_stored(
                with_manifest(blocked=None),
                0,
                k=SWEEP_K,
                metrics=SimilarityEngine.METRICS,
            )
        partial = {**stored.manifest["blocked"], "n_queries": 2}
        with pytest.raises(SweepJoinError, match="covers 2 of"):
            adopt_stored(
                with_manifest(blocked=partial),
                0,
                k=SWEEP_K,
                metrics=SimilarityEngine.METRICS,
            )


def _one_shard_session(**kwargs):
    """Shard 0 of ``_plan()`` as a session of its own, joined under
    cosine only: a cheap fresh session for the tests that dispose of
    one."""
    plan = _plan()
    return ShardedBenchmarkSession(
        ShardPlan(shard_configs=plan.shard_configs[:1], seed=plan.seed),
        sweep_k=SWEEP_K,
        shard_metrics=("cosine",),
        executor="serial",
        **kwargs,
    )


class TestSessionDirectory:
    """Without ``store_dir`` a session builds into a private directory
    that its artifacts own; a ``store_dir`` outlives its artifacts."""

    def test_private_session_is_store_backed(self, process_session):
        directory = process_session.shards[0].directory.parent
        assert all(
            isinstance(shard, StoredShard) for shard in process_session.shards
        )
        for merged in (
            process_session.merged_candidates,
            process_session.merged_join_candidates,
        ):
            assert isinstance(merged, StoredMergedCandidates)
            assert merged.path == directory / "merged.db"

    def test_close_removes_the_private_directory(self):
        artifacts = _one_shard_session().build()
        directory = artifacts.shards[0].directory.parent
        assert (directory / "merged.db").exists()
        artifacts.close()
        assert not directory.exists()

    def test_collection_removes_the_private_directory(self):
        artifacts = _one_shard_session().build()
        directory = artifacts.shards[0].directory.parent
        assert (directory / "merged.db").exists()
        del artifacts
        gc.collect()
        assert not directory.exists()

    def test_close_keeps_the_store_dir(self, tmp_path):
        root = tmp_path / "store"
        session = _one_shard_session(store_dir=root)
        session.build().close()
        assert (root / "merged.db").exists()
        # The shard store is still a checkpoint a rerun would load.
        store = ShardCheckpointStore(root)
        assert store.completed_shards(session.shard_configs) == [0]


class TestValidation:
    def test_checkpoint_dir_is_gone(self, tmp_path):
        # store_dir is the one session directory and the checkpoint.
        with pytest.raises(TypeError, match="checkpoint_dir"):
            ShardedBenchmarkSession(_plan(), checkpoint_dir=tmp_path)

    def test_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="store_backend"):
            ShardedBenchmarkSession(
                _plan(), store_dir=tmp_path, store_backend="parquet"
            )
        with pytest.raises(ValueError, match="pickle backend was removed"):
            ShardedBenchmarkSession(_plan(), store_backend="pickle")

    def test_build_config_validation(self, tmp_path):
        # store_dir alone selects the store; there is no backend field.
        config = BuildConfig.small(store_dir=str(tmp_path))
        assert config.store_dir == str(tmp_path)
        with pytest.raises(TypeError, match="store_backend"):
            BuildConfig.small(store_dir=str(tmp_path), store_backend="sqlite")


class TestPairJoinsInThePool:
    """Each surviving shard pair is joined by a task on the supervisor's
    pool, and its rows reach ``merged.db`` through a pair store.

    Every session here resumes from a copy of the serial fixture's shard
    stores, so no shard is rebuilt: only the pair wave and the merge
    run.
    """

    @staticmethod
    def _resumed(store_root, tmp_path, executor="serial", **kwargs):
        for shard in range(N_SHARDS):
            name = f"shard-{shard:04d}"
            shutil.copytree(store_root / "serial" / name, tmp_path / name)
        return _store_session(tmp_path, executor, **kwargs).build()

    @staticmethod
    def _swept(session):
        return {
            tuple(int(shard) for shard in label.split("→"))
            for label, outcome in session.sweep_stats.per_pair.items()
            if outcome != "skipped"
        }

    def test_group_table_equals_the_parent_side_completion(self, store_session):
        for shard, stored in zip(
            store_session.shard_ids, store_session.shards
        ):
            join = stored.blocked_candidates
            expected = shard_universe(stored, shard).blocker().group_positives(
                [(pair.row_a, pair.row_b) for pair in join.pairs]
            )
            connection = sqlite3.connect(stored.database)
            try:
                table = connection.execute(
                    "SELECT row_a, row_b, score FROM group_positives "
                    "ORDER BY position"
                ).fetchall()
            finally:
                connection.close()
            assert expected
            assert table == [
                (pair.row_a, pair.row_b, pair.score) for pair in expected
            ]

    @pytest.mark.parametrize(
        "executor, max_workers",
        [("serial", None), ("process", 1), ("process", 2)],
    )
    def test_merged_pin_under_every_executor_and_worker_count(
        self, store_root, store_session, tmp_path, executor, max_workers
    ):
        session = self._resumed(
            store_root, tmp_path, executor, max_workers=max_workers
        )
        try:
            assert (
                _candidates_fingerprint(session.merged_candidates)
                == EXPECTED_MERGED_SHA256
            )
            health = session.health
            assert set(health.statuses.values()) == {"checkpoint"}
            assert set(health.pair_attempts) == self._swept(session)
            assert health.pair_attempts
            pids = set()
            for records in health.pair_attempts.values():
                assert [record.ok for record in records] == [True]
                pids.add(records[0].pid)
            if executor == "process":
                # No cross-shard join ran in this (the parent) process.
                assert os.getpid() not in pids
                assert len(pids) <= max_workers
            else:
                assert pids == {os.getpid()}
            # The pair stores are gone once merged.db is committed.
            assert not (tmp_path / "pairs").exists()
            assert set(session.stage_timings) >= {
                "sweep:signatures",
                "sweep:prune",
                "sweep:rescore",
                *(f"sweep:{i}→{j}" for i, j in health.pair_attempts),
            }
        finally:
            session.close()

    def test_crashed_pair_task_is_retried(
        self, store_root, store_session, tmp_path
    ):
        plan = FaultPlan((FaultSpec(shard=(0, 1), attempt=1, kind="crash"),))
        session = self._resumed(
            store_root,
            tmp_path,
            "process",
            max_workers=2,
            fault_plan=plan,
            retry_backoff=0.0,
        )
        try:
            assert (
                _candidates_fingerprint(session.merged_candidates)
                == EXPECTED_MERGED_SHA256
            )
            records = session.health.pair_attempts[(0, 1)]
            assert [record.ok for record in records] == [False, True]
            assert records[0].error == "BrokenProcessPool"
            assert not session.degraded
            assert session.health.missing_pairs == ()
            # Pair attempts stay out of the per-shard build ledger.
            assert session.health.retries == 0
            assert all(
                records == () for records in session.health.attempts.values()
            )
        finally:
            session.close()

    def test_stale_pair_stores_are_discarded(
        self, store_root, store_session, tmp_path
    ):
        stale = tmp_path / "pairs"
        stale.mkdir()
        (stale / "pair-0000-0001.db").write_bytes(b"left by a crash")
        (tmp_path / "merged.db.tmp").write_bytes(b"left by a crash")
        session = self._resumed(store_root, tmp_path)
        try:
            assert (
                _candidates_fingerprint(session.merged_candidates)
                == EXPECTED_MERGED_SHA256
            )
            assert not stale.exists()
            assert not (tmp_path / "merged.db.tmp").exists()
        finally:
            session.close()

    @staticmethod
    def _failing_pair(monkeypatch, failing):
        original = session_module.cross_shard_candidates

        def join(universe_i, universe_j, **kwargs):
            if (universe_i.shard, universe_j.shard) == failing:
                raise ValueError("boom: a genuine code bug")
            return original(universe_i, universe_j, **kwargs)

        monkeypatch.setattr(session_module, "cross_shard_candidates", join)

    def test_failed_pair_raises_typed(
        self, store_root, store_session, tmp_path, monkeypatch
    ):
        self._failing_pair(monkeypatch, (0, 1))
        with pytest.raises(ShardBuildError, match="shard pair 0→1") as caught:
            self._resumed(store_root, tmp_path)
        assert caught.value.stage == "pair"
        assert isinstance(caught.value.__cause__, ValueError)
        assert not (tmp_path / "merged.db").exists()

    def test_failed_pair_is_missing_under_degrade(
        self, store_root, store_session, tmp_path, monkeypatch
    ):
        self._failing_pair(monkeypatch, (0, 1))
        session = self._resumed(
            store_root, tmp_path, failure_policy="degrade"
        )
        try:
            health = session.health
            assert health.missing_pairs == ((0, 1),)
            # No shard failed, yet a missing pair makes the session
            # degraded: its merged candidates lack the pair.
            assert health.failed_shards == ()
            assert session.degraded
            assert health.as_dict()["degraded"] is True
            # A code bug is never retried.
            assert [record.ok for record in health.pair_attempts[(0, 1)]] == [
                False
            ]
            assert health.as_dict()["missing_pairs"] == [[0, 1]]
            tags = session.merged_candidates.per_provenance_counts()
            assert not any(
                tag.startswith(("shard:0→1:", "shard:1→0:")) for tag in tags
            )
            assert any(tag.startswith("shard:0→2:") or tag.startswith(
                "shard:2→0:") for tag in tags) or (0, 2) not in self._swept(
                session
            )
        finally:
            session.close()
