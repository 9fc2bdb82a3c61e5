"""Determinism of the staged builder.

A fixed seed must yield byte-identical benchmark contents on every
rebuild: every corner-case ratio derives its random streams by name from
the master seed and the ratios are built in configuration order.
"""

import hashlib

import pytest

from repro.core import BenchmarkBuilder, BuildConfig


def _pair_dataset_fingerprint(dataset):
    return (
        dataset.name,
        [
            (
                pair.pair_id,
                pair.offer_a.offer_id,
                pair.offer_b.offer_id,
                pair.label,
                pair.provenance,
            )
            for pair in dataset.pairs
        ],
    )


def _multiclass_fingerprint(dataset):
    return (
        dataset.name,
        [offer.offer_id for offer in dataset.offers],
        list(dataset.labels),
    )


class TestStageTimings:
    def test_stage_timings_recorded(self, artifacts_small):
        timings = artifacts_small.stage_timings
        stages = list(timings)
        assert {"corpus", "cleansing", "grouping", "embedding", "engine",
                "ratios"} <= set(stages)
        ratio_stages = [s for s in stages if s.startswith("ratio:")]
        assert len(ratio_stages) == len(artifacts_small.config.corner_case_ratios)
        assert all(
            stages.index("ratios") < stages.index(s) for s in ratio_stages
        )
        assert all(v >= 0.0 for v in timings.values())

    def test_parallel_ratio_builds_option_removed(self):
        with pytest.raises(TypeError, match="parallel_ratio_builds"):
            BuildConfig.small(parallel_ratio_builds=True)


class TestRebuildIdentity:
    def test_same_seed_same_build(self, artifacts_small):
        """A rebuild with the same seed reproduces every dataset exactly."""
        rebuilt = BenchmarkBuilder(BuildConfig.small()).build()
        for attribute, fingerprint in (
            ("train_sets", _pair_dataset_fingerprint),
            ("valid_sets", _pair_dataset_fingerprint),
            ("test_sets", _pair_dataset_fingerprint),
            ("multiclass_train", _multiclass_fingerprint),
            ("multiclass_valid", _multiclass_fingerprint),
            ("multiclass_test", _multiclass_fingerprint),
        ):
            original = getattr(artifacts_small.benchmark, attribute)
            again = getattr(rebuilt.benchmark, attribute)
            assert list(original) == list(again), attribute
            for key, dataset in original.items():
                assert fingerprint(dataset) == fingerprint(again[key]), (
                    attribute,
                    key,
                )


class TestCrossRevisionIdentity:
    """Pin the seeded small build's pair sets byte-for-byte across PRs.

    The hash was recorded before the corner-negative consumption loop was
    vectorized and the exclusion masks moved to group ids; any change to
    it means a seeded build no longer reproduces the committed revision's
    pair sets and must be called out explicitly (as PR 1 did when batching
    reordered the pair RNG stream).
    """

    EXPECTED_SHA256 = (
        "73446628d27a7ec47087e8a472edf82b790be0f1d06efb04d3482e705478154d"
    )

    def test_small_build_pair_sets_fingerprint(self, artifacts_small):
        digest = hashlib.sha256()
        benchmark = artifacts_small.benchmark
        for attribute in ("train_sets", "valid_sets", "test_sets"):
            for dataset in getattr(benchmark, attribute).values():
                digest.update(dataset.name.encode())
                for pair in dataset.pairs:
                    digest.update(
                        f"{pair.pair_id}|{pair.offer_a.offer_id}|"
                        f"{pair.offer_b.offer_id}|{pair.label}|"
                        f"{pair.provenance}\n".encode()
                    )
        assert digest.hexdigest() == self.EXPECTED_SHA256
