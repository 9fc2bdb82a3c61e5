"""The typed error hierarchy: compat, carried state, pickling."""

import pickle

import pytest

from repro.errors import (
    CornerSelectionError,
    ReproError,
    ShardBuildError,
    ShardCrashError,
    ShardRetriesExhaustedError,
    ShardTimeoutError,
)


class TestCornerSelectionError:
    def test_still_a_value_error(self):
        """Pre-existing ``except ValueError`` callers keep working."""
        error = CornerSelectionError("not enough", needed=800, found=795)
        assert isinstance(error, ValueError)
        assert isinstance(error, ReproError)
        with pytest.raises(ValueError):
            raise error

    def test_carries_the_quota_it_could_not_meet(self):
        error = CornerSelectionError(
            "not enough corner-case products: needed 800, found 795",
            needed=800,
            found=795,
            part="seen",
            corner_case_ratio=0.8,
            kind="corner",
        )
        assert error.needed == 800
        assert error.found == 795
        assert error.part == "seen"
        assert error.corner_case_ratio == 0.8
        assert error.kind == "corner"
        assert "needed 800, found 795" in str(error)

    def test_pickles_across_process_boundaries(self):
        error = CornerSelectionError(
            "quota", needed=10, found=3, part="unseen",
            corner_case_ratio=0.5, kind="random_fill",
        )
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is CornerSelectionError
        assert str(clone) == "quota"
        assert (clone.needed, clone.found) == (10, 3)
        assert clone.part == "unseen"
        assert clone.kind == "random_fill"


class TestShardBuildErrors:
    @pytest.mark.parametrize(
        "cls",
        [
            ShardBuildError,
            ShardCrashError,
            ShardTimeoutError,
            ShardRetriesExhaustedError,
        ],
    )
    def test_subclasses_pickle_with_their_ledger_fields(self, cls):
        error = cls(
            "shard 2 attempt 3 failed",
            shard=2,
            attempt=3,
            stage="selection",
            elapsed=1.25,
        )
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert isinstance(clone, ShardBuildError)
        assert str(clone) == "shard 2 attempt 3 failed"
        assert clone.shard == 2
        assert clone.attempt == 3
        assert clone.stage == "selection"
        assert clone.elapsed == 1.25

    def test_fields_default_to_none(self):
        error = ShardBuildError("bare")
        assert error.shard is None and error.attempt is None
        assert error.stage is None and error.elapsed is None
