"""The two-level signature index and the signature-pruned sweep.

Three layers of evidence that signature pruning never drops an
admissible candidate:

* **Prefix-filter soundness** — for random token-set universes, every
  cross-universe pair whose cosine/Dice/Jaccard similarity reaches the
  threshold keeps *both* of its rows in the :class:`SignatureIndex`
  block (the superset guarantee, checked against brute-force set
  similarities).
* **Sweep parity** — the signature-mode sweep's merged candidates are a
  superset of every exhaustive-mode cross-shard pair scoring at or
  above the admission threshold under an exact-token metric.
* **Pruning sanity** — at four universes the sweep's
  :class:`SweepPruneStats` show real pruning (blocks strictly smaller
  than the pair universes) while everything above still holds.

Serial-vs-process byte-identity of signature-mode sessions is pinned in
``test_session.py`` (sessions default to signature mode).
"""

import numpy as np
import pytest

from repro.core import BuildConfig
from repro.core.builder import build_one_corpus
from repro.shard.namespace import namespace_id, namespace_offer
from repro.shard.session import _sweep_universes
from repro.shard.signature_index import SignatureIndex, SweepPruneStats
from repro.shard.sweep import (
    CROSS_SHARD_METRICS,
    ShardUniverse,
    cross_shard_candidates,
)
from repro.similarity.engine import SimilarityEngine
from repro.similarity.signatures import (
    RowSignatures,
    global_token_order,
    length_window,
    overlap_lower_bound,
    prefix_lengths,
)

SWEEP_K = 10


def _sweep(universes, **kwargs):
    """The sweep over ``universes``, each one's own top-k join computed
    on demand (the ``ShardedArtifacts.split_candidates`` recipe)."""
    joins = (
        universe.blocker().candidates(
            k=kwargs["k"], metrics=universe.engine.metric_names
        )
        for universe in universes
    )
    return _sweep_universes(universes, joins, **kwargs)


# --------------------------------------------------------------------- #
# prefix/length math
# --------------------------------------------------------------------- #
class TestPrefixMath:
    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.2, 2.0])
    def test_threshold_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            overlap_lower_bound(bad)

    def test_lower_bound_is_cosine_squared(self):
        assert overlap_lower_bound(1.0) == pytest.approx(1.0)
        assert overlap_lower_bound(0.7) == pytest.approx(0.49)

    def test_prefix_lengths_empty_rows_are_zero(self):
        lengths = prefix_lengths(np.array([0.0, 3.0, 10.0]), 0.7)
        assert lengths[0] == 0
        assert (lengths[1:] >= 1).all()

    def test_prefix_lengths_never_exceed_set_size(self):
        sizes = np.arange(0.0, 40.0)
        for tau in (0.3, 0.7, 0.97):
            lengths = prefix_lengths(sizes, tau)
            assert (lengths <= sizes).all()

    def test_prefix_shrinks_as_threshold_grows(self):
        sizes = np.array([4.0, 10.0, 25.0])
        previous = prefix_lengths(sizes, 0.3)
        for tau in (0.5, 0.7, 0.9, 0.99):
            current = prefix_lengths(sizes, tau)
            assert (current <= previous).all()
            previous = current

    def test_exact_threshold_one_keeps_single_token_prefix(self):
        # tau=1 forces full overlap: one (rarest) token suffices to
        # witness an identical-set partner.
        assert prefix_lengths(np.array([10.0]), 1.0)[0] == 1

    def test_length_window_empty_rows_degenerate(self):
        lo, hi = length_window(np.array([0.0, 5.0]), 0.8)
        assert lo[0] == hi[0] == 0.0
        assert lo[1] < 5.0 < hi[1]

    def test_length_window_symmetric_for_admissible_sizes(self):
        # |y| inside x's window  ⟺  |x| inside y's window (cosine bound
        # is symmetric); spot-check the integer grid.
        tau = 0.8
        sizes = np.arange(1.0, 30.0)
        lo, hi = length_window(sizes, tau)
        for x in range(1, 30):
            for y in range(1, 30):
                in_x = lo[x - 1] <= y <= hi[x - 1]
                in_y = lo[y - 1] <= x <= hi[y - 1]
                assert in_x == in_y


class TestGlobalTokenOrder:
    def test_rarest_first_with_lexicographic_ties(self):
        order = global_token_order({"bb": 2, "aa": 2, "zz": 1})
        assert order == {"zz": 0, "aa": 1, "bb": 2}

    def test_empty_counts(self):
        assert global_token_order({}) == {}


# --------------------------------------------------------------------- #
# row summaries
# --------------------------------------------------------------------- #
def _engine(titles):
    return SimilarityEngine(titles)


class TestRowSignatures:
    TITLES = [
        "alpha beta gamma",
        "beta gamma",
        "",
        "alpha delta epsilon zeta",
        "beta",
    ]

    def test_from_engine_matches_token_sets(self):
        engine = _engine(self.TITLES)
        summary = RowSignatures.from_engine(engine)
        assert summary.n_rows == len(self.TITLES)
        expected_sizes = [len(tokens) for tokens in engine.token_sets]
        assert summary.set_sizes.tolist() == expected_sizes
        counts = summary.token_count_map()
        for token, count in counts.items():
            assert count == sum(
                token in tokens for tokens in engine.token_sets
            )

    def test_prefix_entries_match_brute_force(self):
        engine = _engine(self.TITLES)
        summary = RowSignatures.from_engine(engine)
        counts = summary.token_count_map()
        order = global_token_order(counts)
        local_to_global = np.array(
            [order[token] for token in summary.tokens], dtype=np.intp
        )
        tau = 0.6
        rows, gids = summary.prefix_entries(local_to_global, tau)
        lengths = prefix_lengths(summary.set_sizes, tau)
        expected = set()
        for row, tokens in enumerate(engine.token_sets):
            ordered = sorted(order[token] for token in tokens)
            for gid in ordered[: lengths[row]]:
                expected.add((row, gid))
        assert set(zip(rows.tolist(), gids.tolist())) == expected

    def test_summary_is_picklable(self):
        import pickle

        summary = RowSignatures.from_engine(_engine(self.TITLES))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.tokens == summary.tokens
        assert (clone.set_sizes == summary.set_sizes).all()


# --------------------------------------------------------------------- #
# index soundness vs brute force
# --------------------------------------------------------------------- #
def _random_titles(rng, n_rows, vocab, max_tokens=8):
    titles = []
    for _ in range(n_rows):
        count = int(rng.integers(0, max_tokens + 1))
        tokens = rng.choice(vocab, size=count, replace=False)
        titles.append(" ".join(tokens))
    return titles


def _set_similarities(x: set, y: set) -> tuple[float, float, float]:
    """(cosine, dice, jaccard) of two token sets, empty-safe."""
    if not x and not y:
        return 1.0, 1.0, 1.0
    if not x or not y:
        return 0.0, 0.0, 0.0
    overlap = len(x & y)
    cosine = overlap / ((len(x) * len(y)) ** 0.5)
    dice = 2 * overlap / (len(x) + len(y))
    jaccard = overlap / len(x | y)
    return cosine, dice, jaccard


class TestSignatureIndexSoundness:
    @pytest.mark.parametrize("tau", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_admissible_pairs_survive_into_blocks(self, tau, seed):
        rng = np.random.default_rng(seed)
        vocab = np.array([f"tok{i:02d}" for i in range(25)])
        engines = [
            _engine(_random_titles(rng, 35, vocab)) for _ in range(3)
        ]
        summaries = [RowSignatures.from_engine(engine) for engine in engines]
        index = SignatureIndex(summaries, threshold=tau)
        checked = 0
        for i in range(3):
            for j in range(i + 1, 3):
                block = index.candidate_block(i, j)
                rows_i = set() if block is None else set(block[0].tolist())
                rows_j = set() if block is None else set(block[1].tolist())
                for a, x in enumerate(engines[i].token_sets):
                    for b, y in enumerate(engines[j].token_sets):
                        if max(_set_similarities(x, y)) >= tau:
                            checked += 1
                            assert a in rows_i and b in rows_j, (
                                f"admissible pair ({a}, {b}) of shards "
                                f"({i}, {j}) pruned at tau={tau}: "
                                f"{sorted(x)} vs {sorted(y)}"
                            )
        assert checked > 0  # the property was actually exercised

    def test_disjoint_vocabularies_skip_the_pair(self):
        left = _engine(["aa bb cc", "bb cc dd"])
        right = _engine(["xx yy", "yy zz"])
        index = SignatureIndex(
            [RowSignatures.from_engine(left), RowSignatures.from_engine(right)],
            threshold=0.5,
        )
        assert not index.shard_pair_survives(0, 1)
        assert index.candidate_block(0, 1) is None

    def test_empty_rows_match_only_other_empty_rows(self):
        # dice(∅, ∅) scores 1.0 in the engine, so two shards that both
        # hold an empty row must keep those rows; a shard whose partner
        # has none must not.
        with_empty = _engine(["aa bb", ""])
        also_empty = _engine(["xx yy", ""])
        no_empty = _engine(["xx yy"])
        summaries = [
            RowSignatures.from_engine(engine)
            for engine in (with_empty, also_empty, no_empty)
        ]
        index = SignatureIndex(summaries, threshold=0.9)
        block = index.candidate_block(0, 1)
        assert block is not None
        assert 1 in block[0].tolist() and 1 in block[1].tolist()
        assert index.candidate_block(0, 2) is None

    def test_blocks_are_sorted_and_unique(self):
        rng = np.random.default_rng(3)
        vocab = np.array([f"tok{i:02d}" for i in range(12)])
        engines = [_engine(_random_titles(rng, 20, vocab)) for _ in range(2)]
        index = SignatureIndex(
            [RowSignatures.from_engine(engine) for engine in engines],
            threshold=0.6,
        )
        block = index.candidate_block(0, 1)
        assert block is not None
        for rows in block:
            assert (np.diff(rows) > 0).all()

    def test_needs_at_least_one_summary(self):
        with pytest.raises(ValueError, match="at least one"):
            SignatureIndex([], threshold=0.5)


class TestSweepPruneStats:
    def test_ratios_guard_zero_denominators(self):
        stats = SweepPruneStats(mode="signature", threshold=0.9)
        assert stats.pair_prune_ratio == 0.0
        assert stats.row_prune_ratio == 0.0
        assert stats.cell_prune_ratio == 0.0

    def test_as_dict_round_trips_the_ratios(self):
        stats = SweepPruneStats(
            mode="signature",
            threshold=0.9,
            pairs_total=4,
            pairs_skipped=1,
            rows_universe=100,
            rows_rescored=40,
            cells_universe=1000,
            cells_rescored=100,
        )
        payload = stats.as_dict()
        assert payload["pairs_swept"] == 3
        assert payload["pair_prune_ratio"] == pytest.approx(0.25)
        assert payload["row_prune_ratio"] == pytest.approx(0.6)
        assert payload["cell_prune_ratio"] == pytest.approx(0.9)


# --------------------------------------------------------------------- #
# sweep parity on real shard universes
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def universes():
    """Four disjoint slices of one small corpus as shard universes.

    Slicing one corpus (instead of building four) keeps the fixture to a
    single build while guaranteeing near-duplicate titles *across* the
    fake shards — offers of one cluster land in different slices — so
    the parity assertions below are exercised by pairs that actually
    reach high thresholds.
    """
    artifacts = build_one_corpus(BuildConfig.small(n_products=30))
    offers = list(artifacts.cleansed.offers)
    slices = [np.arange(start, len(offers), 4) for start in range(4)]
    return [
        ShardUniverse(
            shard=shard,
            engine=artifacts.engine.view(rows),
            offers=[
                namespace_offer(offers[int(row)], shard) for row in rows
            ],
            labels=[
                namespace_id(shard, offers[int(row)].cluster_id)
                for row in rows
            ],
        )
        for shard, rows in enumerate(slices)
    ]


def _cross_keys_at_or_above(merged, tau):
    """Cross-shard pair keys scoring ≥ tau under an exact-token metric."""
    keys = set()
    for pair in merged.pairs:
        _, direction, metric = pair.provenance.split(":")
        source, target = direction.split("→")
        if source == target or metric not in ("cosine", "dice"):
            continue
        if pair.score >= tau:
            keys.add(
                frozenset((pair.offer_a.offer_id, pair.offer_b.offer_id))
            )
    return keys


def _all_keys(merged):
    return {
        frozenset((pair.offer_a.offer_id, pair.offer_b.offer_id))
        for pair in merged.pairs
    }


class TestSweepParity:
    TAU = 0.9

    @pytest.fixture(scope="class")
    def swept(self, universes):
        kwargs = dict(k=SWEEP_K, cross_metrics=("cosine", "dice"), n_shards=4)
        exhaustive = _sweep(
            universes, sweep_mode="exhaustive", **kwargs
        )
        signature = _sweep(
            universes,
            sweep_mode="signature",
            signature_threshold=self.TAU,
            **kwargs,
        )
        return exhaustive, signature

    def test_signature_candidates_superset_above_threshold(self, swept):
        (exh_completed, exh_join, _), (sig_completed, sig_join, _) = swept
        admissible = _cross_keys_at_or_above(exh_join, self.TAU)
        assert admissible, "fixture produced no pairs above the threshold"
        assert admissible <= _all_keys(sig_join)
        assert _cross_keys_at_or_above(exh_completed, self.TAU) <= _all_keys(
            sig_completed
        )

    def test_prune_stats_show_real_pruning_at_four_shards(self, swept):
        (_, _, exh_stats), (_, _, sig_stats) = swept
        assert exh_stats.mode == "exhaustive"
        assert exh_stats.rows_rescored == exh_stats.rows_universe
        assert sig_stats.mode == "signature"
        assert sig_stats.threshold == self.TAU
        assert sig_stats.pairs_total == 6
        assert sig_stats.rows_rescored > 0
        pruned = sig_stats.pairs_skipped + (
            sig_stats.rows_universe - sig_stats.rows_rescored
        )
        assert pruned > 0
        surviving = [
            entry
            for entry in sig_stats.per_pair.values()
            if entry != "skipped"
        ]
        assert surviving
        assert all(
            0.0 < entry["rescored_fraction"] <= 1.0 for entry in surviving
        )

    def test_signature_timings_rows_recorded(self, universes):
        timings: dict[str, float] = {}
        _sweep(
            universes,
            k=SWEEP_K,
            cross_metrics=("cosine",),
            n_shards=4,
            timings=timings,
            sweep_mode="signature",
            signature_threshold=self.TAU,
        )
        assert "sweep:signatures" in timings
        assert "sweep:prune" in timings
        assert "sweep:rescore" in timings
        assert timings["sweep:rescore"] > 0.0

    def test_worker_built_summaries_change_nothing(self, universes):
        """Pre-built summaries (the worker path) are a pure shortcut."""
        kwargs = dict(
            k=SWEEP_K,
            cross_metrics=("cosine",),
            n_shards=4,
            sweep_mode="signature",
            signature_threshold=self.TAU,
        )
        summaries = [
            RowSignatures.from_engine(universe.engine)
            for universe in universes
        ]
        _, inline_join, _ = _sweep(universes, **kwargs)
        _, prebuilt_join, _ = _sweep(
            universes, summaries=summaries, **kwargs
        )
        assert _all_keys(inline_join) == _all_keys(prebuilt_join)


class TestCrossShardMetricDefaults:
    def test_default_metrics_are_the_cross_shard_set(self, universes):
        blocked, _ = cross_shard_candidates(
            universes[0], universes[1], k=3
        )
        assert blocked.metrics == CROSS_SHARD_METRICS
        surfaced = {pair.metric for pair in blocked.pairs}
        assert surfaced <= set(CROSS_SHARD_METRICS)
        assert "cosine" in surfaced

    def test_embedding_metric_rejected_by_name(self, universes):
        with pytest.raises(ValueError) as excinfo:
            cross_shard_candidates(
                universes[0],
                universes[1],
                k=3,
                metrics=("cosine", "lsa_embedding"),
            )
        message = str(excinfo.value)
        assert "lsa_embedding" in message
        assert "token metrics" in message

    def test_restrict_preserves_alignment(self, universes):
        universe = universes[0]
        rows = np.array([0, 2, 5], dtype=np.intp)
        restricted = universe.restrict(rows)
        assert len(restricted) == 3
        assert restricted.shard == universe.shard
        for position, row in enumerate(rows):
            assert (
                restricted.offers[position].offer_id
                == universe.offers[int(row)].offer_id
            )
            assert (
                restricted.labels[position] == universe.labels[int(row)]
            )
