"""End-to-end benchmark construction (the Figure-2 pipeline).

The canonical entry point is :func:`build_one_corpus`, a module-level
stage runner that takes one :class:`BuildConfig` and chains every stage as
an explicitly named step:

1. ``corpus``    — synthetic corpus generation,
2. ``cleansing`` — the Section-3.2 cleansing pipeline,
3. ``grouping``  — DBSCAN grouping + curation,
4. ``embedding`` — LSA embedding fit (the fastText stand-in),
5. ``engine``    — the shared :class:`SimilarityEngine` precomputation
   (one tokenization/incidence-matrix/embedding pass for the whole corpus),
6. ``blocking``  — optional (``BuildConfig.blocking_top_k > 0``): the
   corpus-level top-k candidate join producing labeled blocked pairs for
   materialization-free matcher training,
7. ``ratio:*``   — per-corner-case-ratio selection → splitting → pair
   generation → multi-class datasets.

Being module-level (and therefore picklable), :func:`build_one_corpus` is
also the unit of work a :class:`~repro.shard.ShardedBenchmarkSession`
ships to worker *processes* — the stages are serial Python, so the corpus
is the parallel unit.  :class:`BenchmarkBuilder` remains as the
single-corpus special case: a thin compatible wrapper whose ``build()``
delegates here.

The per-ratio builds are mutually independent: each derives its random
streams by name from the master seed and only reads the shared artifacts,
and stage 7 runs them in configuration order.  Per-stage wall-clock
timings are recorded in :attr:`BuildArtifacts.stage_timings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.candidates import BlockedPairSet, CandidateBlocker
from repro.cleansing.pipeline import CleansingPipeline, CleansingReport
from repro.core.benchmark import WDCProductsBenchmark
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.core.multiclass import build_multiclass_eval, build_multiclass_train
from repro.core.pairs import generate_pairs
from repro.core.selection import ProductSelection, select_products
from repro.core.splitting import OfferSplit, split_offers
from repro.corpus.generator import CorpusConfig, CorpusGenerator, GeneratedCorpus
from repro.corpus.schema import SyntheticCorpus
from repro.grouping.curation import GroupedCorpus, group_products
from repro.similarity.embedding import LsaEmbeddingModel
from repro.similarity.engine import SimilarityEngine
from repro.similarity.registry import SimilarityRegistry, validate_metric_names
from repro.utils.rng import RngStream
from repro.utils.timer import Timer

__all__ = [
    "BuildConfig",
    "BuildArtifacts",
    "BenchmarkBuilder",
    "build_one_corpus",
]

_TEST_CORNER_NEGATIVES = 3  # test & large-validation setting of Section 3.6


@dataclass(frozen=True)
class BuildConfig:
    """Scale parameters of the benchmark build."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    seed: int = 42
    n_products: int = 500
    n_similar: int = 4
    corner_case_ratios: tuple[CornerCaseRatio, ...] = tuple(CornerCaseRatio)
    # Bound on the engine's per-corpus Generalized-Jaccard pair cache,
    # shared by every ratio build of the corpus.
    gj_cache_entries: int = 1 << 20
    # When positive, the build runs an extra timed ``blocking`` stage: a
    # corpus-level top-k candidate join (``CandidateBlocker``) whose
    # blocked pair set is stored on the artifacts for materialization-free
    # matcher training and blocking-recall evaluation.
    blocking_top_k: int = 0
    blocking_metrics: tuple[str, ...] = ("cosine",)
    # Out-of-core artifact store.  With a ``store_dir``, the build runs a
    # final timed ``store`` stage that persists the artifacts into an
    # SQLite + mmap-sidecar store at that directory (see
    # :mod:`repro.io.store`) — the layout shard workers hand back by path
    # instead of pickling artifacts through the pool.  ``None`` (the
    # default) keeps the artifacts in memory only, with no store stage.
    store_dir: str | None = None

    def __post_init__(self) -> None:
        validate_metric_names(
            self.blocking_metrics, context="BuildConfig.blocking_metrics"
        )

    @classmethod
    def small(cls, *, seed: int = 42, **overrides) -> "BuildConfig":
        """Reduced configuration for tests: 60 products per set.

        ``overrides`` may replace any field.  Explicit overrides always
        win over the small defaults — in particular a caller-supplied
        ``corpus`` is used verbatim instead of the ``CorpusConfig.small()``
        default.
        """
        overrides.setdefault("corpus", CorpusConfig.small())
        overrides.setdefault("n_products", 60)
        overrides.setdefault("seed", seed)
        return cls(**overrides)


@dataclass
class BuildArtifacts:
    """The benchmark plus every intermediate pipeline artifact."""

    config: BuildConfig
    generated: GeneratedCorpus
    cleansed: SyntheticCorpus
    cleansing_report: CleansingReport
    grouped: GroupedCorpus
    selections: dict[tuple[CornerCaseRatio, str], ProductSelection] = field(
        default_factory=dict
    )
    splits: dict[CornerCaseRatio, OfferSplit] = field(default_factory=dict)
    benchmark: WDCProductsBenchmark = field(default_factory=WDCProductsBenchmark)
    embedding_model: LsaEmbeddingModel | None = None
    engine: SimilarityEngine | None = None
    blocker: CandidateBlocker | None = None
    blocked_candidates: BlockedPairSet | None = None
    stage_timings: dict[str, float] = field(default_factory=dict)

    def selected_cluster_ids(self) -> set[str]:
        """Products appearing in any selection (any ratio, any part)."""
        selected: set[str] = set()
        for selection in self.selections.values():
            selected.update(selection.cluster_ids())
        return selected

    def pretraining_clusters(
        self, serializer=None
    ) -> list[tuple[str, str, list[str]]]:
        """Identifier clusters usable for checkpoint pre-training.

        Only clusters *never selected* for the benchmark are returned, so a
        checkpoint pretrained on them cannot leak information about any
        benchmark product — in particular the unseen test products stay
        genuinely unseen.  ``serializer`` maps an offer to its text; pass
        the same serializer the downstream matcher uses so the checkpoint's
        training distribution matches fine-tuning (default: brand + title).
        """
        if serializer is None:
            def serializer(offer):
                if offer.brand:
                    return f"{offer.brand} {offer.title}"
                return offer.title

        selected = self.selected_cluster_ids()
        result: list[tuple[str, str, list[str]]] = []
        for cluster in self.cleansed.clusters(min_size=2):
            if cluster.cluster_id in selected:
                continue
            texts = [serializer(offer) for offer in cluster.offers]
            result.append((cluster.cluster_id, cluster.family_id, texts))
        return result


# --------------------------------------------------------------------- #
# Stages 1-6: shared artifacts
# --------------------------------------------------------------------- #
def _stage_corpus(config: BuildConfig) -> GeneratedCorpus:
    return CorpusGenerator(config.corpus).generate()


def _stage_cleansing(
    generated: GeneratedCorpus,
) -> tuple[SyntheticCorpus, CleansingReport]:
    pipeline = CleansingPipeline()
    cleansed = pipeline.run(generated.corpus)
    return cleansed, pipeline.report


def _stage_grouping(cleansed: SyntheticCorpus) -> GroupedCorpus:
    return group_products(cleansed)


def _stage_embedding(cleansed: SyntheticCorpus) -> LsaEmbeddingModel:
    # Embedding model for the metric registry, trained on corpus titles
    # (the stand-in for the paper's fastText model).
    return LsaEmbeddingModel(dim=32).fit(
        [offer.title for offer in cleansed.offers]
    )


def _stage_engine(
    config: BuildConfig,
    cleansed: SyntheticCorpus,
    grouped: GroupedCorpus,
    embedding_model: LsaEmbeddingModel,
) -> tuple[SimilarityEngine, dict[str, int], dict[str, int]]:
    """One corpus-level engine plus the offer-id and cluster-id row maps."""
    engine = SimilarityEngine(
        [offer.title for offer in cleansed.offers],
        embedding_model=embedding_model,
        gj_cache_entries=config.gj_cache_entries,
    )
    offer_rows = {
        offer.offer_id: row for row, offer in enumerate(cleansed.offers)
    }
    cluster_rows: dict[str, int] = {}
    for groups in (grouped.seen_groups, grouped.unseen_groups):
        for group in groups:
            for cluster in group.clusters:
                representative = cluster.representative_offer()
                cluster_rows[cluster.cluster_id] = offer_rows[
                    representative.offer_id
                ]
    return engine, offer_rows, cluster_rows


def _stage_blocking(
    config: BuildConfig, cleansed: SyntheticCorpus, engine: SimilarityEngine
) -> tuple[CandidateBlocker, BlockedPairSet]:
    """Corpus-level candidate join: every offer's top-k most similar.

    The blocked pair set is the materialization-free counterpart of
    the pair datasets built in stage 7 — labeled candidates matchers
    can train on without any pre-built pair sets.
    """
    offers = list(cleansed.offers)
    blocker = CandidateBlocker(
        engine,
        offers=offers,
        group_labels=[offer.cluster_id for offer in offers],
    )
    blocked = blocker.candidates(
        k=config.blocking_top_k, metrics=config.blocking_metrics
    )
    return blocker, blocked


# --------------------------------------------------------------------- #
# Stage 7: one corner-case ratio
# --------------------------------------------------------------------- #
def _build_ratio(
    artifacts: BuildArtifacts,
    corner_cases: CornerCaseRatio,
    offer_rows: dict[str, int],
    cluster_rows: dict[str, int],
    stream: RngStream,
) -> None:
    """Add one corner-case ratio's selections, split and datasets."""
    config = artifacts.config
    engine = artifacts.engine
    benchmark = artifacts.benchmark
    ratio_name = corner_cases.label
    registry = SimilarityRegistry(
        embedding_model=artifacts.embedding_model,
        rng=stream.generator("registry", ratio_name),
    )

    # Step 4: product selection (seen and unseen sets of n_products).
    for part in ("seen", "unseen"):
        artifacts.selections[(corner_cases, part)] = select_products(
            artifacts.grouped,
            part=part,
            corner_case_ratio=corner_cases.value,
            n_products=config.n_products,
            n_similar=config.n_similar,
            registry=registry,
            rng=stream.generator("selection", ratio_name, part),
            engine=engine,
            cluster_rows=cluster_rows,
        )

    # Step 5: offer splitting (incl. the three test product sets).
    split = split_offers(
        artifacts.selections[(corner_cases, "seen")],
        artifacts.selections[(corner_cases, "unseen")],
        registry=registry,
        rng=stream.generator("splitting", ratio_name),
        engine=engine,
        offer_rows=offer_rows,
    )
    artifacts.splits[corner_cases] = split

    # Step 6: pair generation for every development size and test set,
    # plus the multi-class datasets (valid/test built once — they do not
    # depend on the development-set size).
    for dev_size in DevSetSize:
        pair_rng = stream.generator("pairs", ratio_name, dev_size.value)
        key = (corner_cases, dev_size)
        benchmark.train_sets[key] = generate_pairs(
            split.train_offers(dev_size),
            name=f"train-{ratio_name}-{dev_size.value}",
            corner_negatives_per_offer=dev_size.corner_negatives_per_offer,
            rng=pair_rng,
            engine=engine,
            offer_rows=offer_rows,
        )
        benchmark.valid_sets[key] = generate_pairs(
            split.valid_offers(),
            name=f"valid-{ratio_name}-{dev_size.value}",
            corner_negatives_per_offer=dev_size.corner_negatives_per_offer,
            rng=pair_rng,
            engine=engine,
            offer_rows=offer_rows,
        )
        benchmark.multiclass_train[key] = build_multiclass_train(
            split,
            dev_size=dev_size,
            name_prefix=f"multiclass-{ratio_name}",
        )
    (
        benchmark.multiclass_valid[corner_cases],
        benchmark.multiclass_test[corner_cases],
    ) = build_multiclass_eval(split, name_prefix=f"multiclass-{ratio_name}")

    for unseen in UnseenRatio:
        test_rng = stream.generator("pairs", ratio_name, "test", unseen.label)
        benchmark.test_sets[(corner_cases, unseen)] = generate_pairs(
            split.test_offers(unseen),
            name=f"test-{ratio_name}-{unseen.label.lower()}",
            corner_negatives_per_offer=_TEST_CORNER_NEGATIVES,
            rng=test_rng,
            engine=engine,
            offer_rows=offer_rows,
        )


# --------------------------------------------------------------------- #
def build_one_corpus(config: BuildConfig) -> BuildArtifacts:
    """Run every pipeline stage for one corpus and return its artifacts.

    This is the reusable stage runner behind both
    :meth:`BenchmarkBuilder.build` (the single-shard special case) and the
    per-shard worker processes of a
    :class:`~repro.shard.ShardedBenchmarkSession` — it is module-level and
    takes only a picklable :class:`BuildConfig`, so it can be shipped to a
    :class:`~concurrent.futures.ProcessPoolExecutor` unchanged.
    """
    stream = RngStream(config.seed, "benchmark")
    timings: dict[str, float] = {}

    with Timer() as timer:
        generated = _stage_corpus(config)
    timings["corpus"] = timer.elapsed

    with Timer() as timer:
        cleansed, cleansing_report = _stage_cleansing(generated)
    timings["cleansing"] = timer.elapsed
    for stage, seconds in cleansing_report.stage_seconds.items():
        timings[f"cleansing:{stage}"] = seconds

    with Timer() as timer:
        grouped = _stage_grouping(cleansed)
    timings["grouping"] = timer.elapsed

    with Timer() as timer:
        embedding_model = _stage_embedding(cleansed)
    timings["embedding"] = timer.elapsed

    with Timer() as timer:
        engine, offer_rows, cluster_rows = _stage_engine(
            config, cleansed, grouped, embedding_model
        )
    timings["engine"] = timer.elapsed

    blocker: CandidateBlocker | None = None
    blocked: BlockedPairSet | None = None
    if config.blocking_top_k > 0:
        with Timer() as timer:
            blocker, blocked = _stage_blocking(config, cleansed, engine)
        timings["blocking"] = timer.elapsed

    artifacts = BuildArtifacts(
        config=config,
        generated=generated,
        cleansed=cleansed,
        cleansing_report=cleansing_report,
        grouped=grouped,
        embedding_model=embedding_model,
        engine=engine,
        blocker=blocker,
        blocked_candidates=blocked,
        stage_timings=timings,
    )

    # Stage 7, one corner-case ratio at a time.  ``ratios`` is keyed
    # before the loop so it precedes its nested ``ratio:*`` rows.
    timings["ratios"] = 0.0
    with Timer() as ratios_timer:
        for corner_cases in config.corner_case_ratios:
            with Timer() as timer:
                _build_ratio(
                    artifacts, corner_cases, offer_rows, cluster_rows, stream
                )
            timings[f"ratio:{corner_cases.label}"] = timer.elapsed
    timings["ratios"] = ratios_timer.elapsed

    if config.store_dir is not None:
        # Deferred import: repro.core.__init__ imports this module, and
        # repro.io.store imports core submodules — a module-level import
        # here would make the cycle real.
        from repro.io.store import write_store

        with Timer() as timer:
            write_store(config.store_dir, artifacts)
        timings["store"] = timer.elapsed
    return artifacts


class BenchmarkBuilder:
    """The single-corpus entry point: one config, one benchmark.

    A thin wrapper over :func:`build_one_corpus`, kept for compatibility
    and as the single-shard special case of the sharded session API
    (:class:`~repro.shard.ShardedBenchmarkSession` schedules many of these
    stage runs across worker processes).
    """

    def __init__(self, config: BuildConfig | None = None):
        self.config = config if config is not None else BuildConfig()

    def build(self) -> BuildArtifacts:
        return build_one_corpus(self.config)
