"""Benchmark profiling (Section 4, Tables 1 and 2) and build-stage timing."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.core.benchmark import WDCProductsBenchmark
from repro.core.dimensions import CornerCaseRatio, DevSetSize, UnseenRatio
from repro.corpus.schema import ProductOffer
from repro.text.tokenize import tokenize
from repro.text.vocabulary import SubwordTokenizer

__all__ = [
    "Table1Row",
    "table1_statistics",
    "Table2Row",
    "table2_profile",
    "benchmark_totals",
    "StageTimingRow",
    "build_profile",
]


# --------------------------------------------------------------------- #
# Pipeline stage timings
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StageTimingRow:
    """Wall-clock seconds of one named pipeline stage."""

    stage: str
    seconds: float
    share: float  # fraction of the total build time


def build_profile(artifacts) -> list[StageTimingRow]:
    """Per-stage wall-clock profile of a :class:`BuildArtifacts`.

    Stage names containing ``:`` are *nested* breakdowns of a top-level
    stage: ``ratio:*`` rows report each corner-case ratio's own build time
    (they sum to the ``ratios`` wall-clock) and ``cleansing:*`` rows split the cleansing stage into its five §3.2
    sub-stages.  Shares are computed against the sum of the top-level
    stages only; nested rows carry share 0.
    """
    timings: dict[str, float] = getattr(artifacts, "stage_timings", {})
    total = sum(seconds for stage, seconds in timings.items() if ":" not in stage)
    rows = []
    for stage, seconds in timings.items():
        share = seconds / total if total > 0 and ":" not in stage else 0.0
        rows.append(StageTimingRow(stage=stage, seconds=seconds, share=share))
    return rows


# --------------------------------------------------------------------- #
# Table 1 — split sizes
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Table1Row:
    """One (type, corner-cases) row of Table 1."""

    split_type: str  # "Training" | "Validation" | "Test"
    corner_cases: str  # "80%" | "50%" | "20%"
    pairwise: dict[str, tuple[int, int, int]]  # size -> (all, pos, neg)
    multiclass: dict[str, int]  # size -> n offers


def _pair_counts(dataset) -> tuple[int, int, int]:
    summary = dataset.summary()
    return summary["all"], summary["pos"], summary["neg"]


def table1_statistics(benchmark: WDCProductsBenchmark) -> list[Table1Row]:
    """Compute every row of Table 1 from a built benchmark.

    Custom builds may cover a subset of the corner-case ratios; only the
    ratios actually present are reported.
    """
    built_ratios = {cc for cc, _ in benchmark.train_sets}
    rows: list[Table1Row] = []
    for corner_cases in CornerCaseRatio:
        if corner_cases not in built_ratios:
            continue
        rows.append(
            Table1Row(
                split_type="Training",
                corner_cases=corner_cases.label,
                pairwise={
                    dev.value: _pair_counts(benchmark.train_sets[(corner_cases, dev)])
                    for dev in DevSetSize
                },
                multiclass={
                    dev.value: len(benchmark.multiclass_train[(corner_cases, dev)])
                    for dev in DevSetSize
                },
            )
        )
        rows.append(
            Table1Row(
                split_type="Validation",
                corner_cases=corner_cases.label,
                pairwise={
                    dev.value: _pair_counts(benchmark.valid_sets[(corner_cases, dev)])
                    for dev in DevSetSize
                },
                multiclass={
                    dev.value: len(benchmark.multiclass_valid[corner_cases])
                    for dev in DevSetSize
                },
            )
        )
        test_counts = _pair_counts(
            benchmark.test_sets[(corner_cases, UnseenRatio.SEEN)]
        )
        rows.append(
            Table1Row(
                split_type="Test",
                corner_cases=corner_cases.label,
                pairwise={dev.value: test_counts for dev in DevSetSize},
                multiclass={
                    dev.value: len(benchmark.multiclass_test[corner_cases])
                    for dev in DevSetSize
                },
            )
        )
    return rows


# --------------------------------------------------------------------- #
# Table 2 — attribute density, length and vocabulary
# --------------------------------------------------------------------- #
_ATTRIBUTES = ("title", "description", "price", "priceCurrency", "brand")


@dataclass(frozen=True)
class Table2Row:
    """One (dev size, corner-cases) row of Table 2."""

    dev_size: str
    corner_cases: str
    n_entities: int
    density: dict[str, float] = field(default_factory=dict)  # percent
    median_length: dict[str, int] = field(default_factory=dict)  # words
    vocabulary_words: int = 0
    vocabulary_tokens: int = 0


def _attribute_value(offer: ProductOffer, attribute: str) -> str | None:
    if attribute == "title":
        return offer.title
    if attribute == "description":
        return offer.description
    if attribute == "price":
        return None if offer.price is None else f"{offer.price}"
    if attribute == "priceCurrency":
        return offer.price_currency
    if attribute == "brand":
        return offer.brand
    raise ValueError(f"unknown attribute: {attribute}")


def _merged_offers(
    benchmark: WDCProductsBenchmark,
    corner_cases: CornerCaseRatio,
    dev_size: DevSetSize,
) -> tuple[list[ProductOffer], int]:
    """All unique offers of the (train, valid, seen-test) merge + #entities."""
    offers: dict[str, ProductOffer] = {}
    entity_ids: set[str] = set()
    train = benchmark.multiclass_train[(corner_cases, dev_size)]
    valid = benchmark.multiclass_valid[corner_cases]
    test = benchmark.multiclass_test[corner_cases]
    for dataset in (train, valid, test):
        for offer, label in zip(dataset.offers, dataset.labels):
            offers[offer.offer_id] = offer
            entity_ids.add(label)
    return list(offers.values()), len(entity_ids)


def table2_profile(
    benchmark: WDCProductsBenchmark,
    *,
    subword_tokenizer: SubwordTokenizer | None = None,
) -> list[Table2Row]:
    """Compute Table 2: density, median lengths, vocabulary per merged set.

    ``subword_tokenizer`` stands in for RoBERTa's vocabulary; when omitted,
    one is trained on all benchmark offer titles/descriptions.
    """
    if subword_tokenizer is None:
        texts: list[str] = []
        for offer in benchmark.unique_offers().values():
            texts.append(offer.title)  # type: ignore[union-attr]
            description = offer.description  # type: ignore[union-attr]
            if description:
                texts.append(description)
        subword_tokenizer = SubwordTokenizer(vocab_size=8192).train(texts)

    rows: list[Table2Row] = []
    for corner_cases in CornerCaseRatio:
        for dev_size in DevSetSize:
            offers, n_entities = _merged_offers(benchmark, corner_cases, dev_size)
            density: dict[str, float] = {}
            median_length: dict[str, int] = {}
            for attribute in _ATTRIBUTES:
                values = [_attribute_value(offer, attribute) for offer in offers]
                filled = [value for value in values if value]
                density[attribute] = (
                    100.0 * len(filled) / len(values) if values else 0.0
                )
                lengths = [len(value.split()) for value in filled]
                median_length[attribute] = (
                    int(statistics.median(lengths)) if lengths else 0
                )

            words: set[str] = set()
            pieces: set[int] = set()
            for offer in offers:
                for text in (offer.title, offer.description or ""):
                    words.update(tokenize(text))
                    pieces.update(subword_tokenizer.encode(text))
            rows.append(
                Table2Row(
                    dev_size=dev_size.label,
                    corner_cases=corner_cases.label,
                    n_entities=n_entities,
                    density=density,
                    median_length=median_length,
                    vocabulary_words=len(words),
                    vocabulary_tokens=len(pieces),
                )
            )
    return rows


def benchmark_totals(benchmark: WDCProductsBenchmark) -> dict[str, int]:
    """Overall counts: unique offers, entities, matches, non-matches.

    These are the WDC-Products row values of Table 6.
    """
    offers = benchmark.unique_offers()
    entities: set[str] = set()
    for collection in (
        benchmark.multiclass_train,
        benchmark.multiclass_valid,
        benchmark.multiclass_test,
    ):
        for dataset in collection.values():
            entities.update(dataset.labels)
    matches = 0
    non_matches = 0
    for datasets in (benchmark.train_sets, benchmark.valid_sets, benchmark.test_sets):
        for dataset in datasets.values():
            summary = dataset.summary()
            matches += summary["pos"]
            non_matches += summary["neg"]
    return {
        "offers": len(offers),
        "entities": len(entities),
        "matches": matches,
        "non_matches": non_matches,
    }
