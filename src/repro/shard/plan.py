"""Shard planning: independent per-shard build configs from one seed.

A :class:`ShardPlan` fixes *what* a sharded session builds before any work
starts: ``n_shards`` complete :class:`~repro.core.builder.BuildConfig`\\ s
whose seeds are derived through ``numpy.random.SeedSequence.spawn``.
Spawned children are keyed by their spawn index only, so shard ``i``'s
random streams depend on ``(session_seed, i)`` and nothing else — adding
shards, removing shards or building them in any order never perturbs the
corpora of the shards that stay.  This mirrors how the per-ratio builds
derive named streams from the master seed inside one corpus, lifted one
level up to whole corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.builder import BuildConfig
from repro.corpus.generator import CorpusConfig

__all__ = ["ShardPlan", "partition_corpus_config"]

_SEED_MODULUS = 2**32


def _share(total: int, parts: int, index: int) -> int:
    """``index``-th balanced share of ``total`` (remainder to low indexes)."""
    return total // parts + (1 if index < total % parts else 0)


def _ceil_div(total: int, parts: int) -> int:
    return -(-total // parts)


def partition_corpus_config(base: CorpusConfig, n_shards: int) -> CorpusConfig:
    """One shard's slice of ``base``'s corpus scale (ceil division).

    Family counts per category are divided by ``n_shards`` and rounded
    *up*, for two reasons: the shards' combined corpus is never smaller
    than the single corpus it replaces (the sharded-vs-single comparison
    cannot be won by quietly shrinking the workload), and every shard
    keeps the same per-category family floor — an exact split would hand
    some shard a remainder-starved corpus whose corner-case pool cannot
    sustain the shard's selection quota.  Dirtiness rates and per-product
    offer ranges are per-offer properties and stay untouched.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return replace(
        base,
        families_per_category_seen=_ceil_div(
            base.families_per_category_seen, n_shards
        ),
        families_per_category_unseen=_ceil_div(
            base.families_per_category_unseen, n_shards
        ),
    )


@dataclass(frozen=True)
class ShardPlan:
    """The immutable schedule of one sharded session.

    ``shard_configs[i]`` is the complete build config of shard ``i``;
    ``seed`` is the session seed the per-shard seeds were spawned from.
    Construct through :meth:`create` unless you need hand-rolled per-shard
    configs (heterogeneous scales are allowed — every shard is an
    independent unit of work).
    """

    shard_configs: tuple[BuildConfig, ...]
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.shard_configs:
            raise ValueError("a ShardPlan needs at least one shard")

    @property
    def n_shards(self) -> int:
        return len(self.shard_configs)

    @classmethod
    def create(
        cls,
        n_shards: int,
        *,
        base_config: BuildConfig | None = None,
        seed: int = 42,
        partition_scale: bool = True,
    ) -> "ShardPlan":
        """Spawn ``n_shards`` independent configs from ``base_config``.

        Shard ``i``'s build seed and corpus seed come from the ``i``-th
        ``SeedSequence.spawn`` child of ``seed`` — results are therefore
        independent of the shard count and of build ordering: shard 2 of a
        4-shard plan is byte-identical to shard 2 of a 16-shard plan at
        the same session seed.

        With ``partition_scale`` (default) each shard receives
        ``1/n_shards``-th of the base corpus families (ceil division, so
        the combined corpus covers the base) and its exact balanced share
        of ``n_products``, so the session's *total* work matches one
        single-corpus build of ``base_config``; pass
        ``partition_scale=False`` to give every shard the full base scale
        (n× the data, the scale-out configuration — which also scales the
        *corner-case pool*: a single corpus exhausts its selectable
        corner cases just past the default scale, while each shard
        selects locally and never does).
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        base = base_config if base_config is not None else BuildConfig()
        children = np.random.SeedSequence(seed).spawn(n_shards)
        configs = []
        for shard, child in enumerate(children):
            build_seed, corpus_seed = (
                int(word) % _SEED_MODULUS
                for word in child.generate_state(2, dtype=np.uint64)
            )
            corpus = (
                partition_corpus_config(base.corpus, n_shards)
                if partition_scale
                else base.corpus
            )
            n_products = (
                _share(base.n_products, n_shards, shard)
                if partition_scale
                else base.n_products
            )
            configs.append(
                replace(
                    base,
                    seed=build_seed,
                    corpus=replace(corpus, seed=corpus_seed),
                    n_products=n_products,
                )
            )
        return cls(shard_configs=tuple(configs), seed=seed)
