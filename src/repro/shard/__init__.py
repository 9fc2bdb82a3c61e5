"""Multi-corpus sharding: process-pool builds + cross-shard blocking.

The shard layer makes the *corpus* the parallel unit.  A
:class:`ShardPlan` spawns N independent build configs from one session
seed (``SeedSequence.spawn`` — shard identity is stable under shard count
and ordering), a :class:`ShardedBenchmarkSession` builds them in worker
processes and sweeps every shard pair with the engine-backed
:class:`~repro.blocking.candidates.CandidateBlocker`, and the merged
views (:class:`~repro.shard.merge.StoredMergedCandidates`, merged
benchmark / corpus / engine) plug into the existing recall and experiment runners
unchanged.

The cross-shard sweep runs in ``"signature"`` mode by default: a global
two-level :class:`SignatureIndex` (prefix signatures under a merged
frequency order, per-token length windows) prunes shard pairs and row
blocks before any engine concatenation — see
:mod:`repro.shard.signature_index` and
:mod:`repro.similarity.signatures`.  ``sweep_mode="exhaustive"``
restores the historical full bipartite sweep.
"""

from repro.shard.checkpoint import ShardCheckpointStore, config_fingerprint
from repro.shard.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
)
from repro.shard.merge import (
    MERGED_SCHEMA,
    MergedCandidate,
    MergedCandidates,
    MergedCandidateStore,
    StoredMergedCandidates,
    merge_benchmarks,
    merge_candidate_sets,
    merge_corpora,
)
from repro.shard.namespace import (
    namespace_id,
    namespace_multiclass_dataset,
    namespace_offer,
    namespace_offers,
    namespace_pair_dataset,
    shard_tag,
)
from repro.shard.plan import ShardPlan, partition_corpus_config
from repro.shard.session import (
    DEFAULT_SIGNATURE_THRESHOLD,
    SWEEP_MODES,
    MergedArtifacts,
    ShardedArtifacts,
    ShardedBenchmarkSession,
)
from repro.shard.signature_index import SignatureIndex, SweepPruneStats
from repro.shard.supervisor import (
    FAILURE_POLICIES,
    AttemptRecord,
    RetryPolicy,
    SessionHealth,
    ShardOutcome,
    ShardSupervisor,
    respawn_config,
)
from repro.shard.sweep import (
    CROSS_SHARD_METRICS,
    ShardUniverse,
    cross_shard_blocker,
    cross_shard_candidates,
    shard_universe,
    split_universe,
)

__all__ = [
    "ShardPlan",
    "partition_corpus_config",
    "ShardedBenchmarkSession",
    "ShardedArtifacts",
    "MergedArtifacts",
    "ShardSupervisor",
    "RetryPolicy",
    "AttemptRecord",
    "ShardOutcome",
    "SessionHealth",
    "respawn_config",
    "FAILURE_POLICIES",
    "ShardCheckpointStore",
    "config_fingerprint",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "SignatureIndex",
    "SweepPruneStats",
    "SWEEP_MODES",
    "DEFAULT_SIGNATURE_THRESHOLD",
    "MergedCandidate",
    "MergedCandidates",
    "MergedCandidateStore",
    "StoredMergedCandidates",
    "MERGED_SCHEMA",
    "merge_benchmarks",
    "merge_candidate_sets",
    "merge_corpora",
    "shard_tag",
    "namespace_id",
    "namespace_offer",
    "namespace_offers",
    "namespace_pair_dataset",
    "namespace_multiclass_dataset",
    "CROSS_SHARD_METRICS",
    "ShardUniverse",
    "cross_shard_blocker",
    "cross_shard_candidates",
    "shard_universe",
    "split_universe",
]
