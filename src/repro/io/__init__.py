"""Persistence: JSONL serialization and the out-of-core artifact store."""

from repro.io.jsonl import read_jsonl, write_jsonl
from repro.io.datasets import (
    load_benchmark,
    load_corpus,
    load_multiclass_dataset,
    load_pair_dataset,
    save_benchmark,
    save_corpus,
    save_multiclass_dataset,
    save_pair_dataset,
)
from repro.io.store import (
    STORE_SCHEMA,
    StoredShard,
    StoredShardHandle,
    StoredSplit,
    amend_manifest,
    config_fingerprint,
    open_store,
    verify_store,
    write_store,
)

__all__ = [
    "read_jsonl",
    "write_jsonl",
    "save_corpus",
    "load_corpus",
    "save_pair_dataset",
    "load_pair_dataset",
    "save_multiclass_dataset",
    "load_multiclass_dataset",
    "save_benchmark",
    "load_benchmark",
    "STORE_SCHEMA",
    "StoredShard",
    "StoredShardHandle",
    "StoredSplit",
    "write_store",
    "verify_store",
    "open_store",
    "amend_manifest",
    "config_fingerprint",
]
