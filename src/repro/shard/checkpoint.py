"""Per-shard checkpoints: crash-resume without rebuilding finished work.

A :class:`ShardCheckpointStore` persists every completed shard of a
sharded session under one session directory, in one of two backends:

``backend="pickle"`` (historical)::

    <root>/
      shard-0000/
        manifest.json     # config fingerprints, seeds, payload sha256
        artifacts.pkl     # pickled (BuildArtifacts, RowSignatures | None)

``backend="sqlite"`` (out-of-core)::

    <root>/
      shard-0000/
        manifest.json     # commit point of the artifact store
        shard.db          # queryable schema (see repro.io.store)
        *.npy             # mmap sidecars: incidence matrix, signatures

Both share the same commit protocol: payload files are written first
(temp file, then atomic rename), the manifest last, so a session killed
mid-write leaves either no manifest (checkpoint ignored) or a complete,
verifiable state.  Verification is *streamed* — the payload's sha256 is
hashed in fixed-size chunks against the manifest record before anything
is deserialized, so verifying a multi-GB shard never doubles peak RSS.

:meth:`ShardCheckpointStore.load` verifies the shard's *base config
fingerprint* — the fingerprint of the config the plan assigned the
shard, not of the config that ultimately built it.  The distinction
matters for retried shards: a corner-selection retry respawns the
shard's seeds, so the config that produced the artifacts differs from
the planned one, but the respawn chain is a deterministic function of
``(session_seed, shard, attempt)`` — the checkpoint is still *the*
canonical outcome of the planned shard and resuming must accept it.
Both fingerprints are recorded (``base_fingerprint`` gates the load,
``config_fingerprint`` documents what actually built the payload).

A checkpoint that fails any verification is treated as missing (the
shard is rebuilt) unless ``strict=True``, which raises
:class:`~repro.errors.CheckpointError` (pickle backend) or
:class:`~repro.errors.StoreError` (sqlite backend) naming what
mismatched — the mode for callers that need to *know* a resume will be
exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Callable

from repro.core.builder import BuildConfig
from repro.errors import CheckpointError, StoreError
from repro.io.store import (
    StoredShard,
    amend_manifest,
    config_fingerprint,
    stream_sha256,
    verify_store,
    write_store,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_BACKENDS",
    "ShardCheckpointStore",
    "config_fingerprint",
]

CHECKPOINT_SCHEMA = 1
CHECKPOINT_BACKENDS = ("pickle", "sqlite")

_MANIFEST = "manifest.json"
_PAYLOAD = "artifacts.pkl"


class ShardCheckpointStore:
    """Directory-backed store of completed shard artifacts.

    ``backend`` selects the payload format: ``"pickle"`` persists the
    whole ``(artifacts, summary)`` object graph, ``"sqlite"`` delegates
    to the queryable artifact store of :mod:`repro.io.store` (whose
    shards workers can open lazily by path).  ``clock`` supplies the
    manifest's ``created_at`` wall-clock stamp (documentation only — it
    is deliberately outside the payload sha256 and the config
    fingerprints, so two runs of the same plan produce byte-identical
    *verifiable* state and merely different timestamps).  Injectable so
    tests can pin it.
    """

    def __init__(
        self,
        root: Path | str,
        *,
        clock: Callable[[], float] | None = None,
        backend: str = "pickle",
    ) -> None:
        if backend not in CHECKPOINT_BACKENDS:
            raise ValueError(
                f"backend must be one of {CHECKPOINT_BACKENDS}, got "
                f"{backend!r}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.backend = backend
        self._clock = time.time if clock is None else clock

    def shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard:04d}"

    def manifest_path(self, shard: int) -> Path:
        return self.shard_dir(shard) / _MANIFEST

    def payload_path(self, shard: int) -> Path:
        return self.shard_dir(shard) / _PAYLOAD

    # ------------------------------------------------------------------ #
    def save(
        self,
        shard: int,
        artifacts,
        summary,
        *,
        base_config: BuildConfig,
        built_config: BuildConfig | None = None,
        attempt: int = 1,
        elapsed: float = 0.0,
    ) -> Path:
        """Persist one completed shard; returns the manifest path.

        ``base_config`` is the plan's config for this shard (the resume
        key); ``built_config`` the config that actually produced the
        artifacts (defaults to ``base_config`` — differs only after a
        reseeded retry).

        Under the sqlite backend an *adopted* :class:`StoredShard` (a
        worker already wrote the store into this shard's directory) is
        committed by amending its manifest with the plan's resume key —
        no payload is rewritten; anything else is written out as a fresh
        store.
        """
        built = built_config if built_config is not None else base_config
        if self.backend == "sqlite":
            return self._save_sqlite(
                shard,
                artifacts,
                base_config=base_config,
                attempt=attempt,
                elapsed=elapsed,
            )
        directory = self.shard_dir(shard)
        directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            (artifacts, summary), protocol=pickle.HIGHEST_PROTOCOL
        )
        payload_path = self.payload_path(shard)
        temp_path = payload_path.with_suffix(".pkl.tmp")
        temp_path.write_bytes(payload)
        os.replace(temp_path, payload_path)
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "shard": shard,
            "base_fingerprint": config_fingerprint(base_config),
            "config_fingerprint": config_fingerprint(built),
            "build_seed": built.seed,
            "corpus_seed": built.corpus.seed,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "attempt": attempt,
            "elapsed_seconds": elapsed,
            "created_at": self._clock(),
        }
        manifest_path = self.manifest_path(shard)
        temp_manifest = manifest_path.with_suffix(".json.tmp")
        temp_manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(temp_manifest, manifest_path)
        return manifest_path

    def _save_sqlite(
        self,
        shard: int,
        artifacts,
        *,
        base_config: BuildConfig,
        attempt: int,
        elapsed: float,
    ) -> Path:
        directory = self.shard_dir(shard)
        base_fingerprint = config_fingerprint(base_config)
        if isinstance(artifacts, StoredShard):
            if artifacts.directory.resolve() != directory.resolve():
                raise StoreError(
                    f"cannot adopt shard {shard} store at "
                    f"{artifacts.directory}: checkpoint expects it at "
                    f"{directory}"
                )
            amend_manifest(
                directory,
                shard=shard,
                base_fingerprint=base_fingerprint,
                attempt=attempt,
                elapsed=elapsed,
            )
            return directory / _MANIFEST
        return write_store(
            directory,
            artifacts,
            shard=shard,
            base_fingerprint=base_fingerprint,
            attempt=attempt,
            elapsed=elapsed,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ #
    def _verify(
        self, shard: int, base_config: BuildConfig
    ) -> tuple[dict, Path] | str:
        """The verified (manifest, payload path) pair, or a rejection reason.

        The payload's sha256 is streamed in chunks — verification never
        loads the payload whole; :meth:`load` deserializes from the
        returned path only after the hash matches.
        """
        manifest_path = self.manifest_path(shard)
        if not manifest_path.exists():
            return "no manifest"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return "manifest unreadable or truncated"
        if manifest.get("schema") != CHECKPOINT_SCHEMA:
            return (
                f"manifest schema {manifest.get('schema')!r} != "
                f"{CHECKPOINT_SCHEMA}"
            )
        expected = config_fingerprint(base_config)
        if manifest.get("base_fingerprint") != expected:
            return (
                "base config fingerprint mismatch (checkpoint belongs to "
                "a different plan/config)"
            )
        payload_path = self.payload_path(shard)
        digest = stream_sha256(payload_path)
        if digest is None:
            return "payload missing"
        if digest != manifest.get("payload_sha256"):
            return "payload sha256 mismatch (truncated or corrupt)"
        return manifest, payload_path

    def load(
        self,
        shard: int,
        *,
        base_config: BuildConfig,
        strict: bool = False,
    ):
        """``(artifacts, summary, manifest)`` or ``None``.

        ``None`` means "no usable checkpoint — rebuild the shard": the
        checkpoint is absent, truncated, from another config, or its
        payload fails the sha256.  With ``strict=True`` a present-but-
        unverifiable checkpoint raises (:class:`CheckpointError` for the
        pickle backend, :class:`~repro.errors.StoreError` for sqlite)
        instead of silently rebuilding.

        The sqlite backend returns a lazily-opened
        :class:`~repro.io.store.StoredShard` as ``artifacts`` and ``None``
        as the summary — signature summaries are rebuilt on demand off
        the store's mmap engine by the sweep.
        """
        if self.backend == "sqlite":
            verified = verify_store(
                self.shard_dir(shard),
                base_fingerprint=config_fingerprint(base_config),
            )
            if isinstance(verified, str):
                if strict and verified != "no manifest":
                    raise StoreError(
                        f"shard {shard} store at {self.shard_dir(shard)} "
                        f"failed verification: {verified}"
                    )
                return None
            return StoredShard(self.shard_dir(shard), verified), None, verified
        verified = self._verify(shard, base_config)
        if isinstance(verified, str):
            if strict and verified != "no manifest":
                raise CheckpointError(
                    f"shard {shard} checkpoint at {self.shard_dir(shard)} "
                    f"failed verification: {verified}"
                )
            return None
        manifest, payload_path = verified
        with open(payload_path, "rb") as handle:
            artifacts, summary = pickle.load(handle)
        return artifacts, summary, manifest

    def completed_shards(self, configs) -> list[int]:
        """Shards of ``configs`` with a verifiable checkpoint on disk."""
        if self.backend == "sqlite":
            return [
                shard
                for shard, config in enumerate(configs)
                if not isinstance(
                    verify_store(
                        self.shard_dir(shard),
                        base_fingerprint=config_fingerprint(config),
                    ),
                    str,
                )
            ]
        return [
            shard
            for shard, config in enumerate(configs)
            if not isinstance(self._verify(shard, config), str)
        ]
