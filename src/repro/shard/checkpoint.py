"""Per-shard checkpoints: crash-resume without rebuilding finished work.

A :class:`ShardCheckpointStore` persists every completed shard of a
sharded session under one session directory, each shard as an artifact
store (see :mod:`repro.io.store`)::

    <root>/
      shard-0000/
        manifest.json     # commit point: fingerprints, per-file sha256
        shard.db          # queryable schema
        *.npy             # mmap sidecars: incidence matrix, embeddings

Payload files are written first (temp file, then atomic rename), the
manifest last, so a session killed mid-write leaves either no manifest
(checkpoint ignored) or a complete, verifiable state.  Verification is
*streamed* — every payload file's sha256 is hashed in fixed-size chunks
against the manifest record before anything is opened, so verifying a
multi-GB shard never doubles peak RSS.

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
:class:`~repro.errors.StoreError` naming what mismatched — the mode for
callers that need to *know* a resume will be exact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.core.builder import BuildConfig
from repro.errors import StoreError
from repro.io.store import (
    StoredShard,
    amend_manifest,
    clear_stale_lock,
    config_fingerprint,
    verify_store,
    write_store,
)

__all__ = ["ShardCheckpointStore", "config_fingerprint"]

_MANIFEST = "manifest.json"


class ShardCheckpointStore:
    """Directory-backed store of completed shard artifacts.

    Each shard is one artifact store of :mod:`repro.io.store`, which
    workers can also write in place and the parent opens lazily by
    path.  ``clock`` supplies the manifest's ``created_at`` wall-clock
    stamp (documentation only — it is deliberately outside the payload
    sha256s and the config fingerprints, so two runs of the same plan
    produce byte-identical *verifiable* state and merely different
    timestamps).  Injectable so tests can pin it.
    """

    def __init__(
        self, root: Path | str, *, clock: Callable[[], float] | None = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = time.time if clock is None else clock

    def shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard:04d}"

    def manifest_path(self, shard: int) -> Path:
        return self.shard_dir(shard) / _MANIFEST

    # ------------------------------------------------------------------ #
    def save(
        self,
        shard: int,
        artifacts,
        *,
        base_config: BuildConfig,
        attempt: int = 1,
        elapsed: float = 0.0,
    ) -> Path:
        """Persist one completed shard; returns the manifest path.

        ``base_config`` is the plan's config for this shard (the resume
        key); the store records ``artifacts.config`` as the config that
        actually built it (differs only after a reseeded retry).

        An *adopted* :class:`StoredShard` (a worker already wrote the
        store into this shard's directory) is committed by amending its
        manifest with the plan's resume key — no payload is rewritten;
        anything else is written out as a fresh store.
        """
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
        clear_stale_lock(directory)
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
    def load(
        self,
        shard: int,
        *,
        base_config: BuildConfig,
        strict: bool = False,
    ) -> tuple[StoredShard, dict] | None:
        """``(stored_shard, manifest)`` or ``None``.

        ``None`` means "no usable checkpoint — rebuild the shard": the
        checkpoint is absent, truncated, from another config, or a
        payload file fails its sha256.  With ``strict=True`` a
        present-but-unverifiable checkpoint raises
        :class:`~repro.errors.StoreError` instead of silently
        rebuilding.  The shard comes back as a lazily-opened
        :class:`~repro.io.store.StoredShard`; signature summaries are
        rebuilt on demand off its mmap engine by the sweep.
        """
        directory = self.shard_dir(shard)
        verified = verify_store(
            directory, base_fingerprint=config_fingerprint(base_config)
        )
        if isinstance(verified, str):
            if strict and verified != "no manifest":
                raise StoreError(
                    f"shard {shard} store at {directory} failed "
                    f"verification: {verified}"
                )
            return None
        return StoredShard(directory, verified), verified

    def completed_shards(self, configs) -> list[int]:
        """Shards of ``configs`` with a verifiable checkpoint on disk."""
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
