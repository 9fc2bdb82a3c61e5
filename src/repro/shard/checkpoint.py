"""Per-shard checkpoints: crash-resume without rebuilding finished work.

A :class:`ShardCheckpointStore` verifies, adopts and loads the completed
shards of a session under its session directory (resumable when it is
``ShardedBenchmarkSession(store_dir=)``), each shard as an artifact store (see
:mod:`repro.io.store`)::

    <root>/
      shard-0000/
        manifest.json     # commit point: fingerprints, per-file sha256
        shard.db          # queryable schema
        *.npy             # mmap sidecars: incidence matrix, embeddings

The shard's worker writes the store itself (the builder's ``store``
stage): payload files first (temp file, then atomic rename), the
manifest last, so a session killed mid-write leaves either no manifest
(checkpoint ignored) or a complete, verifiable state.  This class never
writes a payload: :meth:`~ShardCheckpointStore.save` adopts a finished
store by amending its manifest with the plan's resume key.
Verification is *streamed* — every payload file's sha256 is hashed in
fixed-size chunks against the manifest record before anything is
opened, so verifying a multi-GB shard never doubles peak RSS.

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

from pathlib import Path

from repro.core.builder import BuildConfig
from repro.errors import StoreError
from repro.io.store import (
    StoredShard,
    amend_manifest,
    config_fingerprint,
    verify_store,
)

__all__ = ["ShardCheckpointStore", "config_fingerprint", "shard_store_dir"]

_MANIFEST = "manifest.json"


def shard_store_dir(root: Path | str, shard: int) -> Path:
    """Where shard ``shard``'s store sits under a session directory."""
    return Path(root) / f"shard-{shard:04d}"


class ShardCheckpointStore:
    """Directory of completed shard stores: verify, adopt, load.

    Each shard is one artifact store of :mod:`repro.io.store`, written
    in place by the worker that built it and opened lazily by path.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def shard_dir(self, shard: int) -> Path:
        return shard_store_dir(self.root, shard)

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
        """Adopt one completed shard's store; returns the manifest path.

        ``artifacts`` must be the :class:`StoredShard` a worker wrote
        into this shard's own directory.  Its manifest is amended with
        the plan's resume key (``base_config``'s fingerprint) and the
        attempt ledger — no payload is rewritten.  Anything else raises
        :class:`~repro.errors.StoreError`.
        """
        directory = self.shard_dir(shard)
        if (
            not isinstance(artifacts, StoredShard)
            or artifacts.directory.resolve() != directory.resolve()
        ):
            where = getattr(artifacts, "directory", "memory")
            raise StoreError(
                f"cannot adopt shard {shard} from {where}: only the store "
                f"its worker wrote at {directory} can be adopted"
            )
        amend_manifest(
            directory,
            shard=shard,
            base_fingerprint=config_fingerprint(base_config),
            attempt=attempt,
            elapsed=elapsed,
        )
        return directory / _MANIFEST

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
