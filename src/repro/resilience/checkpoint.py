"""Checkpoint/restart support for the BSP drivers.

A checkpoint is ``(meta, arrays)``: a JSON-able metadata dict plus a dict
of NumPy arrays.  The :class:`CheckpointStore` keeps snapshots in memory
by default and persists them through :mod:`repro.engine.persist` (the
``.npz`` layer the run statistics already use) when given a directory —
the artifact-appendix workflow extended to mid-run state.

The MRBC-specific snapshot helpers capture the master-authoritative
state as arrays — the :class:`~repro.runtime.arrays.MasterColumns` state
columns (schedule entries, σ*, fire timestamps ``τ``, the hosts'
reports) and the arena's finalized ``(d, σ)`` — so a crash between the
forward and backward phases replays only the backward rounds and the
recovered BC is bit-identical to a fault-free run.

The store is hardened against the failure modes a restart actually meets:

- **Atomic save** — disk snapshots are written to a temporary sibling
  and ``os.replace``-d into place, and the tag is committed to the
  store's order only after the write succeeds.  A crash mid-write leaves
  the previous snapshot (and the tag order) intact.
- **Content digest** — every snapshot embeds a SHA-256 over its metadata
  and array contents, verified on :meth:`load`; a damaged snapshot
  raises :class:`~repro.resilience.errors.CheckpointCorruptError`
  instead of restoring garbage, and :meth:`load_latest` falls back to
  the previous retained tag.
- **Retention pruning** — with ``retention=N`` only the newest ``N``
  tags survive a save; stale snapshots are deleted from memory or disk.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.resilience.errors import CheckpointCorruptError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mrbc import _ArrayBatchExecutor

#: Meta key carrying the snapshot's content digest (stripped on load).
DIGEST_KEY = "__digest__"


def checkpoint_digest(
    meta: dict[str, Any], arrays: dict[str, np.ndarray]
) -> str:
    """SHA-256 over the snapshot's logical content.

    Covers the JSON-able metadata (minus the digest slot itself) and, for
    each array in name order, its name, dtype, shape, and raw bytes —
    i.e. exactly what a restore will feed back into the executor.
    """
    h = hashlib.sha256()
    clean = {k: v for k, v in meta.items() if k != DIGEST_KEY}
    h.update(json.dumps(clean, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(repr(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


class CheckpointStore:
    """Tagged snapshot storage, in memory or on disk via the persist layer.

    ``retention`` bounds how many tags are kept (oldest pruned first);
    ``None`` retains everything.  Recovery policies set it via
    :meth:`~repro.resilience.supervisor.RecoveryPolicy.configure`.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        retention: int | None = None,
    ) -> None:
        self.directory = os.fspath(directory) if directory is not None else None
        self.retention = retention
        self._mem: dict[str, tuple[dict[str, Any], dict[str, np.ndarray]]] = {}
        self._order: list[str] = []

    def _path(self, tag: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{tag}.ckpt.npz")

    def save(
        self, tag: str, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        """Store one snapshot under ``tag`` (overwrites a previous one).

        The tag joins the store's order only once the snapshot is fully
        written, and disk writes go through a temp-file + ``os.replace``
        rename — a crash mid-save can never leave a half-written
        snapshot behind the tag.
        """
        meta = dict(meta)
        meta[DIGEST_KEY] = checkpoint_digest(meta, arrays)
        if self.directory is not None:
            from repro.engine.persist import save_checkpoint

            os.makedirs(self.directory, exist_ok=True)
            final = self._path(tag)
            # np.savez appends ".npz" when missing, so the temp name must
            # already carry the suffix for the rename to find it.
            tmp = final + ".tmp.npz"
            try:
                save_checkpoint(tmp, meta, arrays)
                os.replace(tmp, final)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        else:
            self._mem[tag] = (
                copy.deepcopy(meta),
                {k: np.array(v, copy=True) for k, v in arrays.items()},
            )
        if tag not in self._order:
            self._order.append(tag)
        self._prune()

    def load(self, tag: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Retrieve and digest-verify the snapshot under ``tag``.

        Raises ``KeyError`` when absent and
        :class:`~repro.resilience.errors.CheckpointCorruptError` when the
        stored content no longer matches its embedded digest (bit rot,
        truncated write, tampering).  Pre-hardening snapshots without a
        digest load unverified.
        """
        if self.directory is not None:
            from repro.engine.persist import load_checkpoint

            path = self._path(tag)
            if not os.path.exists(path):
                raise KeyError(f"no checkpoint {tag!r} in {self.directory}")
            try:
                meta, arrays = load_checkpoint(path)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
                raise CheckpointCorruptError(tag, f"unreadable archive: {err}")
        else:
            if tag not in self._mem:
                raise KeyError(f"no checkpoint {tag!r}")
            stored_meta, stored_arrays = self._mem[tag]
            meta = copy.deepcopy(stored_meta)
            arrays = {k: v.copy() for k, v in stored_arrays.items()}
        expected = meta.pop(DIGEST_KEY, None)
        if expected is not None:
            actual = checkpoint_digest(meta, arrays)
            if actual != expected:
                raise CheckpointCorruptError(
                    tag, f"content digest mismatch ({actual[:12]}… != {expected[:12]}…)"
                )
        return meta, arrays

    def load_latest(
        self,
    ) -> tuple[str, dict[str, Any], dict[str, np.ndarray]]:
        """Load the newest intact snapshot, falling back over corrupt tags.

        Walks the retained tags newest-first; a tag that fails digest
        verification is skipped (and dropped from the order) and the
        previous one is tried.  Raises ``KeyError`` when the store is
        empty and re-raises the last
        :class:`~repro.resilience.errors.CheckpointCorruptError` when
        every retained snapshot is damaged.
        """
        if not self._order:
            raise KeyError("checkpoint store is empty")
        last_err: CheckpointCorruptError | None = None
        for tag in reversed(list(self._order)):
            try:
                meta, arrays = self.load(tag)
            except CheckpointCorruptError as err:
                last_err = err
                self.discard(tag)
                continue
            return tag, meta, arrays
        assert last_err is not None
        raise last_err

    def discard(self, tag: str) -> None:
        """Drop one snapshot (no-op when absent)."""
        if tag in self._order:
            self._order.remove(tag)
        self._mem.pop(tag, None)
        if self.directory is not None:
            path = self._path(tag)
            if os.path.exists(path):
                os.remove(path)

    def _prune(self) -> None:
        if self.retention is None:
            return
        while len(self._order) > self.retention:
            self.discard(self._order[0])

    def tags(self) -> list[str]:
        """Tags in save order (first save wins the position)."""
        return list(self._order)

    def latest(self) -> str | None:
        return self._order[-1] if self._order else None


# -- MRBC batch-executor snapshots -----------------------------------------------


def _forward_arrays(ex: "_ArrayBatchExecutor") -> dict[str, np.ndarray]:
    """The executor's live arrays a forward checkpoint holds, by name:
    the master's state columns and the arena's finalized arrays."""
    M, A = ex.masters, ex.arena
    arrays = {name: getattr(M, name) for name in M.STATE}
    # Checkpoints deliberately capture proxies *as-is*, provisional or
    # final — restore puts back the identical bytes, so the delayed-sync
    # contract is preserved across a recovery, not re-established.
    arrays["fin_dist"] = A.fin_dist  # repro-lint: disable=RL301
    arrays["fin_sigma"] = A.fin_sigma  # repro-lint: disable=RL301
    return arrays


def mrbc_forward_snapshot(
    ex: "_ArrayBatchExecutor",
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Capture a batch executor's post-forward state for backward replay:
    ``meta`` names the source batch, and the arrays are copies of the
    master's state columns and the arena's ``fin_dist``/``fin_sigma``.
    """
    meta = {"kind": "mrbc-forward", "batch": [int(s) for s in ex.batch.tolist()]}
    return meta, {name: a.copy() for name, a in _forward_arrays(ex).items()}


def restore_mrbc_forward(
    ex: "_ArrayBatchExecutor",
    meta: dict[str, Any],
    arrays: dict[str, np.ndarray],
) -> None:
    """Load a forward snapshot into a freshly built batch executor.

    A snapshot can come from disk, so every array is checked for
    presence, shape and dtype against the executor before any is
    written; a mismatch raises :class:`ValueError`.  The master's
    creation order, schedule heads and unfired counts are then rebuilt
    from the columns, and the backward phase's δ is reset.
    """
    if meta.get("kind") != "mrbc-forward":
        raise ValueError(f"not an MRBC forward checkpoint: {meta.get('kind')!r}")
    if [int(s) for s in ex.batch.tolist()] != list(meta["batch"]):
        raise ValueError("checkpoint was taken for a different source batch")
    live = _forward_arrays(ex)
    for name, want in live.items():
        if name not in arrays:
            raise ValueError(f"checkpoint lacks the {name!r} array")
        got = np.asarray(arrays[name])
        if got.shape != want.shape or got.dtype != want.dtype:
            raise ValueError(
                f"checkpoint array {name!r} is {got.dtype}{list(got.shape)}, "
                f"the executor holds {want.dtype}{list(want.shape)}"
            )
    for name, want in live.items():
        want[...] = arrays[name]
    ex.masters.rebuild_derived()
    ex.delta = None
