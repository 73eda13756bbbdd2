"""Per-partition high-watermark manifests — the exactly-once sink protocol.

Layout (design point: 10^10 events, fixed partition count P recorded in the
table-level meta so replay reshuffles identically — SURVEY.md §4)::

    <lake_root>/
      _meta.json                      # num_partitions, key columns, retention,
                                      # layout version (2: one directory)
      _ingest_ledger.json             # files tail() has ingested
      part=<p>/
        data.parquet                  # base rows, sorted by (repo, path)
        delta-<lo>-<hi>.parquet       # commit snapshots: active deltas and
                                      # retained history, one file each
        manifest.json                 # hwm_lsn, rows, sha256, counts,
                                      # deltas, history
      _dlq/part=<p>/
        dlq-<lo>-<hi>.parquet         # dead-letter rows, one file per commit:
                                      # the events' own input columns with
                                      # their Arrow types, plus _errors

Every parquet file above is zstd (default level) without dictionary pages
or column min/max statistics, written to a tmp file by the lake's one
writer (``_stage`` in ``pipelines/cdc.py``). No reader uses statistics:
snapshot files are pruned by their ``<lo>-<hi>`` names, and every file
spans the whole hashed key range. Parquet records the codec per column
chunk, so readers need no setting and a lake still holding older snappy
files, or files with statistics, reads as before; its partitions move to
the current encoding as they compact. A manifest's
``bytes`` is the on-disk size of the partition's ``data.parquet`` plus its
listed delta files (history-only and DLQ files are not counted).

One liveness rule: a ``delta-*.parquet`` file exists iff the committed
manifest lists it in ``deltas`` (merged on read) or ``history`` (the
change feed and time travel), or both — a delta batch and its history
entry are the same file. :meth:`ManifestStore.commit_partition` is the
only code that adds files to a partition or removes them: in one critical
section it renames the staged tmp files into place, writes the manifest,
and removes every snapshot file the new manifest no longer lists
(compacted deltas, vacuumed history). The redrive DLQ swap, which runs
after its commit, is the one file move outside it. Layout version 1 kept
retained history in a second directory, ``part=<p>/history/``, as
hardlinks; a version-1 lake with retention does not open.

Commit protocol (idempotent under task retry):

1. write every new file as ``<kind>.parquet.tmp-<nonce>``
2. under the commit lock: ``os.replace`` each into place, write
   ``manifest.json`` (atomic on POSIX), remove the unlisted snapshots

A partition is committed iff its ``manifest.json`` exists; a crashed task
leaves only tmp files (and, dying mid-commit, unlisted snapshots the next
commit or :meth:`ManifestStore.sweep` removes). On resume, events with
``lsn <= hwm_lsn`` are dropped before merging, so replaying any suffix (or
the whole log) reproduces the identical table.

Delta protocol (VERDICT r2 #5 — no full-partition rewrite per
micro-batch): a run appends one sorted delta file per touched partition
(name derived from the run's LSN range, so a replayed window overwrites
its own file); the manifest's ``deltas`` list is the authority for
readers, which merge-on-read (base ∪ deltas, last-writer-wins, tombstones
dropped); when the list reaches the pipeline's ``compact_every`` the
partition is compacted back into one base file and the list empties.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

__all__ = [
    'PartitionManifest', 'TableMeta', 'ManifestStore', 'CommitConflictError',
]


class CommitConflictError(RuntimeError):
    """Conditional commit lost the race: the partition's on-disk
    ``commit_version`` moved past the version the writer read its state
    at. The writer must re-read, re-merge, and retry (optimistic
    concurrency — the multi-node analogue of the flock path)."""

    def __init__(self, partition_id: int, expected: int, found: int) -> None:
        super().__init__(
            f'partition {partition_id}: expected commit_version '
            f'{expected}, found {found} — concurrent writer won the race',
        )
        self.partition_id = partition_id
        self.expected = expected
        self.found = found


@dataclass
class PartitionManifest:
    partition_id: int
    hwm_lsn: int            # highest LSN applied into this partition
    rows: int               # LIVE rows in the merged (base ∪ deltas) view
    bytes: int              # on-disk size of data.parquet + listed deltas
    sha256: str             # canonical-state digest (chained on delta commits)
    rejected_by_code: Dict[str, int] = field(default_factory=dict)
    events_applied: int = 0
    events_skipped: int = 0  # duplicates / below-watermark drops
    # Active delta files (ordered, oldest first). THE authority: unlisted
    # delta files are crash orphans and must be ignored by readers.
    deltas: list = field(default_factory=list)
    # Negative (corrupt, unwatermarkable) LSNs whose rejections are
    # already folded into rejected_by_code — re-deliveries don't recount
    # (incremental DLQ accounting, VERDICT r2 #3).
    dlq_corrupt_lsns: list = field(default_factory=list)
    # Retained commit history (ordered, oldest first): one LWW'd delta
    # snapshot per committed micro-batch, in part=<p>/ next to the deltas
    # (a delta batch's history entry is its delta file).
    # Only written when the lake was created with retain_history=True;
    # the basis for the change-data-feed and as-of-LSN time travel.
    history: list = field(default_factory=list)
    # Vacuum floor: intra-window versions at or below this LSN were
    # collapsed into a vacuum checkpoint — table_as_of(lsn < floor) and
    # changes(since_lsn < floor) must refuse rather than silently return
    # collapsed/incomplete history (ADVICE r3 high). -1 = never vacuumed.
    history_floor_lsn: int = -1
    # Monotone commit counter (incremented by commit_partition) —
    # concurrent-writer serialization evidence; see partition_lock().
    commit_version: int = 0


@dataclass
class TableMeta:
    num_partitions: int
    key_columns: tuple = ('repo', 'path')
    lsn_column: str = 'lsn'
    # Lake layout: 2 keeps every commit snapshot in part=<p>/; 1 kept
    # retained history apart, under part=<p>/history/.
    version: int = 2
    # Whether every commit retains its delta snapshot in history
    # (enables changes()/table_as_of()). Fixed at lake creation: a lake
    # that ever compacted without retention has holes no later flag flip
    # can fill.
    retain_history: bool = False


class ManifestStore:
    """Filesystem-backed manifest store for one lake table."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- table meta ------------------------------------------------------

    def meta_path(self) -> str:
        return os.path.join(self.root, '_meta.json')

    def write_meta(self, meta: TableMeta) -> None:
        payload = asdict(meta)
        payload['key_columns'] = list(meta.key_columns)
        _atomic_write_json(self.meta_path(), payload)

    def read_meta(self) -> Optional[TableMeta]:
        try:
            with open(self.meta_path()) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        payload['key_columns'] = tuple(payload['key_columns'])
        return TableMeta(**payload)

    # -- partitions ------------------------------------------------------

    def partition_dir(self, pid: int) -> str:
        return os.path.join(self.root, f'part={pid}')

    def data_path(self, pid: int) -> str:
        return os.path.join(self.partition_dir(pid), 'data.parquet')

    def manifest_path(self, pid: int) -> str:
        return os.path.join(self.partition_dir(pid), 'manifest.json')

    def dlq_dir(self, pid: int) -> str:
        return os.path.join(self.root, '_dlq', f'part={pid}')

    def delta_path(self, pid: int, name: str) -> str:
        return os.path.join(self.partition_dir(pid), name)

    def read_manifest(self, pid: int) -> Optional[PartitionManifest]:
        try:
            with open(self.manifest_path(pid)) as fh:
                return PartitionManifest(**json.load(fh))
        except FileNotFoundError:
            return None

    def high_watermark(self, pid: int) -> int:
        manifest = self.read_manifest(pid)
        return manifest.hwm_lsn if manifest else -1

    def meta_lock(self):
        """Exclusive table-meta creation lock (see :meth:`partition_lock`
        for the locking model)."""
        return _flock(self.root, '.metalock')

    def partition_lock(self, pid: int):
        """Exclusive per-partition writer lock (``flock`` on
        ``part=<p>/.commitlock``): serializes concurrent writers into one
        partition — each read-merge-commit cycle runs under the lock, so
        two simultaneous pipelines interleave per partition instead of
        losing updates (optimistic-concurrency requirement, VERDICT r3
        #5). ``flock`` releases on process death, so a crashed holder
        never wedges the lake. Advisory and filesystem-local: on a real
        multi-node deployment the manifest store lives on shared storage
        whose conditional-put (S3 If-Match / GCS generation) replaces
        this; the commit_version counter is the CAS token for that path.
        """
        return _flock(self.partition_dir(pid), '.commitlock')

    def _conditional_put(self, pid: int):
        """The store's conditional-put primitive, emulated on POSIX.

        On a real object store this critical section IS the store's
        native conditional write (S3 ``If-Match`` on the manifest ETag /
        GCS ``x-goog-if-generation-match``): version check and publish
        are one atomic operation. Locally we emulate that atomicity with
        a short flock held ONLY around check+publish — never across the
        read-merge cycle, which is what makes the protocol optimistic
        and portable to storage where flock does not exist. Uses its own
        lock file (not ``.commitlock``): a caller already holding
        :meth:`partition_lock` via a second fd would self-deadlock on
        the same file."""
        return _flock(self.partition_dir(pid), '.casput')

    def commit_partition(
        self,
        manifest: PartitionManifest,
        staged: Optional[Dict[str, str]] = None,
        remove_data: bool = True,
        expected_version: Optional[int] = None,
    ) -> int:
        """Atomically publish a partition; the only code that adds files to
        a partition or removes them. In one critical section it renames
        the ``staged`` files (``{final path: tmp path}``: base, commit
        snapshot, ingest DLQ file) into place, writes the manifest, and
        removes every snapshot file the new manifest no longer lists.
        Returns the number of files removed.

        ``remove_data=True`` (the full-state commit contract) with no base
        staged removes a stale base — the partition became empty.
        Delta/noop commits pass ``remove_data=False``: they don't carry
        the full state, so an existing base must survive.

        Stamps ``commit_version`` = on-disk version + 1 (callers holding
        :meth:`partition_lock` observe a strictly increasing counter —
        the lost-update detector in the two-writer tests).

        ``expected_version`` (the CAS token, VERDICT r4 #3): when given,
        the commit is CONDITIONAL — it publishes only if the on-disk
        ``commit_version`` still equals it (0 = "no manifest existed"),
        else raises :class:`CommitConflictError`, removes the staged tmp
        files and leaves the partition untouched. Pair it with the
        version read at read-merge start and retry on conflict — that
        loop is the exactly-once guarantee on shared object storage,
        where :meth:`partition_lock`'s flock does not exist."""
        pid = manifest.partition_id
        staged = staged or {}
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        with self._conditional_put(pid):
            current = self.read_manifest(pid)
            found = current.commit_version if current else 0
            if expected_version is not None and found != expected_version:
                for tmp in staged.values():
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(tmp)
                raise CommitConflictError(pid, expected_version, found)
            manifest.commit_version = found + 1
            for final, tmp in staged.items():
                os.replace(tmp, final)
            if remove_data and self.data_path(pid) not in staged:
                # Partition became empty (all rows deleted): remove stale data.
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.data_path(pid))
            _atomic_write_json(self.manifest_path(pid), asdict(manifest))
            return self._remove_unlisted(manifest)

    def sweep(self, pid: int) -> int:
        """Remove the snapshot files the committed manifest does not list
        (debris of a writer that died mid-commit), under the commit lock.
        Returns the number removed."""
        with self._conditional_put(pid):
            manifest = self.read_manifest(pid)
            return self._remove_unlisted(manifest) if manifest else 0

    def _remove_unlisted(self, manifest: PartitionManifest) -> int:
        """The liveness rule: a ``delta-*.parquet`` file in ``part=<p>/``
        lives iff ``manifest`` lists it in ``deltas`` or ``history``."""
        listed = set(manifest.deltas).union(manifest.history)
        part_dir = self.partition_dir(manifest.partition_id)
        dead = [
            name for name in os.listdir(part_dir)
            if name.startswith('delta-') and name.endswith('.parquet')
            and name not in listed
        ]
        for name in dead:
            os.remove(os.path.join(part_dir, name))
        return len(dead)

    def tmp_path(self, pid: int, kind: str = 'data') -> str:
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        return os.path.join(
            self.partition_dir(pid), f'{kind}.parquet.tmp-{uuid.uuid4().hex[:8]}',
        )

    def all_manifests(self) -> Dict[int, PartitionManifest]:
        out: Dict[int, PartitionManifest] = {}
        meta = self.read_meta()
        if meta is None:
            return out
        for pid in range(meta.num_partitions):
            manifest = self.read_manifest(pid)
            if manifest is not None:
                out[pid] = manifest
        return out


@contextlib.contextmanager
def _flock(directory: str, name: str):
    """Hold an exclusive ``flock`` on ``directory/name`` (created on
    demand); released on exit and on process death."""
    import fcntl

    os.makedirs(directory, exist_ok=True)
    fd = os.open(os.path.join(directory, name), os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f'{path}.tmp-{uuid.uuid4().hex[:8]}'
    with open(tmp, 'w') as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
