"""Per-partition high-watermark manifests — the exactly-once sink protocol.

Layout (design point: 10^10 events, fixed partition count P recorded in the
table-level meta so replay reshuffles identically — SURVEY.md §4)::

    <lake_root>/
      _meta.json                      # num_partitions, key columns, retention
      _ingest_ledger.json             # files tail() has ingested
      part=<p>/
        data.parquet                  # base rows, sorted by (repo, path)
        delta-<lo>-<hi>.parquet       # per-micro-batch upsert deltas
        manifest.json                 # hwm_lsn, rows, sha256, counts, deltas
        history/delta-<lo>-<hi>.parquet  # retained commit snapshots
      _dlq/part=<p>/
        dlq-<lo>-<hi>.parquet         # dead-letter rows, one file per commit:
                                      # the events' own input columns with
                                      # their Arrow types, plus _errors

Every parquet file above is zstd (default level) without dictionary pages,
written by the lake's one writer (``_publish`` in ``pipelines/cdc.py``).
Parquet records the codec per column chunk, so readers need no setting and
a lake still holding older snappy files reads as before; its partitions
move to zstd as they compact. A manifest's ``bytes`` is the on-disk size of
the partition's ``data.parquet`` plus its listed delta files (history and
DLQ files are not counted).

Commit protocol (idempotent under task retry):

1. write ``data.parquet.tmp-<nonce>`` + ``manifest.json.tmp-<nonce>``
2. ``os.replace`` data/delta, then manifest (atomic on POSIX)

A partition is committed iff its ``manifest.json`` exists; a crashed task
leaves only tmp files, and a retried/resumed task overwrites them. On
resume, events with ``lsn <= hwm_lsn`` are dropped before merging, so
replaying any suffix (or the whole log) reproduces the identical table.

Delta protocol (VERDICT r2 #5 — no full-partition rewrite per
micro-batch): a run appends one sorted delta file per touched partition
(name derived from the run's LSN range, so a replayed window overwrites
its own file); the manifest's ``deltas`` list is the authority — files
not listed are orphans and are ignored by every reader. Readers
merge-on-read (base ∪ deltas, last-writer-wins, tombstones dropped);
when the list reaches the pipeline's ``compact_every`` the partition is
compacted back into one base file and the list empties.
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
    # snapshot per committed micro-batch, living under part=<p>/history/.
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
    version: int = 1
    # Whether every commit retains its delta snapshot under history/
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

    def history_dir(self, pid: int) -> str:
        return os.path.join(self.partition_dir(pid), 'history')

    def history_path(self, pid: int, name: str) -> str:
        return os.path.join(self.history_dir(pid), name)

    def retain_to_history(self, pid: int, src_path: str, name: str) -> None:
        """Publish an immutable snapshot copy of ``src_path`` into the
        partition's history as ``name``, leaving the source in place
        (the active file must stay valid until the manifest commits).
        Hardlink when possible (parquet files are immutable here), byte
        copy otherwise; idempotent under retry."""
        os.makedirs(self.history_dir(pid), exist_ok=True)
        dst = self.history_path(pid, name)
        if os.path.exists(dst):
            return
        tmp = f'{dst}.tmp-{uuid.uuid4().hex[:8]}'
        try:
            os.link(src_path, tmp)
        except OSError:
            import shutil

            shutil.copyfile(src_path, tmp)
        os.replace(tmp, dst)

    def clean_orphan_deltas(self, pid: int, active: list) -> None:
        """Remove delta files not listed in the committed manifest (crash
        leftovers / just-compacted files). Safe post-commit: the manifest
        is the read authority, so removal only reclaims space."""
        keep = set(active)
        part_dir = self.partition_dir(pid)
        if not os.path.isdir(part_dir):
            return
        for name in os.listdir(part_dir):
            if (
                name.startswith('delta-') and name.endswith('.parquet')
                and name not in keep
            ):
                try:
                    os.remove(os.path.join(part_dir, name))
                except FileNotFoundError:
                    pass

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
        tmp_data_path: Optional[str],
        remove_data: bool = True,
        expected_version: Optional[int] = None,
    ) -> None:
        """Atomically publish a partition: data first, then manifest.

        ``tmp_data_path=None`` with ``remove_data=True`` (the full-state
        commit contract) removes a stale base — the partition became
        empty. Delta/noop commits pass ``remove_data=False``: they don't
        carry the full state, so an existing base must survive.

        Stamps ``commit_version`` = on-disk version + 1 (callers holding
        :meth:`partition_lock` observe a strictly increasing counter —
        the lost-update detector in the two-writer tests).

        ``expected_version`` (the CAS token, VERDICT r4 #3): when given,
        the commit is CONDITIONAL — it publishes only if the on-disk
        ``commit_version`` still equals it (0 = "no manifest existed"),
        else raises :class:`CommitConflictError` and leaves the
        partition untouched (the staged tmp data file is reclaimed; any
        already-placed delta/DLQ files are manifest-unlisted orphans and
        invisible to readers). Pair it with the version read at
        read-merge start and retry on conflict — that loop is the
        exactly-once guarantee on shared object storage, where
        :meth:`partition_lock`'s flock does not exist."""
        pid = manifest.partition_id
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        with self._conditional_put(pid):
            current = self.read_manifest(pid)
            found = current.commit_version if current else 0
            if expected_version is not None and found != expected_version:
                if tmp_data_path is not None:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(tmp_data_path)
                raise CommitConflictError(pid, expected_version, found)
            manifest.commit_version = found + 1
            if tmp_data_path is not None:
                os.replace(tmp_data_path, self.data_path(pid))
            elif remove_data and os.path.exists(self.data_path(pid)):
                # Partition became empty (all rows deleted): remove stale data.
                os.remove(self.data_path(pid))
            _atomic_write_json(self.manifest_path(pid), asdict(manifest))

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
