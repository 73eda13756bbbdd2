"""Per-partition high-watermark manifests — the exactly-once sink protocol.

Layout (design point: 10^10 events, fixed partition count P recorded in the
table-level meta so replay reshuffles identically — SURVEY.md §4)::

    <lake_root>/
      _meta.json                      # num_partitions, key columns, retention,
                                      # layout version (2: one directory)
      _ingest_ledger.json             # files tail() has ingested
      part=<p>/
        data.parquet                  # base rows, sorted by (repo, path);
                                      # with retention, only from the
                                      # partition's first compaction on
        delta-<lo>-<hi>.parquet       # commit snapshots: active deltas and
                                      # retained history, one file each
        manifest.json                 # hwm_lsn, rows, sha256, counts,
                                      # deltas, history
      _dlq/part=<p>/
        dlq-<lo>-<hi>-<v>.parquet     # dead-letter rows, one file per commit
                                      # (v: its commit_version): the events'
                                      # own input columns with their Arrow
                                      # types, plus _errors

Every parquet file above is zstd (default level) without column min/max
statistics, written to a tmp file by the lake's one writer (``_stage`` in
``pipelines/cdc.py``). No reader uses statistics: snapshot files are
pruned by their ``<lo>-<hi>`` names, and every file spans the whole
hashed key range. A string or binary column gets a dictionary page when
its distinct count × 4 is at most the file's rows and is
``DELTA_LENGTH_BYTE_ARRAY`` otherwise, and the ``ARROW:schema`` footer
entry is written only for a schema that Parquet's own would not read
back as written. Parquet records codec and encodings per column chunk,
so readers need no setting and a lake still holding older snappy files,
files with statistics or PLAIN zstd files with the footer reads as
before; its partitions move to the current encoding as they compact. A
manifest's ``bytes`` is the on-disk size of the partition's
``data.parquet`` plus its listed delta files (history-only and DLQ files
are not counted).

One liveness rule: a ``delta-*.parquet`` file exists iff the committed
manifest lists it in ``deltas`` (merged on read) or ``history`` (the
change feed and time travel), or both — a delta batch and its history
entry are the same file. :meth:`ManifestStore.commit_partition` is the
only code that adds or removes any partition file, DLQ files included:
in one critical section it renames the staged tmp files into place,
writes the manifest, removes every snapshot file the new manifest no
longer lists (compacted deltas, vacuumed history) and, for a redrive,
swaps the partition's DLQ. Layout version 1 kept retained history
in a second directory, ``part=<p>/history/``, as hardlinks; a version-1
lake with retention does not open.

Commit protocol (one for every writer — ingest, redrive and vacuum —
and idempotent under task retry), an optimistic read → merge →
conditional commit → retry loop, like Delta Lake's log:

1. read the manifest and remember its ``commit_version``; merge without
   any lock and write every new file as ``<kind>.parquet.tmp-<nonce>``
2. commit, conditional on that version: under a short lock held only
   around the version check and the publish (the emulated conditional
   put), ``os.replace`` each staged file into place, write
   ``manifest.json`` (atomic on POSIX), remove the unlisted snapshots;
   a redrive's DLQ file moves only after the manifest
3. if another writer committed first, the commit raises
   :class:`CommitConflictError` and removes the staged files; the writer
   re-reads and tries again

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
dropped); when base plus deltas, the files a read opens, reach the
pipeline's ``compact_every``, the next commit compacts the partition into
one base file and the list empties. A partition of a retained-history lake
has no base until its first compaction: its first commit is a delta, whose
one snapshot is both the active delta and the history entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = [
    'PartitionManifest', 'TableMeta', 'ManifestStore', 'CommitConflictError',
]


class CommitConflictError(RuntimeError):
    """Conditional commit lost the race: the partition's on-disk
    ``commit_version`` moved past the version the writer read its state
    at. The writer must re-read, re-merge, and retry."""

    def __init__(self, partition_id: int, expected: int, found: int) -> None:
        super().__init__(
            f'partition {partition_id}: expected commit_version '
            f'{expected}, found {found} — concurrent writer won the race',
        )
        self.partition_id = partition_id
        self.expected = expected
        self.found = found

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not the message the
        # default reduce would pass: the error crosses Ray task boundaries.
        return type(self), (self.partition_id, self.expected, self.found)


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
    # Monotone commit counter (incremented by commit_partition): the
    # conditional commit's token — a commit publishes only if the on-disk
    # value still equals the one its writer read.
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

    def dlq_files(self, pid: int) -> List[str]:
        """The partition's DLQ file paths, sorted by name."""
        d = self.dlq_dir(pid)
        names = sorted(os.listdir(d)) if os.path.isdir(d) else []
        return [os.path.join(d, n) for n in names if n.endswith('.parquet')]

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
        """Exclusive table-meta creation lock (``flock`` on ``.metalock``;
        released on process death, so a crashed holder never wedges the
        lake)."""
        return _flock(self.root, '.metalock')

    def _conditional_put(self, pid: int):
        """The store's conditional-put primitive, emulated on POSIX.

        On a real object store this critical section IS the store's
        native conditional write (S3 ``If-Match`` on the manifest ETag /
        GCS ``x-goog-if-generation-match``): version check and publish
        are one atomic operation. Locally we emulate that atomicity with
        a short flock on ``part=<p>/.casput`` held ONLY around
        check+publish — never across the read-merge cycle, which is what
        makes the protocol optimistic and portable to storage where flock
        does not exist."""
        return _flock(self.partition_dir(pid), '.casput')

    def commit_partition(
        self,
        manifest: PartitionManifest,
        staged: Optional[Dict[str, str]] = None,
        remove_data: bool = True,
        *,
        expected_version: int,
        replace_dlq: bool = False,
    ) -> int:
        """Atomically publish a partition, conditional on its version; the
        only code that adds or removes any partition file. In one critical
        section it renames the ``staged`` files (``{final path: tmp
        path}``: base, commit snapshot, DLQ file) into place, writes the
        manifest, and removes every snapshot file the new manifest no
        longer lists. Returns the number of files removed.

        ``remove_data=True`` (the full-state commit contract) with no base
        staged removes a stale base — the partition became empty.
        Delta/noop commits pass ``remove_data=False``: they don't carry
        the full state, so an existing base must survive.

        ``expected_version`` is the ``commit_version`` the writer read its
        state at (0 = no manifest existed). The commit publishes only if
        the on-disk version still equals it, and stamps it + 1; otherwise
        it raises :class:`CommitConflictError`, removes the staged tmp
        files and leaves the partition untouched, and the writer re-reads,
        re-merges and retries.

        ``replace_dlq`` (a redrive): the staged DLQ file, if any, becomes
        the partition's whole DLQ — it is renamed into place after the
        manifest is written, then every other DLQ file is removed. A
        crash before the manifest leaves the old DLQ whole, and the next
        redrive re-applies its rows idempotently."""
        pid = manifest.partition_id
        staged = staged or {}
        dlq_dir = self.dlq_dir(pid)
        swap = [f for f in staged if os.path.dirname(f) == dlq_dir] if replace_dlq else []
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        with self._conditional_put(pid):
            current = self.read_manifest(pid)
            found = current.commit_version if current else 0
            if found != expected_version:
                for tmp in staged.values():
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(tmp)
                raise CommitConflictError(pid, expected_version, found)
            manifest.commit_version = found + 1
            for final, tmp in staged.items():
                if final not in swap:
                    os.replace(tmp, final)
            if remove_data and self.data_path(pid) not in staged:
                # Partition became empty (all rows deleted): remove stale data.
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.data_path(pid))
            _atomic_write_json(self.manifest_path(pid), asdict(manifest))
            removed = 0
            if replace_dlq:
                for final in swap:
                    os.replace(staged[final], final)
                removed = _remove_parquet(dlq_dir, {os.path.basename(f) for f in swap})
            return removed + self._remove_unlisted(manifest)

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
        return _remove_parquet(self.partition_dir(manifest.partition_id),
                               set(manifest.deltas).union(manifest.history),
                               prefix='delta-')

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


def _remove_parquet(directory: str, keep: set, prefix: str = '') -> int:
    """Remove every ``<prefix>*.parquet`` file in ``directory`` whose name
    is not in ``keep``; returns the number removed."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    dead = [n for n in names
            if n.startswith(prefix) and n.endswith('.parquet') and n not in keep]
    for name in dead:
        os.remove(os.path.join(directory, name))
    return len(dead)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f'{path}.tmp-{uuid.uuid4().hex[:8]}'
    with open(tmp, 'w') as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
