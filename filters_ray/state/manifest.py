"""Per-partition high-watermark manifests — the exactly-once sink protocol.

Layout (design point: 10^10 events, fixed partition count P recorded in the
table-level meta so replay reshuffles identically — SURVEY.md §4)::

    <lake_root>/
      _meta.json                      # num_partitions, retention, layout
                                      # version (4), and the lake schema:
                                      # base64 Arrow IPC of the schema of
                                      # every base, delta and history file
      _ingest_ledger.json             # files tail() has ingested
      part=<p>/
        base-<v>.parquet              # base rows, sorted by (repo, path),
                                      # written by commit_version v; with
                                      # retention, only from the partition's
                                      # first compaction on
        delta-<lo>-<hi>.parquet       # commit snapshots: active deltas and
                                      # retained history, one file each
        manifest.json                 # hwm_lsn, rows, sha256, counts, base,
                                      # deltas, history, dlq
      _dlq/part=<p>/
        dlq-<lo>-<hi>-<v>.parquet     # dead-letter rows, one file per commit
                                      # (v: its commit_version): the events'
                                      # own input columns with their Arrow
                                      # types, plus _errors
        dlq-<lo>-<hi>-<v>-p<a>-<b>.parquet
                                      # a shared DLQ file: the rejections of
                                      # partitions a..b (p = a, the owner) that
                                      # one commit task committed together,
                                      # plus an integer _part column; a
                                      # partition q != p lists it in its dlq
                                      # as part=<p>/<name>

Every parquet file above is zstd without column min/max statistics,
written to a tmp file by the lake's one writer (``_stage`` in
``pipelines/cdc.py``). No reader uses statistics: snapshot files are
pruned by their ``<lo>-<hi>`` names, and every file spans the whole
hashed key range. Each column has one storage plan: integers are
``DELTA_BINARY_PACKED``, the CDC byte-array columns take the encoding
and zstd level ``CDC_STORAGE_PLAN`` names (``pipelines/cdc.py``), any
other string or binary column gets a dictionary page when its distinct
count × 4 is at most the file's rows and is ``DELTA_LENGTH_BYTE_ARRAY``
otherwise, and the ``ARROW:schema`` footer entry is written only for a
schema that Parquet's own would not read back as written. Parquet
records codec and encodings per column chunk, so readers need no
setting and a lake still holding older snappy files, files with
statistics, PLAIN zstd files with the footer or files of the per-file
rules before the plan reads as before; its partitions move to the
current encoding as they compact. A manifest's ``bytes`` is the on-disk
size of the partition's base plus its listed delta files (history-only
and DLQ files are not counted). Manifests, ``_meta.json`` and the
ingest ledger are compact JSON.

One liveness rule: a ``*.parquet`` file in ``part=<p>/`` lives iff the
committed manifest names it as its ``base`` or lists it in ``deltas``
(merged on read) or ``history`` (the change feed and time travel) — a
delta batch and its history entry are the same file — and a DLQ file
lives iff some manifest lists it in ``dlq``. Readers open only the files
the manifests name, never a directory listing, so a file no manifest
lists is invisible and is garbage by definition. A base and a DLQ file
carry the ``commit_version`` that wrote them in their names, so no
commit renames over a live one.
:meth:`ManifestStore.commit_partition` is the only code that adds or
removes any partition file, DLQ files included, but for shared DLQ
files, which the lake-level :meth:`ManifestStore.sweep_dlq` removes.

A shared DLQ file (one per DLQ block of a commit task's share,
``_upsert_groups`` in ``pipelines/cdc.py``) is a table file in Delta
Lake's sense: many manifests may list it, and it goes only once none
does. Its owner ``a`` stages and publishes it in its own commit, and
every other partition with rows in it lists ``part=<a>/<name>`` in its
own commit; a reader of partition q's DLQ takes only the file's rows
with ``_part = q``, and only from files q lists. The covered partitions
``a..b`` are in the name, so :meth:`~ManifestStore.sweep_dlq` can hold
their commit locks, in ascending order, while it checks that none lists
the file. A commit that newly lists another partition's file checks,
under its own lock, that the file is still there, and raises
:class:`CommitConflictError` when a sweep has removed it. A file of one
partition's rows keeps the plain name and has no ``_part`` column.

One lake schema: ``_meta.json`` records the schema every base, delta
and history file is read under, decided once, at commit. A commit that
carries rows widens it additively with its batch's schema
(:meth:`ManifestStore.widen_lake_schema`, under the meta lock) before
it stages a file, and a non-additive change raises ``ValueError`` there,
so a conflicting batch leaves every file and manifest as it was. A
reader reads the schema *after* the manifests whose files it must
cover: the schema only grows, and always before the commit that
publishes a file with the new column, so a schema read later covers
every file those manifests name. A writer that dies between widening
and its commit leaves a column no file has yet; it reads as null until
the resumed run commits it. DLQ files hold events as delivered and are
not under the lake schema. Without ``_meta.json`` (an upsert into a bare
directory) nothing is recorded and a commit uses its batch's schema.

Layout version 3 had no lake schema; version 2 named the base
``data.parquet`` and found the DLQ by listing its directory; version 1
kept retained history in ``part=<p>/history/``. A lake of any of them
does not open and is rebuilt by replaying its log.

Commit protocol (one for every writer — ingest, redrive and vacuum —
and idempotent under task retry), an optimistic read → merge →
conditional commit → retry loop, like Delta Lake's log:

1. read the manifest and remember its ``commit_version`` v; merge
   without any lock and write every new file as
   ``<kind>.parquet.tmp-<v>-<nonce>``
2. commit, conditional on that version: under a short lock held only
   around the version check and the publish (the emulated conditional
   put), ``os.replace`` each staged file into place, write
   ``manifest.json`` (atomic on POSIX), then remove every file the new
   manifest does not name
3. if another writer committed first, the commit raises
   :class:`CommitConflictError` and removes the staged files; the writer
   re-reads and tries again

A partition is committed iff its ``manifest.json`` exists, and a commit
lands iff its manifest is written. An attempt that fails for any reason
removes the tmp files it staged (``_commit_optimistically`` in
``pipelines/cdc.py``), and files it renamed before dying are unlisted,
which no reader opens and the next commit or
:meth:`ManifestStore.sweep` removes. A writer killed outright (SIGKILL)
gets no such cleanup, and the liveness rule reclaims its tmp files: one
staged against a version below the committed one belongs to an attempt
that can never commit, so the next commit or sweep removes it, while
one staged against the committed version may still commit and stays.
Only the commit lock's holder writes ``manifest.json.tmp-<nonce>``, so
a commit or sweep, which holds the lock, removes any it finds. On
resume, events with ``lsn <= hwm_lsn`` are dropped before merging, so
replaying any suffix (or the whole log) reproduces the identical
table.

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

import base64
import contextlib
import json
import os
import re
import uuid
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

import pyarrow as pa

from .registry import widen_schema

__all__ = [
    'PartitionManifest', 'TableMeta', 'ManifestStore', 'CommitConflictError',
    'shared_dlq_span',
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
    bytes: int              # on-disk size of the base + listed deltas
    sha256: str             # canonical-state digest (chained on delta commits)
    rejected_by_code: Dict[str, int] = field(default_factory=dict)
    # Lifetime totals over every commit (ingest and redrive) of the
    # partition: events applied, and duplicates / below-watermark drops.
    events_applied: int = 0
    events_skipped: int = 0
    # The base file, base-<v>.parquet (v: the commit_version that wrote
    # it); None before a partition's first rewrite and after one that
    # left it empty.
    base: Optional[str] = None
    # Active delta files (ordered, oldest first).
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
    # The partition's DLQ files (oldest first): a name in _dlq/part=<p>/,
    # or part=<q>/<name> for partition q's shared file that holds this
    # partition's rows too. Each ingest commit with rejections appends
    # one; a redrive leaves only its file of still-invalid rows.
    dlq: list = field(default_factory=list)


@dataclass
class TableMeta:
    num_partitions: int
    # Lake layout: 4 records the lake schema here; 3 names every live
    # file in the manifest; 2 named the base data.parquet and listed the
    # DLQ directory; 1 kept retained history under part=<p>/history/.
    version: int = 4
    # Whether every commit retains its delta snapshot in history
    # (enables changes()/table_as_of()). Fixed at lake creation: a lake
    # that ever compacted without retention has holes no later flag flip
    # can fill.
    retain_history: bool = False
    # The lake schema, base64 Arrow IPC: the schema of every base, delta
    # and history file, widened by each commit that brings a column or a
    # wider type. None until the first commit with rows.
    schema: Optional[str] = None


class ManifestStore:
    """Filesystem-backed manifest store for one lake table."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- table meta ------------------------------------------------------

    def meta_path(self) -> str:
        return os.path.join(self.root, '_meta.json')

    def write_meta(self, meta: TableMeta) -> None:
        _atomic_write_json(self.meta_path(), asdict(meta))

    def read_meta(self) -> Optional[TableMeta]:
        """The table meta, None without ``_meta.json``. Keys of older
        layouts are ignored, so an old lake reads far enough for its
        ``version`` to refuse it."""
        try:
            with open(self.meta_path()) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        return TableMeta(**{f.name: payload[f.name]
                            for f in fields(TableMeta) if f.name in payload})

    def lake_schema(self) -> Optional[pa.Schema]:
        """The lake schema ``_meta.json`` records; None without a meta or
        before the first commit with rows. Read it after the manifests
        whose files it must cover (see the module docstring)."""
        meta = self.read_meta()
        return _decode_schema(meta.schema) if meta and meta.schema else None

    def widen_lake_schema(self, incoming: pa.Schema) -> pa.Schema:
        """Widen the lake schema additively with ``incoming`` and return
        it; ``_meta.json`` is rewritten, under the meta lock, only when
        ``incoming`` brings a column or a wider type. Raises
        ``ValueError`` on a non-additive change, before the caller stages
        anything. A writer that dies after this and before its commit
        leaves a column no file has yet, which reads as null until the
        resumed run commits it. Without ``_meta.json`` nothing is
        recorded and the schema is ``incoming``."""
        with self.meta_lock():
            meta = self.read_meta()
            if meta is None:
                return incoming
            widened, changes = incoming, True
            if meta.schema:
                widened, changes = widen_schema(_decode_schema(meta.schema), incoming)
            if changes:
                meta.schema = base64.b64encode(
                    widened.serialize().to_pybytes()).decode()
                self.write_meta(meta)
            return widened

    # -- partitions ------------------------------------------------------

    def partition_dir(self, pid: int) -> str:
        return os.path.join(self.root, f'part={pid}')

    def manifest_path(self, pid: int) -> str:
        return os.path.join(self.partition_dir(pid), 'manifest.json')

    def dlq_dir(self, pid: int) -> str:
        return os.path.join(self.root, '_dlq', f'part={pid}')

    def dlq_path(self, pid: int, name: str) -> str:
        """The path of an entry of partition ``pid``'s ``dlq``: a file of
        its own DLQ directory, or ``part=<q>/<name>``, partition q's
        shared file."""
        if name.startswith('part='):
            return os.path.join(self.root, '_dlq', name)
        return os.path.join(self.dlq_dir(pid), name)

    def delta_path(self, pid: int, name: str) -> str:
        """The path of a file of ``part=<p>/``: a delta, a history entry
        or the base."""
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
    ) -> int:
        """Atomically publish a partition, conditional on its version; the
        only code that adds or removes any partition file. In one critical
        section it renames the ``staged`` files (``{final path: tmp
        path}``: base, commit snapshot, DLQ file) into place, writes the
        manifest, and removes every file the new manifest does not name
        (:meth:`_remove_unlisted`). Returns the number of files removed.

        ``expected_version`` is the ``commit_version`` the writer read its
        state at (0 = no manifest existed). The commit publishes only if
        the on-disk version still equals it, and stamps it + 1; otherwise
        it raises :class:`CommitConflictError`, removes the staged tmp
        files and leaves the partition untouched, and the writer re-reads,
        re-merges and retries. It raises the same when the manifest newly
        lists another partition's shared DLQ file that is gone: a
        :meth:`sweep_dlq` removed it before this commit could list it.

        ``remove_data`` is accepted and ignored: the manifest's ``base``
        alone says whether the partition has one, and a base it no longer
        names is removed like any unlisted file."""
        pid = manifest.partition_id
        staged = staged or {}
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        with self._conditional_put(pid):
            current = self.read_manifest(pid)
            found = current.commit_version if current else 0
            listed = set(current.dlq) if current else set()
            if found != expected_version or any(
                    not os.path.exists(self.dlq_path(pid, name))
                    for name in manifest.dlq
                    if name.startswith('part=') and name not in listed):
                for tmp in staged.values():
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(tmp)
                raise CommitConflictError(pid, expected_version, found)
            manifest.commit_version = found + 1
            for final, tmp in staged.items():
                os.replace(tmp, final)
            _atomic_write_json(self.manifest_path(pid), asdict(manifest))
            return self._remove_unlisted(manifest)

    def sweep(self, pid: int) -> int:
        """Remove the files the committed manifest does not name (debris of
        a writer that died mid-commit), under the commit lock. Returns the
        number removed."""
        with self._conditional_put(pid):
            manifest = self.read_manifest(pid)
            return self._remove_unlisted(manifest) if manifest else 0

    def _remove_unlisted(self, manifest: PartitionManifest) -> int:
        """The liveness rule, the lake's only removal but for shared DLQ
        files: a ``*.parquet`` file in ``part=<p>/`` lives iff
        ``manifest`` names it as its ``base``, a delta or a history
        entry, and one in ``_dlq/part=<p>/`` iff it lists it in ``dlq``
        or it is a shared file, which other partitions may list (only
        :meth:`sweep_dlq` removes one). A tmp file staged against a
        version below ``manifest``'s can never commit and goes too, as
        does a manifest tmp file (the caller holds the commit lock, the
        only writer of one); a tmp file staged against ``manifest``'s
        version is in flight and stays."""
        pid = manifest.partition_id
        live = {manifest.base, *manifest.deltas, *manifest.history}
        return (_remove_dead(self.partition_dir(pid), live, manifest.commit_version)
                + _remove_dead(self.dlq_dir(pid), set(manifest.dlq),
                               manifest.commit_version, spare=shared_dlq_span))

    def sweep_dlq(self) -> int:
        """The lake-level DLQ sweep, the only removal of a shared DLQ
        file: remove each one no manifest lists, judged while holding
        the commit locks of the partitions its name covers, taken in
        ascending order (a commit holds one lock, so no two sweeps and
        no commit deadlock). Its owner lists it by name, the others as
        ``part=<owner>/<name>``. Returns the number removed."""
        root = os.path.join(self.root, '_dlq')
        removed = 0
        for part in sorted(os.listdir(root)) if os.path.isdir(root) else []:
            for name in sorted(os.listdir(os.path.join(root, part))):
                span = shared_dlq_span(name)
                if span is None:
                    continue
                with contextlib.ExitStack() as locks:
                    for pid in range(span[0], span[1] + 1):
                        locks.enter_context(self._conditional_put(pid))
                    if not any(name in m.dlq or f'{part}/{name}' in m.dlq
                               for m in map(self.read_manifest,
                                            range(span[0], span[1] + 1))
                               if m is not None):
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(os.path.join(root, part, name))
                            removed += 1
        return removed

    def tmp_path(self, pid: int, version: int, kind: str = 'data') -> str:
        """A unique tmp path in ``part=<p>/`` for a ``kind`` file staged
        by an attempt that read ``commit_version`` ``version``."""
        os.makedirs(self.partition_dir(pid), exist_ok=True)
        return os.path.join(
            self.partition_dir(pid),
            f'{kind}.parquet.tmp-{version}-{uuid.uuid4().hex[:8]}',
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


def _decode_schema(encoded: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(encoded)))


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


_STAGED_TMP = re.compile(r'\.parquet\.tmp-(\d+)-[0-9a-f]+$')
_SHARED_DLQ = re.compile(r'^dlq-.+-p(\d+)-(\d+)\.parquet$')


def shared_dlq_span(name: str) -> Optional[Tuple[int, int]]:
    """The partitions ``(a, b)``, both included, a shared DLQ file's
    name ``dlq-<lo>-<hi>-<v>-p<a>-<b>.parquet`` covers; None for any
    other name, a one-partition DLQ file's included."""
    m = _SHARED_DLQ.match(name)
    return (int(m.group(1)), int(m.group(2))) if m else None


def _remove_dead(directory: str, keep: set, version: int,
                 spare: Callable[[str], object] = lambda name: False) -> int:
    """Remove every ``*.parquet`` file in ``directory`` whose name is not
    in ``keep`` and that ``spare`` does not accept, every tmp file staged
    against a version below ``version`` and every manifest tmp file;
    returns the number removed. A doomed attempt may remove its own tmp
    file meanwhile."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    dead = [n for n in names if _is_dead(n, keep, version) and not spare(n)]
    for name in dead:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, name))
    return len(dead)


def _is_dead(name: str, keep: set, version: int) -> bool:
    if name.endswith('.parquet'):
        return name not in keep
    staged = _STAGED_TMP.search(name)
    return (int(staged.group(1)) < version if staged
            else name.startswith('manifest.json.tmp-'))


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as compact JSON (no spaces after separators:
    manifests are many small files) and rename it over ``path``."""
    tmp = f'{path}.tmp-{uuid.uuid4().hex[:8]}'
    with open(tmp, 'w') as fh:
        json.dump(payload, fh, sort_keys=True, separators=(',', ':'))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
