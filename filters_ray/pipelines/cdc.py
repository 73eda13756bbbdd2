"""CDC / incremental-ingest pipeline: change log → validated LWW lake upsert.

The north-star pipeline (BASELINE.json ``north_star``) has two shapes
with one commit path. An input larger than one validate batch, or whose
size is unknown before it runs, takes the Ray Data plan:

    _read_dataset(files) or a lazy Dataset             # ordered change log
      → map_batches(ValidateStage, pyarrow, zero-copy)  # compiled chains
          # + _part (hash of raw (repo,path) % P) + _raw_lsn columns
      → groupby('_part').map_groups(upsert_partition)   # THE one shuffle
          # per partition: watermark drop → clean/DLQ split → LWW merge
          # with base partition → atomic commit (data + manifest + DLQ)
      → per-partition summaries (tiny) → run report

A micro-batch (parquet files or a materialized dataset of at most
``batch_size`` rows, counted without executing anything; see
:func:`_one_batch_source`) commits in one Ray task instead, with the same
validate and upsert functions and none of the plan's fixed cost:

    one commit task: read (widened schema) → ValidateStage
                   → stable argsort by _part            # the exchange
                   → upsert_partition over batch.take(order[lo:hi]),
                     one contiguous share of partitions per CPU
      → summary rows → run report
    with min(partitions, CPUs) > 1, each other share's rows (only
    those) go to a sibling upsert task; on one CPU the validated batch
    never leaves the task's heap

Scale design (SURVEY.md §4):

* **Exactly one shuffle** — the hash exchange on ``_part``. The partition
  key is the *full* ``(repo, path)`` hash, strictly finer than ``repo``:
  a hot repo's files spread uniformly over partitions, which is the
  salted-repartition requirement solved structurally. ``num_partitions``
  is pinned in ``_meta.json`` so every replay reshuffles identically.
* **Partition-local merge** — the base table is partitioned by the same
  key, so the LWW merge never joins across partitions.
* **Delta commits** — a micro-batch appends ONE sorted delta file per
  touched partition instead of rewriting its base (write amplification
  O(batch), not O(partition)); readers merge-on-read (base ∪ manifest-
  listed deltas, LWW, tombstones dropped) and the partition compacts
  into a single base before a read would open more than
  ``compact_every`` files. On a retained-history lake a partition's
  first commit is a delta too, so its first rows are written once.
* **Exactly-once** — per-partition high-watermark manifests with atomic
  rename commits (see :mod:`filters_ray.state.manifest`); replayed events
  with ``lsn <= hwm`` are dropped before merging, so resuming from any
  checkpoint (or replaying the whole log) reproduces the identical table.
  Delivery contract (standard CDC source semantics): within one delivered
  batch, disorder is unbounded (the per-partition sort restores per-key
  LSN order), but across batch boundaries the source must not introduce a
  *new* event at or below an already-delivered LSN — re-deliveries
  (duplicates) are fine and are dropped/deduplicated by identity.
* **Schema evolution** — one lake schema, recorded in ``_meta.json``
  and decided at commit: additive columns arriving on events (allowed
  "extra keys", reference complex.py:306-315) or wider types widen it
  (:meth:`~filters_ray.state.manifest.ManifestStore.widen_lake_schema`)
  before the commit stages a file, a non-additive change is refused
  there with ``ValueError``, and every read of base, delta and history
  files uses it (:func:`_lake_schema`), so a column added later reads as
  null on older rows.
* **Content bytes preserved** — ``content`` goes through
  ``ByteString(normalize=False)`` only (no normalizing Unicode), keeping
  ``sha256(content)`` invariant per ``(repo, path)``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.synth import LANGS
from ..state.manifest import (
    CommitConflictError,
    ManifestStore,
    PartitionManifest,
    TableMeta,
    _atomic_write_json,
)
from ..state.registry import align_table, widen_schema
from ..stages.validate import (
    ERRORS_COLUMN,
    ORIGINAL_COLUMN,
    RecordValidator,
    dlq_rows,
)

__all__ = [
    'CDCPipeline',
    'RunReport',
    'cdc_validator_spec',
    'key_partition',
]

PART_COLUMN = '_part'
RAW_LSN_COLUMN = '_raw_lsn'

OPS = {'insert', 'update', 'delete'}


def cdc_validator_spec(
    langs: Optional[Iterable[str]] = None,
    allow_extra_keys: Union[bool, Iterable[str]] = True,
) -> dict:
    """The default CDC validation chain (FIXTURES.md §5)."""
    import filters_ray as f
    from ..functions.engine_filters import First, content_required_rule

    lang_choices = set(langs if langs is not None else LANGS) | {''}
    return {
        'filter_map': {
            'lsn': f.Required | f.Int | f.Min(0),
            'op': f.Required | f.Unicode | f.Choice(choices=OPS),
            'repo': f.Required | f.Unicode | f.Strip | f.NotEmpty | f.MaxLength(256),
            'path': f.Required | f.Unicode | f.NotEmpty | f.MaxLength(4096),
            # Regex returns the list of matches; First unwraps to the str.
            'commit': f.Required | f.Unicode | f.Regex(r'^[0-9a-f]{40}$') | First(),
            'lang': f.Unicode | f.Optional('') | f.Choice(choices=lang_choices),
            # Byte-preserving: sha256(content) equality forbids normalization.
            'content': f.ByteString(normalize=False),
        },
        'allow_missing_keys': False,
        'allow_extra_keys': allow_extra_keys,
        'row_rules': [content_required_rule()],
    }


# The storage plan of the CDC byte-array columns (FIXTURES.md §1), by
# name: (Parquet encoding, zstd level). ``RLE_DICTIONARY`` means a
# dictionary page. Measured per column in BASELINE.md ("One storage plan
# per CDC column"); :func:`_stage` gives the reason for each row.
CDC_STORAGE_PLAN = {
    'op': ('RLE_DICTIONARY', 1),
    'lang': ('RLE_DICTIONARY', 1),
    'repo': ('DELTA_LENGTH_BYTE_ARRAY', 1),
    'commit': ('DELTA_LENGTH_BYTE_ARRAY', 1),
    'path': ('DELTA_LENGTH_BYTE_ARRAY', 7),
    'content': ('PLAIN', 7),
}


def key_partition(repo: pa.Array, path: pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic hash partition of the raw (repo, path) key.

    Each column is SipHashed independently (pandas ``hash_array``, fixed
    default key — stable across processes and nodes, vectorized in C) and
    the two 64-bit hashes are mixed; no per-row Python string join
    (VERDICT r1 #9).
    """
    repo_np = np.asarray(repo.to_numpy(zero_copy_only=False), dtype=object)
    path_np = np.asarray(path.to_numpy(zero_copy_only=False), dtype=object)
    h_repo = pd.util.hash_array(repo_np, categorize=False)
    h_path = pd.util.hash_array(path_np, categorize=False)
    mixed = (h_repo * np.uint64(0x9E3779B97F4A7C15)) ^ h_path
    return (mixed % np.uint64(num_partitions)).astype(np.int64)


class CDCValidateStage:
    """map_batches callable: validation + partition/raw-lsn assignment.

    Compiles the chain set once per actor (``__init__``), then per batch:
    computes ``_part`` and ``_raw_lsn`` from the *raw* columns (errored
    rows must still route deterministically), then validates.
    """

    def __init__(
        self,
        num_partitions: int,
        langs: Optional[List[str]] = None,
        allow_extra_keys: Union[bool, List[str]] = True,
    ) -> None:
        self.num_partitions = num_partitions
        self.validator = RecordValidator(
            **cdc_validator_spec(langs=langs, allow_extra_keys=allow_extra_keys),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw_lsn = batch.column('lsn').combine_chunks()
        if not pa.types.is_integer(raw_lsn.type):
            raw_lsn = pa.nulls(batch.num_rows, type=pa.int64())
        elif raw_lsn.type != pa.int64():
            raw_lsn = raw_lsn.cast(pa.int64())

        out = self.validator.validate_table(batch)

        # Partition on the VALIDATED key (Strip may canonicalize `repo`;
        # two raw spellings of one key must land in one partition), falling
        # back to the raw value for rows whose key failed validation (DLQ
        # rows only need a deterministic home).
        def merged_key(name: str) -> pa.Array:
            validated = out.column(name).combine_chunks()
            raw = batch.column(name).combine_chunks()
            if not pa.types.is_string(raw.type):
                raw = pa.nulls(batch.num_rows, type=pa.string())
            return pc.coalesce(validated, raw)

        parts = key_partition(
            merged_key('repo'), merged_key('path'), self.num_partitions,
        )
        out = out.append_column(PART_COLUMN, pa.array(parts, type=pa.int64()))
        out = out.append_column(RAW_LSN_COLUMN, raw_lsn)
        # Metadata-bearing schemas are unhashable (dict) and break Ray's
        # schema-dedup fast path at the shuffle — strip before the exchange.
        return out.replace_schema_metadata(None)


# Per-process compiled validators, one per hashable config: compiled
# chains hold weakrefs and cannot be pickled, so each worker builds its
# own, once, and only the config key crosses process boundaries.
_validate_stage = functools.lru_cache(maxsize=None)(CDCValidateStage)


def validate(key: tuple, batch: pa.Table) -> pa.Table:
    """Validate ``batch`` under config ``key`` (its name is the plan's
    ``MapBatches(validate)`` operator name)."""
    return _validate_stage(*key)(batch)


def _make_validate_fn(num_partitions, langs, allow_extra_keys):
    """The validate callable shipped to tasks: :func:`validate` bound to a
    hashable config key (module-level, so it pickles by reference and
    never carries a process's validator cache along)."""
    extra_key = (
        tuple(sorted(allow_extra_keys))
        if isinstance(allow_extra_keys, (set, frozenset, list, tuple))
        else bool(allow_extra_keys)
    )
    return functools.partial(
        validate, (num_partitions, tuple(langs) if langs is not None else None, extra_key))


@dataclass
class RunReport:
    events_seen: int = 0
    events_applied: int = 0
    events_skipped: int = 0
    rejected_by_code: Dict[str, int] = field(default_factory=dict)
    partitions: int = 0
    lake_rows: int = 0      # live rows in the whole lake after the run

    def merge_row(self, row: dict) -> None:
        """Fold in one partition's summary row."""
        self._count(row['events_seen'], row['events_applied'],
                    row['events_skipped'], json.loads(row['rejected_by_code']))
        self.partitions += 1

    def add(self, later: 'RunReport') -> None:
        """Fold in the report of a later run on the same lake: event
        counts and rejections add up, ``lake_rows`` is the later one."""
        self._count(later.events_seen, later.events_applied,
                    later.events_skipped, later.rejected_by_code)
        self.partitions = max(self.partitions, later.partitions)
        self.lake_rows = later.lake_rows

    def _count(self, seen: int, applied: int, skipped: int,
               rejected: Dict[str, int]) -> None:
        self.events_seen += seen
        self.events_applied += applied
        self.events_skipped += skipped
        for code, cnt in rejected.items():
            self.rejected_by_code[code] = self.rejected_by_code.get(code, 0) + cnt


# ---------------------------------------------------------------------------
# partition upsert (runs inside the post-shuffle task)
# ---------------------------------------------------------------------------


_SUMMARY_SCHEMA = {
    'partition_id': pa.int64(),
    'events_seen': pa.int64(),
    'events_applied': pa.int64(),
    'events_skipped': pa.int64(),
    'rejected_by_code': pa.string(),
}


def _summary_row(pid, seen, applied, skipped, rejected) -> pa.Table:
    return pa.table({
        'partition_id': pa.array([pid], type=pa.int64()),
        'events_seen': pa.array([seen], type=pa.int64()),
        'events_applied': pa.array([applied], type=pa.int64()),
        'events_skipped': pa.array([skipped], type=pa.int64()),
        'rejected_by_code': pa.array([json.dumps(rejected, sort_keys=True)]),
    })


def _dlq_counts(table: pa.Table) -> Dict[str, int]:
    """Per-code rejection counts, vectorized (list_flatten + value_counts)."""
    entries = table.column(ERRORS_COLUMN)
    if isinstance(entries, pa.ChunkedArray):
        entries = entries.combine_chunks()
    flat = pc.list_flatten(entries)
    if len(flat) == 0:
        return {}
    vc = pc.value_counts(flat.field('code'))
    return dict(zip(
        vc.field('values').to_pylist(),
        (int(c) for c in vc.field('counts').to_pylist()),
    ))


def _dedup_by_lsn(table: pa.Table) -> pa.Table:
    """Keep the first row per raw lsn (null-lsn rows all kept).

    Exact-integer dedup: a ``to_numpy`` on a nullable int64 column would
    round-trip through float64 (NaN for nulls), where distinct lsns above
    2^53 collide — so nulls are masked out first and ``np.unique`` runs
    over the exact int64 values of the non-null rows only.
    """
    col = table.column(RAW_LSN_COLUMN).combine_chunks()
    null = _as_np_bool(pc.is_null(col))
    nn_idx = np.flatnonzero(~null)
    if nn_idx.size == 0:
        return table
    vals = np.asarray(
        pc.fill_null(col, 0).to_numpy(zero_copy_only=False), dtype=np.int64,
    )[nn_idx]
    _, first = np.unique(vals, return_index=True)
    keep = null.copy()
    keep[nn_idx[first]] = True
    if keep.all():
        return table
    return table.filter(pa.array(keep))


def _as_np_bool(mask: pa.Array) -> np.ndarray:
    return np.asarray(
        pc.fill_null(mask, False).to_numpy(zero_copy_only=False), dtype=bool,
    )


def _canonical_digest(table: pa.Table) -> str:
    """Deterministic digest over the canonical (sorted) partition rows.

    Vectorized: rows are serialized with embedded separators into ONE
    binary column (``binary_join_element_wise``) and the sha256 runs
    over its contiguous values buffer — byte-identical to hashing
    ``repo \\0 path \\0 content lsn \\1`` row by row, with no per-row
    Python (VERDICT r1 hot-loop rule)."""
    h = hashlib.sha256()
    if table.num_rows:
        as_bin = {}
        for name in ('repo', 'path', 'content'):
            col = table.column(name).combine_chunks()
            if pa.types.is_string(col.type):
                col = col.cast(pa.binary())
            elif pa.types.is_large_string(col.type) or pa.types.is_large_binary(col.type):
                col = col.cast(pa.binary())
            as_bin[name] = pc.fill_null(col, b'')
        lsn_bin = pc.fill_null(
            table.column('last_lsn').combine_chunks().cast(pa.string()), 'None',
        ).cast(pa.binary())
        joined = pc.binary_join_element_wise(
            as_bin['repo'], b'\x00', as_bin['path'], b'\x00',
            as_bin['content'], lsn_bin, b'\x01', b'',
        )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        n = len(joined)
        offs = np.frombuffer(
            joined.buffers()[1], dtype=np.int32, count=joined.offset + n + 1,
        )
        start, end = int(offs[joined.offset]), int(offs[joined.offset + n])
        h.update(memoryview(joined.buffers()[2])[start:end])
    return h.hexdigest()


# Columns sufficient for the LWW/tombstone merge decision (thin reads).
_MERGE_KEY_COLUMNS = ('repo', 'path', 'last_lsn', 'op')

# Optimistic commit: attempts before declaring pathological contention.
# Conflicts are per-partition, so even N writers racing one hot partition
# serialize in ~N rounds.
_COMMIT_MAX_ATTEMPTS = 16


def _drop_tombstones(latest: pa.Table) -> pa.Table:
    """Filter deleted keys out of an LWW result (order-preserving)."""
    return latest.filter(
        pc.or_kleene(
            pc.is_null(latest.column('op')),
            pc.not_equal(latest.column('op'), pa.scalar('delete')),
        ),
    )


def _widened_schema(paths: List[str], drop: Iterable[str] = ()) -> pa.Schema:
    """The schema of events as delivered, in input files and DLQ files:
    their footers' schemas widened across them, minus ``drop``. First-
    fragment schema inference can drop later-added columns (ADVICE r3),
    so the readers get this schema explicitly and null-fill the columns
    a file lacks. Lake files never need it: they are read under
    :func:`_lake_schema`."""
    schema = None
    for p in paths:
        s = pq.read_schema(p).remove_metadata()
        schema = s if schema is None else widen_schema(schema, s)[0]
    for name in drop:
        schema = schema.remove(schema.get_field_index(name))
    return schema


def _lake_schema(store: ManifestStore,
                 columns: Optional[Iterable[str]] = None) -> Optional[pa.Schema]:
    """The lake schema of base, delta and history files (``_meta.json``),
    pruned to the requested ``columns`` it has, in request order, each
    once; None on a lake that never committed a row. Read it *after* the manifests
    whose files it must cover: it only grows, and always before a commit
    publishes a file with the new column."""
    schema = store.lake_schema()
    if schema is None or columns is None:
        return schema
    return pa.schema([schema.field(c) for c in dict.fromkeys(columns)
                      if c in schema.names])


def _read_files(paths: List[str], schema: Optional[pa.Schema]) -> pa.Table:
    """Read parquet files as one table, rows in file order, under
    ``schema`` (:func:`_lake_schema` for lake files, :func:`_widened_schema`
    for events as delivered): a column a file lacks reads as null, a
    narrower type is cast up, and a column outside ``schema`` is not
    read. The ``part=<p>`` directories are not hive partitions: no
    ``part`` column is derived from the path."""
    return pq.read_table(paths, schema=schema, partitioning=None)


def _read_dataset(paths: List[str], schema: Optional[pa.Schema]):
    """:func:`_read_files` as a streaming ``ray.data.Dataset``."""
    import ray.data as rd

    return rd.read_parquet(paths, schema=schema, partitioning=None)


def _merge_partition_tables(tables: List[pa.Table]) -> pa.Table:
    """base ∪ deltas ∪ incoming, all under one schema → canonical live
    rows: last-writer-wins on (repo, path, last_lsn), tombstones
    (op='delete') dropped. ONE sort:
    the LWW (repo, path, last_lsn) sort already leaves the surviving
    (unique-keyed) rows in canonical (repo, path) order, so no second
    sort is needed. Idempotent: re-merging already-merged rows yields
    the identical table (crash-retry safety)."""
    return _drop_tombstones(_last_writer_wins(pa.concat_tables(tables)))


def _partition_file_paths(store: ManifestStore, pid: int, manifest) -> List[str]:
    """The files a merge-on-read opens: the manifest's base and listed
    deltas, none for a never-committed partition. A file exists iff the
    committed manifest names it, so a named file missing from disk is an
    error, not an empty one: reading it raises ``FileNotFoundError`` (a
    commit attempt retries on it)."""
    if manifest is None:
        return []
    names = ([manifest.base] if manifest.base else []) + manifest.deltas
    return [store.delta_path(pid, name) for name in names]


def _live_rows(store: ManifestStore, pid: int, manifest,
               schema: Optional[pa.Schema], *extra: pa.Table) -> Optional[pa.Table]:
    """A partition's live rows: its base + listed deltas, read under
    ``schema``, merged on read with the ``extra`` tables (a commit's new
    rows, aligned to ``schema``); None with no file and no extra table."""
    paths = _partition_file_paths(store, pid, manifest)
    tables = ([_read_files(paths, schema)] if paths else []) + list(extra)
    return _merge_partition_tables(tables) if tables else None


def _last_writer_wins(table: pa.Table) -> pa.Table:
    """Keep the last row per (repo, path) — max last_lsn, last delivery
    on ties — output in canonical (repo, path) order.

    The upsert's CPU hot spot (VERDICT r2 #1, per-row memory traffic):
    EXACT integer group keys via ``dictionary_encode`` (C hash tables over
    the Arrow string buffers — no Python objects), one integer
    ``np.lexsort`` to find each key's winner, then a ``take`` + string
    sort over the SURVIVORS ONLY. The full batch's payload columns
    (content/commit/...) are never gathered or string-sorted — only
    ~state-size rows are. Every input is validated rows or lake files, so
    ``repo`` and ``path`` are non-null strings and ``last_lsn`` a non-null
    integer; the int32 dictionary indices pack into one int64 key.
    """
    if table.num_rows == 0:
        return table
    repo_idx, path_idx = (
        pc.dictionary_encode(table.column(name).combine_chunks())
        .indices.to_numpy().astype(np.int64)
        for name in ('repo', 'path'))
    combined = (repo_idx << np.int64(32)) | path_idx  # exact key id
    lsn_np = np.asarray(
        table.column('last_lsn').combine_chunks().cast(pa.int64())
        .to_numpy(zero_copy_only=False), dtype=np.int64,
    )
    order = np.lexsort((lsn_np, combined))
    gs = combined[order]
    run_ends = np.flatnonzero(gs[1:] != gs[:-1])
    winners = order[np.concatenate([run_ends, [table.num_rows - 1]])]
    out = table.take(pa.array(winners, type=pa.int64()))
    return out.sort_by([('repo', 'ascending'), ('path', 'ascending')])


def _parse_delta_range(name: str) -> Optional[tuple]:
    """LSN window from a delta/history file name (``delta-<lo>-<hi>.parquet``)
    — the pruning key for changes()/table_as_of() file selection."""
    import re

    m = re.fullmatch(r'delta-(\d+)-(\d+)\.parquet', name)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2))


def _stage(store: ManifestStore, pid: int, table: pa.Table, kind: str,
           final: str, staged: Dict[str, str]) -> str:
    """Write ``table`` to a unique tmp file in the partition directory,
    record it as ``staged[final]`` before writing a byte, and return its
    path — the lake's one parquet writer. Nothing here renames:
    :meth:`ManifestStore.commit_partition` publishes the tmp file, and
    :func:`_commit_optimistically` removes it when the attempt fails.

    Every lake file is zstd, and each column has one storage plan,
    decided once, not per file:

    1. Integer columns (``lsn``, ``last_lsn``, an added integer column)
       are ``DELTA_BINARY_PACKED``: sorted or clustered lsns become small
       deltas, which zstd packs tighter than PLAIN's 8-byte values.
    2. The CDC byte-array columns follow :data:`CDC_STORAGE_PLAN`, by
       name. ``op`` and ``lang`` (a handful of values) get a dictionary
       page. ``repo`` and ``commit`` are ``DELTA_LENGTH_BYTE_ARRAY`` at
       zstd level 1: the lengths are stored apart from the bytes, so zstd
       sees pure text. ``repo`` rows are sorted, so zstd already packs
       their runs and a dictionary made the column larger; 40-hex
       ``commit`` shas are random text that compresses to about its
       20 B/row floor at level 1 and grows at levels 5-12. ``path`` is
       ``DELTA_LENGTH_BYTE_ARRAY`` and ``content`` PLAIN, both at zstd
       level 7: their text repeats across rows, which a higher level
       finds, and ``content`` is 2-4% smaller PLAIN than split.
    3. Any other string or binary column (a schema-evolution extra such
       as ``branch``) gets a dictionary page when its distinct count × 4
       is at most the file's rows, and is ``DELTA_LENGTH_BYTE_ARRAY``
       otherwise. Only these columns pay for the distinct count.

    A plan entry applies only when the column's type fits its encoding:
    a DLQ file holds events as delivered, so its ``repo`` may be an
    integer (rule 1) or its ``lsn`` a string (rule 3). Other columns
    (the DLQ's ``_errors`` list) are PLAIN at level 1.

    The ``ARROW:schema`` footer entry is written only when the Parquet
    schema alone would read back as a different Arrow schema
    (:func:`_needs_arrow_schema`): ``large_string``, time zones and
    schema metadata need it; the plain columns of base, delta and DLQ
    files do not, and on a small file it was over a kilobyte. Nested
    lists keep Arrow's item name in the Parquet schema, so the DLQ's
    ``_errors`` reads back as written without the footer.

    No column chunk carries min/max statistics. Parquet stores them three
    times per chunk (page header, chunk metadata, footer), and they hold
    whole ``content`` strings and ``commit`` shas, so on small partition
    files they were about an eighth of the bytes. No reader uses them:

    * merge-on-read reads whole files;
    * ``changes()``, ``table_as_of()`` and vacuum prune by the
      ``delta-<lo>-<hi>`` file name (:func:`_parse_delta_range`);
    * hashing on ``(repo, path)`` makes every file span the whole key
      range, so key min/max could prune nothing;
    * :func:`_one_batch_source` reads only ``num_rows`` from a footer.

    Parquet records the encoding and codec per column chunk, so readers
    need no setting, and files written under earlier rules read the same
    way."""
    dictionary, encoding, level = [], {}, {}
    for f in table.schema:
        if pa.types.is_integer(f.type):
            encoding[f.name] = 'DELTA_BINARY_PACKED'
        elif _is_byte_array(f.type):
            plan, level[f.name] = (CDC_STORAGE_PLAN.get(f.name)
                                   or (_probed_encoding(table.column(f.name)), 1))
            if plan == 'RLE_DICTIONARY':
                dictionary.append(f.name)
            else:
                encoding[f.name] = plan
    tmp = staged[final] = store.tmp_path(pid, kind=kind)
    footer = _needs_arrow_schema(table.schema.serialize().to_pybytes())
    pq.write_table(table, tmp, compression='zstd', compression_level=level,
                   use_dictionary=dictionary, column_encoding=encoding,
                   write_statistics=False, use_compliant_nested_type=False,
                   store_schema=footer)
    return tmp


def _probed_encoding(column: pa.ChunkedArray) -> str:
    """Rule 3 of :func:`_stage`, for a byte-array column outside the
    plan: a dictionary page at one distinct value per four rows or
    fewer, ``DELTA_LENGTH_BYTE_ARRAY`` otherwise."""
    distinct = pc.count_distinct(column, mode='all').as_py()
    return ('RLE_DICTIONARY' if distinct * 4 <= len(column)
            else 'DELTA_LENGTH_BYTE_ARRAY')


def _is_byte_array(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


@functools.lru_cache(maxsize=256)
def _needs_arrow_schema(serialized: bytes) -> bool:
    """Whether a file of this (serialized) Arrow schema needs the
    ``ARROW:schema`` footer entry: write zero rows without it, the way
    :func:`_stage` writes, and compare the schema Parquet alone gives back,
    metadata and list item names included. Once per distinct schema."""
    schema = pa.ipc.read_schema(pa.BufferReader(serialized))
    sink = pa.BufferOutputStream()
    pq.write_table(schema.empty_table(), sink, store_schema=False,
                   use_compliant_nested_type=False)
    back = pq.ParquetFile(pa.BufferReader(sink.getvalue())).schema_arrow
    return not back.equals(schema, check_metadata=True)


def _admit(group: pa.Table, hwm: int, redrive: bool) -> pa.Table:
    """Step 1: the delivered rows this commit acts on.

    Ingest drops already-applied events (duplicate delivery / replay
    overlap) by watermark: the raw LSN is the event identity (globally
    unique — FIXTURES.md §2). Corrupt LSNs (null / negative) cannot be
    watermarked: they always pass and are deduplicated at DLQ-accounting
    time instead (the lsn chain keeps them out of the lake). A redrive
    group IS the partition's manifest-listed DLQ, whose files come from
    commits that raised the watermark over every row in them, so it
    keeps every row, deduplicated by lsn."""
    if redrive:
        return _dedup_by_lsn(group)
    raw_lsn = group.column(RAW_LSN_COLUMN)
    return group.filter(pc.fill_null(
        pc.or_(pc.greater(raw_lsn, hwm), pc.less(raw_lsn, 0)), True,
    ))


def _write_dlq(store: ManifestStore, pid: int, dlq: pa.Table,
               version: int, staged: Dict[str, str]) -> List[str]:
    """Step 3: one DLQ file per commit, ``dlq-<lo>-<hi>-<version>.parquet``
    (the lsn range, 0 for an all-null one, and the ``commit_version`` the
    commit stamps, so no two commits share a name), holding the rejected
    events' own typed columns plus ``_errors`` (the raw lsn is not stored:
    validating the file's ``lsn`` derives it again). Stages it into
    ``staged`` and returns its name; none when nothing was rejected."""
    if not dlq.num_rows:
        return []
    bounds = pc.min_max(dlq.column(RAW_LSN_COLUMN))
    lo, hi = bounds['min'].as_py() or 0, bounds['max'].as_py() or 0
    name = f'dlq-{lo}-{hi}-{version}.parquet'
    out = dlq_rows(dlq.sort_by([(RAW_LSN_COLUMN, 'ascending')]))
    os.makedirs(store.dlq_dir(pid), exist_ok=True)
    _stage(store, pid, out, 'dlq', store.dlq_path(pid, name), staged)
    return [name]


def _account_dlq(dlq: pa.Table, rejected: Dict[str, int],
                 corrupt: List[int]) -> tuple:
    """Step 2: fold a commit's lsn-deduped rejections into the cumulative
    per-code counts (incremental — VERDICT r2 #3: cost scales with the
    commit, not with the historical DLQ). Watermarkable (lsn ≥ 0)
    rejections cannot recount across commits, the watermark drops them;
    negative lsns pass every watermark, so the ones already counted
    (``corrupt``) are skipped. Returns ``(countable rows, counts, corrupt
    lsns)``: the countable rows are the ones the commit's DLQ file holds,
    so a re-delivered corrupt event is stored once, as it is counted."""
    rejected = dict(rejected)
    lsn = dlq.column(RAW_LSN_COLUMN).combine_chunks()
    negative = pc.fill_null(pc.less(lsn, 0), False)
    countable = dlq
    if corrupt:
        counted = pc.is_in(lsn, value_set=pa.array(corrupt, type=pa.int64()))
        countable = dlq.filter(pc.invert(
            pc.fill_null(pc.and_(negative, counted), False)))
    for code, cnt in _dlq_counts(countable).items():
        rejected[code] = rejected.get(code, 0) + cnt
    new = pc.drop_null(lsn.filter(negative)).to_pylist()
    return countable, rejected, sorted(set(corrupt).union(new))


def _lww_snapshot(incoming: pa.Table) -> tuple:
    """The commit's within-run LWW rows (tombstones kept: a delete must
    mask older rows at merge-on-read time, and a change feed must show
    it), already in canonical (repo, path) order, and their file name
    ``delta-<lo>-<hi>.parquet``. The name is deterministic per replay
    window: a retried window overwrites its own file."""
    snap = _last_writer_wins(incoming)
    bounds = pc.min_max(snap.column('last_lsn'))
    return snap, f"delta-{bounds['min'].as_py()}-{bounds['max'].as_py()}.parquet"


def _write_state(store: ManifestStore, pid: int, last: PartitionManifest,
                 incoming: pa.Table, schema: pa.Schema, mode: str,
                 retain_history: bool, staged: Dict[str, str]) -> dict:
    """Step 4: stage the partition's new state in ``mode`` over the last
    committed one into ``staged`` (``{final path: tmp path}``, for the
    commit) and return the manifest's state fields. The committed files
    are read under ``schema``, the lake schema ``incoming`` is aligned
    to. A rewrite names its base after the version it commits, so the
    base it replaces stays readable until the manifest stops naming it."""
    deltas, history = list(last.deltas), list(last.history)
    if mode == 'noop':
        # A never-committed partition (empty sha256) gets the empty digest.
        sha = last.sha256 or _canonical_digest(incoming)
        return dict(rows=last.rows, bytes=last.bytes, sha256=sha, base=last.base,
                    deltas=deltas, history=history)
    if mode == 'delta':
        delta, name = _lww_snapshot(incoming)
        # Exact live-row count WITHOUT touching content bytes: merge the
        # key columns only (column-pruned reads of base + deltas).
        keys = _live_rows(store, pid, last, pa.schema(
            [schema.field(c) for c in _MERGE_KEY_COLUMNS]),
            delta.select(list(_MERGE_KEY_COLUMNS)))
        # Chained digest: the full canonical digest is recomputed at each
        # rewrite; between rewrites the chain stays deterministic.
        sha = hashlib.sha256(
            f'{last.sha256}:{_canonical_digest(delta)}'.encode(),
        ).hexdigest()
        if retain_history:  # the delta file is also the history entry
            history = _append_new(history, name)
        tmp = _stage(store, pid, delta, 'delta', store.delta_path(pid, name), staged)
        return dict(rows=keys.num_rows,
                    bytes=last.bytes + os.path.getsize(tmp), sha256=sha,
                    base=last.base, deltas=_append_new(deltas, name),
                    history=history)
    # rewrite: the full canonical state in hand. The folded-away deltas
    # were retained at their own commits; only this batch is new history.
    alive = _live_rows(store, pid, last, schema, incoming)
    if retain_history and incoming.num_rows:
        snap, name = _lww_snapshot(incoming)
        _stage(store, pid, snap, 'hist', store.delta_path(pid, name), staged)
        history = _append_new(history, name)
    base, nbytes = None, 0
    if alive.num_rows:
        base = f'base-{last.commit_version + 1}.parquet'
        nbytes = os.path.getsize(
            _stage(store, pid, alive, 'data', store.delta_path(pid, base), staged))
    return dict(rows=alive.num_rows, bytes=nbytes,
                sha256=_canonical_digest(alive), base=base,
                deltas=[], history=history)


def _append_new(names: List[str], name: str) -> List[str]:
    return names if name in names else names + [name]


def _commit_optimistically(pid: int, attempt: Callable):
    """Run one partition's read → merge → conditional-commit
    ``attempt(staged)`` until its commit lands — the one commit protocol
    of every writer (ingest, redrive, vacuum). The attempt reads the
    manifest, works without any lock, records each tmp file it stages in
    ``staged`` and commits conditional on the ``commit_version`` it read;
    a lost race (:class:`CommitConflictError`) re-reads and re-merges.
    ``FileNotFoundError`` counts as a lost race too: the winner's commit
    may remove a file the doomed attempt was reading. An attempt that
    fails for any reason leaves no tmp file behind. A lone writer never
    conflicts and pays one short commit lock."""
    for n in range(_COMMIT_MAX_ATTEMPTS):
        staged: Dict[str, str] = {}
        try:
            return attempt(staged)
        except Exception as exc:
            for tmp in staged.values():  # a published one is already gone
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
            if not isinstance(exc, (CommitConflictError, FileNotFoundError)):
                raise
            last_exc = exc
        time.sleep(min(0.25, 0.01 * (1 << min(n, 4))))
    raise RuntimeError(
        f'partition {pid}: commit lost {_COMMIT_MAX_ATTEMPTS} races in a '
        f'row — pathological contention',
    ) from last_exc


def make_upsert_fn(lake_root: str, compact_every: int = 8,
                   retain_history: bool = False):
    """Build the ingest's per-partition upsert (closure: picklable), the
    plan's ``map_groups`` function and the task shape's: it commits one
    ``_part`` group through :func:`_commit_optimistically`, each attempt
    :func:`_apply_partition` over the manifest it read.

    Concurrent writers into one partition (a second pipeline, a vacuum,
    a redrive) interleave through :func:`_commit_optimistically`: the
    read-merge runs lock-free and the commit is conditional on the
    version read, so a lost update can never be silent (VERDICT r4 #3).

    ``lake_root`` need not hold a ``_meta.json``: in a bare directory
    each commit's schema is its own batch's, and no lake schema is
    recorded.
    """

    def upsert_partition(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({k: pa.array([], type=v) for k, v in _SUMMARY_SCHEMA.items()})
        store = ManifestStore(lake_root)
        pid = int(group.column(PART_COLUMN)[0].as_py())
        return _commit_optimistically(pid, lambda staged: _apply_partition(
            group, store, pid, _last_manifest(store, pid), staged, redrive=False,
            compact_every=compact_every, retain_history=retain_history))

    return upsert_partition


def _last_manifest(store: ManifestStore, pid: int) -> PartitionManifest:
    """The committed manifest; a never-committed partition reads as an
    empty one."""
    return store.read_manifest(pid) or PartitionManifest(
        partition_id=pid, hwm_lsn=-1, rows=0, bytes=0, sha256='')


def _apply_partition(group: pa.Table, store: ManifestStore, pid: int,
                     last: PartitionManifest, staged: Dict[str, str],
                     redrive: bool, compact_every: int,
                     retain_history: bool) -> pa.Table:
    """One commit attempt of a validated partition group over ``last``,
    the manifest the attempt read, staging its files into ``staged``;
    returns the summary row.

    Five steps: admit (watermark drop; for a redrive, lsn dedup), DLQ
    accounting, DLQ write, state write, and one manifest commit. Before
    the writes stage anything, a batch with valid rows widens the lake
    schema, and its rows are aligned to it; a non-additive type change
    raises ``ValueError`` there, so the attempt commits nothing. The
    state write runs in one of three modes:

    * ``noop`` — nothing valid arrived: counts and watermark only.
    * ``delta`` — a micro-batch appends ONE sorted delta file (no base
      rewrite — VERDICT r2 #5); readers merge-on-read. On a retained
      lake this is also a partition's first data: its one snapshot is
      the active delta and the history entry, and no base is written.
    * ``rewrite`` — merge prior state (base + listed deltas) with the
      batch into one new base and drop the deltas: when a read would
      otherwise open more than ``compact_every`` files (base plus
      deltas), every redrive, and a partition's first data on a lake
      without retention.

    DLQ accounting is one rule: fold this commit's lsn-deduped rejections
    into the manifest's cumulative per-code counts, skipping negative
    lsns already counted, and write exactly the rows it counted to the
    commit's DLQ file. Ingest starts from the committed totals and
    appends its file to the manifest's ``dlq``; a redrive starts from
    empty totals, because its group IS the partition's (re-validated)
    DLQ, and its file of still-invalid rows becomes the whole ``dlq``
    (none when every row validated). A redrive's events were never
    applied, though the watermark passed them; LWW against the base
    still protects ordering, so a redriven event older than the current
    row loses the merge.

    ``retain_history``: every commit also lists its (within-run LWW'd,
    tombstones kept) delta snapshot in the manifest's ``history``: a
    delta commit's own delta file, or one extra snapshot file beside a
    compaction's base. That is the record behind the change-data-feed
    (:meth:`CDCPipeline.changes`) and as-of-LSN time travel
    (:meth:`CDCPipeline.table_as_of`). Commit granularity, like Delta
    Lake CDF: versions a key overwrote *within* one micro-batch are
    collapsed by that batch's LWW.
    """
    fresh = _admit(group, last.hwm_lsn, redrive)
    has_errors = pc.greater(pc.list_value_length(fresh.column(ERRORS_COLUMN)), 0)
    clean = fresh.filter(pc.invert(has_errors))
    # A re-delivered invalid event is one rejection, not two.
    dlq = _dedup_by_lsn(fresh.filter(has_errors))

    if redrive:
        dlq, rejected, corrupt = _account_dlq(dlq, {}, [])
    else:
        dlq, rejected, corrupt = _account_dlq(
            dlq, last.rejected_by_code, last.dlq_corrupt_lsns)

    incoming = clean.drop_columns([
        c for c in (ERRORS_COLUMN, ORIGINAL_COLUMN, PART_COLUMN, RAW_LSN_COLUMN)
        if c in clean.column_names
    ])
    incoming = incoming.rename_columns([
        'last_lsn' if c == 'lsn' else c for c in incoming.column_names
    ])
    # The lake schema, read after ``last`` and widened by a batch with
    # rows before anything is staged: a type conflict raises here and
    # commits nothing.
    schema = (store.widen_lake_schema(incoming.schema) if incoming.num_rows
              else store.lake_schema() or incoming.schema)
    incoming = align_table(incoming, schema)
    has_base = last.base is not None
    if redrive:
        mode = 'rewrite'
    elif incoming.num_rows == 0:
        mode = 'noop'
    elif len(last.deltas) + has_base >= compact_every or not (
            has_base or last.deltas or retain_history):
        mode = 'rewrite'
    else:
        mode = 'delta'
    max_lsn = pc.max(fresh.column(RAW_LSN_COLUMN)).as_py()
    hwm = last.hwm_lsn if max_lsn is None else max(last.hwm_lsn, max_lsn)
    skipped = group.num_rows - fresh.num_rows
    state = _write_state(store, pid, last, incoming, schema, mode,
                         retain_history, staged)
    dlq_names = _write_dlq(store, pid, dlq, last.commit_version + 1, staged)
    # Step 5: one commit, conditional on the version ``last`` holds,
    # publishes the staged files with the manifest.
    store.commit_partition(
        PartitionManifest(
            partition_id=pid,
            hwm_lsn=hwm,
            rejected_by_code=rejected,
            events_applied=clean.num_rows,
            events_skipped=skipped,
            dlq_corrupt_lsns=corrupt,
            dlq=dlq_names if redrive else last.dlq + dlq_names,
            **state,
        ),
        staged, expected_version=last.commit_version,
    )
    return _summary_row(pid, group.num_rows, clean.num_rows, skipped, rejected)


def _partition_task(lake_root: str, pid: int, attempt: Callable, *args):
    """Commit one partition's maintenance ``attempt(store, pid, staged,
    *args)``
    (vacuum or redrive) like any writer, through
    :func:`_commit_optimistically`, so it is safe alongside live ingest
    and other maintenance. Module-level so it ships as a Ray task (see
    :meth:`CDCPipeline._per_partition`)."""
    store = ManifestStore(lake_root)
    return _commit_optimistically(
        pid, lambda staged: attempt(store, pid, staged, *args))


def _vacuum_attempt(store: ManifestStore, pid: int, staged: Dict[str, str],
                    before_lsn: int) -> int:
    """One read → collapse → conditional-commit attempt of a vacuum (see
    :meth:`CDCPipeline.vacuum_history` for semantics): collapse the
    sub-``before_lsn`` history window into a checkpoint and record the
    floor; the commit removes the dropped files no active delta still
    needs. A window of one file is its own checkpoint, so the commit only
    moves the floor and rewrites nothing (the file can be an active
    delta). With nothing to collapse it only sweeps crash debris (ADVICE
    r4). Returns the number of files removed."""
    manifest = store.read_manifest(pid)
    if manifest is None:
        return 0
    keep, drop = [], {}
    for name in manifest.history:
        rng = _parse_delta_range(name)
        if rng is not None and rng[1] < before_lsn:
            drop[name] = rng
        else:
            keep.append(name)
    if not drop:
        return store.sweep(pid)
    hi = max(r[1] for r in drop.values())
    if len(drop) > 1:
        lo = min(r[0] for r in drop.values())
        ckpt_name = f'delta-{lo}-{hi}.parquet'
        ckpt = _last_writer_wins(_read_files(
            [store.delta_path(pid, name) for name in drop], _lake_schema(store)))
        manifest.history = [ckpt_name] + keep
        _stage(store, pid, ckpt, 'vac', store.delta_path(pid, ckpt_name), staged)
    elif hi <= manifest.history_floor_lsn:
        return store.sweep(pid)  # the floor already covers the window
    manifest.history_floor_lsn = max(manifest.history_floor_lsn, hi)
    return store.commit_partition(manifest, staged,
                                  expected_version=manifest.commit_version)


def _redrive_attempt(store: ManifestStore, pid: int, staged: Dict[str, str],
                     validate: Callable, compact_every: int,
                     retain_history: bool) -> List[dict]:
    """One read → re-validate → conditional-commit attempt of a redrive
    (see :meth:`CDCPipeline.replay_dlq`); returns the partition's summary
    rows, none when its DLQ is empty.

    The DLQ is the files the manifest read lists: a DLQ file committed
    after that read fails this attempt's commit, and the retry reads it.
    The files are read under their widened schema with ``_errors``
    dropped and validated as one table. No exchange: ``_part`` hashes the
    validated or raw ``(repo, path)``, which no lang or extra-key setting
    changes, so every row re-validates into this partition."""
    last = _last_manifest(store, pid)
    if not last.dlq:
        return []
    paths = [store.dlq_path(pid, name) for name in last.dlq]
    events = _read_files(paths, _widened_schema(paths, drop=(ERRORS_COLUMN,)))
    return _apply_partition(validate(events), store, pid, last, staged, redrive=True,
                            compact_every=compact_every,
                            retain_history=retain_history).to_pylist()


# ---------------------------------------------------------------------------
# the two ingest shapes: plain Ray tasks for one validate batch, the
# Ray Data plan for everything else
# ---------------------------------------------------------------------------


def _parquet_files(directory: str) -> List[str]:
    """A directory's ``*.parquet`` files, recursively and in sorted order,
    skipping every name that starts with ``.`` or ``_``, as Ray Data's
    parquet reader skips them. A ``key=value`` subdirectory is just a
    directory: its name becomes no column."""
    hidden = ('.', '_')
    paths = []
    for root, dirs, names in os.walk(directory):
        dirs[:] = [d for d in dirs if not d.startswith(hidden)]
        paths += [os.path.join(root, n) for n in names
                  if n.endswith('.parquet') and not n.startswith(hidden)]
    return sorted(paths)


def _one_batch_source(events, batch_size: int) -> Optional[tuple]:
    """The rule for which inputs commit as plain Ray tasks.

    An input whose row count is known without executing anything and is at
    most ``batch_size`` is one validate batch: a list of parquet files
    (counted from their footers; a directory's files and every
    :meth:`CDCPipeline.tail` batch) and materialized datasets such as
    ``rd.from_arrow(...)`` (counted from block metadata). Returns the
    commit task's input, ``(paths, block refs)`` with one of the two
    empty, or None for everything else (lazy datasets, larger inputs),
    which takes the Ray Data plan."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(events, list):
        if sum(pq.read_metadata(p).num_rows for p in events) > batch_size:
            return None
        return events, []
    if isinstance(events, MaterializedDataset) and events.count() <= batch_size:
        return [], events.to_arrow_refs()
    return None


def _commit_task(validate, upsert, cpus: int, paths: List[str],
                 *blocks: pa.Table) -> tuple:
    """The task shape's whole commit in one task's heap: read the input
    (files under their widened schema, or the dataset's blocks), validate
    it as one batch, take the stable ``_part`` order (input order inside
    each partition, as the plan's exchange keeps it) and upsert the
    partitions in ``min(partitions, cpus)`` contiguous shares. This task
    upserts the first share; each other share's rows, and only those, go
    to a sibling :func:`_upsert_share` task. No sorted copy of the batch
    is built: a partition's rows are one ``take`` of its stretch of the
    order. One task per partition measured slower on one CPU than one per
    CPU. Returns ``(summary rows in partition order, stats text)``."""
    wall, cpu = time.perf_counter(), time.process_time()
    if paths:
        batch = _read_files(paths, _widened_schema(paths))
    else:
        batch = pa.concat_tables(blocks, promote_options='default')
    order, ranges = None, []
    if batch.num_rows:  # the plan never calls a UDF on an empty block
        batch = validate(batch)
        parts = batch.column(PART_COLUMN).to_numpy()
        order = np.argsort(parts, kind='stable')
        # Row 0, every change of partition, and the end (partition ids are >= 0).
        bounds = np.flatnonzero(np.diff(parts[order], prepend=-1, append=-1)).tolist()
        ranges = list(zip(bounds, bounds[1:]))
    validated = (time.perf_counter() - wall, time.process_time() - cpu)
    n = max(1, min(len(ranges), cpus))
    cuts = [i * len(ranges) // n for i in range(n + 1)]
    shares = [ranges[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    siblings = []
    if len(shares) > 1:
        import ray

        task = ray.remote(_upsert_share)
        for share in shares[1:]:
            first, last = share[0][0], share[-1][1]
            siblings.append(task.remote(
                upsert, batch.take(pa.array(order[first:last])),
                [(lo - first, hi - first) for lo, hi in share]))
    done = [_upsert_share(upsert, batch, share, order) for share in shares[:1]]
    if siblings:
        done += ray.get(siblings)
    stats = _task_stats([('validate', [validated]),
                         ('upsert_partition', [(w, c) for _, w, c in done])])
    return [row for rows, _, _ in done for row in rows], stats


def _upsert_share(upsert, batch: pa.Table, ranges: List[tuple],
                  order: Optional[np.ndarray] = None) -> tuple:
    """Run ``upsert`` on each ``(lo, hi)`` range's partition group: the
    rows ``order[lo:hi]`` names, or without an order the zero-copy slice
    ``lo:hi``. Returns ``(summary rows, wall s, cpu s)``."""
    wall, cpu = time.perf_counter(), time.process_time()
    rows = []
    for lo, hi in ranges:
        group = (batch.slice(lo, hi - lo) if order is None
                 else batch.take(pa.array(order[lo:hi])))
        rows += upsert(group).to_pylist()
    return rows, time.perf_counter() - wall, time.process_time() - cpu


def _commit_on_plan(events, validate, upsert, batch_size: int) -> tuple:
    """Commit any input on the Ray Data plan: ``map_batches`` validate, the
    ``groupby(_part)`` exchange and ``map_groups`` upsert. A list of
    parquet files streams under the schema widened across them
    (:func:`_widened_schema`), as the task shape reads it. Returns
    ``(summary rows, ds.stats() text)``."""
    if isinstance(events, list):
        events = _read_dataset(events, _widened_schema(events))
    # Validation runs as STATELESS tasks with a per-worker-process
    # compiled-chain cache (see _make_validate_fn) rather than an
    # actor pool: chain compilation is cheap enough to amortize per
    # worker, and elastic tasks use every core while the actor pool
    # measured 3× slower end-to-end (startup + queueing on this
    # pipeline shape).
    validated = events.map_batches(
        validate,
        batch_format='pyarrow',
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    summaries = validated.groupby(PART_COLUMN).map_groups(
        upsert, batch_format='pyarrow')
    rows = summaries.take_all()
    # Per-stage wall/cpu/memory breakdown for the run — the feedback
    # loop for batch/block-size tuning (`ds.stats()`).
    try:
        stats = summaries.stats()
    except Exception:  # noqa: BLE001 — observability must not fail a run
        stats = None
    return rows, stats


def _task_stats(stages: List[tuple]) -> str:
    """``last_stats`` of the task shape: per ``(stage name, [(wall s, cpu
    s) per task])``, the task count and summed remote times in the lines
    ``Dataset.stats()`` prints, so its parsers read both shapes."""
    lines = []
    for i, (name, timings) in enumerate(stages, 1):
        lines.append(f'Operator {i} {name}: {len(timings)} tasks executed')
        for k, kind in enumerate(('wall', 'cpu')):
            total = sum(t[k] for t in timings)
            lines.append(f'* Remote {kind} time: {total:.6f}s total')
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# pipeline façade
# ---------------------------------------------------------------------------


class CDCPipeline:
    """End-to-end CDC ingest over a Ray Data pipeline.

    :param lake_root: lake table directory (manifests + partitions live here)
    :param num_partitions: hash-partition count — FIXED for the lake's
        lifetime (recorded in ``_meta.json``; replay must reshuffle
        identically). Size it to cluster-cores × small factor; at the
        10^10-event design point use 1024-4096.
    :param compact_every: micro-batches write per-partition delta files;
        a commit that finds a partition's base plus active deltas, the
        files a merge-on-read opens, at this count compacts them into
        one base file (VERDICT r2 #5). Either way a partition's first compaction is
        its ``compact_every + 1``-th data commit: on a lake without
        retention its first commit writes a base, on a retained one a
        delta.

    Every partition commit is optimistic — a lock-free read-merge, then a
    commit conditional on the ``commit_version`` read, retried on a lost
    race — so concurrent pipelines and maintenance calls on one lake
    interleave per partition without losing updates.
    """

    def __init__(
        self,
        lake_root: str,
        num_partitions: int = 32,
        langs: Optional[List[str]] = None,
        allow_extra_keys: Union[bool, List[str]] = True,
        batch_size: int = 131072,
        compact_every: int = 8,
        retain_history: bool = False,
    ) -> None:
        self.lake_root = lake_root
        self.langs = list(langs) if langs is not None else None
        self.allow_extra_keys = allow_extra_keys
        self.batch_size = batch_size
        self.compact_every = compact_every

        store = ManifestStore(lake_root)
        meta = store.read_meta()
        if meta is None:
            # Creation races under a concurrent writer: re-check under
            # an exclusive lock so exactly one constructor creates the
            # meta and the loser adopts the winner's pinned settings.
            with store.meta_lock():
                meta = store.read_meta()
                if meta is None:
                    meta = TableMeta(num_partitions=num_partitions,
                                     retain_history=retain_history)
                    store.write_meta(meta)
        if meta.version < 4:
            raise ValueError(
                f'{lake_root} is a layout-version-{meta.version} lake; this '
                'version reads only lakes whose _meta.json records the lake '
                'schema (layout version 4): rebuild it by replaying its log',
            )
        # The pinned settings win (a no-op for the creator): partition
        # count for replay determinism; retention because a lake that
        # ever compacted without it has unfillable history holes.
        self.num_partitions = meta.num_partitions
        self.retain_history = bool(meta.retain_history)
        self.store = store

    # -- execution -------------------------------------------------------

    def run(self, events) -> RunReport:
        """Ingest an event Dataset, a parquet file, a list of them or a
        directory; returns the run report: validate → the ``_part``
        exchange → per-partition upsert.

        A directory is its ``*.parquet`` files (:func:`_parquet_files`):
        recursive, sorted, names starting with ``.`` or ``_`` skipped, and
        a ``key=value`` subdirectory adds no column. Files always read
        under the schema widened across them, so a column a later file
        adds lands, null on the earlier files' rows.

        Two shapes run the same validate and upsert functions, chosen by
        :func:`_one_batch_source`: an input of at most ``batch_size`` rows
        whose size is known up front (parquet files, a materialized
        dataset) commits in one Ray task (:func:`_commit_task`), which
        skips the plan's fixed cost and the helper actors its first
        execution starts; every other input runs the Ray Data plan
        (:func:`_commit_on_plan`). ``last_stats`` holds the per-stage
        breakdown either way, in ``Dataset.stats()`` form."""
        validate = _make_validate_fn(
            self.num_partitions, self.langs, self.allow_extra_keys)
        upsert = make_upsert_fn(self.lake_root, compact_every=self.compact_every,
                                retain_history=self.retain_history)
        if isinstance(events, str):
            events = _parquet_files(events) if os.path.isdir(events) else [events]
            if not events:
                raise ValueError('no *.parquet file in the input directory')
        source = _one_batch_source(events, self.batch_size)
        if source is not None:
            import ray

            paths, blocks = source
            cpus = int(ray.cluster_resources().get('CPU', 1))
            rows, self.last_stats = ray.get(ray.remote(_commit_task).remote(
                validate, upsert, cpus, paths, *blocks))
        else:
            rows, self.last_stats = _commit_on_plan(
                events, validate, upsert, self.batch_size)
        return self._report(rows)

    def _report(self, rows: Iterable[dict]) -> RunReport:
        """The run report of per-partition summary rows; ``lake_rows`` is
        the whole lake, from the committed manifests."""
        report = RunReport()
        for row in rows:
            report.merge_row(row)
        report.lake_rows = int(sum(m.rows for m in self.store.all_manifests().values()))
        return report

    def _per_partition(self, pids: Iterable[int], attempt: Callable, *args) -> list:
        """Commit ``attempt`` on each partition in ``pids`` (see
        :func:`_partition_task`), as one Ray task per partition when a Ray
        session is up and inline only when there is none. Partitions
        commit independently, so the work scales with files per
        partition, not with the lake. Returns the results in ``pids``
        order."""
        import ray

        if not ray.is_initialized():
            return [_partition_task(self.lake_root, pid, attempt, *args) for pid in pids]
        task = ray.remote(_partition_task)
        return ray.get([task.remote(self.lake_root, pid, attempt, *args) for pid in pids])

    # -- continuous tail -------------------------------------------------

    def tail(
        self,
        events_dir: str,
        poll_interval: float = 2.0,
        max_batches: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        stop_file: Optional[str] = None,
    ) -> 'RunReport':
        """Continuously tail ``events_dir`` for NEW event parquet files
        and ingest each batch of arrivals (the binlog/WAL-tail shape).

        A file-granular ingest ledger (``_ingest_ledger.json`` in the
        lake root, atomically replaced AFTER each batch commits) skips
        already-processed files; exactly-once does NOT depend on it —
        a crash between commit and ledger write merely re-reads files
        whose events the per-partition watermarks then drop.

        Delivery contract (same as :meth:`run`, per file batch): once a
        batch is committed, later-arriving files must not introduce new
        events at or below the committed LSNs (re-deliveries are fine).

        Stops when ``max_batches`` non-empty batches were ingested, when
        no new files appear for ``idle_timeout`` seconds, or when
        ``stop_file`` exists. Returns the aggregate report.
        """
        ledger_path = os.path.join(self.lake_root, '_ingest_ledger.json')
        processed: set = set()
        if os.path.exists(ledger_path):
            with open(ledger_path) as fh:
                processed = set(json.load(fh)['files'])

        total = RunReport()
        batches = 0
        last_progress = time.monotonic()
        while True:
            if stop_file and os.path.exists(stop_file):
                break
            try:
                names = sorted(
                    f for f in os.listdir(events_dir)
                    if f.endswith('.parquet') and f not in processed
                )
            except FileNotFoundError:
                names = []
            if names:
                total.add(self.run([os.path.join(events_dir, f) for f in names]))
                processed.update(names)
                _atomic_write_json(ledger_path, {'files': sorted(processed)})
                batches += 1
                last_progress = time.monotonic()
                if max_batches is not None and batches >= max_batches:
                    break
                continue  # drain immediately — don't sleep while behind
            if idle_timeout is not None and (
                time.monotonic() - last_progress >= idle_timeout
            ):
                break
            time.sleep(poll_interval)
        return total

    # -- inspection (small results; test/driver use) ---------------------

    def partition_table(self, pid: int) -> Optional[pa.Table]:
        """One partition's live rows, merged-on-read (base ∪ listed
        deltas under the lake schema, LWW, tombstones dropped, canonical
        sort)."""
        manifest = self.store.read_manifest(pid)
        return _live_rows(self.store, pid, manifest, _lake_schema(self.store))

    def final_table(self) -> pa.Table:
        """Read the whole lake (tests / small scales only); every
        partition is read under the one lake schema."""
        manifests = [self.store.read_manifest(pid)
                     for pid in range(self.num_partitions)]
        schema = _lake_schema(self.store)
        tables = [_live_rows(self.store, pid, m, schema)
                  for pid, m in enumerate(manifests)]
        tables = [t for t in tables if t is not None and t.num_rows]
        if not tables:
            return pa.table({})
        return pa.concat_tables(tables).sort_by(
            [('repo', 'ascending'), ('path', 'ascending')],
        )

    # -- change-data-feed + time travel (retain_history lakes) -----------

    def _require_history(self, what: str) -> None:
        if not self.retain_history:
            raise ValueError(
                f'{what} needs a lake created with retain_history=True '
                '(commits before retention was on are unrecoverable)',
            )

    def _history_window(self, what: str, floor_check: int, since_lsn: int,
                        until_lsn: Optional[int]) -> Dict[int, List[str]]:
        """Per partition, the history file paths whose LSN window
        overlaps (since_lsn, until_lsn] — filename-pruned, no file
        reads; every listed file exists (the one liveness rule). Refuses
        when ``floor_check`` lies below a partition's vacuum floor: that
        window was collapsed by vacuum_history()."""
        out: Dict[int, List[str]] = {}
        for pid in range(self.num_partitions):
            manifest = self.store.read_manifest(pid)
            if manifest is None:
                continue
            floor = manifest.history_floor_lsn
            if floor_check < floor:
                raise ValueError(
                    f'{what} reaches below the vacuum floor (lsn {floor}): '
                    'that window was collapsed into a checkpoint by '
                    'vacuum_history() and its versions are unrecoverable',
                )
            paths = out.setdefault(pid, [])
            for name in manifest.history:
                rng = _parse_delta_range(name)
                if rng is None or rng[1] <= since_lsn or (
                        until_lsn is not None and rng[0] > until_lsn):
                    continue
                paths.append(self.store.delta_path(pid, name))
        return out

    def changes_dataset(self, since_lsn: int = -1,
                        until_lsn: Optional[int] = None):
        """Change-data-feed as a streaming Dataset: every committed
        change row (op='delete' tombstones included) with
        ``since_lsn < last_lsn <= until_lsn``, at commit granularity
        (within-micro-batch overwrites are collapsed by that batch's
        LWW, as in Delta Lake CDF). File pruning via the LSN window in
        each history file's name — only overlapping files are read. Rows
        come under the lake schema, read after the manifests; an empty
        feed is its empty table (no columns before the first commit)."""
        import ray.data as rd

        self._require_history('changes()')
        windows = self._history_window(
            f'changes(since_lsn={since_lsn})', since_lsn, since_lsn, until_lsn)
        paths = [p for pid_paths in windows.values() for p in pid_paths]
        schema = _lake_schema(self.store)
        if not paths:
            return rd.from_arrow(schema.empty_table() if schema else pa.table({}))

        def window(batch: pa.Table) -> pa.Table:
            lsn = batch.column('last_lsn')
            mask = pc.greater(lsn, since_lsn)
            if until_lsn is not None:
                mask = pc.and_(mask, pc.less_equal(lsn, until_lsn))
            return batch.filter(mask)

        return _read_dataset(paths, schema).map_batches(window, batch_format='pyarrow')

    def changes(self, since_lsn: int = -1,
                until_lsn: Optional[int] = None) -> pa.Table:
        """Small-result/test wrapper over :meth:`changes_dataset`,
        ordered by (last_lsn, repo, path)."""
        tables = list(self.changes_dataset(since_lsn, until_lsn)
                      .iter_batches(batch_format='pyarrow'))
        table = pa.concat_tables(tables) if tables else pa.table({})
        if table.num_rows == 0:
            return table
        return table.sort_by([
            ('last_lsn', 'ascending'),
            ('repo', 'ascending'), ('path', 'ascending'),
        ])

    def table_as_of(self, lsn: int) -> pa.Table:
        """The lake's live rows as of ``lsn`` (state after every commit
        whose events were all ≤ lsn): union the retained history up to
        ``lsn``, LWW, drop tombstones. Exact at commit boundaries —
        within one micro-batch a key's overwritten versions were
        collapsed by that batch's LWW, so an ``lsn`` splitting a batch's
        per-key update run reflects only the batch's winners (commit
        granularity, as documented for :meth:`changes`)."""
        self._require_history('table_as_of()')
        windows = self._history_window(f'table_as_of({lsn})', lsn, -1, lsn)
        schema = _lake_schema(self.store)
        out = []
        for paths in windows.values():
            if not paths:
                continue
            t = _read_files(paths, schema)
            merged = _merge_partition_tables(
                [t.filter(pc.less_equal(t.column('last_lsn'), lsn))])
            if merged.num_rows:
                out.append(merged)
        if not out:
            return pa.table({})
        return pa.concat_tables(out).sort_by(
            [('repo', 'ascending'), ('path', 'ascending')],
        )

    def vacuum_history(self, before_lsn: int) -> int:
        """Reclaim history files whose whole LSN window is < before_lsn
        (bounding changes()/table_as_of() to the retained window, like
        Delta Lake VACUUM). Returns the number of files removed.

        The vacuumed window is first collapsed into ONE checkpoint file
        per partition (LWW over the dropped files, tombstones kept — the
        Delta-checkpoint analogue), so every cold key's latest retained
        version survives and ``table_as_of(lsn >= floor)`` stays exact
        for keys untouched since the vacuumed window (ADVICE r3 high:
        without this, vacuum silently dropped cold keys from every as-of
        result). The partition's ``history_floor_lsn`` records the
        collapse boundary: as-of / changes requests *inside* the
        vacuumed window raise instead of returning collapsed history.
        The commit removes the dropped files, except those still active
        as deltas (compaction drops them later).

        Partitions vacuum independently, each its own optimistic commit
        (:meth:`_per_partition`): the 64M soak measured a one-process sequential
        loop at 45 s for 640 files, scaling with reclaimed-file count;
        as one task per partition it scales with files per partition."""
        return sum(self._per_partition(
            range(self.num_partitions), _vacuum_attempt, before_lsn))

    def replay_dlq(
        self,
        langs: Optional[List[str]] = None,
        allow_extra_keys: Union[bool, List[str], None] = None,
    ) -> 'RunReport':
        """Dead-letter redrive: re-validate every DLQ'd event under a
        (typically widened) chain config and upsert the now-valid ones.

        The DLQ files hold the events as delivered, and each already sits
        in its key's partition, so a redrive is one optimistic commit per
        partition whose manifest lists DLQ files, like vacuum
        (:meth:`_per_partition`, :func:`_redrive_attempt`): read the
        manifest, read and validate the DLQ files it lists, and commit
        conditional on the manifest read. No Ray Data plan and no exchange
        run. Rows that validate are merged into the lake (LWW vs the base
        still applies, so a redriven event never overrides a newer
        writer); rows that still fail become the partition's entire DLQ,
        one new file (rejection counts shrink accordingly). A DLQ file
        committed while the redrive runs is read by its retry, never
        removed unread.
        """
        validate = _make_validate_fn(
            self.num_partitions,
            langs if langs is not None else self.langs,
            allow_extra_keys if allow_extra_keys is not None else self.allow_extra_keys,
        )
        pids = [pid for pid, m in self.store.all_manifests().items() if m.dlq]
        return self._report(row for rows in self._per_partition(
            pids, _redrive_attempt, validate, self.compact_every, self.retain_history)
            for row in rows)

    def as_dataset(self, columns: Optional[List[str]] = None):
        """The lake as a streaming ``ray.data.Dataset`` (the reader a
        downstream pipeline composes with; no driver materialization).

        Both paths read under the lake schema, read once, after the
        manifests, so every block has :meth:`final_table`'s columns: a
        column some file lacks reads as null on its rows. A column
        committed after this call is not in the dataset. Neither path
        derives a ``part`` column from the ``part=<p>`` directories.

        ``columns`` prunes the read: base/delta files are read with only
        the requested columns the lake has (plus, on the merge path, the
        LWW key columns the merge itself needs — dropped again before
        return). A downstream 2-column transform must not lift the content
        bytes off disk.

        Fast path: with no active deltas anywhere (fresh single-run lake,
        or post-compaction) this streams the base files
        (:func:`_read_dataset`). With deltas, each partition
        merges-on-read inside its own task (one task per partition; Ray's
        dynamic block splitting re-slices large merged outputs), under
        the pruned lake schema the tasks are given."""
        import ray.data as rd

        manifests = {
            pid: self.store.read_manifest(pid)
            for pid in range(self.num_partitions)
        }
        if not any(m is not None and m.deltas for m in manifests.values()):
            paths = [self.store.delta_path(pid, m.base)
                     for pid, m in manifests.items() if m is not None and m.base]
            if not paths:
                return rd.from_arrow(pa.table({}))
            return _read_dataset(paths, _lake_schema(self.store, columns))

        lake_root = self.lake_root
        pids = [
            pid for pid in range(self.num_partitions)
            if _partition_file_paths(self.store, pid, manifests[pid])
        ]
        schema = _lake_schema(self.store, None if columns is None
                              else [*columns, *_MERGE_KEY_COLUMNS])
        names = [c for c in (schema.names if columns is None else columns)
                 if c in schema.names]

        def read_merged(batch: pa.Table) -> pa.Table:
            store = ManifestStore(lake_root)
            out = [schema.empty_table()]
            for pid in batch.column('pid').to_pylist():
                merged = _live_rows(store, pid, store.read_manifest(pid), schema)
                if merged is not None:
                    out.append(merged)
            return pa.concat_tables(out).select(names)

        return rd.from_arrow(pa.table({'pid': pa.array(pids, type=pa.int64())})) \
            .repartition(len(pids)) \
            .map_batches(read_merged, batch_format='pyarrow', batch_size=1)

    def dlq_dataset(self):
        """The dead-letter dataset: every rejected event as delivered, its
        own input columns with their Arrow types (``_errors`` pruned), under
        one schema widened across the DLQ files the manifests list, so a
        column added in a later run reads as null on earlier rows.
        :meth:`replay_dlq` reads the same files, per partition."""
        import ray.data as rd

        paths = [self.store.dlq_path(pid, name)
                 for pid, m in self.store.all_manifests().items() for name in m.dlq]
        if not paths:
            return rd.from_arrow(pa.table({}))
        return _read_dataset(paths, _widened_schema(paths, drop=(ERRORS_COLUMN,)))

    def rejection_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for manifest in self.store.all_manifests().values():
            for code, cnt in manifest.rejected_by_code.items():
                counts[code] = counts.get(code, 0) + cnt
        return counts

    def lineage(self) -> List[dict]:
        """Per-partition lineage/metrics records."""
        from dataclasses import asdict
        return [
            asdict(m) for _, m in sorted(self.store.all_manifests().items())
        ]

    def lookup(self, repo: str, path: str) -> Optional[dict]:
        """Point lookup by full key: hash (repo, path) to its ONE
        partition, merge-read just that partition (base + listed deltas,
        column-complete), and return the live row as a dict — or None if
        the key is absent/deleted. Cost is one partition, never a scan."""
        pid = int(key_partition(
            pa.array([repo], type=pa.string()),
            pa.array([path], type=pa.string()),
            self.num_partitions,
        )[0])
        table = self.partition_table(pid)
        if table is None:
            return None
        hit = table.filter(pc.and_(
            pc.equal(table.column('repo'), repo),
            pc.equal(table.column('path'), path),
        ))
        if hit.num_rows == 0:
            return None
        return {c: hit.column(c)[0].as_py() for c in hit.column_names}

    def lake_report(self) -> dict:
        """Ops summary of the whole lake from manifests alone (no data
        file is opened): totals, per-partition extremes (skew evidence),
        delta/compaction, history and DLQ file counts, cumulative
        rejections, and the on-disk bytes of every file kind a manifest
        names. ``lake_bytes`` (bases and active deltas), ``history_bytes``
        (history files not listed in ``deltas``), ``dlq_bytes`` and
        ``manifest_bytes``, plus ``_meta.json`` and the tail ledger, are
        all of the lake's bytes."""
        store = self.store
        manifests = store.all_manifests()
        if not manifests:
            return {'partitions': self.num_partitions, 'committed': 0}
        rows = [m.rows for m in manifests.values()]
        nbytes = [m.bytes for m in manifests.values()]
        report = {
            'partitions': self.num_partitions,
            'committed': len(manifests),
            'lake_rows': int(sum(rows)),
            'lake_bytes': int(sum(nbytes)),
            'max_partition_rows': int(max(rows)),
            'min_partition_rows': int(min(rows)),
            'skew_ratio': round(
                max(rows) / max(1.0, sum(rows) / len(rows)), 3),
            'hwm_lsn': int(max(m.hwm_lsn for m in manifests.values())),
            'active_deltas': int(sum(len(m.deltas) for m in manifests.values())),
            'history_files': int(
                sum(len(m.history) for m in manifests.values())),
            'dlq_files': int(sum(len(m.dlq) for m in manifests.values())),
            'history_bytes': sum(
                os.path.getsize(store.delta_path(pid, name))
                for pid, m in manifests.items()
                for name in set(m.history) - set(m.deltas)),
            'dlq_bytes': sum(os.path.getsize(store.dlq_path(pid, name))
                             for pid, m in manifests.items() for name in m.dlq),
            'manifest_bytes': sum(os.path.getsize(store.manifest_path(pid))
                                  for pid in manifests),
            'events_applied': int(
                sum(m.events_applied for m in manifests.values())),
            'events_skipped': int(
                sum(m.events_skipped for m in manifests.values())),
            'rejected_by_code': self.rejection_counts(),
            'retain_history': bool(self.retain_history),
        }
        return report
