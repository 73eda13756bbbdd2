"""Lake file encoding: every parquet file the lake writes is zstd without
column statistics, with one storage plan per column (integers
``DELTA_BINARY_PACKED``, the CDC byte-array columns by name, any other
string or binary column by its distinct count), and the ``ARROW:schema``
footer only where Parquet's own schema cannot carry the types. A
manifest's ``bytes`` is the on-disk size of its partition's base and
listed deltas, and a lake still holding files of an earlier encoding
(written before the encoding changed) reads, merges and redrives exactly
like a new one.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from filters_ray.pipelines.cdc import CDCPipeline, _is_byte_array
from test_cdc_golden import STEPS, run_golden_sequence


def _parquet_files(lake: str) -> list:
    return sorted(
        os.path.join(d, f)
        for d, _, files in os.walk(lake) for f in files if f.endswith('.parquet'))


def _chunk_encodings(path: str) -> set:
    """``(codec, has dictionary page, has statistics)`` of every column
    chunk in ``path``."""
    meta = pq.ParquetFile(path).metadata
    return {
        (col.compression, col.has_dictionary_page, col.is_stats_set)
        for rg in range(meta.num_row_groups)
        for col in (meta.row_group(rg).column(c) for c in range(meta.num_columns))
    }


@pytest.mark.usefixtures('ray_session')
def test_manifest_bytes_are_on_disk_bytes(tmp_path):
    steps = []

    def check(pipeline, step):
        store = pipeline.store
        for pid, m in store.all_manifests().items():
            names = m.deltas + ([m.base] if m.base else [])
            files = [store.delta_path(pid, name) for name in names]
            assert m.bytes == sum(os.path.getsize(f) for f in files), (
                f'partition {pid} after {step}')
        steps.append(step)

    run_golden_sequence(str(tmp_path / 'lake'), after_step=check)
    assert tuple(steps) == STEPS


def _file_kind(pipeline, path: str) -> str:
    """What a lake file is, by the committed manifests: a snapshot file
    listed only in ``history`` is history, one listed in ``deltas`` a
    delta (with retention a delta is also a history entry)."""
    if os.sep + '_dlq' + os.sep in path:
        return 'dlq'
    pid = int(os.path.basename(os.path.dirname(path)).split('=')[1])
    m = pipeline.store.read_manifest(pid)
    name = os.path.basename(path)
    if name == m.base:
        return 'base'
    if name in m.deltas:
        return 'delta'
    assert name in m.history, path
    return 'history'


# The storage plan of the CDC byte-array columns: (encoding, zstd level).
# A footer records a chunk's codec but not its level, so the levels are
# pinned against the writer's table.
PLAN = {
    'op': ('RLE_DICTIONARY', 1),
    'lang': ('RLE_DICTIONARY', 1),
    'repo': ('DELTA_LENGTH_BYTE_ARRAY', 1),
    'commit': ('DELTA_LENGTH_BYTE_ARRAY', 1),
    'path': ('DELTA_LENGTH_BYTE_ARRAY', 7),
    'content': ('PLAIN', 7),
}


def _probed_encoding(column: pa.ChunkedArray) -> str:
    """The per-file rule for a byte-array column outside the plan: a
    dictionary at one distinct value per four rows or fewer."""
    distinct = pc.count_distinct(column, mode='all').as_py()
    return ('RLE_DICTIONARY' if distinct * 4 <= len(column)
            else 'DELTA_LENGTH_BYTE_ARRAY')


def _planned_encodings(path: str) -> dict:
    """The encoding of each top-level column of ``path`` under the plan:
    ``DELTA_BINARY_PACKED`` for an integer column, :data:`PLAN`'s for a
    CDC byte-array column, :func:`_probed_encoding` for any other string
    or binary column, PLAIN for the rest."""
    table = pq.read_table(path)
    out = {}
    for f in table.schema:
        if pa.types.is_integer(f.type):
            out[f.name] = 'DELTA_BINARY_PACKED'
        elif _is_byte_array(f.type):
            out[f.name] = (PLAN[f.name][0] if f.name in PLAN
                           else _probed_encoding(table.column(f.name)))
        else:
            out[f.name] = 'PLAIN'
    return out


def _check_encoding_rules(path: str) -> dict:
    """Every chunk is zstd without statistics and carries the encoding
    :func:`_planned_encodings` gives its top-level column, with a
    dictionary page exactly when that is ``RLE_DICTIONARY`` and no delta
    encoding when it is PLAIN; the file has no ``ARROW:schema`` (callers
    pass files of plain types). Returns the planned encodings."""
    meta = pq.ParquetFile(path).metadata
    assert meta.num_row_groups, path
    assert _chunk_encodings(path) <= {('ZSTD', True, False), ('ZSTD', False, False)}, path
    planned = _planned_encodings(path)
    for rg in range(meta.num_row_groups):
        for c in range(meta.num_columns):
            chunk = meta.row_group(rg).column(c)
            name = chunk.path_in_schema
            want = planned[name.split('.')[0]]
            assert want in chunk.encodings, (path, name, chunk.encodings)
            assert chunk.has_dictionary_page == (want == 'RLE_DICTIONARY'), (path, name)
            if want == 'PLAIN':
                assert not any(e.startswith('DELTA') for e in chunk.encodings), (
                    path, name, chunk.encodings)
    assert b'ARROW:schema' not in (meta.metadata or {}), path
    return planned


@pytest.mark.usefixtures('ray_session')
def test_every_lake_file_follows_the_encoding_rules(tmp_path):
    """After every step, each base, delta, history, DLQ and vacuum
    checkpoint file follows :func:`_check_encoding_rules`: a writer that
    bypasses the lake's one parquet writer fails here. Every golden file
    is of plain types (the DLQ's ``_errors`` list included), so none
    carries the ``ARROW:schema`` footer."""
    from filters_ray.pipelines.cdc import CDC_STORAGE_PLAN

    assert CDC_STORAGE_PLAN == PLAN
    lake = str(tmp_path / 'lake')
    kinds, history, seen = set(), {}, {}

    def check(pipeline, step):
        for path in _parquet_files(lake):
            kinds.add(_file_kind(pipeline, path))
            for name, encoding in _check_encoding_rules(path).items():
                seen.setdefault(name, set()).add(encoding)
        history[step] = {
            pid: m.history for pid, m in pipeline.store.all_manifests().items()}

    run_golden_sequence(lake, after_step=check)
    assert kinds == {'base', 'delta', 'history', 'dlq'}
    # Every plan column met real files, each with its one encoding.
    assert {name: seen[name] for name in PLAN} == {
        name: {encoding} for name, (encoding, _) in PLAN.items()}
    assert seen['lsn'] == seen['last_lsn'] == {'DELTA_BINARY_PACKED'}
    assert seen['_errors'] == {'PLAIN'}
    # The vacuum folded some partition's oldest history into a checkpoint
    # file that no earlier step listed.
    assert any(
        name not in history['replay_dlq'].get(pid, [])
        for pid, names in history['vacuum_history'].items() for name in names)


def _has_arrow_schema(path: str) -> bool:
    return b'ARROW:schema' in (pq.ParquetFile(path).metadata.metadata or {})


def _rewrite_as_snappy(lake: str) -> None:
    """Re-encode every parquet file in place with pyarrow's defaults
    (snappy, dictionary pages, statistics): the encoding lakes were
    written with before. In place, so each file keeps the name its
    manifest lists."""
    for path in _parquet_files(lake):
        table = pq.read_table(path)
        pq.write_table(table, path)
        assert ('SNAPPY', True, True) in _chunk_encodings(path), path


def _rewrite_as_plain_zstd(lake: str) -> None:
    """Re-encode every parquet file in place as the writer before the
    per-column rules did: zstd, no dictionary pages, no statistics, PLAIN
    strings and the ``ARROW:schema`` footer on every file."""
    for path in _parquet_files(lake):
        table = pq.read_table(path)
        pq.write_table(table, path, compression='zstd', use_dictionary=False,
                       write_statistics=False)
        assert _chunk_encodings(path) == {('ZSTD', False, False)}, path
        assert _has_arrow_schema(path), path


def _rewrite_as_per_file_rules(lake: str) -> None:
    """Re-encode every parquet file in place as the writer before the
    storage plan did: zstd at its default level, PLAIN integers, and
    every string or binary column by :func:`_probed_encoding`, the
    distinct count of the file's own rows."""
    for path in _parquet_files(lake):
        table = pq.read_table(path)
        probed = {f.name: _probed_encoding(table.column(f.name))
                  for f in table.schema if _is_byte_array(f.type)}
        pq.write_table(
            table, path, compression='zstd',
            use_dictionary=[n for n, e in probed.items() if e == 'RLE_DICTIONARY'],
            column_encoding={n: e for n, e in probed.items() if e != 'RLE_DICTIONARY'},
            write_statistics=False, use_compliant_nested_type=False,
            store_schema=False)
        assert not _int_encodings(path) & {'DELTA_BINARY_PACKED'}, path


def _int_encodings(path: str) -> set:
    """The encodings of the ``lsn`` / ``last_lsn`` chunks of ``path``."""
    meta = pq.ParquetFile(path).metadata
    return {
        e for rg in range(meta.num_row_groups)
        for col in (meta.row_group(rg).column(c) for c in range(meta.num_columns))
        if col.path_in_schema in ('lsn', 'last_lsn') for e in col.encodings}


@pytest.mark.usefixtures('ray_session')
def test_mixed_codec_lake_matches_all_zstd_lake(tmp_path):
    """A committed lake whose files are of an earlier encoding goes on
    through delta, compaction, redrive and vacuum with the same live
    table, rejection counts and golden manifest fields as a lake the
    current writer wrote from the same log. Three earlier encodings:
    snappy with pyarrow's defaults, zstd with PLAIN strings and the
    ``ARROW:schema`` footer everywhere, and the per-file rules the
    storage plan replaced."""
    new_lake = str(tmp_path / 'new')
    want = run_golden_sequence(new_lake)
    new = CDCPipeline(new_lake)
    for variant, rewrite in (('snappy', _rewrite_as_snappy),
                             ('plain_zstd', _rewrite_as_plain_zstd),
                             ('per_file_rules', _rewrite_as_per_file_rules)):
        mixed_lake = str(tmp_path / variant)
        codecs_after, footers_after, ints_after = {}, {}, {}

        def age_first_commit(pipeline, step):
            if step == 'run':
                rewrite(mixed_lake)
            files = _parquet_files(mixed_lake)
            codecs_after[step] = set().union(*(_chunk_encodings(f) for f in files))
            footers_after[step] = {_has_arrow_schema(f) for f in files}
            ints_after[step] = {frozenset(_int_encodings(f)) for f in files}

        got = run_golden_sequence(mixed_lake, after_step=age_first_commit)
        # The first commit's retained history keeps its old encoding after
        # the compaction, next to the files written since.
        if variant == 'snappy':
            assert codecs_after['run (compaction)'] >= {
                ('SNAPPY', True, True), ('ZSTD', True, False), ('ZSTD', False, False)}
        elif variant == 'plain_zstd':
            assert codecs_after['run (compaction)'] == {
                ('ZSTD', True, False), ('ZSTD', False, False)}
            assert footers_after['run (compaction)'] == {True, False}
        else:
            assert footers_after['run (compaction)'] == {False}
            assert {'DELTA_BINARY_PACKED' in e
                    for e in ints_after['run (compaction)']} == {True, False}
        assert got == want, variant
        mixed = CDCPipeline(mixed_lake)
        assert mixed.final_table().equals(new.final_table()), variant
        assert mixed.rejection_counts() == new.rejection_counts(), variant
