"""Lake file encoding: every parquet file the lake writes is zstd without
column statistics, with a dictionary page on exactly the string and
binary columns of few distinct values, ``DELTA_LENGTH_BYTE_ARRAY`` on the
other string and binary columns, and the ``ARROW:schema`` footer only
where Parquet's own schema cannot carry the types. A manifest's ``bytes``
is the on-disk size of its partition's base and listed deltas, and a
lake still holding files of an earlier encoding (written before the
encoding changed) reads, merges and redrives exactly like a new one.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
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


def _byte_array_columns(path: str) -> dict:
    """The top-level string and binary columns of ``path``, by name, with
    whether rule 1 gives each a dictionary: distinct count × 4 at most
    the file's rows."""
    table = pq.read_table(path)
    return {
        f.name: pc.count_distinct(table.column(f.name), mode='all').as_py() * 4
        <= table.num_rows
        for f in table.schema
        if pa.types.is_string(f.type) or pa.types.is_large_string(f.type)
        or pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type)
    }


def _check_encoding_rules(path: str) -> dict:
    """Every chunk is zstd without statistics; a top-level string or
    binary chunk has a dictionary page exactly when rule 1 holds, and
    lists ``DELTA_LENGTH_BYTE_ARRAY`` otherwise; any other chunk has no
    dictionary page; the file has no ``ARROW:schema`` (callers pass files
    of plain types). Returns :func:`_byte_array_columns`."""
    meta = pq.ParquetFile(path).metadata
    assert meta.num_row_groups, path
    assert _chunk_encodings(path) <= {('ZSTD', True, False), ('ZSTD', False, False)}, path
    dictionary = _byte_array_columns(path)
    for rg in range(meta.num_row_groups):
        for c in range(meta.num_columns):
            chunk = meta.row_group(rg).column(c)
            name = chunk.path_in_schema
            if name in dictionary:
                assert chunk.has_dictionary_page == dictionary[name], (path, name)
                if not dictionary[name]:
                    assert 'DELTA_LENGTH_BYTE_ARRAY' in chunk.encodings, (path, name)
            else:
                assert not chunk.has_dictionary_page, (path, name)
    assert b'ARROW:schema' not in (meta.metadata or {}), path
    return dictionary


@pytest.mark.usefixtures('ray_session')
def test_every_lake_file_follows_the_encoding_rules(tmp_path):
    """After every step, each base, delta, history, DLQ and vacuum
    checkpoint file follows :func:`_check_encoding_rules`: a writer that
    bypasses the lake's one parquet writer fails here. Every golden file
    is of plain types (the DLQ's ``_errors`` list included), so none
    carries the ``ARROW:schema`` footer."""
    lake = str(tmp_path / 'lake')
    kinds, history, split, dictionary = set(), {}, set(), set()

    def check(pipeline, step):
        for path in _parquet_files(lake):
            kinds.add(_file_kind(pipeline, path))
            for name, has_dictionary in _check_encoding_rules(path).items():
                (dictionary if has_dictionary else split).add(name)
        history[step] = {
            pid: m.history for pid, m in pipeline.store.all_manifests().items()}

    run_golden_sequence(lake, after_step=check)
    assert kinds == {'base', 'delta', 'history', 'dlq'}
    # Both rules met real columns: ``op`` (three values) gets a dictionary
    # (the golden files are too small for ``repo`` and ``lang`` to), the
    # sha and content columns are split.
    assert 'op' in dictionary
    assert {'commit', 'content', 'path'} <= split
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


@pytest.mark.usefixtures('ray_session')
def test_mixed_codec_lake_matches_all_zstd_lake(tmp_path):
    """A committed lake whose files are of an earlier encoding goes on
    through delta, compaction, redrive and vacuum with the same live
    table, rejection counts and golden manifest fields as a lake the
    current writer wrote from the same log. Two earlier encodings: snappy
    with pyarrow's defaults, and zstd with PLAIN strings and the
    ``ARROW:schema`` footer everywhere."""
    new_lake = str(tmp_path / 'new')
    want = run_golden_sequence(new_lake)
    new = CDCPipeline(new_lake)
    for variant, rewrite in (('snappy', _rewrite_as_snappy),
                             ('plain_zstd', _rewrite_as_plain_zstd)):
        mixed_lake = str(tmp_path / variant)
        codecs_after, footers_after = {}, {}

        def age_first_commit(pipeline, step):
            if step == 'run':
                rewrite(mixed_lake)
            files = _parquet_files(mixed_lake)
            codecs_after[step] = set().union(*(_chunk_encodings(f) for f in files))
            footers_after[step] = {_has_arrow_schema(f) for f in files}

        got = run_golden_sequence(mixed_lake, after_step=age_first_commit)
        # The first commit's retained history keeps its old encoding after
        # the compaction, next to the files written since.
        if variant == 'snappy':
            assert codecs_after['run (compaction)'] >= {
                ('SNAPPY', True, True), ('ZSTD', True, False), ('ZSTD', False, False)}
        else:
            assert codecs_after['run (compaction)'] == {
                ('ZSTD', True, False), ('ZSTD', False, False)}
            assert footers_after['run (compaction)'] == {True, False}
        assert got == want, variant
        mixed = CDCPipeline(mixed_lake)
        assert mixed.final_table().equals(new.final_table()), variant
        assert mixed.rejection_counts() == new.rejection_counts(), variant
