"""Lake file encoding: every parquet file the lake writes is zstd without
dictionary pages or column statistics, a manifest's ``bytes`` is the
on-disk size of its partition's base and listed deltas, and a lake still
holding files of another encoding (written before the encoding changed)
reads, merges and redrives exactly like an all-zstd one.
"""

from __future__ import annotations

import os

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
            files = [store.delta_path(pid, name) for name in m.deltas]
            if os.path.exists(store.data_path(pid)):
                files.append(store.data_path(pid))
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
    if path.endswith('data.parquet'):
        return 'base'
    pid = int(os.path.basename(os.path.dirname(path)).split('=')[1])
    m = pipeline.store.read_manifest(pid)
    name = os.path.basename(path)
    if name in m.deltas:
        return 'delta'
    assert name in m.history, path
    return 'history'


@pytest.mark.usefixtures('ray_session')
def test_every_lake_file_is_zstd_without_dictionary(tmp_path):
    """After every step, each base, delta, history, DLQ and vacuum
    checkpoint file is zstd in every column chunk with no dictionary page
    and no min/max statistics: a writer that bypasses the lake's one
    parquet writer fails here."""
    lake = str(tmp_path / 'lake')
    kinds, history = set(), {}

    def check(pipeline, step):
        for path in _parquet_files(lake):
            assert pq.ParquetFile(path).metadata.num_row_groups, path
            assert _chunk_encodings(path) == {('ZSTD', False, False)}, (step, path)
            kinds.add(_file_kind(pipeline, path))
        history[step] = {
            pid: m.history for pid, m in pipeline.store.all_manifests().items()}

    run_golden_sequence(lake, after_step=check)
    assert kinds == {'base', 'delta', 'history', 'dlq'}
    # The vacuum folded some partition's oldest history into a checkpoint
    # file that no earlier step listed.
    assert any(
        name not in history['replay_dlq'].get(pid, [])
        for pid, names in history['vacuum_history'].items() for name in names)


def _rewrite_as_snappy(lake: str) -> None:
    """Re-encode every parquet file in place with pyarrow's defaults
    (snappy, dictionary pages, statistics): the encoding lakes were
    written with before. In place, so each file keeps the name its
    manifest lists."""
    for path in _parquet_files(lake):
        table = pq.read_table(path)
        pq.write_table(table, path)
        assert ('SNAPPY', True, True) in _chunk_encodings(path), path


@pytest.mark.usefixtures('ray_session')
def test_mixed_codec_lake_matches_all_zstd_lake(tmp_path):
    """A committed lake whose files are snappy goes on through delta,
    compaction, redrive and vacuum with the same live table, rejection
    counts and golden manifest fields as an all-zstd lake from the same
    log."""
    zstd_lake, mixed_lake = str(tmp_path / 'zstd'), str(tmp_path / 'mixed')
    codecs_after = {}

    def age_first_commit(pipeline, step):
        if step == 'run':
            _rewrite_as_snappy(mixed_lake)
        codecs_after[step] = set().union(
            *(_chunk_encodings(f) for f in _parquet_files(mixed_lake)))

    want = run_golden_sequence(zstd_lake)
    got = run_golden_sequence(mixed_lake, after_step=age_first_commit)
    # The first commit's retained history is still snappy, with statistics,
    # after the compaction, next to the zstd files written since.
    assert codecs_after['run (compaction)'] >= {
        ('SNAPPY', True, True), ('ZSTD', False, False)}
    assert got == want
    zstd, mixed = CDCPipeline(zstd_lake), CDCPipeline(mixed_lake)
    assert mixed.final_table().equals(zstd.final_table())
    assert mixed.rejection_counts() == zstd.rejection_counts()
