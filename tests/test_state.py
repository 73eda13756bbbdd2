"""Unit tests for manifests and schema widening."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from filters_ray.state.manifest import (
    CommitConflictError,
    ManifestStore,
    PartitionManifest,
    TableMeta,
)
from filters_ray.state.registry import align_table, widen_schema


def test_manifest_roundtrip(tmp_path):
    store = ManifestStore(str(tmp_path))
    store.write_meta(TableMeta(num_partitions=16))
    meta = store.read_meta()
    assert meta.num_partitions == 16

    assert store.high_watermark(3) == -1
    manifest = PartitionManifest(
        partition_id=3, hwm_lsn=42, rows=10, bytes=1000,
        sha256='ab', rejected_by_code={'empty': 2},
    )
    store.commit_partition(manifest, None, expected_version=0)
    assert store.high_watermark(3) == 42
    again = store.read_manifest(3)
    assert again.rejected_by_code == {'empty': 2}
    assert store.all_manifests().keys() == {3}


def test_commit_is_atomic_data_then_manifest(tmp_path):
    import pyarrow.parquet as pq

    store = ManifestStore(str(tmp_path))
    store.write_meta(TableMeta(num_partitions=4))
    table = pa.table({'repo': ['r'], 'path': ['p'], 'content': ['x'],
                      'last_lsn': [1]})
    tmp = store.tmp_path(0, 0)
    pq.write_table(table, tmp)
    base = store.delta_path(0, 'base-1.parquet')
    store.commit_partition(
        PartitionManifest(partition_id=0, hwm_lsn=1, rows=1, bytes=10, sha256='d',
                          base='base-1.parquet'),
        {base: tmp}, expected_version=0,
    )
    assert store.read_manifest(0).base == 'base-1.parquet'
    assert not os.path.exists(tmp)
    assert pq.read_table(base).num_rows == 1

    # Empty commit removes stale data: the manifest no longer names it.
    store.commit_partition(
        PartitionManifest(partition_id=0, hwm_lsn=2, rows=0, bytes=0, sha256='e'),
        None, expected_version=1,
    )
    assert store.read_manifest(0).base is None
    assert not os.path.exists(base)


def _m(pid: int, hwm: int, sha: str, **fields) -> PartitionManifest:
    return PartitionManifest(
        partition_id=pid, hwm_lsn=hwm, rows=1, bytes=1, sha256=sha, **fields,
    )


def test_cas_commit_conflict_detected(tmp_path):
    """Interleaved writers with version check (VERDICT r4 #3): A reads
    state at version v, B commits (v -> v+1), A's conditional commit
    must fail — and succeed after re-reading, with nothing lost."""
    store = ManifestStore(str(tmp_path))
    store.write_meta(TableMeta(num_partitions=4))

    # Bootstrap: no manifest on disk => expected_version 0.
    store.commit_partition(_m(0, 10, 'base'), None, expected_version=0)
    assert store.read_manifest(0).commit_version == 1

    # Writer A snapshots version 1; writer B commits first (1 -> 2).
    a_version = store.read_manifest(0).commit_version
    store.commit_partition(_m(0, 20, 'writer-b'), None,
                           expected_version=a_version)
    assert store.read_manifest(0).commit_version == 2

    # A's commit, keyed on the stale snapshot, loses the race loudly.
    with pytest.raises(CommitConflictError) as exc_info:
        store.commit_partition(_m(0, 15, 'writer-a'), None,
                               expected_version=a_version)
    assert exc_info.value.expected == 1
    assert exc_info.value.found == 2
    # B's state survived untouched.
    assert store.read_manifest(0).sha256 == 'writer-b'
    assert store.read_manifest(0).hwm_lsn == 20

    # The OCC retry: A re-reads, re-merges (here: new hwm folds B's),
    # and its conditional commit now lands.
    fresh = store.read_manifest(0)
    store.commit_partition(_m(0, max(fresh.hwm_lsn, 15), 'writer-a2'), None,
                           expected_version=fresh.commit_version)
    after = store.read_manifest(0)
    assert after.commit_version == 3
    assert after.hwm_lsn == 20


def test_cas_conflict_reclaims_staged_data(tmp_path):
    """A losing conditional commit must not leak its staged tmp file or
    clobber the winner's data file."""
    import pyarrow.parquet as pq

    store = ManifestStore(str(tmp_path))
    store.write_meta(TableMeta(num_partitions=4))

    winner = pa.table({'repo': ['r'], 'path': ['p'], 'content': ['w'],
                       'last_lsn': [2]})
    tmp = store.tmp_path(0, 0)
    pq.write_table(winner, tmp)
    base = store.delta_path(0, 'base-1.parquet')
    store.commit_partition(_m(0, 2, 'w', base='base-1.parquet'), {base: tmp},
                           expected_version=0)

    loser = pa.table({'repo': ['r'], 'path': ['p'], 'content': ['l'],
                      'last_lsn': [1]})
    tmp2 = store.tmp_path(0, 0)
    pq.write_table(loser, tmp2)
    with pytest.raises(CommitConflictError):
        store.commit_partition(_m(0, 1, 'l', base='base-1.parquet'), {base: tmp2},
                               expected_version=0)
    assert not os.path.exists(tmp2)
    got = pq.read_table(store.delta_path(0, store.read_manifest(0).base))
    assert got.column('content').to_pylist() == ['w']


def test_commit_reclaims_a_killed_writers_tmp_files(tmp_path):
    """A writer killed after staging (SIGKILL: no cleanup runs) leaves
    its tmp file, named after the ``commit_version`` it read. Once the
    partition commits past that version the writer can never commit, so
    the commit removes the file. A tmp file staged against the committed
    version may still commit: ``sweep`` keeps it. A manifest tmp file
    has only the commit lock's holder as its writer, so any is debris."""
    store = ManifestStore(str(tmp_path))
    store.write_meta(TableMeta(num_partitions=4))
    store.commit_partition(_m(0, 1, 'v1'), None, expected_version=0)

    killed = store.tmp_path(0, 1, kind='delta')
    open(killed, 'wb').write(b'torn')
    manifest_tmp = store.manifest_path(0) + '.tmp-0badf00d'
    open(manifest_tmp, 'w').write('{"torn"')
    assert store.sweep(0) == 1
    assert os.path.exists(killed) and not os.path.exists(manifest_tmp)

    store.commit_partition(_m(0, 2, 'v2'), None, expected_version=1)
    assert not os.path.exists(killed)

    in_flight = store.tmp_path(0, 2)
    open(in_flight, 'wb').write(b'staging')
    assert store.sweep(0) == 0
    assert os.path.exists(in_flight)
    store.commit_partition(_m(0, 3, 'v3', base='base-3.parquet'),
                           {store.delta_path(0, 'base-3.parquet'): in_flight},
                           expected_version=2)
    assert sorted(f for f in os.listdir(store.partition_dir(0))
                  if not f.startswith('.')) == ['base-3.parquet', 'manifest.json']


def test_commit_conflict_error_pickles():
    """A lost race raised inside a Ray task reaches the caller intact."""
    import pickle

    err = pickle.loads(pickle.dumps(CommitConflictError(3, 1, 2)))
    assert isinstance(err, CommitConflictError)
    assert str(err) == str(CommitConflictError(3, 1, 2))
    assert (err.partition_id, err.expected, err.found) == (3, 1, 2)


def test_widen_schema_additive():
    base = pa.schema([('a', pa.int32()), ('b', pa.string())])
    incoming = pa.schema([('a', pa.int64()), ('c', pa.float64())])
    widened, changes = widen_schema(base, incoming)
    assert widened.field('a').type == pa.int64()
    assert widened.field('c').type == pa.float64()
    assert widened.names == ['a', 'b', 'c']
    assert len(changes) == 2


def test_widen_schema_rejects_incompatible():
    base = pa.schema([('a', pa.string())])
    incoming = pa.schema([('a', pa.int64())])
    with pytest.raises(ValueError, match='non-additive'):
        widen_schema(base, incoming)


def test_align_table():
    schema = pa.schema([('a', pa.int64()), ('b', pa.string())])
    table = pa.table({'a': pa.array([1, 2], type=pa.int32())})
    out = align_table(table, schema)
    assert out.schema == schema
    assert out.column('b').null_count == 2


@pytest.mark.usefixtures('ray_session')
def test_write_partitioned_by_key(tmp_path):
    """Keyed partitioned write: one Hive-style directory per key value,
    round-trips through read_table with column pruning."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from filters_ray.sources.io import read_table, write_partitioned

    ds = rd.from_arrow(pa.table({
        'lang': ['en', 'de', 'en', 'fr', 'de', 'en'],
        'doc_id': list(range(6)),
        'text': [f't{i}' for i in range(6)],
    }))
    out = str(tmp_path / 'by_lang')
    write_partitioned(ds, out, partition_cols=['lang'])
    dirs = sorted(d for d in os.listdir(out) if d.startswith('lang='))
    assert dirs == ['lang=de', 'lang=en', 'lang=fr']

    back = read_table(out, columns=['doc_id']).to_pandas()
    assert sorted(back['doc_id']) == list(range(6))


@pytest.mark.usefixtures('ray_session')
def test_jsonl_roundtrip_and_csv_read(tmp_path):
    """JSONL sink → JSONL source round-trip preserves rows/columns; CSV
    source applies an explicit schema + column pruning."""
    import pyarrow as pa
    import ray.data as rd

    from filters_ray.sources.io import (
        read_csv_table, read_jsonl_table, write_jsonl,
    )

    t = pa.table({
        'doc_id': [1, 2, 3],
        'text': ['a b', 'c', 'd e f'],
        'score': [0.5, 1.25, -2.0],
    })
    jl = str(tmp_path / 'docs_jsonl')
    write_jsonl(rd.from_arrow(t), jl)
    back = read_jsonl_table(jl, columns=['doc_id', 'score']).to_pandas()
    assert sorted(back.columns) == ['doc_id', 'score']
    assert sorted(back['doc_id']) == [1, 2, 3]
    assert sorted(back['score']) == [-2.0, 0.5, 1.25]

    csv_path = tmp_path / 'rows.csv'
    csv_path.write_text('k,v,extra\n1,x,9\n2,y,8\n')
    schema = {'k': pa.int64(), 'v': pa.string(), 'extra': pa.int64()}
    got = read_csv_table(
        str(csv_path), columns=['k', 'v'], schema=schema,
    ).to_pandas()
    assert list(got.columns) == ['k', 'v']
    assert got['k'].tolist() == [1, 2]
    assert got['v'].tolist() == ['x', 'y']


@pytest.mark.usefixtures('ray_session')
def test_cdc_ingests_jsonl_events(tmp_path):
    """The CDC pipeline is source-agnostic: the same event log read from
    JSONL produces the identical lake state as the parquet path."""
    import ray.data as rd

    from filters_ray.pipelines.cdc import CDCPipeline
    from filters_ray.sources.io import read_jsonl_table, write_jsonl
    from filters_ray.sources.synth import SynthConfig, make_events

    events = make_events(SynthConfig(n_keys=40, n_events=300, seed=11))
    jl = str(tmp_path / 'events_jsonl')
    write_jsonl(rd.from_arrow(events), jl)

    lake_a = str(tmp_path / 'lake_parquet_src')
    lake_b = str(tmp_path / 'lake_jsonl_src')
    rep_a = CDCPipeline(lake_a, num_partitions=4, batch_size=128).run(
        rd.from_arrow(events))
    rep_b = CDCPipeline(lake_b, num_partitions=4, batch_size=128).run(
        read_jsonl_table(jl))
    assert rep_b.events_applied == rep_a.events_applied
    assert rep_b.rejected_by_code == rep_a.rejected_by_code

    a = CDCPipeline(lake_a, num_partitions=4).final_table().to_pandas()
    b = CDCPipeline(lake_b, num_partitions=4).final_table().to_pandas()
    key = ['repo', 'path']
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert a[['repo', 'path', 'last_lsn', 'content']].equals(
        b[['repo', 'path', 'last_lsn', 'content']])
