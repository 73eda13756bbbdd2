"""CDC edge cases: empty log, lake/DLQ readers, all-invalid log."""

from __future__ import annotations

import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline, _read_files, _widened_schema
from filters_ray.sources.synth import SynthConfig, make_events


def empty_log() -> pa.Table:
    return pa.table({
        'lsn': pa.array([], type=pa.int64()),
        'op': pa.array([], type=pa.string()),
        'repo': pa.array([], type=pa.string()),
        'path': pa.array([], type=pa.string()),
        'commit': pa.array([], type=pa.string()),
        'lang': pa.array([], type=pa.string()),
        'content': pa.array([], type=pa.string()),
    })


@pytest.mark.usefixtures('ray_session')
def test_empty_log_is_a_noop(tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    path = str(tmp_path / 'empty.parquet')
    pq.write_table(empty_log(), path)
    inputs = {
        'from_arrow': rd.from_arrow(empty_log()),
        # A materialized empty result: one block without columns.
        'filtered': rd.from_arrow(make_events(SynthConfig(n_keys=10, n_events=50)))
        .filter(lambda row: False).materialize(),
        'path': path,
    }
    for name, events in inputs.items():
        pipeline = CDCPipeline(str(tmp_path / name), num_partitions=4)
        report = pipeline.run(events)
        assert report.events_seen == 0, name
        assert pipeline.final_table().num_rows == 0, name
        assert pipeline.rejection_counts() == {}, name
        assert pipeline.store.all_manifests() == {}, name


@pytest.mark.usefixtures('ray_session')
def test_no_input_file_is_an_empty_log(tmp_path):
    """An empty file list and a directory without parquet files are the
    empty log: no commit, a zero report, on a new lake and on a lake
    with commits."""
    import pyarrow.parquet as pq

    empty_dir = tmp_path / 'no-files'
    empty_dir.mkdir()
    (empty_dir / '_SUCCESS').write_text('')
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    for events in ([], str(empty_dir)):
        report = pipeline.run(events)
        assert (report.events_seen, report.lake_rows) == (0, 0), events
        assert pipeline.store.all_manifests() == {}, events

    path = str(tmp_path / 'events.parquet')
    pq.write_table(make_events(SynthConfig(n_keys=20, n_events=100, seed=3)), path)
    pipeline.run(path)
    before = pipeline.store.all_manifests()
    rows = pipeline.final_table().num_rows
    for events in ([], str(empty_dir)):
        report = pipeline.run(events)
        assert (report.events_seen, report.events_applied) == (0, 0), events
        assert report.lake_rows == rows, events
        assert pipeline.store.all_manifests() == before, events


@pytest.mark.usefixtures('ray_session')
def test_all_invalid_log_goes_entirely_to_dlq(tmp_path):
    import ray.data as rd

    n = 50
    log = pa.table({
        'lsn': pa.array(range(n), type=pa.int64()),
        'op': pa.array(['frobnicate'] * n),          # invalid op
        'repo': pa.array([''] * n),                  # empty repo
        'path': pa.array([f'f{i}' for i in range(n)]),
        'commit': pa.array(['zz'] * n),              # malformed commit
        'lang': pa.array(['py'] * n),
        'content': pa.array(['x'] * n),
    })
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    report = pipeline.run(rd.from_arrow(log))
    assert report.events_applied == 0
    assert pipeline.final_table().num_rows == 0
    counts = pipeline.rejection_counts()
    assert counts['not_valid_choice'] == n
    assert counts['empty'] == n
    assert counts['malformed'] == n

    dlq = pipeline.dlq_dataset().to_pandas().sort_values('lsn')
    assert len(dlq) == n
    # The DLQ keeps each rejected event's own columns as delivered.
    assert dlq['lsn'].tolist() == list(range(n))
    assert set(dlq['op']) == {'frobnicate'}
    assert set(dlq['commit']) == {'zz'}


@pytest.mark.usefixtures('ray_session')
def test_lake_reader_composes_with_ray_pipelines(tmp_path):
    import ray.data as rd
    from ray.data.aggregate import Count

    cfg = SynthConfig(n_keys=60, n_events=400, n_repos=6, seed=31,
                      invalid_rate=0.0, duplicate_rate=0.0)
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    pipeline.run(rd.from_arrow(make_events(cfg)))

    lake = pipeline.as_dataset()
    per_lang = lake.groupby('lang').aggregate(Count(alias_name='n')).to_pandas()
    assert per_lang['n'].sum() == pipeline.final_table().num_rows


def test_dedup_by_lsn_exact_above_2_53():
    """Distinct int64 lsns that collide in float64 must NOT dedup each
    other, and null-lsn rows all stay (ADVICE r2: the old to_numpy path
    round-tripped through float64+NaN)."""
    from filters_ray.pipelines.cdc import RAW_LSN_COLUMN, _dedup_by_lsn

    base = 1 << 53  # float64 can't represent base+1 distinctly from base
    t = pa.table({
        RAW_LSN_COLUMN: pa.array(
            [base, base + 1, None, base, None, 7], type=pa.int64(),
        ),
        'v': pa.array([0, 1, 2, 3, 4, 5]),
    })
    out = _dedup_by_lsn(t)
    # keeps: first base, base+1 (distinct!), both nulls, 7; drops dup base
    assert out.column('v').to_pylist() == [0, 1, 2, 4, 5]


def _last_writer_wins_sorted(table: pa.Table) -> pa.Table:
    """The differential oracle of ``_last_writer_wins``: a full (repo,
    path, last_lsn) stable sort, keeping the last row per key."""
    import numpy as np

    if table.num_rows == 0:
        return table
    table = table.sort_by([
        ('repo', 'ascending'), ('path', 'ascending'), ('last_lsn', 'ascending'),
    ])
    repo = np.asarray(table.column('repo').to_numpy(zero_copy_only=False), dtype=object)
    path = np.asarray(table.column('path').to_numpy(zero_copy_only=False), dtype=object)
    is_last = np.ones(len(repo), dtype=bool)
    is_last[:-1] = ~((repo[:-1] == repo[1:]) & (path[:-1] == path[1:]))
    return table.filter(pa.array(is_last))


def test_lww_fast_path_matches_sorted_path():
    """The dictionary-encode/lexsort LWW must equal the exact sort-based
    path row-for-row — incl. duplicate (key, lsn) deliveries (last input
    occurrence wins), deletes, single-key and empty tables."""
    import numpy as np

    from filters_ray.pipelines.cdc import _last_writer_wins

    rng = np.random.RandomState(11)
    for trial in range(20):
        n = int(rng.randint(1, 400))
        repos = rng.choice(['r1', 'r2', 'répo-3', ''], size=n)
        paths = rng.choice([f'p{i}' for i in range(max(2, n // 8))], size=n)
        lsns = rng.randint(0, max(2, n // 2), size=n)  # many lsn ties
        ops = rng.choice(['update', 'delete', 'insert'], size=n)
        t = pa.table({
            'repo': pa.array(repos.tolist()),
            'path': pa.array(paths.tolist()),
            'last_lsn': pa.array(lsns.tolist(), type=pa.int64()),
            'op': pa.array(ops.tolist()),
            'content': pa.array([f'c{i}' for i in range(n)]),  # row identity
        })
        fast = _last_writer_wins(t)
        exact = _last_writer_wins_sorted(t).sort_by(
            [('repo', 'ascending'), ('path', 'ascending')],
        )
        assert fast.to_pydict() == exact.to_pydict(), f'trial {trial}'

    empty = pa.table({
        'repo': pa.array([], type=pa.string()),
        'path': pa.array([], type=pa.string()),
        'last_lsn': pa.array([], type=pa.int64()),
        'op': pa.array([], type=pa.string()),
    })
    assert _last_writer_wins(empty).num_rows == 0


@pytest.mark.usefixtures('ray_session')
def test_string_lsn_log_delivered_twice_is_applied_once(tmp_path):
    """A log whose ``lsn`` is a string column the lsn chain accepts
    (``'12'`` is event 12): five inserts and one event with an invalid
    ``op``. Its event identity is the validated lsn, so a second delivery
    is dropped by the watermark: it applies nothing, and its rejection
    is counted and dead-lettered once."""
    import ray.data as rd

    rows = [{'lsn': str(lsn), 'op': 'insert', 'repo': 'org/r', 'path': f'f{lsn}',
             'commit': 'a' * 40, 'lang': 'py', 'content': f'body {lsn}'}
            for lsn in range(1, 6)]
    rows.append(dict(rows[0], lsn='6', op='bogus', path='f6'))
    log = pa.Table.from_pylist(rows)
    assert log.schema.field('lsn').type == pa.string()

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    first = pipeline.run(rd.from_arrow(log))
    again = pipeline.run(rd.from_arrow(log))
    assert (first.events_applied, again.events_applied) == (5, 0)
    assert again.events_skipped == log.num_rows
    assert (first.rejected_by_code, again.rejected_by_code) == (
        {'not_valid_choice': 1}, {})
    manifest = pipeline.store.read_manifest(0)
    assert manifest.hwm_lsn == 6
    assert manifest.events_applied == 5
    assert manifest.dlq == ['dlq-6-6-1.parquet']
    assert pipeline.rejection_counts() == {'not_valid_choice': 1}
    assert pipeline.final_table().column('last_lsn').to_pylist() == [1, 2, 3, 4, 5]


@pytest.mark.usefixtures('ray_session')
@pytest.mark.xfail(strict=True, reason=(
    'a new event below the partition watermark is dropped as if it were '
    'a duplicate delivery, so it is never applied'))
def test_late_event_is_applied(tmp_path):
    """A batch up to lsn 10, then a new key at lsn 5: a late event, which
    breaks the delivery contract. The lake must still equal the replay
    oracle of the whole log; today ``_admit`` cannot tell the late event
    from a duplicate, counts it in ``events_skipped`` and drops it."""
    import ray.data as rd

    from filters_ray.sources.oracle import final_state_digests, replay_oracle

    def event(lsn: int, path: str) -> dict:
        return {'lsn': lsn, 'op': 'insert', 'repo': 'org/r', 'path': path,
                'commit': 'a' * 40, 'lang': 'py', 'content': f'body {lsn}'}

    log = [event(lsn, f'f{lsn}') for lsn in (0, 4, 6, 10)] + [event(5, 'late')]
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(log[:4])))
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(log[4:])))
    assert (final_state_digests(pipeline.final_table())
            == replay_oracle(log).sha256_by_key())


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('lacking', ['lsn', 'repo'])
def test_log_lacking_a_key_column_is_dead_lettered(tmp_path, lacking):
    """A one-file log without ``lsn`` or ``repo``: the validate stage
    reads the absent column as null, so the chains' ``missing`` code
    dead-letters every row instead of the stage raising ``KeyError``."""
    import pyarrow.parquet as pq

    log = pa.Table.from_pylist([
        {'lsn': lsn, 'op': 'insert', 'repo': 'org/r', 'path': f'f{lsn}',
         'commit': 'a' * 40, 'lang': 'py', 'content': f'body {lsn}'}
        for lsn in range(40)])
    path = str(tmp_path / 'events.parquet')
    pq.write_table(log.drop_columns([lacking]), path)
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    report = pipeline.run(path)
    assert report.lake_rows == 0
    assert pipeline.final_table().num_rows == 0
    assert pipeline.rejection_counts() == {'missing': log.num_rows}


# Each case: the files to write (path relative to the test directory,
# table), the schema to read them under (a schema, or a function of the
# paths), and the table expected, or the exception a read raises.
_READ_CASES = {
    'a column a file lacks reads as null': (
        [('a.parquet', pa.table({'k': [1]})),
         ('b.parquet', pa.table({'k': [2], 'x': ['q']}))],
        _widened_schema,
        pa.table({'k': [1, 2], 'x': [None, 'q']})),
    'int32 is cast up to int64': (
        [('a.parquet', pa.table({'k': pa.array([1, 2], pa.int32())})),
         ('b.parquet', pa.table({'k': pa.array([3], pa.int64())}))],
        _widened_schema,
        pa.table({'k': pa.array([1, 2, 3], pa.int64())})),
    'string and binary read as binary': (
        [('a.parquet', pa.table({'c': pa.array(['s'], pa.string())})),
         ('b.parquet', pa.table({'c': pa.array([b'b'], pa.binary())}))],
        _widened_schema,
        pa.table({'c': pa.array([b's', b'b'], pa.binary())})),
    'a column outside the schema is not read': (
        [('a.parquet', pa.table({'k': [1], 'x': ['q'], 'y': [2.5]}))],
        pa.schema([('k', pa.int64())]),
        pa.table({'k': [1]})),
    'part=<p> directories add no column': (
        [('part=3/a.parquet', pa.table({'k': [1]})),
         ('part=5/b.parquet', pa.table({'k': [2]}))],
        pa.schema([('k', pa.int64())]),
        pa.table({'k': [1, 2]})),
    'rows stay in file order across files': (
        [('z.parquet', pa.table({'k': [9, 8]})),
         ('a.parquet', pa.table({'k': [1]})),
         ('m.parquet', pa.table({'k': [5, 4]}))],
        pa.schema([('k', pa.int64())]),
        pa.table({'k': [9, 8, 1, 5, 4]})),
    'a missing file raises FileNotFoundError': (
        [('a.parquet', pa.table({'k': [1]})), ('gone.parquet', None)],
        pa.schema([('k', pa.int64())]),
        FileNotFoundError),
}


@pytest.mark.parametrize('case', list(_READ_CASES))
def test_read_files(tmp_path, case):
    """``_read_files``, the engine's one reader of whole parquet files
    (commit input, merge-on-read, final_table, as-of, vacuum, redrive):
    each behaviour it must keep, one file list per case, read in the
    order given."""
    import pyarrow.parquet as pq

    files, schema, expected = _READ_CASES[case]
    paths = []
    for rel, table in files:
        paths.append(str(tmp_path / rel))
        if table is not None:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            pq.write_table(table, paths[-1])
    if callable(schema):
        schema = schema([p for p, (_, t) in zip(paths, files) if t is not None])
    if isinstance(expected, type):
        with pytest.raises(expected):
            _read_files(paths, schema)
        return
    out = _read_files(paths, schema)
    assert out.schema == expected.schema
    assert out.equals(expected)


def test_commit_and_final_table_leave_arrow_dataset_unimported(tmp_path):
    """A batch commit and ``final_table()`` read parquet
    without Arrow's Dataset scanner: ``pyarrow.dataset`` is never
    imported (its module and scanner threads would stay resident in a
    worker that imported it)."""
    import os
    import subprocess
    import sys
    import textwrap

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent('''
        import sys
        import pyarrow.parquet as pq
        from filters_ray.pipelines.cdc import (
            CDCPipeline, _commit_batch, _make_validate_fn, make_upsert_fn)
        from filters_ray.sources.synth import SynthConfig, make_events
        events, lake = sys.argv[1], sys.argv[2]
        pq.write_table(make_events(SynthConfig(n_keys=50, n_events=300, seed=3)), events)
        pipeline = CDCPipeline(lake, num_partitions=4)
        _commit_batch(_make_validate_fn(4, None, True), make_upsert_fn(lake), [events])
        assert pipeline.final_table().num_rows > 0
        print('pyarrow.dataset' in sys.modules)
    ''')
    env = dict(os.environ, PYTHONPATH=root, RAY_ADDRESS='')
    out = subprocess.run(
        [sys.executable, '-c', script, str(tmp_path / 'events.parquet'),
         str(tmp_path / 'lake')],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ['False']
