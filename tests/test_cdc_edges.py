"""CDC edge cases: empty log, lake/DLQ readers, all-invalid log."""

from __future__ import annotations

import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
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
