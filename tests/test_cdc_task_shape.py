"""The two ingest shapes: a micro-batch of at most ``batch_size`` rows
whose size is known up front commits as plain Ray tasks, anything else
runs the Ray Data plan. Both must leave byte-identical lakes, and the
shape rule must send each input where it says.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events

from test_cdc_golden import run_golden_sequence


def lake_files(root: str) -> dict:
    """Every lake file's bytes by relative path (lock files excluded)."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if not name.startswith('.'):
                path = os.path.join(dirpath, name)
                with open(path, 'rb') as fh:
                    out[os.path.relpath(path, root)] = fh.read()
    return out


def lazy(table):
    """The same rows as a lazy (not materialized) dataset: the plan."""
    import ray.data as rd

    return rd.from_arrow(table).limit(table.num_rows)


def write_files(log, directory, n_files: int) -> list:
    """Cut ``log`` in arrival order into ``n_files`` parquet files."""
    os.makedirs(directory, exist_ok=True)
    per = log.num_rows // n_files
    paths = []
    for i in range(n_files):
        rows = per if i < n_files - 1 else log.num_rows - i * per
        paths.append(os.path.join(directory, f'wal-{i:04d}.parquet'))
        pq.write_table(log.slice(i * per, rows), paths[-1])
    return paths


@pytest.fixture
def no_plan(monkeypatch):
    """Make any run that builds the Ray Data plan fail."""
    import ray.data as rd

    def groupby(self, *args, **kwargs):
        raise RuntimeError('the Ray Data plan ran')

    monkeypatch.setattr(rd.Dataset, 'groupby', groupby)


@pytest.mark.usefixtures('ray_session')
def test_golden_sequence_is_byte_identical_on_both_shapes(tmp_path):
    tasks = run_golden_sequence(str(tmp_path / 'tasks'))
    plan = run_golden_sequence(str(tmp_path / 'plan'), dataset=lazy)
    assert tasks == plan
    a, b = lake_files(str(tmp_path / 'tasks')), lake_files(str(tmp_path / 'plan'))
    assert sorted(a) == sorted(b)
    assert [k for k in a if a[k] != b[k]] == []


@pytest.mark.usefixtures('ray_session')
def test_retained_history_commits_are_byte_identical_on_both_shapes(tmp_path):
    """Eight file commits (deltas, a compaction, history snapshots) as
    tasks via ``run(path)`` and on the plan via a lazy ``read_parquet``."""
    import ray.data as rd

    log = make_events(SynthConfig(n_keys=80, n_events=1024, n_repos=8, seed=41))
    paths = write_files(log, str(tmp_path / 'in'), 8)
    lakes = {}
    for shape in ('tasks', 'plan'):
        lakes[shape] = str(tmp_path / shape)
        pipeline = CDCPipeline(lakes[shape], num_partitions=4, compact_every=4,
                               retain_history=True)
        for path in paths:
            pipeline.run(path if shape == 'tasks' else rd.read_parquet(path))
    a, b = lake_files(lakes['tasks']), lake_files(lakes['plan'])
    assert sorted(a) == sorted(b)
    assert [k for k in a if a[k] != b[k]] == []
    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()


@pytest.mark.usefixtures('ray_session', 'no_plan')
def test_one_batch_inputs_skip_the_plan(tmp_path):
    import ray.data as rd

    from perfbench.session import parse_stats

    log = make_events(SynthConfig(n_keys=40, n_events=300, n_repos=4, seed=43))
    oracle = replay_oracle(log.to_pylist())
    [path] = write_files(log, str(tmp_path / 'in'), 1)
    inputs = (('path', path), ('from_arrow', rd.from_arrow(log)),
              ('directory', str(tmp_path / 'in')))
    for name, events in inputs:
        pipeline = CDCPipeline(str(tmp_path / name), num_partitions=8,
                               batch_size=log.num_rows)
        report = pipeline.run(events)
        assert report.events_seen == log.num_rows
        assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
        assert pipeline.rejection_counts() == oracle.rejected_by_code
        stats = parse_stats(pipeline.last_stats)
        assert stats['validate.wall_s'] > 0 and stats['upsert.wall_s'] > 0
        assert stats['exchange.wall_s'] == 0

    for name, events in inputs:
        pipeline = CDCPipeline(str(tmp_path / f'big-{name}'), num_partitions=8,
                               batch_size=log.num_rows - 1)
        with pytest.raises(RuntimeError, match='plan ran'):
            pipeline.run(events)


@pytest.mark.usefixtures('ray_session')
def test_one_cpu_commit_matches_the_fan_out(tmp_path, monkeypatch):
    """One micro-batch committed by ``_commit_task`` on one CPU (every
    partition upserted in the task's own heap) and on four (three shares
    shipped to sibling upsert tasks) leaves equal summary rows and
    byte-equal lakes. On one CPU nothing touches the object store."""
    import ray

    from filters_ray.pipelines.cdc import _commit_task, _make_validate_fn, make_upsert_fn

    log = make_events(SynthConfig(n_keys=80, n_events=600, n_repos=8, seed=47))
    [path] = write_files(log, str(tmp_path / 'in'), 1)

    def commit(cpus: int) -> tuple:
        lake = str(tmp_path / f'cpus{cpus}')
        CDCPipeline(lake, num_partitions=8)
        rows, stats = _commit_task(_make_validate_fn(8, None, True),
                                   make_upsert_fn(lake), cpus, [path])
        return rows, stats, lake_files(lake)

    def object_store(*args, **kwargs):
        raise AssertionError('a one-CPU commit used the object store')

    with monkeypatch.context() as m:
        m.setattr(ray, 'put', object_store)
        m.setattr(ray, 'remote', object_store)
        one_rows, one_stats, one_lake = commit(1)
    fan_rows, fan_stats, fan_lake = commit(4)
    assert [row['partition_id'] for row in one_rows] == list(range(8))
    assert one_rows == fan_rows
    assert 'upsert_partition: 1 tasks executed' in one_stats
    assert 'upsert_partition: 4 tasks executed' in fan_stats
    assert sorted(one_lake) == sorted(fan_lake)
    assert [k for k in one_lake if one_lake[k] != fan_lake[k]] == []


def write_branch_files(directory) -> tuple:
    """A log cut into two files where only the second has the ``branch``
    column; returns the log and the two paths."""
    cfg = SynthConfig(n_keys=60, n_events=400, n_repos=6, seed=11,
                      extra_column_after=0.5, invalid_rate=0.0,
                      duplicate_rate=0.0)
    log = make_events(cfg)
    cut = log.num_rows // 2
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, f'wal-{i:04d}.parquet') for i in range(2)]
    pq.write_table(log.slice(0, cut).drop_columns(['branch']), paths[0])
    pq.write_table(log.slice(cut), paths[1])
    return log, paths


def assert_branch_landed(pipeline, log) -> None:
    table = pipeline.final_table()
    assert 'branch' in table.column_names
    assert set(table.column('branch').to_pylist()) - {None} <= {'main', 'dev', 'release'}
    assert table.column('branch').null_count < table.num_rows
    assert final_state_digests(table) == replay_oracle(log.to_pylist()).sha256_by_key()


@pytest.mark.usefixtures('ray_session')
def test_tail_batch_lands_a_column_its_second_file_adds(tmp_path):
    """One ``tail()`` batch of two files, the second with an extra
    ``branch`` column, and ``run`` of their directory: each commits in
    one task and reads under the widened schema."""
    directory = str(tmp_path / 'in')
    log, _ = write_branch_files(directory)
    for name, ingest in (
            ('tail', lambda p: p.tail(directory, max_batches=1,
                                      poll_interval=0.01, idle_timeout=0)),
            ('directory', lambda p: p.run(directory))):
        pipeline = CDCPipeline(str(tmp_path / name), num_partitions=4)
        report = ingest(pipeline)
        assert report.events_seen == log.num_rows
        assert pipeline.last_stats.startswith('Operator 1 validate')
        assert_branch_landed(pipeline, log)


@pytest.mark.usefixtures('ray_session')
def test_plan_run_lands_a_column_its_second_file_adds(tmp_path):
    """``run([f1, f2])`` and ``run`` of their directory above
    ``batch_size`` rows take the plan, which reads the files under their
    widened schema: ``branch``, which only ``f2`` has, lands."""
    log, paths = write_branch_files(str(tmp_path / 'in'))
    for name, events in (('files', paths), ('directory', str(tmp_path / 'in'))):
        pipeline = CDCPipeline(str(tmp_path / name), num_partitions=4,
                               batch_size=log.num_rows // 4)
        report = pipeline.run(events)
        assert report.events_seen == log.num_rows
        assert not pipeline.last_stats.startswith('Operator 1 validate')
        assert_branch_landed(pipeline, log)


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('shape', ['tasks', 'plan'])
def test_lsn_ties_keep_the_last_delivery(tmp_path, shape):
    """Two deliveries of one key at one lsn: the later one wins, so the
    exchange must keep input order inside each partition."""
    import pyarrow as pa
    import ray.data as rd

    rows = [
        {'lsn': i, 'op': 'insert', 'repo': 'org/r', 'path': f'f{i}',
         'commit': 'a' * 40, 'lang': 'py', 'content': body}
        for body in ('first', 'second') for i in range(40)
    ]
    log = pa.Table.from_pylist(rows)
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    pipeline.run(rd.from_arrow(log) if shape == 'tasks' else lazy(log))
    table = pipeline.final_table()
    assert table.num_rows == 40
    assert set(table.column('content').to_pylist()) == {b'second'}
