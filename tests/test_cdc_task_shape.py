"""The two ingest shapes: a micro-batch of at most ``batch_size`` rows
whose size is known up front commits in the calling process, which
sends only the CPU shares after the first to Ray tasks; anything else
runs the Ray Data plan. Both must leave byte-identical lakes, and the
shape rule must send each input where it says.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import textwrap

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


def run_script(script: str, *argv) -> str:
    """Run ``script`` in a fresh Python that imports the repository and
    ``tests/`` and joins no running Ray cluster; returns its stdout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, RAY_ADDRESS='', PYTHONPATH=os.pathsep.join(
        [root, os.path.join(root, 'tests')]))
    out = subprocess.run(
        [sys.executable, '-c', textwrap.dedent(script), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


@contextlib.contextmanager
def counted_launches():
    """The names of the functions whose ``ray.remote(fn).remote(...)`` is
    called inside the block, in launch order."""
    import ray

    launched = []
    real_remote = ray.remote

    def counting_remote(fn=None, **options):
        if fn is None:  # ``@ray.remote(**options)``, as Ray's own modules use it
            return real_remote(**options)
        task = real_remote(fn)

        class Counted:
            @staticmethod
            def remote(*args):
                launched.append(fn.__name__)
                return task.remote(*args)
        return Counted()

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ray, 'remote', counting_remote)
        yield launched


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
def test_one_cpu_commit_matches_the_fan_out(tmp_path):
    """One micro-batch committed by ``_commit_batch`` in a one-CPU Ray
    session (every partition upserted in the caller's heap, nothing in
    the object store) and in this four-CPU session (three shares shipped
    to upsert tasks) leaves equal summary rows and byte-equal lakes."""
    import json

    from filters_ray.pipelines.cdc import _commit_batch, _make_validate_fn, make_upsert_fn

    log = make_events(SynthConfig(n_keys=80, n_events=600, n_repos=8, seed=47))
    [path] = write_files(log, str(tmp_path / 'in'), 1)
    one_cpu = run_script('''
        import json, sys
        import ray
        from filters_ray.pipelines.cdc import (
            CDCPipeline, _commit_batch, _make_validate_fn, make_upsert_fn)

        def object_store(*args, **kwargs):
            raise AssertionError('a one-CPU commit used the object store')

        path, lake = sys.argv[1:]
        ray.init(address='local', num_cpus=1, include_dashboard=False,
                 logging_level='ERROR')
        real = ray.put, ray.remote
        ray.put = ray.remote = object_store
        CDCPipeline(lake, num_partitions=8)
        done = _commit_batch(_make_validate_fn(8, None, True), make_upsert_fn(lake), [path])
        ray.put, ray.remote = real
        ray.shutdown()
        print(json.dumps(done))
    ''', path, tmp_path / 'cpus1')
    one_rows, one_stats = json.loads(one_cpu.splitlines()[-1])
    fan_lake = str(tmp_path / 'cpus4')
    CDCPipeline(fan_lake, num_partitions=8)
    fan_rows, fan_stats = _commit_batch(_make_validate_fn(8, None, True),
                                        make_upsert_fn(fan_lake), [path])
    assert [row['partition_id'] for row in one_rows] == list(range(8))
    assert one_rows == json.loads(json.dumps(fan_rows))
    assert 'upsert_partition: 1 tasks executed' in one_stats
    assert 'upsert_partition: 4 tasks executed' in fan_stats
    one_lake, fan_lake = lake_files(str(tmp_path / 'cpus1')), lake_files(fan_lake)
    assert sorted(one_lake) == sorted(fan_lake)
    assert [k for k in one_lake if one_lake[k] != fan_lake[k]] == []


def test_one_cpu_session_starts_no_task(tmp_path):
    """In a one-CPU Ray session the calling process runs every share:
    micro-batch ``run()`` commits, a ``tail(max_batches=1)``,
    ``final_table()`` and ``table_as_of()`` on a lake with active deltas,
    ``replay_dlq`` and ``vacuum_history`` launch no Ray task."""
    out = run_script('''
        import os, sys
        import ray
        from filters_ray.pipelines.cdc import CDCPipeline
        from filters_ray.sources.synth import LANGS
        from test_cdc_task_shape import counted_launches, read_case_lake

        root = sys.argv[1]
        ray.init(address='local', num_cpus=1, include_dashboard=False,
                 logging_level='ERROR')
        with counted_launches() as launched:
            pipeline, boundaries = read_case_lake(root, 'retained')
            tailed = CDCPipeline(os.path.join(root, 'tailed'), num_partitions=4).tail(
                os.path.join(root, 'in'), max_batches=1)
            deltas = pipeline.lake_report()['active_deltas']
            final = pipeline.final_table()
            as_of = pipeline.table_as_of(boundaries[1])
            redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
            removed = pipeline.vacuum_history(boundaries[-1])
        ray.shutdown()
        print(tailed.events_seen, deltas, final.num_rows, as_of.num_rows,
              redrive.events_applied, removed, len(launched))
    ''', tmp_path)
    tailed, deltas, final, as_of, redriven, removed, launched = map(
        int, out.split()[-7:])
    assert tailed == 480 and deltas > 0 and final > 0 and as_of > 0
    assert redriven > 0 and removed > 0
    assert launched == 0


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
def test_plan_run_lands_a_column_a_lazy_datasets_second_file_adds(tmp_path):
    """The caller's own lazy dataset of the same two files: its blocks
    are read file by file, so validate's output blocks differ by
    ``branch`` (and its ``_original.branch`` payload) at the exchange.
    The column must still land."""
    import ray.data as rd

    log, _ = write_branch_files(str(tmp_path / 'in'))
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4,
                           batch_size=log.num_rows // 4)
    report = pipeline.run(rd.read_parquet(str(tmp_path / 'in')))
    assert report.events_seen == log.num_rows
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


@pytest.mark.usefixtures('ray_session')
def test_materialized_blocks_of_mixed_lsn_width_commit_as_their_files(tmp_path):
    """A materialized dataset whose first block carries ``lsn`` as int32
    and whose second carries int64 commits the same lake as the two
    blocks written as parquet files: blocks and files combine under one
    rule, Arrow's permissive promotion (int32 and int64 give int64). A
    lazy dataset of the files, which takes the plan, commits it too:
    validate's flat output meets in Ray's exchange, which promotes the
    ``_original.lsn`` payload's widths."""
    import pyarrow as pa
    import ray.data as rd

    log = make_events(SynthConfig(n_keys=30, n_events=99, n_repos=3, seed=23))
    cut = log.num_rows // 2
    narrow = log.slice(0, cut)
    narrow = narrow.set_column(narrow.schema.get_field_index('lsn'), 'lsn',
                               narrow.column('lsn').cast(pa.int32()))
    blocks = [narrow, log.slice(cut)]
    os.makedirs(tmp_path / 'in')
    paths = [str(tmp_path / 'in' / f'wal-{i:04d}.parquet') for i in range(2)]
    for block, path in zip(blocks, paths):
        pq.write_table(block, path)

    lakes = {}
    for name, events in (('blocks', rd.from_arrow(blocks)), ('files', paths),
                         ('lazy', rd.read_parquet(paths))):
        pipeline = CDCPipeline(str(tmp_path / name), num_partitions=4)
        report = pipeline.run(events)
        assert report.events_seen == log.num_rows
        assert pipeline.last_stats.startswith('Operator 1 validate') == (
            name != 'lazy')
        lakes[name] = (report, pipeline.lineage(), pipeline.final_table())
    assert lakes['blocks'] == lakes['files'] == lakes['lazy']
    assert final_state_digests(lakes['files'][2]) == \
        replay_oracle(log.to_pylist()).sha256_by_key()


@pytest.mark.usefixtures('ray_session')
def test_only_engine_tasks_return_freed_pages(tmp_path, monkeypatch):
    """``pa.jemalloc_set_decay_ms`` is called inside Ray tasks only:
    never in the calling process by ``run()``, ``final_table()``, or a
    redrive and vacuum run inline without Ray; a batch commit run inside
    a Ray task calls it, and where Arrow lacks jemalloc
    (``NotImplementedError``) the commit goes on."""
    import pyarrow as pa
    import ray

    from filters_ray.sources.synth import LANGS

    log = make_events(SynthConfig(n_keys=60, n_events=400, n_repos=6, seed=61))
    [path] = write_files(log, str(tmp_path / 'in'), 1)
    lake = str(tmp_path / 'lake')
    calls = []
    monkeypatch.setattr(pa, 'jemalloc_set_decay_ms', calls.append)
    pipeline = CDCPipeline(lake, num_partitions=4, retain_history=True)
    assert pipeline.run(path).events_applied > 0
    assert pipeline.final_table().num_rows > 0
    with monkeypatch.context() as m:
        m.setattr(ray, 'is_initialized', lambda: False)
        pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
        pipeline.vacuum_history(10 ** 9)
    assert calls == []

    def in_a_task(events: str, root: str) -> list:
        import pyarrow as pa

        from filters_ray.pipelines import cdc

        def commit() -> None:
            cdc._commit_batch(cdc._make_validate_fn(4, None, True),
                              cdc.make_upsert_fn(root), [events])

        def unbuilt(ms):
            raise NotImplementedError('jemalloc not built in')

        real, counted = pa.jemalloc_set_decay_ms, []
        try:
            pa.jemalloc_set_decay_ms = counted.append
            commit()
            pa.jemalloc_set_decay_ms = unbuilt
            commit()
        finally:
            pa.jemalloc_set_decay_ms = real
        return counted

    other = str(tmp_path / 'other')
    CDCPipeline(other, num_partitions=4)
    counted = ray.get(ray.remote(in_a_task).remote(path, other))
    assert counted and set(counted) == {0}


# -- whole-lake reads and maintenance: the caller runs the first CPU share ----


def _inline(call, *args):
    """``call(*args)`` as with no Ray session: every share in this process."""
    import ray

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ray, 'is_initialized', lambda: False)
        return call(*args)


def read_case_lake(root: str, case: str):
    """A 4-partition retained-history lake for one read case, and its
    commit boundaries (``hwm_lsn`` after each commit):

    * ``no_deltas``: ``compact_every=1``, so each commit after a
      partition's first compacts it into a base;
    * ``retained``: four delta commits;
    * ``added_column``: the last commit adds a ``branch`` column;
    * ``all_deleted_partition``: a fifth commit deletes every key of
      partition 0."""
    import pyarrow as pa

    from filters_ray.pipelines.cdc import key_partition

    log = make_events(SynthConfig(n_keys=60, n_events=480, n_repos=6, seed=71))
    paths = write_files(log, os.path.join(root, 'in'), 4)
    if case == 'added_column':
        late = pq.read_table(paths[-1])
        pq.write_table(late.append_column(
            'branch', pa.array([f'b{i % 3}' for i in range(late.num_rows)])), paths[-1])
    pipeline = CDCPipeline(os.path.join(root, 'lake'), num_partitions=4,
                           compact_every=1 if case == 'no_deltas' else 8,
                           retain_history=True)
    boundaries = []
    for path in paths:
        pipeline.run(path)
        boundaries.append(pipeline.lake_report()['hwm_lsn'])
    if case == 'all_deleted_partition':
        live = pipeline.final_table()
        parts = key_partition(live.column('repo'), live.column('path'), 4)
        doomed = live.filter(pa.array(parts == 0)).to_pylist()
        assert doomed
        deletes = pa.Table.from_pylist([
            {**{c: row[c] for c in log.column_names if c in row},
             'op': 'delete', 'lsn': boundaries[-1] + 1 + i}
            for i, row in enumerate(doomed)]).select(log.column_names)
        path = os.path.join(root, 'in', 'wal-9999.parquet')
        pq.write_table(deletes, path)
        pipeline.run(path)
        boundaries.append(pipeline.lake_report()['hwm_lsn'])
    return pipeline, boundaries


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('case', ['no_deltas', 'retained', 'added_column',
                                  'all_deleted_partition'])
def test_whole_lake_reads_in_tasks_equal_inline(tmp_path, case):
    """``final_table()`` and ``table_as_of()`` at every commit boundary
    give, under Ray (one task per CPU share), the tables they give inline
    without a Ray session, in (repo, path) order."""
    pipeline, boundaries = read_case_lake(str(tmp_path), case)
    deltas = pipeline.lake_report()['active_deltas']
    assert (deltas == 0) == (case == 'no_deltas')
    table = pipeline.final_table()
    assert table.equals(_inline(pipeline.final_table))
    assert table.num_rows > 0
    keys = list(zip(table.column('repo').to_pylist(), table.column('path').to_pylist()))
    assert keys == sorted(keys)
    if case == 'added_column':
        assert 'branch' in table.column_names
    if case == 'all_deleted_partition':
        assert pipeline.store.read_manifest(0).rows == 0
    for lsn in boundaries:
        as_of = pipeline.table_as_of(lsn)
        assert as_of.equals(_inline(pipeline.table_as_of, lsn)), lsn
    assert pipeline.table_as_of(boundaries[-1]).equals(table)


def test_whole_lake_reads_equal_inline_on_one_and_two_cpus(tmp_path):
    """The same equality in 1-CPU and 2-CPU Ray sessions (one share, the
    answer as the caller merged it; two shares, joined in order)."""
    out = run_script('''
        import sys
        import ray
        from test_cdc_task_shape import _inline, read_case_lake

        def start(cpus):
            ray.init(address='local', num_cpus=cpus, include_dashboard=False,
                     logging_level='ERROR')

        def reads():
            return [pipeline.final_table()] + [pipeline.table_as_of(b) for b in boundaries]

        start(1)
        pipeline, boundaries = read_case_lake(sys.argv[1], 'retained')
        got = {1: reads()}
        inline = _inline(reads)
        ray.shutdown()
        start(2)
        got[2] = reads()
        ray.shutdown()
        for cpus, tables in got.items():
            print(cpus, all(a.equals(b) for a, b in zip(tables, inline)))
    ''', tmp_path)
    assert out.split() == ['1', 'True', '2', 'True']


@pytest.mark.usefixtures('ray_session')
def test_caller_opens_only_its_own_share(tmp_path, monkeypatch):
    """Counted at ``_read_files`` in this process: on a lake with active
    deltas, ``final_table()`` and ``table_as_of()`` open here only the
    files of the first CPU share of the partitions (tasks merge the
    others); on a lake without, ``final_table()`` opens only the base
    files, here."""
    import ray

    from filters_ray.pipelines import cdc

    opened = []
    real = cdc._read_files

    def counted(paths, schema):
        opened.extend(os.path.basename(p) for p in paths)
        return real(paths, schema)

    def first_share(groups) -> list:
        cpus = int(ray.cluster_resources()['CPU'])
        share = cdc._shares([paths for paths in groups if paths], cpus)[0]
        return [os.path.basename(p) for paths in share for p in paths]

    monkeypatch.setattr(cdc, '_read_files', counted)
    deltas, boundaries = read_case_lake(str(tmp_path / 'deltas'), 'retained')
    store = deltas.store
    live = [cdc._partition_file_paths(store, pid, store.read_manifest(pid))
            for pid in range(4)]
    window = deltas._history_window('table_as_of', boundaries[1], -1, boundaries[1])
    opened.clear()
    assert deltas.final_table().num_rows
    assert opened == first_share(live)
    assert 0 < len(opened) < sum(map(len, live))
    opened.clear()
    assert deltas.table_as_of(boundaries[1]).num_rows
    assert opened == first_share(window.values())
    assert 0 < len(opened) < sum(map(len, window.values()))

    bases, _ = read_case_lake(str(tmp_path / 'bases'), 'no_deltas')
    opened.clear()
    assert bases.final_table().num_rows
    assert len(opened) == 4 and all(n.startswith('base-') for n in opened), opened


@pytest.mark.usefixtures('ray_session')
def test_maintenance_runs_a_task_per_cpu_share_after_the_first(tmp_path):
    """``replay_dlq`` and ``vacuum_history`` run ``min(partitions, CPUs)
    - 1`` tasks (the caller commits the first share), results in
    partition order, and leave the lake a run inline leaves."""
    import ray

    from filters_ray.pipelines import cdc
    from filters_ray.sources.synth import LANGS

    cpus = int(ray.cluster_resources()['CPU'])
    log = make_events(SynthConfig(n_keys=200, n_events=1600, n_repos=8, seed=73))
    paths = write_files(log, str(tmp_path / 'in'), 2)
    lakes = {}
    for side in ('tasks', 'inline'):
        lakes[side] = CDCPipeline(str(tmp_path / side), num_partitions=8,
                                  retain_history=True)
        for path in paths:
            lakes[side].run(path)
    pids = [pid for pid, m in lakes['tasks'].store.all_manifests().items() if m.dlq]
    assert len(pids) > 1

    langs = list(LANGS) + ['klingon']
    boundary = lakes['tasks'].lake_report()['hwm_lsn']
    with counted_launches() as launched:
        redrive = lakes['tasks'].replay_dlq(langs=langs)
        assert launched == ['_commit_share'] * (min(len(pids), cpus) - 1)
        launched.clear()
        removed = lakes['tasks'].vacuum_history(boundary)
        assert launched == ['_commit_share'] * (min(8, cpus) - 1)
        launched.clear()
        order = cdc._fan_out(cdc._commit_share, list(range(8)), lakes['tasks'].lake_root,
                             lambda store, pid, staged: pid)
        assert len(launched) == min(8, cpus) - 1
    assert [pid for share in order for pid in share] == list(range(8))
    assert redrive == _inline(lakes['inline'].replay_dlq, langs)
    assert removed == _inline(lakes['inline'].vacuum_history, boundary) > 0
    a, b = lake_files(lakes['tasks'].lake_root), lake_files(lakes['inline'].lake_root)
    assert sorted(a) == sorted(b)
    assert [k for k in a if a[k] != b[k]] == []
