"""Delta files + compaction + incremental DLQ accounting (round 3).

VERDICT r2 #3/#5 done-criteria: a micro-batch must not rewrite untouched
base bytes; the delta list compacts at the threshold; rejection
accounting is cumulative in the manifest (no O(historical-DLQ) rescan,
corrupt-lsn re-deliveries count once); merged-on-read state stays
row-for-row equal to the scalar oracle throughout.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events


def _split_log(log: pa.Table, n_chunks: int):
    per = log.num_rows // n_chunks
    return [
        log.slice(i * per, per if i < n_chunks - 1 else log.num_rows - i * per)
        for i in range(n_chunks)
    ]


@pytest.mark.usefixtures('ray_session')
def test_micro_batch_writes_delta_not_base(tmp_path):
    """Run 2+ must leave the base file's bytes untouched and append one
    listed delta file instead; merged view equals the oracle."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=60, n_events=600, n_repos=6, seed=23)
    log = make_events(cfg)
    chunks = _split_log(log, 3)
    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4, compact_every=8)

    pipeline.run(rd.from_arrow(chunks[0]))  # bootstrap: base only
    base_stats = {}
    for pid in range(4):
        m = pipeline.store.read_manifest(pid)
        if m is not None and m.base:
            st = os.stat(pipeline.store.delta_path(pid, m.base))
            base_stats[pid] = (m.base, st.st_mtime_ns, st.st_size)
        assert m is None or m.deltas == []

    pipeline.run(rd.from_arrow(chunks[1]))
    pipeline.run(rd.from_arrow(chunks[2]))

    touched_any_delta = False
    for pid, (base, mtime, size) in base_stats.items():
        m = pipeline.store.read_manifest(pid)
        st = os.stat(pipeline.store.delta_path(pid, m.base))
        # Micro-batches appended deltas; the base bytes never moved.
        assert (m.base, st.st_mtime_ns, st.st_size) == (base, mtime, size)
        if m.deltas:
            touched_any_delta = True
            for name in m.deltas:
                assert os.path.exists(pipeline.store.delta_path(pid, name))
    assert touched_any_delta

    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_compaction_folds_deltas_into_base(tmp_path):
    """With compact_every=2 the second micro-batch compacts: delta list
    empties, files are reclaimed, state still equals the oracle."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=50, n_events=600, n_repos=5, seed=29)
    log = make_events(cfg)
    chunks = _split_log(log, 4)
    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4, compact_every=2)

    for chunk in chunks:
        pipeline.run(rd.from_arrow(chunk))

    for pid in range(4):
        m = pipeline.store.read_manifest(pid)
        if m is None:
            continue
        assert len(m.deltas) < 2  # compaction threshold enforced
        part_dir = pipeline.store.partition_dir(pid)
        on_disk = {
            n for n in os.listdir(part_dir)
            if n.startswith('delta-') and n.endswith('.parquet')
        }
        assert on_disk == set(m.deltas)  # orphans reclaimed post-compact

    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('retain_history', [True, False])
def test_first_commit_shape_and_compaction_cadence(tmp_path, retain_history):
    """2k+1 one-file commits into 4 partitions with compact_every=k. A
    retained partition's first commit is a delta and writes no base (its
    snapshot is the active delta and the history entry); a partition of
    a lake without retention starts with a base. Either way a read opens
    at most k files (base plus deltas), compaction lands on commits k+1
    and 2k+1, and every read matches the oracle after every commit."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from filters_ray.pipelines.cdc import _drop_tombstones, _last_writer_wins

    k = 3
    log = make_events(SynthConfig(n_keys=60, n_events=700, n_repos=6, seed=53))
    log = log.sort_by([('lsn', 'ascending')])  # chunk ends are commit boundaries
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4,
                           compact_every=k, retain_history=retain_history)
    boundaries, compactions, delivered = [], [], 0
    for i, chunk in enumerate(_split_log(log, 2 * k + 1), start=1):
        path = str(tmp_path / f'wal-{i:02d}.parquet')
        pq.write_table(chunk, path)
        pipeline.run(path)
        manifests = pipeline.store.all_manifests()
        assert sorted(manifests) == [0, 1, 2, 3]
        shapes = set()
        for pid, m in manifests.items():
            assert m.commit_version == i  # every commit touches every partition
            has_base = m.base is not None
            assert len(m.deltas) + has_base <= k
            shapes.add((has_base, len(m.deltas)))
            if i == 1 and retain_history:
                assert not has_base and m.deltas == m.history
            elif i == 1:
                assert has_base and m.deltas == [] and m.history == []
        assert len(shapes) == 1  # the partitions move in step
        if i > 1 and shapes == {(True, 0)}:
            compactions.append(i)

        boundaries.append(max(m.hwm_lsn for m in manifests.values()))
        delivered += chunk.num_rows
        oracle = replay_oracle(log.slice(0, delivered).to_pylist())
        assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
        if not retain_history:
            continue
        feed = pipeline.changes()
        assert final_state_digests(_drop_tombstones(_last_writer_wins(feed))) \
            == oracle.sha256_by_key()
        for b in boundaries:
            prefix = log.filter(pc.less_equal(log.column('lsn'), b))
            assert final_state_digests(pipeline.table_as_of(b)) == \
                replay_oracle(prefix.to_pylist()).sha256_by_key()
    assert compactions == [k + 1, 2 * k + 1]


@pytest.mark.usefixtures('ray_session')
def test_replay_over_delta_state_is_idempotent(tmp_path):
    """Full-log replay over a lake holding active deltas applies nothing
    and changes nothing."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=40, n_events=400, n_repos=4, seed=31)
    log = make_events(cfg)
    chunks = _split_log(log, 2)
    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4, compact_every=8)
    for chunk in chunks:
        pipeline.run(rd.from_arrow(chunk))
    digests_before = final_state_digests(pipeline.final_table())
    counts_before = pipeline.rejection_counts()

    report = pipeline.run(rd.from_arrow(log))  # full replay
    assert report.events_applied == 0
    assert final_state_digests(pipeline.final_table()) == digests_before
    assert pipeline.rejection_counts() == counts_before


@pytest.mark.usefixtures('ray_session')
def test_micro_batched_equals_single_run(tmp_path):
    """N micro-batches (delta path) ≡ one run (bootstrap path): same
    final digests, same lake row count, same rejection counts."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=60, n_events=800, n_repos=6, seed=37)
    log = make_events(cfg)

    one = CDCPipeline(str(tmp_path / 'one'), num_partitions=4)
    one.run(rd.from_arrow(log))

    many = CDCPipeline(str(tmp_path / 'many'), num_partitions=4,
                       compact_every=100)
    for chunk in _split_log(log, 5):
        many.run(rd.from_arrow(chunk))

    assert final_state_digests(many.final_table()) == \
        final_state_digests(one.final_table())
    assert many.rejection_counts() == one.rejection_counts()
    assert sum(m['rows'] for m in many.lineage()) == \
        sum(m['rows'] for m in one.lineage())


@pytest.mark.usefixtures('ray_session')
def test_corrupt_lsn_redelivery_counts_once(tmp_path):
    """A negative-lsn (unwatermarkable) invalid event re-delivered across
    runs is one rejection and one DLQ row, not one per delivery, alone
    or beside a new one."""
    import ray.data as rd

    def corrupt_log(*lsns):
        n = len(lsns)
        return pa.table({
            'lsn': pa.array(lsns, type=pa.int64()),
            'op': pa.array(['update'] * n),
            'repo': pa.array(['r1'] * n),
            'path': pa.array(['p1'] * n),
            'commit': pa.array(['0' * 40] * n),
            'lang': pa.array(['py'] * n),
            'content': pa.array(['x'] * n),
        })

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=2)
    pipeline.run(rd.from_arrow(corrupt_log(-5)))
    assert pipeline.rejection_counts() == {'too_small': 1}
    pipeline.run(rd.from_arrow(corrupt_log(-5)))  # re-delivery
    assert pipeline.rejection_counts() == {'too_small': 1}
    pipeline.run(rd.from_arrow(corrupt_log(-5, -7)))
    assert pipeline.rejection_counts() == {'too_small': 2}
    assert sorted(r['lsn'] for r in pipeline.dlq_dataset().take_all()) == [-7, -5]


@pytest.mark.usefixtures('ray_session')
def test_dlq_accounting_does_not_rescan_history(tmp_path):
    """Sequential runs each with fresh rejections: counts accumulate via
    the manifest, without any whole-DLQ-directory rescan (the O(historic)
    walk was deleted; this pins the cumulative semantics)."""
    import ray.data as rd

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=2)
    n_runs = 4
    for i in range(n_runs):
        log = pa.table({
            'lsn': pa.array([10 * i + 1, 10 * i + 2], type=pa.int64()),
            'op': pa.array(['update', 'bogus-op']),     # second row rejects
            'repo': pa.array(['r1', 'r1']),
            'path': pa.array([f'f{i}', f'g{i}']),
            'commit': pa.array(['0' * 40] * 2),
            'lang': pa.array(['py'] * 2),
            'content': pa.array(['a', 'b']),
        })
        pipeline.run(rd.from_arrow(log))
    assert pipeline.rejection_counts() == {'not_valid_choice': n_runs}
    assert pipeline.final_table().num_rows == n_runs


@pytest.mark.usefixtures('ray_session')
def test_as_dataset_column_pruning(tmp_path):
    """as_dataset() returns the columns of final_table and
    as_dataset(columns=...) exactly the requested columns, on both the
    fast (base-only) and merge-on-read (deltas) paths, with the same rows
    as final_table; on both paths a column only one partition's latest
    file has reads as null on every other row, under final_table's
    schema."""
    from collections import Counter

    import pyarrow.compute as pc
    import ray.data as rd

    from filters_ray.pipelines.cdc import key_partition

    cfg = SynthConfig(n_keys=40, n_events=400, n_repos=4, seed=37)
    log = make_events(cfg)
    chunks = _split_log(log, 2)

    # Fast path: single run, no deltas.
    lake1 = CDCPipeline(str(tmp_path / 'one'), num_partitions=4)
    lake1.run(rd.from_arrow(log))
    assert lake1.as_dataset().schema().names == lake1.final_table().column_names
    pruned = lake1.as_dataset(columns=['repo', 'last_lsn'])
    t = pruned.to_pandas()
    assert sorted(t.columns) == ['last_lsn', 'repo']
    assert len(t) == lake1.final_table().num_rows

    # Merge-on-read path: two runs leave active deltas.
    lake2 = CDCPipeline(str(tmp_path / 'two'), num_partitions=4,
                        compact_every=8)
    lake2.run(rd.from_arrow(chunks[0]))
    lake2.run(rd.from_arrow(chunks[1]))
    assert any(m.deltas for m in lake2.store.all_manifests().values())
    assert lake2.as_dataset().schema().names == lake2.final_table().column_names
    t2 = lake2.as_dataset(columns=['repo', 'last_lsn']).to_pandas()
    assert sorted(t2.columns) == ['last_lsn', 'repo']
    final = lake2.final_table()
    assert len(t2) == final.num_rows
    assert sorted(t2['last_lsn']) == sorted(
        final.column('last_lsn').to_pylist())

    # Bases or deltas that differ by an added column: one event with
    # `branch` rewrites the last partition's base (compact_every=1, fast
    # path) or adds a delta to it (compact_every=8, merge path).
    path = next(f'added-{i}.txt' for i in range(100) if key_partition(
        pa.array(['org/added']), pa.array([f'added-{i}.txt']), 4)[0] == 3)
    for compact_every in (1, 8):
        lake3 = CDCPipeline(str(tmp_path / f'added-{compact_every}'),
                            num_partitions=4, compact_every=compact_every)
        lake3.run(rd.from_arrow(log))
        lake3.run(rd.from_arrow(pa.Table.from_pylist([{
            'lsn': pc.max(log.column('lsn')).as_py() + 1, 'op': 'insert',
            'repo': 'org/added', 'path': path, 'commit': 'c' * 40, 'lang': '',
            'content': 'x', 'branch': 'dev'}])))
        manifests = lake3.store.all_manifests()
        assert all(m.base for m in manifests.values())
        assert [pid for pid, m in manifests.items() if m.deltas] == (
            [] if compact_every == 1 else [3])
        final = lake3.final_table()
        assert lake3.as_dataset().schema().base_schema == final.schema
        rows = lake3.as_dataset(columns=['repo', 'branch']).take_all()
        assert all(sorted(r) == ['branch', 'repo'] for r in rows)
        assert Counter((r['repo'], r['branch']) for r in rows) == Counter(
            zip(final.column('repo').to_pylist(), final.column('branch').to_pylist()))
        assert final.column('branch').null_count == final.num_rows - 1


@pytest.mark.usefixtures('ray_session')
def test_lake_report_totals(tmp_path):
    import ray.data as rd

    cfg = SynthConfig(n_keys=30, n_events=300, n_repos=3, seed=41)
    log = make_events(cfg)
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4,
                           compact_every=1, retain_history=True)
    run = pipeline.run(rd.from_arrow(log))
    report = pipeline.lake_report()
    assert report['lake_rows'] == run.lake_rows
    dlq_on_disk = [f for _, _, files in os.walk(os.path.join(pipeline.lake_root, '_dlq'))
                   for f in files if f.endswith('.parquet')]
    assert report['dlq_files'] == len(dlq_on_disk) > 0
    assert report['events_applied'] == run.events_applied
    assert report['rejected_by_code'] == pipeline.rejection_counts()
    assert report['committed'] <= report['partitions'] == 4
    assert report['max_partition_rows'] >= report['min_partition_rows'] > 0
    assert report['skew_ratio'] >= 1.0

    # A 1-event run touches one partition; its lake_rows still covers
    # the whole lake.
    one = pa.Table.from_pylist([{
        'lsn': log.num_rows + 1000, 'op': 'insert', 'repo': 'r-new',
        'path': 'new.txt', 'commit': 'c' * 40, 'lang': '', 'content': 'x',
    }])
    second = pipeline.run(rd.from_arrow(one))
    assert second.partitions == 1
    assert second.lake_rows == pipeline.lake_report()['lake_rows'] \
        == pipeline.final_table().num_rows == run.lake_rows + 1

    # The byte counts are all of the lake: the touched partition compacted
    # (a base, history no longer listed in deltas), the others hold deltas.
    report = pipeline.lake_report()
    assert report['history_bytes'] > 0 and report['dlq_bytes'] > 0
    on_disk = sum(os.path.getsize(os.path.join(d, f))
                  for d, _, files in os.walk(pipeline.lake_root)
                  for f in files if not f.startswith('.'))
    assert on_disk == (
        report['lake_bytes'] + report['history_bytes'] + report['dlq_bytes']
        + report['manifest_bytes'] + os.path.getsize(pipeline.store.meta_path()))


@pytest.mark.usefixtures('ray_session')
def test_point_lookup(tmp_path):
    import ray.data as rd

    cfg = SynthConfig(n_keys=40, n_events=400, n_repos=4, seed=43)
    log = make_events(cfg)
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4,
                           compact_every=8)
    for c in _split_log(log, 2):
        pipeline.run(rd.from_arrow(c))

    final = pipeline.final_table()
    # Every live row is findable and matches the merged view exactly.
    for i in range(0, final.num_rows, max(1, final.num_rows // 7)):
        repo = final.column('repo')[i].as_py()
        path = final.column('path')[i].as_py()
        row = pipeline.lookup(repo, path)
        assert row is not None
        assert row['last_lsn'] == final.column('last_lsn')[i].as_py()
        assert row['content'] == final.column('content')[i].as_py()
    # Absent key → None.
    assert pipeline.lookup('no-such-repo', 'nope') is None


@pytest.mark.usefixtures('ray_session')
def test_missing_listed_delta_raises(tmp_path):
    """A delta the manifest lists but the disk lacks is an error, not an
    empty delta: readers raise instead of silently dropping its rows."""
    import ray.data as rd

    log = make_events(SynthConfig(n_keys=40, n_events=300, n_repos=4, seed=29))
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=2)
    for chunk in _split_log(log, 2):
        pipeline.run(rd.from_arrow(chunk))
    pid, m = next((pid, m) for pid, m in pipeline.store.all_manifests().items()
                  if m.deltas)
    missing = pipeline.store.delta_path(pid, m.deltas[0])
    os.remove(missing)
    with pytest.raises(FileNotFoundError, match=os.path.basename(missing)):
        pipeline.final_table()
