"""Dead-letter redrive: widen the chain, replay the DLQ, lake updates."""

from __future__ import annotations

import datetime

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from filters_ray.pipelines.cdc import CDCPipeline


def log_with_bad_langs() -> pa.Table:
    rows = []
    for i in range(30):
        rows.append({
            'lsn': i, 'op': 'insert', 'repo': 'org/r', 'path': f'f{i}',
            'commit': 'a' * 40,
            # A third of the events carry a lang outside the default set.
            'lang': 'klingon' if i % 3 == 0 else 'py',
            'content': f'body {i}',
        })
    # One event that is broken beyond lang (stays dead after redrive).
    rows.append({
        'lsn': 100, 'op': 'insert', 'repo': '', 'path': 'dead',
        'commit': 'a' * 40, 'lang': 'py', 'content': 'x',
    })
    return pa.Table.from_pylist(rows)


def redrive_in_process(pipeline, monkeypatch):
    """``replay_dlq`` with 'klingon' legal, its per-partition commits run
    inline in this process, as with no Ray session, so patches reach them."""
    import ray

    from filters_ray.sources.synth import LANGS

    with monkeypatch.context() as m:
        m.setattr(ray, 'is_initialized', lambda: False)
        return pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])


@pytest.mark.usefixtures('ray_session')
def test_redrive_after_widening_langs(tmp_path):
    import ray.data as rd

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4)
    report = pipeline.run(rd.from_arrow(log_with_bad_langs()))

    assert report.rejected_by_code == {'not_valid_choice': 10, 'empty': 1}
    rows_before = pipeline.final_table().num_rows
    assert rows_before == 20

    # Ops decision: 'klingon' is a legal lang now. Redrive the DLQ.
    from filters_ray.sources.synth import LANGS
    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])

    assert redrive.events_applied == 10
    table = pipeline.final_table()
    assert table.num_rows == 30
    langs = set(table.column('lang').to_pylist())
    assert 'klingon' in langs

    # Only the genuinely-broken event remains dead; counts shrank.
    assert pipeline.rejection_counts() == {'empty': 1}
    assert pipeline.dlq_dataset().count() == 1

    # Redriving again is a no-op (remaining row still fails).
    again = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert again.events_applied == 0
    assert pipeline.rejection_counts() == {'empty': 1}


@pytest.mark.usefixtures('ray_session')
def test_redrive_never_overrides_newer_writer(tmp_path):
    """A redriven old event must lose LWW to a newer already-applied row."""
    import ray.data as rd

    lake = str(tmp_path / 'lake2')
    pipeline = CDCPipeline(lake, num_partitions=2)
    log = pa.Table.from_pylist([
        # lsn 1 invalid (bad lang), lsn 2 valid newer write to SAME key.
        {'lsn': 1, 'op': 'insert', 'repo': 'org/r', 'path': 'f',
         'commit': 'a' * 40, 'lang': 'klingon', 'content': 'OLD'},
        {'lsn': 2, 'op': 'update', 'repo': 'org/r', 'path': 'f',
         'commit': 'b' * 40, 'lang': 'py', 'content': 'NEW'},
    ])
    pipeline.run(rd.from_arrow(log))

    from filters_ray.sources.synth import LANGS
    pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])

    table = pipeline.final_table()
    assert table.num_rows == 1
    content = table.column('content').to_pylist()[0]
    content = content if isinstance(content, str) else content.decode()
    assert content == 'NEW'          # lsn 2 wins; redriven lsn 1 lost
    assert table.column('last_lsn').to_pylist() == [2]


@pytest.mark.usefixtures('ray_session')
def test_redrive_crash_between_commit_and_dlq_swap(tmp_path, monkeypatch):
    """ADVICE r1: a crash at the DLQ rename (after the new base's rename,
    before the manifest is written) must lose no dead-letter rows — the
    redrive did not land, the old DLQ stays intact, and re-running the
    redrive converges to the correct state."""
    import os

    import ray.data as rd

    from filters_ray.sources.synth import LANGS

    lake = str(tmp_path / 'lake3')
    pipeline = CDCPipeline(lake, num_partitions=1)
    pipeline.run(rd.from_arrow(log_with_bad_langs()))
    assert pipeline.rejection_counts() == {'not_valid_choice': 10, 'empty': 1}

    dlq_dir = pipeline.store.dlq_dir(0)
    files_before = sorted(
        f for f in os.listdir(dlq_dir) if f.endswith('.parquet')
    )
    assert files_before

    real_replace = os.replace

    def crash_on_dlq_swap(src, dst, *a, **k):
        if 'dlq-' in os.path.basename(str(dst)):
            raise OSError('injected crash at the DLQ rename')
        return real_replace(src, dst, *a, **k)

    monkeypatch.setattr(os, 'replace', crash_on_dlq_swap)
    with pytest.raises(OSError, match='injected crash'):
        redrive_in_process(pipeline, monkeypatch)
    monkeypatch.setattr(os, 'replace', real_replace)

    # Crash window: no manifest was written, so the lake keeps its
    # pre-redrive rows and every pre-crash DLQ file is still on disk and
    # listed — nothing was lost.
    files_mid = sorted(
        f for f in os.listdir(dlq_dir) if f.endswith('.parquet')
    )
    assert files_mid == files_before
    assert sorted(pipeline.store.read_manifest(0).dlq) == files_before
    assert pipeline.final_table().num_rows == 20
    assert pipeline.rejection_counts() == {'not_valid_choice': 10, 'empty': 1}

    # Recovery: re-run the redrive through the normal pipeline path. The
    # pre-crash DLQ still holds the redriven rows, so they apply now.
    redo = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert redo.events_applied == 10
    assert pipeline.final_table().num_rows == 30
    assert pipeline.rejection_counts() == {'empty': 1}
    assert pipeline.dlq_dataset().count() == 1


@pytest.mark.usefixtures('ray_session')
def test_redrive_crash_before_manifest_keeps_dlq(tmp_path, monkeypatch):
    """A redrive lands only with its manifest: a crash before that must
    leave the DLQ the manifest lists exactly as it was. The replacement
    DLQ file the crashed commit renamed is on disk, but unlisted."""
    import os

    import ray.data as rd

    from filters_ray.sources.synth import LANGS
    from filters_ray.state import manifest

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=1)
    # lsn 0 and 10 stay dead (empty repo); lsn 1-9 are redriven.
    log = pa.Table.from_pylist(
        [dict(_event(0), repo='')]
        + [_event(lsn, 'klingon') for lsn in range(1, 10)]
        + [dict(_event(10), repo='')])
    pipeline.run(rd.from_arrow(log))
    dlq_dir = pipeline.store.dlq_dir(0)
    assert os.listdir(dlq_dir) == ['dlq-0-10-1.parquet']
    before = open(os.path.join(dlq_dir, 'dlq-0-10-1.parquet'), 'rb').read()

    real_write = manifest._atomic_write_json

    def crash_on_manifest(path, payload):
        if path.endswith('manifest.json'):
            raise OSError('injected crash before manifest')
        return real_write(path, payload)

    monkeypatch.setattr(manifest, '_atomic_write_json', crash_on_manifest)
    with pytest.raises(OSError, match='injected crash'):
        redrive_in_process(pipeline, monkeypatch)
    monkeypatch.undo()

    assert pipeline.store.read_manifest(0).dlq == ['dlq-0-10-1.parquet']
    assert open(os.path.join(dlq_dir, 'dlq-0-10-1.parquet'), 'rb').read() == before
    assert pipeline.dlq_dataset().count() == 11
    assert pipeline.rejection_counts() == {'not_valid_choice': 9, 'empty': 2}

    redo = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert redo.events_applied == 9
    assert pipeline.rejection_counts() == {'empty': 2}
    assert pipeline.dlq_dataset().count() == 2


@pytest.mark.usefixtures('ray_session')
def test_null_lsn_rejections_of_two_commits_keep_both_dlq_files(tmp_path):
    """Two commits whose DLQ rows all have a null lsn span the same lsn
    range (0-0); the commit version in the DLQ file name keeps the second
    from overwriting the first, so the DLQ holds every rejected row."""
    import os

    import ray.data as rd

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    for path in ('a', 'b'):
        event = pa.Table.from_pylist([_event(None, path=path)])
        pipeline.run(rd.from_arrow(event.cast(event.schema.set(
            0, pa.field('lsn', pa.int64())))))
    assert pipeline.rejection_counts() == {'empty': 2}
    assert sorted(os.listdir(pipeline.store.dlq_dir(0))) == [
        'dlq-0-0-1.parquet', 'dlq-0-0-2.parquet']
    assert pipeline.dlq_dataset().count() == 2
    assert sorted(row['path'] for row in pipeline.dlq_dataset().take_all()) == ['a', 'b']


@pytest.mark.usefixtures('ray_session')
def test_cas_redrive_conflict_leaves_no_staged_dlq(tmp_path, monkeypatch):
    """A redrive that loses its commit race retries; the replacement
    DLQ file staged by the lost attempt must not be left behind."""
    import os

    import ray.data as rd

    from filters_ray.state.manifest import ManifestStore

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=1)
    pipeline.run(rd.from_arrow(log_with_bad_langs()))

    real_commit = ManifestStore.commit_partition
    lost = []

    def lose_first_race(self, manifest, tmp_data, **k):
        if not lost:  # as if another writer committed after our read
            lost.append(True)
            k['expected_version'] += 1
        return real_commit(self, manifest, tmp_data, **k)

    monkeypatch.setattr(ManifestStore, 'commit_partition', lose_first_race)
    redrive_in_process(pipeline, monkeypatch)
    monkeypatch.undo()

    assert lost
    assert pipeline.rejection_counts() == {'empty': 1}
    assert pipeline.final_table().num_rows == 30
    for d in (pipeline.store.partition_dir(0), pipeline.store.dlq_dir(0)):
        assert not [f for f in os.listdir(d) if '.tmp' in f], d


@pytest.mark.usefixtures('ray_session')
def test_redrive_keeps_dlq_committed_right_after(tmp_path, monkeypatch):
    """A redrive must not remove a DLQ file that a second writer commits
    right after it: the DLQ swap is part of the redrive's commit, so a
    later commit's rejected rows survive. The second writer runs once the
    redrive's commit has returned (inside the critical section its
    .casput flock would deadlock)."""
    _redrive_beside_second_writer(tmp_path, monkeypatch, second_first=False)


@pytest.mark.usefixtures('ray_session')
def test_redrive_keeps_dlq_committed_mid_redrive(tmp_path, monkeypatch):
    """A DLQ file that a second writer commits after the redrive listed
    the DLQ but before the redrive commits must be read, not removed
    unread: the commit conflicts, and the retry lists the file."""
    _redrive_beside_second_writer(tmp_path, monkeypatch, second_first=True)


def _redrive_beside_second_writer(tmp_path, monkeypatch, second_first):
    """Redrive a one-partition lake while a second writer commits the
    'martian' rejection at lsn 200 at the redrive's first commit, before
    or after it; that rejection must stay in the DLQ."""
    import ray.data as rd

    from filters_ray.pipelines.cdc import CDCValidateStage, make_upsert_fn
    from filters_ray.state.manifest import ManifestStore

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=1)
    pipeline.run(rd.from_arrow(log_with_bad_langs()))
    martian = CDCValidateStage(num_partitions=1)(pa.Table.from_pylist([{
        'lsn': 200, 'op': 'insert', 'repo': 'org/r', 'path': 'f200',
        'commit': 'a' * 40, 'lang': 'martian', 'content': 'body 200',
    }]))

    real_commit = ManifestStore.commit_partition
    raced = []

    def second_writer_beside_commit(self, manifest, staged=None, **k):
        first = not raced  # the redrive's; the second writer's comes next
        raced.append(True)
        if first and second_first:
            make_upsert_fn(lake)(martian)
        removed = real_commit(self, manifest, staged, **k)
        if first and not second_first:
            make_upsert_fn(lake)(martian)
        return removed

    monkeypatch.setattr(ManifestStore, 'commit_partition',
                        second_writer_beside_commit)
    redrive_in_process(pipeline, monkeypatch)
    monkeypatch.undo()

    assert raced
    assert pipeline.rejection_counts() == {'empty': 1, 'not_valid_choice': 1}
    assert pipeline.dlq_dataset().count() == 2


@pytest.mark.usefixtures('ray_session')
def test_redrive_skips_dlq_rows_above_the_watermark(tmp_path, monkeypatch):
    """An ingest that dies at its manifest write leaves its DLQ file on
    disk with the watermark unmoved. A redrive must not apply those rows
    or move the watermark past them: the batch is delivered again, and
    its clean rows must then land."""
    import os

    import ray.data as rd

    from filters_ray.pipelines.cdc import CDCValidateStage, make_upsert_fn
    from filters_ray.sources.synth import LANGS
    from filters_ray.state import manifest

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(
        [_event(lsn) for lsn in range(10)])))
    batch = pa.Table.from_pylist(
        [_event(lsn) for lsn in range(10, 16)] + [_event(16, 'klingon')])

    real_write = manifest._atomic_write_json

    def crash_on_manifest(path, payload):
        if path.endswith('manifest.json'):
            raise OSError('injected crash before manifest')
        return real_write(path, payload)

    monkeypatch.setattr(manifest, '_atomic_write_json', crash_on_manifest)
    with pytest.raises(OSError, match='injected crash'):
        make_upsert_fn(pipeline.lake_root)(CDCValidateStage(num_partitions=1)(batch))
    monkeypatch.undo()
    assert os.listdir(pipeline.store.dlq_dir(0)) == ['dlq-16-16-2.parquet']
    assert pipeline.store.high_watermark(0) == 9
    # The file is crash debris: no manifest lists it, so no reader sees it.
    assert pipeline.dlq_dataset().count() == 0

    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert (redrive.events_applied, redrive.events_skipped) == (0, 0)
    assert pipeline.store.high_watermark(0) == 9
    assert pipeline.dlq_dataset().count() == 0

    pipeline.run(rd.from_arrow(batch))
    assert pipeline.final_table().column('path').to_pylist() == sorted(
        f'f{lsn}' for lsn in range(16))
    assert pipeline.rejection_counts() == {'not_valid_choice': 1}
    assert pipeline.dlq_dataset().count() == 1


@pytest.mark.usefixtures('ray_session')
def test_redrive_builds_no_ray_data_plan(tmp_path, monkeypatch):
    """A redrive commits per partition, without the ingest's exchange."""
    import ray.data as rd

    from filters_ray.sources.synth import LANGS

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4)
    pipeline.run(rd.from_arrow(log_with_bad_langs()))

    def no_plan(*args, **kwargs):
        raise AssertionError('replay_dlq built a Ray Data exchange')

    monkeypatch.setattr(rd.Dataset, 'groupby', no_plan)
    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    monkeypatch.undo()
    assert redrive.events_applied == 10
    assert pipeline.rejection_counts() == {'empty': 1}


@pytest.mark.usefixtures('ray_session')
def test_run_after_validating_in_process(tmp_path):
    """Validating in the calling process must not poison its later runs:
    the validate callable shipped to tasks carries no compiled validator."""
    import ray.data as rd

    from filters_ray.pipelines.cdc import _make_validate_fn

    log = log_with_bad_langs()
    _make_validate_fn(4, None, True)(log)
    report = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4).run(
        rd.from_arrow(log))
    assert report.rejected_by_code == {'not_valid_choice': 10, 'empty': 1}


def _event(lsn, lang='py', **extra) -> dict:
    return {'lsn': lsn, 'op': 'insert', 'repo': 'org/r', 'path': f'f{lsn}',
            'commit': 'a' * 40, 'lang': lang, 'content': f'body {lsn}',
            **extra}


def _with_extra(name: str, values: list, type_: pa.DataType) -> pa.Table:
    """The two-event log (lsn 0 clean, lsn 1 rejected for its lang) with
    an extra column of ``type_``."""
    return pa.Table.from_pylist([_event(0), _event(1, 'klingon')]).append_column(
        name, pa.array(values, type=type_))


_SEEN = datetime.datetime(2026, 1, 2, 3, 4, 5, tzinfo=datetime.timezone.utc)

# Each log has one clean event (lsn 0) and one event rejected for its
# lang (lsn 1 or "3"); the redrive widens the langs. Each case carries a
# column whose type a per-row JSON detour through the DLQ would lose.
# The last field says whether the DLQ file needs the ``ARROW:schema``
# footer: only for types Parquet's own schema cannot carry.
_TYPED_CASES = {
    # Non-UTF-8 bytes must stay non-UTF-8, so the row stays dead.
    'binary_content': (
        pa.Table.from_pylist(
            [_event(0, content=b'ok'),
             _event(1, lang='klingon', content=b'\xff\xfeok')],
            schema=pa.schema([('lsn', pa.int64())] + [
                (c, pa.string()) for c in ('op', 'repo', 'path', 'commit', 'lang')
            ] + [('content', pa.binary())]),
        ),
        0, {'wrong_encoding': 1, 'empty': 1}, 'f1', None, False,
    ),
    # An int64 extra column comes back as int64, not as a string.
    'int64_extra_column': (
        pa.Table.from_pylist([_event(0, stars=5), _event(1, 'klingon', stars=7)]),
        1, {}, 'f1', {'stars': 7, 'last_lsn': 1}, False,
    ),
    # A string lsn the Int chain accepts keeps its value.
    'string_lsn': (
        pa.Table.from_pylist([
            dict(_event(0), lsn='0'),
            dict(_event(3, 'klingon'), lsn='3'),
        ]),
        1, {}, 'f3', {'last_lsn': 3, 'lang': 'klingon'}, False,
    ),
    # Parquet alone reads large_string back as string.
    'large_string_extra_column': (
        _with_extra('note', ['a', 'b'], pa.large_string()),
        1, {}, 'f1', {'note': 'b', 'last_lsn': 1}, True,
    ),
    # Parquet alone reads a zoned timestamp back in UTC.
    'zoned_timestamp_extra_column': (
        _with_extra('seen', [_SEEN, _SEEN], pa.timestamp('us', tz='Asia/Tokyo')),
        1, {}, 'f1', {'seen': _SEEN, 'last_lsn': 1}, True,
    ),
}


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('case', sorted(_TYPED_CASES))
def test_redrive_keeps_input_types(tmp_path, case):
    import ray.data as rd

    from filters_ray.sources.synth import LANGS

    log, applied, counts, path, expect, footer = _TYPED_CASES[case]
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    pipeline.run(rd.from_arrow(log))
    (dlq_name,) = pipeline.store.read_manifest(0).dlq
    dlq_file = pipeline.store.dlq_path(0, dlq_name)
    assert (b'ARROW:schema' in (pq.read_metadata(dlq_file).metadata or {})) == footer
    dlq = pipeline.dlq_dataset()
    assert dlq.schema().base_schema == log.schema
    assert dlq.take_all() == log.slice(1).to_pylist()

    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert redrive.events_applied == applied
    assert pipeline.rejection_counts() == counts
    assert pipeline.dlq_dataset().count() == 1 - applied
    row = pipeline.lookup('org/r', path)
    if expect is None:
        assert row is None
    else:
        assert {k: row[k] for k in expect} == expect
        lake = pipeline.final_table().schema
        for k in set(expect) & set(log.column_names) - {'lsn'}:
            assert lake.field(k).type == log.schema.field(k).type, k


@pytest.mark.usefixtures('ray_session')
def test_dlq_file_with_off_plan_types(tmp_path):
    """A DLQ file holds events as delivered, so a column can arrive with a
    type its storage-plan entry does not fit: ``repo`` as int64 (the plan
    splits ``repo`` as a byte array) and ``lsn`` as a string. The writer
    skips those entries, so the file is written (``repo`` delta-packed
    as an integer, ``lsn`` by the distinct-count rule), and the redrive
    rewrites the row that stays dead as delivered. The chain's Unicode
    accepts the integer repo, so the rows that redrive lands hold it as
    the string ``'7'``."""
    import ray.data as rd

    from filters_ray.sources.synth import LANGS

    log = pa.Table.from_pylist([
        dict(_event(0, 'klingon'), repo=7, lsn='0'),
        dict(_event(1, 'klingon'), repo=7, lsn='1'),
        dict(_event(2, 'klingon'), repo=7, lsn='2', commit='not-a-sha'),
    ])
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    assert pipeline.run(rd.from_arrow(log)).events_applied == 0

    def dlq_encodings() -> dict:
        (name,) = pipeline.store.read_manifest(0).dlq
        meta = pq.read_metadata(pipeline.store.dlq_path(0, name))
        chunks = (meta.row_group(0).column(c) for c in range(meta.num_columns))
        return {c.path_in_schema: c.encodings for c in chunks}

    encodings = dlq_encodings()
    assert 'DELTA_BINARY_PACKED' in encodings['repo']
    assert 'DELTA_LENGTH_BYTE_ARRAY' in encodings['lsn']
    assert pipeline.dlq_dataset().schema().base_schema == log.schema

    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert redrive.events_applied == 2
    assert pipeline.lookup('7', 'f1')['last_lsn'] == 1
    dlq = pipeline.dlq_dataset()
    assert dlq.schema().base_schema == log.schema
    assert dlq.take_all() == log.slice(2).to_pylist()
    assert dlq_encodings() == encodings


@pytest.mark.usefixtures('ray_session')
def test_dlq_schema_widens_across_commits(tmp_path):
    """A column that first appears in a later run's DLQ file is read for
    every DLQ row (null on the earlier rows), and redrive lands it."""
    import ray.data as rd

    from filters_ray.sources.synth import LANGS

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(
        [_event(0), _event(1, 'klingon')])))
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(
        [_event(10, branch='main'), _event(11, 'klingon', branch='dev')])))

    dlq = pipeline.dlq_dataset().to_pandas().sort_values('lsn')
    assert dlq['lsn'].tolist() == [1, 11]
    assert dlq['branch'].tolist() == [None, 'dev']
    assert '_errors' not in dlq.columns

    redrive = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    assert redrive.events_applied == 2
    assert pipeline.lookup('org/r', 'f11')['branch'] == 'dev'
    assert pipeline.lookup('org/r', 'f1')['branch'] is None
    assert pipeline.dlq_dataset().count() == 0


@pytest.mark.usefixtures('ray_session')
@pytest.mark.xfail(strict=True, reason=(
    'a redrive merges a DLQ event against a base that no longer holds '
    'the tombstone of its newer delete, so the deleted key comes back'))
def test_redrive_does_not_resurrect_a_key_deleted_later(tmp_path):
    """lsn 1 inserts K with a lang the chain rejects (DLQ), lsn 2 deletes
    K, lsn 3 inserts another key; with compact_every=1 the compaction at
    lsn 3 drops K's tombstone from the base. A redrive that makes lsn 1
    valid must still leave K deleted, as the oracle and the lake's own
    history say."""
    import ray.data as rd

    from filters_ray.sources.oracle import final_state_digests, replay_oracle
    from filters_ray.sources.synth import LANGS

    events = [
        {'lsn': 1, 'op': 'insert', 'repo': 'org/r', 'path': 'K',
         'commit': 'a' * 40, 'lang': 'klingon', 'content': 'old'},
        {'lsn': 2, 'op': 'delete', 'repo': 'org/r', 'path': 'K',
         'commit': 'b' * 40, 'lang': 'py', 'content': ''},
        {'lsn': 3, 'op': 'insert', 'repo': 'org/r', 'path': 'J',
         'commit': 'c' * 40, 'lang': 'py', 'content': 'j'},
    ]
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1,
                           compact_every=1, retain_history=True)
    for event in events:
        pipeline.run(rd.from_arrow(pa.Table.from_pylist([event])))
    langs = list(LANGS) + ['klingon']
    assert pipeline.replay_dlq(langs=langs).events_applied == 1

    final = pipeline.final_table()
    assert final_state_digests(final) == replay_oracle(events, langs).sha256_by_key()
    assert final.column('path').to_pylist() == (
        pipeline.table_as_of(3).column('path').to_pylist())
