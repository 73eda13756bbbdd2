"""Shared DLQ files: a CPU share of a batch commit writes the
rejections of the partitions of one DLQ block (``_DLQ_BLOCKS`` in
``pipelines/cdc.py``) as one file, which its first partition with
rejections (the owner) publishes and the others list as
``part=<owner>/<name>``.

Readers must see exactly what a lake of one DLQ file per partition
shows, whatever step of the share's commits a writer dies at, loses a
race at, or is overtaken by a redrive at; and every DLQ file on disk
must be one a manifest lists once the lake-level sweep has run.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from filters_ray.pipelines.cdc import (
    PART_COLUMN,
    CDCPipeline,
    _commit_batch,
    _make_validate_fn,
    key_partition,
    make_upsert_fn,
)
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import LANGS, SynthConfig, make_events
from filters_ray.state import manifest
from filters_ray.state.manifest import ManifestStore, shared_dlq_span

from test_cdc_task_shape import _inline, lake_files, lazy, write_files

# A 16-partition lake has DLQ blocks of two partitions: 2 and 3 share one.
PARTITIONS = 16
OWNER, OTHER = 2, 3


def _keys(pid: int, n: int) -> list:
    """``n`` ``(repo, path)`` keys that hash to partition ``pid``."""
    paths = [f'f{i}' for i in range(400)]
    parts = key_partition(pa.array(['org/r'] * len(paths)), pa.array(paths), PARTITIONS)
    return [('org/r', p) for p, part in zip(paths, parts) if part == pid][:n]


def _events(pids, lsn0: int = 100) -> pa.Table:
    """Per partition of ``pids``: three valid inserts and two events
    whose lang the default chain rejects (a redrive with 'klingon'
    legal applies them), lsns from ``lsn0`` on."""
    rows, lsn = [], lsn0
    for pid in pids:
        for i, (repo, path) in enumerate(_keys(pid, 5)):
            rows.append({'lsn': lsn, 'op': 'insert', 'repo': repo, 'path': path,
                         'commit': 'a' * 40, 'lang': 'klingon' if i >= 3 else 'py',
                         'content': f'body {lsn}'})
            lsn += 1
    return pa.Table.from_pylist(rows)


def _commit(lake: str, path: str) -> list:
    """Commit the events file ``path`` as one batch commit on one CPU: one
    share, in this process."""
    return _inline(_commit_batch, _make_validate_fn(PARTITIONS, None, True),
                   make_upsert_fn(lake), [path])[0]


def _state(pipeline: CDCPipeline) -> dict:
    """What readers see: the live table, the rejection counts and the
    rows of the manifest-listed DLQ."""
    dlq = pipeline.dlq_dataset()
    assert PART_COLUMN not in dlq.schema().names
    return {
        'table': pipeline.final_table().to_pylist(),
        'rejections': pipeline.rejection_counts(),
        'dlq': sorted(dlq.take_all(), key=lambda r: r['lsn']),
    }


def _dlq_on_disk(lake: str) -> dict:
    """Every DLQ file on disk, by path: its rows."""
    return {os.path.join(d, f): pq.read_metadata(os.path.join(d, f)).num_rows
            for d, _, names in os.walk(os.path.join(lake, '_dlq'))
            for f in names if f.endswith('.parquet')}


def _listed(store: ManifestStore) -> set:
    return {store.dlq_path(pid, name)
            for pid, m in store.all_manifests().items() for name in m.dlq}


def _swept(store: ManifestStore) -> None:
    """Every partition's sweep, then the lake-level DLQ sweep; after it
    every DLQ file on disk is one a manifest lists."""
    for pid in range(PARTITIONS):
        store.sweep(pid)
    store.sweep_dlq()
    assert set(_dlq_on_disk(store.root)) == _listed(store)


def _of(state: dict, pids: set, store: ManifestStore) -> dict:
    """``state`` cut down to the partitions ``pids``: their rows, their
    manifests' rejection counts and their DLQ rows."""
    def mine(rows):
        if not rows:
            return rows
        parts = key_partition(pa.array([r['repo'] for r in rows]),
                              pa.array([r['path'] for r in rows]), PARTITIONS)
        return [r for r, p in zip(rows, parts) if p in pids]

    counts: dict = {}
    for pid in sorted(pids):
        for code, n in store.read_manifest(pid).rejected_by_code.items():
            counts[code] = counts.get(code, 0) + n
    return {'table': mine(state['table']), 'rejections': counts,
            'dlq': mine(state['dlq'])}


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('point', ['staged', 'renamed', 'published'])
@pytest.mark.parametrize('victim', [OWNER, OTHER], ids=['owner', 'non_owner'])
def test_shared_dlq_crash_point_matrix(tmp_path, monkeypatch, victim, point):
    """The owner or the other partition of a shared DLQ file dies at
    each step of its commit: (staged) before the commit lock, (renamed)
    after the renames and before ``manifest.json``, (published) after
    ``manifest.json`` and before unlisted files go. Readers then see the
    partitions committed so far, and of the shared file only the rows of
    partitions that list it; the sweeps leave only listed DLQ files, and
    re-running the commit converges to the uncrashed lake."""
    events = _events([0, OWNER, OTHER])
    path = str(tmp_path / 'events.parquet')
    pq.write_table(events, path)
    reference = CDCPipeline(str(tmp_path / 'reference'), num_partitions=PARTITIONS)
    _commit(reference.lake_root, path)
    committed = _state(reference)
    shared = [p for p in _dlq_on_disk(reference.lake_root)
              if shared_dlq_span(os.path.basename(p))]
    assert [shared_dlq_span(os.path.basename(p)) for p in shared] == [(OWNER, OTHER)]
    assert reference.store.read_manifest(OTHER).dlq == [
        f'part={OWNER}/{os.path.basename(shared[0])}']

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=PARTITIONS)
    store = pipeline.store
    real_put, real_write = ManifestStore._conditional_put, manifest._atomic_write_json
    real_remove = ManifestStore._remove_unlisted

    class Crash(Exception):
        pass

    def put(self, pid):
        if pid == victim:
            raise Crash(point)
        return real_put(self, pid)

    def write(target, payload):
        if target == store.manifest_path(victim):
            raise Crash(point)
        return real_write(target, payload)

    def remove(self, m):
        if m.partition_id == victim:
            raise Crash(point)
        return real_remove(self, m)

    with monkeypatch.context() as m:
        if point == 'staged':
            m.setattr(ManifestStore, '_conditional_put', put)
        elif point == 'renamed':
            m.setattr(manifest, '_atomic_write_json', write)
        else:
            m.setattr(ManifestStore, '_remove_unlisted', remove)
        with pytest.raises(Crash):
            _commit(pipeline.lake_root, path)

    done = {pid for pid in (0, OWNER, OTHER)
            if pid < victim or (pid == victim and point == 'published')}
    assert _state(pipeline) == _of(committed, done, reference.store)
    assert [f for pid in range(PARTITIONS)
            for d in (store.partition_dir(pid), store.dlq_dir(pid)) if os.path.isdir(d)
            for f in os.listdir(d) if '.tmp-' in f] == []
    _swept(store)

    _commit(pipeline.lake_root, path)
    _swept(store)
    assert _state(pipeline) == committed
    oracle = replay_oracle(events.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_non_owner_that_loses_a_race_retries_alone(tmp_path, monkeypatch):
    """Another writer commits into the shared file's other partition
    between the share's accounting and that partition's commit: the
    commit conflicts, and its retry re-reads the manifest and writes its
    own DLQ file. The shared file keeps the rows it holds for that
    partition, which no reader counts: the lake equals one committed
    without the race."""
    early = _events([OTHER], lsn0=0).slice(0, 1)
    events = _events([OWNER, OTHER])
    paths = {}
    for name, table in (('early', early), ('events', events)):
        paths[name] = str(tmp_path / f'{name}.parquet')
        pq.write_table(table, paths[name])
    reference = CDCPipeline(str(tmp_path / 'reference'), num_partitions=PARTITIONS)
    _commit(reference.lake_root, paths['early'])
    _commit(reference.lake_root, paths['events'])

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=PARTITIONS)
    real_commit = ManifestStore.commit_partition
    raced = []

    def commit(self, m, staged=None, **kwargs):
        if m.partition_id == OTHER and not raced:
            raced.append(list(m.dlq))
            _commit(pipeline.lake_root, paths['early'])
        return real_commit(self, m, staged, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ManifestStore, 'commit_partition', commit)
        _commit(pipeline.lake_root, paths['events'])

    [[listed]] = raced
    assert listed.startswith(f'part={OWNER}/')
    assert pipeline.store.read_manifest(OWNER).dlq == [listed.split('/')[1]]
    [own] = pipeline.store.read_manifest(OTHER).dlq
    assert shared_dlq_span(own) is None
    shared = pq.read_table(pipeline.store.dlq_path(OTHER, listed))
    assert OTHER in shared.column(PART_COLUMN).to_pylist()
    assert _state(pipeline) == _state(reference)
    oracle = replay_oracle(early.to_pylist() + events.to_pylist())
    assert pipeline.rejection_counts() == oracle.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_owner_redriven_while_its_share_commits(tmp_path, monkeypatch):
    """The owner is redriven right after its commit, before the other
    partition commits: the redrive unlists the shared file and its sweep
    removes it, so the other partition's commit, which would list it,
    conflicts and retries alone. No manifest lists a missing file, and
    the lake equals committing the owner, redriving, then committing the
    other partition."""
    import ray

    events = _events([OWNER, OTHER])
    langs = list(LANGS) + ['klingon']
    path = str(tmp_path / 'events.parquet')
    pq.write_table(events, path)
    reference = CDCPipeline(str(tmp_path / 'reference'), num_partitions=PARTITIONS)
    for pid in (OWNER, OTHER):
        part = str(tmp_path / f'events-{pid}.parquet')
        pq.write_table(_events([OWNER, OTHER]).slice(0 if pid == OWNER else 5, 5), part)
        _commit(reference.lake_root, part)
        if pid == OWNER:
            reference.replay_dlq(langs=langs)

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=PARTITIONS)
    real_commit = ManifestStore.commit_partition
    redriven = []

    def commit(self, m, staged=None, **kwargs):
        removed = real_commit(self, m, staged, **kwargs)
        if m.partition_id == OWNER and not redriven:
            redriven.append(None)  # the redrive's own commits pass through
            redriven[0] = pipeline.replay_dlq(langs=langs)
        return removed

    with monkeypatch.context() as m:
        m.setattr(ray, 'is_initialized', lambda: False)
        m.setattr(ManifestStore, 'commit_partition', commit)
        _commit(pipeline.lake_root, path)

    assert redriven[0].events_applied == 2
    store = pipeline.store
    assert all(os.path.exists(p) for p in _listed(store))
    assert not [p for p in _dlq_on_disk(pipeline.lake_root)
                if shared_dlq_span(os.path.basename(p))]
    [own] = store.read_manifest(OTHER).dlq
    assert shared_dlq_span(own) is None
    _swept(store)
    assert _state(pipeline) == _state(reference)


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('partitions, cpus', [(64, 1), (16, 4)])
def test_shared_dlq_reads_as_one_file_per_partition(tmp_path, partitions, cpus):
    """A log committed as one batch commit on ``cpus`` shares, with
    shared DLQ files, and the same log on the Ray Data plan, which
    writes one DLQ file per partition, show equal DLQ rows, rejection
    counts and live rows; ``lake_report`` and ``tools/lake_bytes.py``
    count each file once; the redrives report alike and leave
    byte-identical lakes, whose DLQ rows on disk are the standing
    ones. (64, 1) is the seed-1 ``bulk_replay`` log at one CPU."""
    import ray

    from perfbench import inputs
    from tools.lake_bytes import file_kinds

    if partitions == 64:
        log = inputs.make_log(1)
    else:
        log = make_events(SynthConfig(n_keys=300, n_events=2400, n_repos=12, seed=61))
    [path] = write_files(log, str(tmp_path / 'in'), 1)
    lakes = {shape: CDCPipeline(str(tmp_path / shape), num_partitions=partitions)
             for shape in ('tasks', 'plan')}
    validate = _make_validate_fn(partitions, None, True)
    def no_task(*args, **kwargs):
        raise AssertionError('a one-CPU commit started a task')

    assert cpus in (1, int(ray.cluster_resources()['CPU']))
    with pytest.MonkeyPatch.context() as m:
        if cpus == 1:  # as without a session: one share, in this process
            m.setattr(ray, 'is_initialized', lambda: False)
            m.setattr(ray, 'remote', no_task)
        _commit_batch(validate, make_upsert_fn(lakes['tasks'].lake_root), [path])
    lakes['plan'].run(lazy(log))

    disk = {shape: _dlq_on_disk(p.lake_root) for shape, p in lakes.items()}
    shared = [p for p in disk['tasks'] if shared_dlq_span(os.path.basename(p))]
    assert shared and len(disk['tasks']) < len(disk['plan'])
    assert not [p for p in disk['plan'] if shared_dlq_span(os.path.basename(p))]
    states = {shape: _state(p) for shape, p in lakes.items()}
    assert states['tasks'] == states['plan']
    for shape, p in lakes.items():
        report = p.lake_report()
        assert report['dlq_files'] == len(disk[shape])
        assert report['dlq_bytes'] == sum(os.path.getsize(f) for f in disk[shape])
        assert sum(disk[shape].values()) == len(states[shape]['dlq'])
        kinds = list(file_kinds(p.lake_root).values())
        assert kinds.count('dlq') == len(disk[shape]) and 'unlisted' not in kinds

    langs = list(LANGS) + ['klingon']
    reports = {shape: p.replay_dlq(langs=langs) for shape, p in lakes.items()}
    assert reports['tasks'] == reports['plan'] and reports['tasks'].events_applied > 0
    for shape, p in lakes.items():
        standing = p.dlq_dataset().count()
        assert sum(_dlq_on_disk(p.lake_root).values()) == standing
        assert reports[shape].events_seen == (
            reports[shape].events_applied + reports[shape].events_skipped + standing)
    a, b = lake_files(lakes['tasks'].lake_root), lake_files(lakes['plan'].lake_root)
    assert sorted(a) == sorted(b)
    assert [k for k in a if a[k] != b[k]] == []
