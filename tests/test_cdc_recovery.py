"""Crash/retry recovery: a lost partition commit is rebuilt by replay.

Simulates a task crash between data write and manifest commit (the only
dangerous window) by deleting one partition's outputs after a successful
run, then replaying the full log: only the damaged partition re-applies
events, and the final state equals the oracle.
"""

from __future__ import annotations

import os
import shutil

import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events


@pytest.mark.usefixtures('ray_session')
def test_lost_partition_rebuilt_by_replay(tmp_path):
    import ray.data as rd

    cfg = SynthConfig(n_keys=80, n_events=600, n_repos=8, seed=13)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=8)
    pipeline.run(rd.from_arrow(log))

    # Simulate a crashed partition: wipe its data + manifest + DLQ (as if
    # the task died before its atomic commits).
    victim = 3
    lost = pipeline.store.read_manifest(victim)
    if lost is not None and lost.base:
        os.remove(pipeline.store.delta_path(victim, lost.base))
    if os.path.exists(pipeline.store.manifest_path(victim)):
        os.remove(pipeline.store.manifest_path(victim))
    shutil.rmtree(pipeline.store.dlq_dir(victim),
                  ignore_errors=True)

    # Replay the full log (the retry path): untouched partitions drop
    # everything via their watermark; the victim rebuilds from scratch.
    pipeline2 = CDCPipeline(lake, num_partitions=8)
    applied_before = {m['partition_id']: m['events_applied']
                      for m in pipeline2.lineage()}
    report = pipeline2.run(rd.from_arrow(log))

    assert final_state_digests(pipeline2.final_table()) == oracle.sha256_by_key()
    assert pipeline2.rejection_counts() == oracle.rejected_by_code
    # Only the victim partition re-applied anything: the manifests'
    # lifetime counters moved for no other partition.
    applied_parts = [
        m for m in pipeline2.lineage()
        if m['events_applied'] > applied_before.get(m['partition_id'], 0)
    ]
    assert {m['partition_id'] for m in applied_parts} <= {victim}


@pytest.mark.usefixtures('ray_session')
def test_tmp_files_are_ignored(tmp_path):
    """Leftover tmp files from a crashed write never corrupt the lake."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=40, n_events=200, n_repos=4, seed=17,
                      invalid_rate=0.0, duplicate_rate=0.0)
    log = make_events(cfg)

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4)

    # Plant a fake orphaned tmp file before the run.
    os.makedirs(pipeline.store.partition_dir(0), exist_ok=True)
    orphan = os.path.join(
        pipeline.store.partition_dir(0), 'data.parquet.tmp-deadbeef',
    )
    with open(orphan, 'wb') as fh:
        fh.write(b'garbage')

    pipeline.run(rd.from_arrow(log))
    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('seed', [77, 79])
def test_two_concurrent_writers_no_lost_updates(tmp_path, seed):
    """Optimistic-commit guard (VERDICT r3 #5, r4 #3): two simultaneous
    ``CDCPipeline.run``s of the same delivered log into one lake (the
    competing-consumer / redundant-delivery shape) must behave like
    exactly-once: every valid event applied exactly ONCE across the two
    writers, final state equal to the single-writer oracle, and no torn
    manifest (every listed delta file exists). Read-merge runs lock-free
    and each commit is conditional on the ``commit_version`` read at
    merge start, so a lost race re-reads and re-merges instead of
    overwriting the winner's manifest (which orphaned committed deltas
    before the version check). This is the protocol that survives shared
    object storage, where the conditional put is S3 If-Match / GCS
    generation."""
    import threading

    import ray.data as rd

    cfg = SynthConfig(n_keys=120, n_events=1500, n_repos=10, seed=seed)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())
    # Single-writer reference: the applied count the two writers must
    # jointly reproduce exactly (it exceeds the oracle's unique-event
    # count when the log carries in-batch duplicate deliveries — those
    # are applied-then-LWW'd, not skipped).
    ref = CDCPipeline(str(tmp_path / 'ref'), num_partitions=8,
                      compact_every=3).run(rd.from_arrow(log))
    n_valid = ref.events_applied

    lake = str(tmp_path / 'lake')
    reports, errors = {}, []

    def writer(tag):
        try:
            pipeline = CDCPipeline(lake, num_partitions=8, compact_every=3)
            reports[tag] = pipeline.run(rd.from_arrow(log))
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append((tag, exc))

    threads = [threading.Thread(target=writer, args=(t,)) for t in 'AB']
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors

    pipeline = CDCPipeline(lake, num_partitions=8)
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code
    # Exactly-once across BOTH writers: whoever committed a partition
    # first applied its events; the other's were watermark-dropped.
    total_applied = sum(r.events_applied for r in reports.values())
    assert total_applied == n_valid
    # No torn manifests: every listed delta/history file exists on disk,
    # and commit versions advanced monotonically per partition.
    for pid, m in pipeline.store.all_manifests().items():
        for name in m.deltas:
            assert os.path.exists(pipeline.store.delta_path(pid, name))
        assert m.commit_version >= 1


def test_cas_compaction_keeps_delta_committed_right_after(tmp_path, monkeypatch):
    """A compaction must not reclaim a delta that a second writer
    commits right after it: files leave a partition only inside the
    commit critical section, judged by the manifest being committed.
    The second writer runs once the compaction's commit has returned
    (inside the critical section its .casput flock would deadlock)."""
    import pyarrow as pa

    from filters_ray.pipelines.cdc import CDCValidateStage, make_upsert_fn
    from filters_ray.state.manifest import ManifestStore

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=1, compact_every=2)
    upsert = make_upsert_fn(lake, compact_every=2)
    validate = CDCValidateStage(num_partitions=1)

    def batch(lo: int):
        return validate(pa.Table.from_pylist([
            {'lsn': lsn, 'op': 'insert', 'repo': 'org/r', 'path': f'f{lsn}',
             'commit': 'a' * 40, 'lang': 'py', 'content': f'body {lsn}'}
            for lsn in range(lo, lo + 5)
        ]))

    upsert(batch(0))   # bootstrap: the base
    upsert(batch(5))   # one delta
    real_commit = ManifestStore.commit_partition
    raced = []

    def commit_then_second_writer(self, manifest, staged=None, **k):
        removed = real_commit(self, manifest, staged, **k)
        if manifest.hwm_lsn == 14 and not raced:  # the compaction landed
            raced.append(True)
            upsert(batch(15))
        return removed

    monkeypatch.setattr(ManifestStore, 'commit_partition',
                        commit_then_second_writer)
    upsert(batch(10))  # compaction (compact_every=2), then the race
    monkeypatch.undo()

    assert raced
    m = pipeline.store.read_manifest(0)
    assert m.deltas == ['delta-15-19.parquet']
    for name in m.deltas:
        assert os.path.exists(pipeline.store.delta_path(0, name)), name
    assert pipeline.final_table().num_rows == 20


@pytest.mark.usefixtures('ray_session')
def test_writer_killed_mid_commit_releases_lock(tmp_path):
    """Chaos test (VERDICT r4 #9): flock releases on process DEATH, not
    just clean exit. A subprocess grabs partition 0's commit lock (the
    conditional put's ``.casput``) as if mid-commit (staged tmp data + an
    unlisted delta on disk) and SIGKILLs itself; a concurrent real writer
    blocked on that lock must then acquire it, complete, and leave the
    lake exactly equal to the oracle — the dead writer's partial commit
    invisible."""
    import signal
    import subprocess
    import sys
    import time

    import ray.data as rd

    cfg = SynthConfig(n_keys=60, n_events=400, n_repos=6, seed=83)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4)
    ready = str(tmp_path / 'holder_ready')

    # The doomed holder: lock partition 0, stage a partial commit, wait
    # to be killed. Runs `python -c` so SIGKILL kills the real lock
    # owner (threads can't model death-releases-flock).
    holder_src = (
        'import os, time\n'
        'from filters_ray.state.manifest import ManifestStore\n'
        f'store = ManifestStore({lake!r})\n'
        'lock = store._conditional_put(0)\n'
        'lock.__enter__()\n'
        # Partial commit debris: staged tmp + an unlisted delta file.
        'p0 = store.partition_dir(0)\n'
        "open(os.path.join(p0, 'data.parquet.tmp-dead'), 'wb').write(b'x')\n"
        "open(store.delta_path(0, 'delta-900000-900001.parquet'), 'wb')"
        ".write(b'torn')\n"
        f'with open({ready!r}, "w") as fh:\n'
        '    fh.write(str(os.getpid()))\n'
        'time.sleep(60)\n'  # killed long before this returns
    )
    holder = subprocess.Popen(
        [sys.executable, '-c', holder_src],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 30
        while not os.path.exists(ready):
            assert time.time() < deadline, 'lock holder never came up'
            assert holder.poll() is None, 'lock holder died early'
            time.sleep(0.05)

        # Real writer: must block on partition 0 until the holder dies.
        import threading

        result, errors = {}, []

        def writer():
            try:
                result['report'] = pipeline.run(rd.from_arrow(log))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        # Give the writer time to reach (and block on) the lock, then
        # kill the holder mid-"commit".
        time.sleep(1.0)
        assert t.is_alive(), 'writer finished while the lock was held'
        holder.send_signal(signal.SIGKILL)
        t.join(timeout=120)
        assert not t.is_alive(), 'writer never acquired the dead lock'
        assert not errors, errors
    finally:
        if holder.poll() is None:
            holder.kill()
        holder.wait()

    # Survivor committed a consistent lake; the dead writer's staged
    # tmp and unlisted delta are invisible to readers.
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_vacuum_concurrent_with_live_ingest(tmp_path):
    """Maintenance plane vs data plane (VERDICT r4 #4): vacuum_history
    loops concurrently with a live micro-batch ingest into the same
    retained-history lake. Both sides commit optimistically, so they
    interleave per partition; afterwards the live table must equal
    the oracle (no lost updates), rejection counts must be exact, and
    ``table_as_of(hwm)`` must reproduce the live table row-for-row from
    the (vacuum-checkpointed) history."""
    import threading
    import time

    import pyarrow as pa
    import ray.data as rd

    cfg = SynthConfig(n_keys=100, n_events=1200, n_repos=8, seed=89)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())

    # LSN-ordered micro-batches (prefix boundaries).
    log_sorted = log.sort_by([('lsn', 'ascending')])
    n_chunks = 6
    per = log_sorted.num_rows // n_chunks
    chunks = [
        log_sorted.slice(
            i * per,
            per if i < n_chunks - 1 else log_sorted.num_rows - i * per,
        )
        for i in range(n_chunks)
    ]

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=8, compact_every=2,
                           retain_history=True)

    boundaries: list = []   # completed-chunk max LSNs (append-only)
    done = threading.Event()
    vacuum_calls, vacuum_removed, errors = [0], [0], []

    def vacuumer():
        # Hammer the maintenance plane: vacuum everything below the
        # second-newest completed boundary (keeps ≥1 full window live,
        # the soak cadence) for the whole ingest.
        maint = CDCPipeline(lake, num_partitions=8, retain_history=True)
        try:
            while not done.is_set():
                if len(boundaries) >= 2:
                    vacuum_removed[0] += maint.vacuum_history(boundaries[-2])
                    vacuum_calls[0] += 1
                time.sleep(0.02)
        except Exception as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    vt = threading.Thread(target=vacuumer)
    vt.start()
    try:
        import pyarrow.compute as pc

        for chunk in chunks:
            pipeline.run(rd.from_arrow(chunk))
            boundaries.append(pc.max(chunk.column('lsn')).as_py())
    finally:
        done.set()
        vt.join(timeout=60)
    assert not vt.is_alive()
    assert not errors, errors
    assert vacuum_calls[0] > 0, 'vacuum never overlapped the ingest'

    # Data plane: nothing lost.
    live = pipeline.final_table()
    assert final_state_digests(live) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code
    # Time travel at the high watermark reproduces the live table
    # exactly from the vacuum-checkpointed history.
    hwm = max(m.hwm_lsn for m in pipeline.store.all_manifests().values())
    as_of = pipeline.table_as_of(hwm)
    assert final_state_digests(as_of) == final_state_digests(live)
    # Vacuum floor respected: as-of below the floor refuses.
    floor = max(
        m.history_floor_lsn for m in pipeline.store.all_manifests().values()
    )
    if floor >= 0:
        with pytest.raises(ValueError):
            pipeline.table_as_of(floor - 1)


class _Crash(Exception):
    """An injected writer death (not an error any commit loop retries)."""


def _crash_log():
    """30 events over 12 keys of one partition, cut by lsn into three
    commits of 10: every key is written two or three times, lsn 25
    deletes one, every seventh event has a lang the default chain rejects
    (a redrive with 'klingon' legal applies it), and lsn 20 has an empty
    repo, so it stays dead."""
    import pyarrow as pa

    return pa.Table.from_pylist([
        {'lsn': lsn, 'op': 'delete' if lsn == 25 else 'insert' if lsn < 12 else 'update',
         'repo': '' if lsn == 20 else 'org/r', 'path': f'f{lsn % 12}',
         'commit': 'a' * 40, 'lang': 'klingon' if lsn % 7 == 0 else 'py',
         'content': f'body {lsn}'}
        for lsn in range(30)])


# Per writer: the commits that build the lake before it (lsn batches of
# _crash_log), and the commits its oracle covers.
_CRASH_WRITERS = {
    'delta': ((0,), (0, 1)),          # ingest of batch 1: a delta with a DLQ row
    'compaction': ((0, 1), (0, 1, 2)),  # ingest of batch 2: the third file compacts
    'redrive': ((0, 1, 2), (0, 1, 2)),
    'vacuum': ((0, 1, 2), (0, 1, 2)),
}


def _crash_lake(root: str, writer: str, monkeypatch):
    """A one-partition retained-history lake (compact_every=2) with the
    writer's setup committed, and the writer's call, run in-process."""
    import ray

    from filters_ray.pipelines.cdc import CDCValidateStage, make_upsert_fn

    from test_dlq_redrive import redrive_in_process

    log = _crash_log()
    pipeline = CDCPipeline(root, num_partitions=1, compact_every=2,
                           retain_history=True)
    upsert = make_upsert_fn(root, compact_every=2, retain_history=True)
    validate = CDCValidateStage(num_partitions=1)

    def ingest(i: int):
        return upsert(validate(log.slice(10 * i, 10)))

    for i in _CRASH_WRITERS[writer][0]:
        ingest(i)

    def call():
        if writer == 'delta':
            return ingest(1)
        if writer == 'compaction':
            return ingest(2)
        if writer == 'redrive':
            return redrive_in_process(pipeline, monkeypatch)
        with monkeypatch.context() as m:  # vacuum's per-partition commits inline
            m.setattr(ray, 'is_initialized', lambda: False)
            return pipeline.vacuum_history(20)

    return pipeline, call


def _lake_state(pipeline) -> dict:
    """What readers see: the live table, the rejection counts, the rows
    of the manifest-listed DLQ and the change feed from the vacuum floor."""
    floor = max(m.history_floor_lsn for m in pipeline.store.all_manifests().values())
    return {
        'table': pipeline.final_table().to_pylist(),
        'rejections': pipeline.rejection_counts(),
        'dlq': sorted(pipeline.dlq_dataset().take_all(), key=lambda r: r['lsn']),
        'changes': pipeline.changes(since_lsn=floor).to_pylist(),
    }


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('point', ['staged', 'renamed', 'published'])
@pytest.mark.parametrize('writer', sorted(_CRASH_WRITERS))
def test_crash_point_matrix(tmp_path, monkeypatch, writer, point):
    """Every writer dies at every step of its commit: (staged) before the
    commit lock, (renamed) after the renames and before ``manifest.json``,
    (published) after ``manifest.json`` and before unlisted files go.
    Readers then see the last committed state: the old one until the
    manifest is written, the new one after, and the failed attempt left
    no tmp file. Re-running the call and a sweep converge to the oracle
    and leave only manifest-named files."""
    from filters_ray.sources.synth import LANGS
    from filters_ray.state import manifest
    from filters_ray.state.manifest import ManifestStore

    reference, call = _crash_lake(str(tmp_path / 'reference'), writer, monkeypatch)
    call()
    committed = _lake_state(reference)
    pipeline, call = _crash_lake(str(tmp_path / 'lake'), writer, monkeypatch)
    before = _lake_state(pipeline)
    assert committed != before

    def die(*args, **kwargs):
        raise _Crash(point)

    real_write = manifest._atomic_write_json

    def die_at_manifest(path, payload):
        if path.endswith('manifest.json'):
            raise _Crash(point)
        return real_write(path, payload)

    with monkeypatch.context() as m:
        if point == 'staged':
            m.setattr(ManifestStore, '_conditional_put', die)
        elif point == 'renamed':
            m.setattr(manifest, '_atomic_write_json', die_at_manifest)
        else:
            m.setattr(ManifestStore, '_remove_unlisted', die)
        with pytest.raises(_Crash):
            call()
    assert _lake_state(pipeline) == (committed if point == 'published' else before)
    store = pipeline.store
    assert [f for d in (store.partition_dir(0), store.dlq_dir(0))
            for f in os.listdir(d) if '.tmp-' in f] == []

    call()
    pipeline.store.sweep(0)
    assert _lake_state(pipeline) == committed
    log = _crash_log()
    events = [row for i in _CRASH_WRITERS[writer][1]
              for row in log.slice(10 * i, 10).to_pylist()]
    oracle = replay_oracle(
        events, langs=list(LANGS) + ['klingon'] if writer == 'redrive' else None)
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code
    m = pipeline.store.read_manifest(0)
    for directory, named in (
            (pipeline.store.partition_dir(0), {m.base, *m.deltas, *m.history} - {None}),
            (pipeline.store.dlq_dir(0), set(m.dlq))):
        assert {f for f in os.listdir(directory) if f.endswith('.parquet')} == named
