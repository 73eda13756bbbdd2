"""Change-data-feed + as-of-LSN time travel (retain_history lakes).

Semantics under test:
* ``changes()`` = every committed change row (tombstones included) in an
  LSN window, at commit granularity; LWW over the full feed reproduces
  the live table exactly.
* ``table_as_of(X)`` at a commit boundary == a fresh-lake replay of the
  event prefix ``lsn <= X`` — including across compactions (the history
  files, not the compacted base, are the record).
* retention is pinned at lake creation; non-retaining lakes refuse.
* ``vacuum_history`` bounds the retained window without touching the
  live table.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events


def _lsn_ordered_chunks(log: pa.Table, n_chunks: int):
    """Split by LSN rank (not arrival position) so chunk boundaries are
    clean prefix boundaries — the granularity at which as-of is exact."""
    log = log.sort_by([('lsn', 'ascending')])
    per = log.num_rows // n_chunks
    return [
        log.slice(i * per, per if i < n_chunks - 1 else log.num_rows - i * per)
        for i in range(n_chunks)
    ]


def _snapshot_files(pipeline: CDCPipeline, pid: int) -> set:
    """The ``delta-*.parquet`` names on disk in one partition."""
    return {
        f for f in os.listdir(pipeline.store.partition_dir(pid))
        if f.startswith('delta-') and f.endswith('.parquet')
    }


def _applied_max_lsn(pipeline: CDCPipeline) -> int:
    return max(
        m.hwm_lsn for m in pipeline.store.all_manifests().values()
    )


@pytest.fixture(scope='module')
def history_lake(tmp_path_factory, ray_session):
    """One retained-history lake ingested in 4 micro-batches with
    compact_every=2 (so compaction provably happened), plus the chunk
    list and per-chunk boundary LSNs."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=60, n_events=800, n_repos=6, seed=31)
    log = make_events(cfg)
    chunks = _lsn_ordered_chunks(log, 4)
    lake = str(tmp_path_factory.mktemp('tt') / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=4, compact_every=2,
                           retain_history=True)
    boundaries = []
    for c in chunks:
        pipeline.run(rd.from_arrow(c))
        boundaries.append(_applied_max_lsn(pipeline))
    return pipeline, log, chunks, boundaries


def test_compaction_happened_and_history_retained(history_lake):
    pipeline, log, chunks, _ = history_lake
    manifests = pipeline.store.all_manifests()
    # compact_every=2 over 4 micro-batches ⇒ every partition compacted
    # at least once (delta list shorter than its commit count).
    assert any(len(m.history) > len(m.deltas) for m in manifests.values())
    for pid, m in manifests.items():
        for name in m.history:
            assert os.path.exists(pipeline.store.delta_path(pid, name))


def test_layout_version_1_lake_with_history_refuses(tmp_path):
    """Every lake older than layout version 4 refuses to open, rather
    than show an empty lake: version 1 kept retained history under
    part=<p>/history/, the manifests of versions 1 and 2 name neither
    the base (data.parquet) nor the DLQ files, and the _meta.json of
    versions 1 to 3 records no lake schema."""
    import json

    from filters_ray.state.manifest import ManifestStore

    for version in (1, 2, 3):
        for retain_history in (False, True):
            old = ManifestStore(str(tmp_path / f'v{version}-{retain_history}'))
            # The _meta.json those versions wrote, keys since dropped included.
            with open(old.meta_path(), 'w') as fh:
                json.dump({'key_columns': ['repo', 'path'], 'lsn_column': 'lsn',
                           'num_partitions': 2, 'retain_history': retain_history,
                           'version': version}, fh)
            with pytest.raises(ValueError, match='layout-version-'):
                CDCPipeline(old.root)
            assert old.read_meta().version == version
    fresh = CDCPipeline(str(tmp_path / 'v4'), num_partitions=2,
                        retain_history=True)
    assert fresh.store.read_meta().version == 4


def test_full_feed_lww_reproduces_live_table(history_lake):
    pipeline, *_ = history_lake
    from filters_ray.pipelines.cdc import (
        _drop_tombstones,
        _last_writer_wins,
    )

    feed = pipeline.changes()
    assert feed.num_rows > 0
    assert 'delete' in set(feed.column('op').to_pylist())  # CDF shows deletes
    replayed = _drop_tombstones(_last_writer_wins(feed))
    final = pipeline.final_table()
    assert final_state_digests(replayed) == final_state_digests(final)


def test_changes_window_filters_exactly(history_lake):
    pipeline, _, _, boundaries = history_lake
    lo, hi = boundaries[0], boundaries[2]
    window = pipeline.changes(since_lsn=lo, until_lsn=hi)
    lsns = window.column('last_lsn').to_pylist()
    assert all(lo < v <= hi for v in lsns)
    # Window = full feed filtered to the window (same rows).
    full = pipeline.changes()
    expected = full.filter(
        pc.and_(pc.greater(full.column('last_lsn'), lo),
                pc.less_equal(full.column('last_lsn'), hi)),
    )
    assert window.num_rows == expected.num_rows


def test_as_of_matches_prefix_replay(history_lake, tmp_path):
    import ray.data as rd

    pipeline, log, chunks, boundaries = history_lake
    for i, x in enumerate(boundaries[:3]):
        snap = pipeline.table_as_of(x)
        prefix = log.filter(pc.less_equal(log.column('lsn'), x))
        fresh = CDCPipeline(str(tmp_path / f'prefix-{i}'), num_partitions=4)
        fresh.run(rd.from_arrow(prefix))
        assert final_state_digests(snap) == \
            final_state_digests(fresh.final_table()), f'boundary {i}'


def test_as_of_latest_equals_final_table(history_lake):
    pipeline, _, _, boundaries = history_lake
    snap = pipeline.table_as_of(boundaries[-1])
    assert final_state_digests(snap) == \
        final_state_digests(pipeline.final_table())


def test_history_idempotent_under_replay(history_lake):
    import ray.data as rd

    pipeline, _, chunks, _ = history_lake
    before = {
        pid: list(m.history)
        for pid, m in pipeline.store.all_manifests().items()
    }
    pipeline.run(rd.from_arrow(chunks[-1]))  # duplicate delivery
    after = {
        pid: list(m.history)
        for pid, m in pipeline.store.all_manifests().items()
    }
    assert before == after


def test_non_retaining_lake_refuses(tmp_path, ray_session):
    import ray.data as rd

    cfg = SynthConfig(n_keys=20, n_events=150, n_repos=3, seed=5)
    log = make_events(cfg)
    pipeline = CDCPipeline(str(tmp_path / 'plain'), num_partitions=2)
    pipeline.run(rd.from_arrow(log))
    with pytest.raises(ValueError, match='retain_history'):
        pipeline.changes()
    with pytest.raises(ValueError, match='retain_history'):
        pipeline.table_as_of(10**9)
    # And retention cannot be flipped on after creation.
    reopened = CDCPipeline(str(tmp_path / 'plain'), num_partitions=2,
                           retain_history=True)
    assert reopened.retain_history is False


def test_vacuum_bounds_the_window(history_lake):
    pipeline, _, _, boundaries = history_lake
    final_before = final_state_digests(pipeline.final_table())
    # Vacuum everything strictly below the second boundary: each
    # partition's first two history files collapse into one checkpoint.
    removed = pipeline.vacuum_history(before_lsn=boundaries[1] + 1)
    assert removed > 0
    # Live table untouched; latest as-of still EXACT (the checkpoint
    # retains every cold key's last vacuumed-window version).
    assert final_state_digests(pipeline.final_table()) == final_before
    assert final_state_digests(pipeline.table_as_of(boundaries[-1])) == \
        final_before
    # The floor: requests inside the vacuumed window refuse instead of
    # silently returning collapsed history (ADVICE r3 high).
    floors = [
        m.history_floor_lsn for m in pipeline.store.all_manifests().values()
    ]
    assert max(floors) > -1
    with pytest.raises(ValueError, match='vacuum floor'):
        pipeline.table_as_of(boundaries[0])
    with pytest.raises(ValueError, match='vacuum'):
        pipeline.changes()  # full feed needs the collapsed window
    # At/above the floor both stay answerable.
    recent = pipeline.changes(since_lsn=boundaries[1])
    assert recent.num_rows > 0
    # Disk matches the manifests exactly (vacuumed files gone, no strays).
    for pid, m in pipeline.store.all_manifests().items():
        assert _snapshot_files(pipeline, pid) == set(m.deltas) | set(m.history)


def test_vacuum_preserves_cold_keys(tmp_path, ray_session):
    """The ADVICE r3 (high) scenario: a key untouched after the vacuumed
    window must still appear in every post-floor as-of snapshot."""
    import ray.data as rd

    def ev(lsn, op, path, content):
        return {'lsn': lsn, 'op': op, 'repo': 'r1', 'path': path,
                'commit': 'a' * 40, 'lang': '', 'content': content}

    lake = str(tmp_path / 'cold')
    pipeline = CDCPipeline(lake, num_partitions=2, retain_history=True)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(1, 'insert', 'cold.txt', 'COLD'),
        ev(2, 'insert', 'hot.txt', 'H1'),
    ])))
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(10, 'update', 'hot.txt', 'H2'),
    ])))
    pipeline.vacuum_history(before_lsn=3)

    # cold.txt was last written inside the vacuumed window — the
    # checkpoint must carry it into every reachable snapshot.
    snap = pipeline.table_as_of(10)
    by_path = {
        p: c for p, c in zip(snap.column('path').to_pylist(),
                             snap.column('content').to_pylist())
    }
    assert by_path == {'cold.txt': b'COLD', 'hot.txt': b'H2'}
    # As-of exactly at the floor is still exact (whole window retained).
    snap_floor = pipeline.table_as_of(2)
    assert sorted(snap_floor.column('content').to_pylist()) == [b'COLD', b'H1']
    # Below the floor: refuse.
    with pytest.raises(ValueError, match='vacuum floor'):
        pipeline.table_as_of(1)
    # Feed above the floor intact; full feed refuses.
    assert pipeline.changes(since_lsn=2).num_rows == 1
    with pytest.raises(ValueError, match='vacuum'):
        pipeline.changes()


def test_changes_feed_preserves_late_added_columns(tmp_path, ray_session):
    """ADVICE r3: history files have heterogeneous schemas across
    commits (additive widening); the feed must carry columns added by
    later commits regardless of which file schema-inference sees first,
    with nulls for the earlier commits' rows."""
    import ray.data as rd

    def ev(lsn, path, content, extra=None):
        row = {'lsn': lsn, 'op': 'insert', 'repo': 'r1', 'path': path,
               'commit': 'b' * 40, 'lang': '', 'content': content}
        if extra is not None:
            row['branch'] = extra
        return row

    lake = str(tmp_path / 'widen')
    pipeline = CDCPipeline(lake, num_partitions=2, retain_history=True)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(1, 'a.txt', 'A'), ev(2, 'b.txt', 'B'),
    ])))
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(10, 'c.txt', 'C', extra='main'),
        ev(11, 'd.txt', 'D', extra='dev'),
    ])))

    feed = pipeline.changes()
    assert 'branch' in feed.column_names
    by_path = dict(zip(feed.column('path').to_pylist(),
                       feed.column('branch').to_pylist()))
    assert by_path == {'a.txt': None, 'b.txt': None,
                       'c.txt': 'main', 'd.txt': 'dev'}
    # The windowed dataset path too (covers the pruned-file subset).
    recent = pipeline.changes(since_lsn=2)
    assert set(recent.column('branch').to_pylist()) == {'main', 'dev'}


def test_vacuum_sweeps_orphaned_history_files(tmp_path, ray_session):
    """ADVICE r4: a crash between a vacuum's manifest commit and its
    file removals strands history files no manifest lists. The next
    vacuum entry must sweep them (restoring the disk==manifest
    invariant test_vacuum_bounds_the_window pins), even when it has
    nothing else to collapse."""
    import ray.data as rd

    def ev(lsn, op, path, content):
        return {'lsn': lsn, 'op': op, 'repo': 'r1', 'path': path,
                'commit': 'a' * 40, 'lang': '', 'content': content}

    lake = str(tmp_path / 'orph')
    pipeline = CDCPipeline(lake, num_partitions=2, retain_history=True)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(1, 'insert', 'a.txt', 'A'),
        ev(2, 'insert', 'b.txt', 'B'),
    ])))
    before = final_state_digests(pipeline.final_table())

    # Simulate the crash debris: snapshot files that no manifest lists
    # (as if a previous vacuum committed but died mid-removal).
    orphans = []
    for pid, m in pipeline.store.all_manifests().items():
        p = pipeline.store.delta_path(pid, 'delta-500-600.parquet')
        with open(p, 'wb') as fh:
            fh.write(b'stranded')
        orphans.append((pid, p))
    assert orphans

    # A vacuum with nothing in range still sweeps the orphans...
    removed = pipeline.vacuum_history(before_lsn=0)
    assert removed == len(orphans)
    for _, p in orphans:
        assert not os.path.exists(p)
    # ...and disk==manifest holds again, with the lake untouched.
    for pid, m in pipeline.store.all_manifests().items():
        assert _snapshot_files(pipeline, pid) == set(m.deltas) | set(m.history)
    assert final_state_digests(pipeline.final_table()) == before
    assert final_state_digests(pipeline.table_as_of(2)) == before


def test_vacuum_of_one_file_window_moves_only_the_floor(tmp_path, ray_session):
    """A vacuum window of one history file is its own checkpoint: the
    commit moves ``history_floor_lsn`` and rewrites nothing, so the file
    (here also the partition's active delta) keeps its bytes and inode,
    no tmp file is left, and ``bytes`` stays the on-disk size."""
    import ray.data as rd

    pipeline = CDCPipeline(str(tmp_path / 'one'), num_partitions=1,
                           retain_history=True)
    pipeline.run(rd.from_arrow(make_events(SynthConfig(n_keys=10, n_events=40, seed=3))))
    store = pipeline.store
    before = store.read_manifest(0)
    (name,) = before.history
    assert before.deltas == [name]
    path = store.delta_path(0, name)
    stat, data = os.stat(path), open(path, 'rb').read()

    assert pipeline.vacuum_history(10**9) == 0
    after = store.read_manifest(0)
    assert after.history == [name] and after.deltas == [name]
    assert after.history_floor_lsn == before.hwm_lsn > before.history_floor_lsn
    assert after.commit_version == before.commit_version + 1
    assert os.stat(path).st_ino == stat.st_ino
    assert open(path, 'rb').read() == data
    assert after.bytes == os.path.getsize(path)
    assert not [f for f in os.listdir(store.partition_dir(0)) if '.tmp-' in f]
    # Vacuuming the same window again finds the floor already there.
    assert pipeline.vacuum_history(10**9) == 0
    assert store.read_manifest(0).commit_version == after.commit_version
