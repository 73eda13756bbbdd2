"""End-to-end CDC correctness: engine vs scalar oracle + exactly-once.

SURVEY.md §5 test plan steps 2-3: oracle-replay equality (final state
sha256 per key + rejection counts per code) and exactly-once under
duplicate delivery / resume / full replay.
"""

from __future__ import annotations

import shutil

import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events


@pytest.fixture(scope='module')
def small_log():
    cfg = SynthConfig(n_keys=120, n_events=1200, n_repos=12, seed=7)
    return make_events(cfg)


@pytest.fixture(scope='module')
def oracle_result(small_log):
    return replay_oracle(small_log.to_pylist())


def run_pipeline(tmp_root, events_table, num_partitions=8):
    import ray.data as rd

    pipeline = CDCPipeline(str(tmp_root), num_partitions=num_partitions)
    report = pipeline.run(rd.from_arrow(events_table))
    return pipeline, report


@pytest.mark.usefixtures('ray_session')
def test_final_state_matches_oracle(tmp_path, small_log, oracle_result):
    pipeline, report = run_pipeline(tmp_path / 'lake', small_log)

    engine_table = pipeline.final_table()
    engine_digests = final_state_digests(engine_table)
    oracle_digests = oracle_result.sha256_by_key()

    assert engine_digests == oracle_digests
    assert engine_table.num_rows == len(oracle_result.state)

    # Row-for-row: last_lsn per key must match too.
    oracle_lsn = {
        k: v['last_lsn'] for k, v in oracle_result.state.items()
    }
    engine_lsn = dict(zip(
        zip(engine_table.column('repo').to_pylist(),
            engine_table.column('path').to_pylist()),
        engine_table.column('last_lsn').to_pylist(),
    ))
    assert engine_lsn == oracle_lsn


@pytest.mark.usefixtures('ray_session')
def test_rejection_counts_match_oracle(tmp_path, small_log, oracle_result):
    pipeline, report = run_pipeline(tmp_path / 'lake', small_log)
    assert pipeline.rejection_counts() == oracle_result.rejected_by_code
    assert report.rejected_by_code == oracle_result.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_full_replay_is_idempotent(tmp_path, small_log, oracle_result):
    lake = tmp_path / 'lake'
    pipeline, _ = run_pipeline(lake, small_log)
    digests_1 = final_state_digests(pipeline.final_table())
    counts_1 = pipeline.rejection_counts()

    # Replay the ENTIRE log again into the same lake.
    pipeline2, report2 = run_pipeline(lake, small_log)
    digests_2 = final_state_digests(pipeline2.final_table())

    assert digests_2 == digests_1 == oracle_result.sha256_by_key()
    assert pipeline2.rejection_counts() == counts_1
    # Second pass applied nothing new.
    assert report2.events_applied == 0


@pytest.mark.usefixtures('ray_session')
def test_resume_from_checkpoint_matches_scratch(tmp_path, small_log, oracle_result):
    """Run the first half, then replay the FULL log (simulating resume
    from an earlier checkpoint) — final state must equal a from-scratch
    full run."""
    lake = tmp_path / 'lake_resume'
    half = small_log.slice(0, small_log.num_rows // 2)

    pipeline, _ = run_pipeline(lake, half)
    intermediate_rows = pipeline.final_table().num_rows
    assert intermediate_rows > 0

    pipeline2, _ = run_pipeline(lake, small_log)
    assert final_state_digests(pipeline2.final_table()) == oracle_result.sha256_by_key()
    assert pipeline2.rejection_counts() == oracle_result.rejected_by_code


@pytest.mark.usefixtures('ray_session')
def test_partition_count_pinned(tmp_path, small_log):
    lake = tmp_path / 'lake_pin'
    pipeline, _ = run_pipeline(lake, small_log, num_partitions=8)
    # A later run asking for a different P must keep the pinned count.
    pipeline2 = CDCPipeline(str(lake), num_partitions=64)
    assert pipeline2.num_partitions == 8


@pytest.mark.usefixtures('ray_session')
def test_schema_evolution_additive_column(tmp_path):
    """Events gaining an extra `branch` column mid-log widen the lake
    schema additively; early rows read as null."""
    cfg = SynthConfig(
        n_keys=60, n_events=400, n_repos=6, seed=11,
        extra_column_after=0.5, invalid_rate=0.0, duplicate_rate=0.0,
    )
    log = make_events(cfg)
    pipeline, report = run_pipeline(tmp_path / 'lake_evo', log)

    table = pipeline.final_table()
    assert 'branch' in table.column_names
    branches = set(table.column('branch').to_pylist())
    assert branches & {'main', 'dev', 'release'}

    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(table) == oracle.sha256_by_key()


def _branch_event(lsn: int, path: str, branch) -> dict:
    return {'lsn': lsn, 'op': 'insert', 'repo': 'org/r', 'path': path,
            'commit': 'a' * 40, 'lang': 'py', 'content': f'body {lsn}',
            'branch': branch}


def _path_in(partition: int, num_partitions: int) -> str:
    from filters_ray.pipelines.cdc import key_partition

    return next(f'f{i}' for i in range(100) if key_partition(
        pa.array(['org/r']), pa.array([f'f{i}']), num_partitions)[0] == partition)


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('case', ['same_partition_delta', 'two_partitions'])
def test_type_conflict_is_refused_before_commit(tmp_path, case):
    """A batch whose `branch` is int64 after the lake recorded it as a
    string is refused at commit, before any file is staged: the lake
    schema, every manifest and the table stay as they were, and the next
    conforming run commits. Before the lake schema, a delta commit
    (same partition, retained lake) or another partition's commit wrote
    the int64 file, and every later read raised."""
    import ray.data as rd

    if case == 'same_partition_delta':
        pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1,
                               compact_every=3, retain_history=True)
        first, refused, later = 'f1', 'f2', 'f3'
    else:
        pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=2)
        first, refused, later = _path_in(0, 2), _path_in(1, 2), _path_in(1, 2)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist(
        [_branch_event(1, first, 'main')])))
    if case == 'same_partition_delta':
        assert pipeline.store.read_manifest(0).deltas

    def state():
        return (pipeline.lineage(), pipeline.store.lake_schema(),
                pipeline.final_table())

    before = state()
    assert before[1].field('branch').type == pa.string()
    with pytest.raises(ValueError, match="'branch'"):
        pipeline.run(rd.from_arrow(pa.Table.from_pylist(
            [_branch_event(2, refused, 7)])))
    assert state() == before

    report = pipeline.run(rd.from_arrow(pa.Table.from_pylist(
        [_branch_event(3, later, 'dev')])))
    assert report.events_applied == 1
    table = pipeline.final_table()
    assert sorted(table.column('branch').to_pylist()) == ['dev', 'main']
    assert pipeline.store.lake_schema() == before[1]


@pytest.mark.usefixtures('ray_session')
@pytest.mark.parametrize('order', ['string_first', 'null_first'])
def test_all_null_extra_column_widens_either_way(tmp_path, order):
    """A one-event batch whose ``branch`` is None carries the column as
    Arrow's ``null`` type. It commits into a lake whose ``branch`` is a
    string, and a lake that first saw it as ``null`` takes a string
    later; either way the lake schema ends ``branch: string``."""
    import ray.data as rd

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1,
                           compact_every=3, retain_history=True)
    branches = ['main', None] if order == 'string_first' else [None, 'main']
    for lsn, branch in enumerate(branches, start=1):
        report = pipeline.run(rd.from_arrow(pa.Table.from_pylist(
            [_branch_event(lsn, f'f{lsn}', branch)])))
        assert report.events_applied == 1
    assert pipeline.store.lake_schema().field('branch').type == pa.string()
    table = pipeline.final_table()
    assert table.column('path').to_pylist() == ['f1', 'f2']
    assert table.column('branch').to_pylist() == branches


def test_upsert_into_a_directory_without_meta_commits(tmp_path):
    """``make_upsert_fn`` commits into a bare directory (no _meta.json):
    the lake schema is each batch's own and nothing is recorded, so a
    base commit and a delta commit over it both land."""
    import os

    from filters_ray.pipelines.cdc import CDCValidateStage, make_upsert_fn
    from filters_ray.state.manifest import ManifestStore

    lake = str(tmp_path / 'bare')
    log = make_events(SynthConfig(n_keys=20, n_events=120, n_repos=3, seed=3))
    upsert = make_upsert_fn(lake)
    stage = CDCValidateStage(num_partitions=1)
    for a, b in ((0, 60), (60, 120)):
        summary = upsert(stage(log.slice(a, b - a)))
        assert summary.column('events_seen').to_pylist() == [b - a]
    store = ManifestStore(lake)
    manifest = store.read_manifest(0)
    assert manifest.base and len(manifest.deltas) == 1
    assert not os.path.exists(store.meta_path())
    oracle = replay_oracle(log.to_pylist())
    assert manifest.rows == len(oracle.sha256_by_key())


@pytest.mark.usefixtures('ray_session')
def test_lineage_manifests(tmp_path, small_log):
    pipeline, _ = run_pipeline(tmp_path / 'lake_lin', small_log)
    lineage = pipeline.lineage()
    assert lineage, 'expected per-partition lineage records'
    total_rows = sum(m['rows'] for m in lineage)
    assert total_rows == pipeline.final_table().num_rows
    for m in lineage:
        assert m['hwm_lsn'] >= 0
        assert m['sha256']
