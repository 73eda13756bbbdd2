"""Golden manifests: a fixed ingest/redrive/vacuum sequence on a seeded
retained-history lake must leave exactly the manifests and DLQ files
recorded in ``golden_cdc_manifests.json``, after every step.

Pins what no oracle test does: the chained delta digests, the exact
``deltas``/``history`` lists, the per-partition DLQ accounting and the
vacuum floors. A change to the commit path that alters a single byte of
committed state fails here, not only one that alters the live rows.
"""

from __future__ import annotations

import json
import os

import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.sources.synth import LANGS, SynthConfig, make_events

PINNED = (
    'rows', 'sha256', 'hwm_lsn', 'deltas', 'history', 'rejected_by_code',
    'dlq_corrupt_lsns', 'history_floor_lsn',
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), 'golden_cdc_manifests.json')
STEPS = ('run', 'run (delta)', 'run (compaction)', 'replay_dlq', 'vacuum_history')


def golden_state(pipeline: CDCPipeline) -> dict:
    """Per partition: the pinned manifest fields plus the sorted DLQ
    file names, which must be the files the manifest lists."""
    out = {}
    for pid, m in sorted(pipeline.store.all_manifests().items()):
        state = {k: getattr(m, k) for k in PINNED}
        dlq_dir = os.path.join(pipeline.lake_root, '_dlq', f'part={pid}')
        state['dlq_files'] = (
            sorted(os.listdir(dlq_dir)) if os.path.isdir(dlq_dir) else [])
        assert sorted(m.dlq) == state['dlq_files'], pid
        out[str(pid)] = state
    return out


def run_golden_sequence(lake: str, after_step=None, dataset=None) -> list:
    """The :data:`STEPS` on a fresh lake; the golden state after each.

    The log is cut in arrival order at multiples of its 16-event
    disorder window, so re-delivered corrupt (negative) lsns reach later
    runs and exercise the no-recount rule. ``after_step(pipeline, step)``,
    when given, is called after each step, once its state is recorded.
    ``dataset`` turns each cut into the dataset a run ingests
    (``rd.from_arrow`` by default)."""
    import ray.data as rd

    dataset = dataset or rd.from_arrow
    cfg = SynthConfig(n_keys=60, n_events=800, n_repos=6, seed=5)
    log = make_events(cfg)
    cuts = [0, 272, 544, log.num_rows]
    pipeline = CDCPipeline(lake, num_partitions=4, compact_every=2,
                           retain_history=True)
    states = []

    def record() -> None:
        states.append(golden_state(pipeline))
        if after_step is not None:
            after_step(pipeline, STEPS[len(states) - 1])

    for a, b in zip(cuts, cuts[1:]):
        pipeline.run(dataset(log.slice(a, b - a)))
        record()
    vacuum_before = max(int(m['hwm_lsn']) for m in states[1].values()) + 1
    pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
    record()
    pipeline.vacuum_history(before_lsn=vacuum_before)
    record()
    return states


@pytest.mark.usefixtures('ray_session')
def test_golden_manifests(tmp_path):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    states = run_golden_sequence(str(tmp_path / 'lake'))
    assert len(states) == len(golden) == len(STEPS)
    for step, got, want in zip(STEPS, states, golden):
        assert got == want, f'state after {step} differs from the golden one'


@pytest.mark.usefixtures('ray_session')
def test_snapshot_file_exists_iff_listed(tmp_path):
    """The lake's one liveness rule, after every step: a partition's
    ``*.parquet`` files are exactly its manifest's ``base`` ∪ ``deltas``
    ∪ ``history``, all in ``part=<p>/`` (no ``history/`` directory), and
    no tmp file outlives its commit."""
    lake = str(tmp_path / 'lake')
    steps = []

    def check(pipeline, step):
        for pid, m in pipeline.store.all_manifests().items():
            part_dir = pipeline.store.partition_dir(pid)
            on_disk = {f for f in os.listdir(part_dir) if f.endswith('.parquet')}
            named = set(m.deltas) | set(m.history) | ({m.base} if m.base else set())
            assert on_disk == named, (step, pid)
            assert not os.path.exists(os.path.join(part_dir, 'history')), step
        tmp = [f for _, _, files in os.walk(lake) for f in files if '.tmp-' in f]
        assert not tmp, (step, tmp)
        steps.append(step)

    run_golden_sequence(lake, after_step=check)
    assert tuple(steps) == STEPS
