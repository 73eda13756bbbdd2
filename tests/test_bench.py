"""The benchmark harness: the headline and scaling JSON lines the round
driver parses, the scaling records, the soak and the summaries.

Each case runs ``bench.py`` in a fresh process with its own 1-CPU Ray
session (not the suite's 4-CPU fixture) on a 2,000-event log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, 'bench.py')
sys.path.insert(0, REPO)

import bench  # noqa: E402

# The keys the headline line carried before the per-role stage seconds.
HEADLINE_KEYS = {
    'metric', 'value', 'unit', 'queries', 'sf', 'num_cpus', 'cdc_sec_best',
    'cdc_sec_max', 'cdc_sec_all', 'cdc_sec_cold', 'events', 'events_per_sec',
    'events_applied', 'rejected', 'lake_rows',
}
STAGE_KEYS = {f'{role}.{kind}_s' for role in ('validate', 'exchange', 'upsert')
              for kind in ('wall', 'cpu')}


def _run(args, cwd, **extra) -> str:
    env = dict(os.environ, GRAFT_SF_DIR='/root/testdata/sf0.001',
               GRAFT_BENCH_EVENTS='2000', RAY_GRAFT_CPUS='1', **extra)
    done = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout


def _json_lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.startswith('{')]


def test_headline_line_keeps_its_keys_and_adds_stage_seconds():
    out = _run(['-c', 'import bench; bench.main(headline_only=True)'], REPO)
    line = _json_lines(out)[-1]
    assert set(line) == HEADLINE_KEYS | {'stage_s'}
    assert (line['metric'], line['unit'], line['queries']) == (
        'cdc_ingest_upsert_sec', 'sec', {})
    assert (line['events'], line['num_cpus']) == (2000, 1)
    # The seed-42 log's counts. ``rejected`` counts each rejected event
    # once, as the replay oracle does: 115 rows fail validation, one of
    # them a re-delivery of the corrupt-lsn event -311.
    assert (line['events_applied'], line['rejected'], line['lake_rows']) == (
        1885, 114, 743)
    assert set(line['stage_s']) == STAGE_KEYS
    assert line['stage_s']['validate.wall_s'] > 0
    assert line['stage_s']['upsert.wall_s'] > 0


def test_plain_main_runs_the_query_suite_on_one_cpu():
    line = _json_lines(_run(['-c', 'import bench; bench.main()'], REPO))[-1]
    assert set(line['queries']) == set(bench.QUERY_SUBSET)


def test_scaling_records_from_another_directory(tmp_path):
    record = tmp_path / 'record.jsonl'
    with open(os.path.join(REPO, 'tools', 'protocol_r5_record.jsonl')) as fh:
        old = fh.readline()
    record.write_text(old)
    out = _run([BENCH, '--scaling', '--runs', '2', '--record', str(record)],
               tmp_path, GRAFT_SCALE_LO='1', GRAFT_SCALE_HI='1',
               GRAFT_BENCH_PASSES='2')
    printed = _json_lines(out)
    assert len(printed) == 2
    lines = record.read_text().splitlines()
    assert lines[0] == old.rstrip('\n')
    recs = [json.loads(line) for line in lines[1:]]
    assert [r['r'] for r in recs] == printed
    assert [r['run'] for r in recs] == [1, 2]
    assert recs[0]['batch'] == recs[1]['batch'] <= recs[0]['ts'] <= recs[1]['ts']
    for rec in recs:
        assert set(rec) == {'batch', 'run', 'ts', 'commit', 'load_pre',
                            'load_post', 'r'}
        assert rec['load_pre'] >= 0 and rec['load_post'] >= 0
        assert set(rec['r']) == {
            'metric', 'value', 'unit', 'events', 'sec_1', 'events_per_sec_1',
            'scaling_efficiency', 'sf', 'stage_s_1'}
        assert rec['r']['metric'] == 'cdc_scaling_efficiency'
        assert rec['r']['events'] == 2000
        assert set(rec['r']['stage_s_1']) == STAGE_KEYS

    summary = _run([BENCH, '--summarize', str(record)], tmp_path).splitlines()
    assert f'{record}: invocation b1, 1 runs' in summary
    header = [s for s in summary if s.startswith(f'{record}: invocation {recs[0]["batch"]}')]
    assert header and header[0].endswith(', 2 runs')
    assert sum(s.startswith('    1 CPUs: n=2 ') for s in summary) == 1
    assert sum(s.startswith('  efficiency: n=2 ') for s in summary) == 1


def test_soak_prints_batches_redrive_and_summary(tmp_path):
    lines = _json_lines(_run([BENCH, '--soak'], tmp_path))
    batch, redrive, summary = lines
    assert set(batch) == {
        'batch', 'files', 'wall_sec', 'events_seen', 'events_per_sec',
        'applied', 'skipped', 'lake_rows', 'active_deltas', 'history_files',
        'driver_rss_mb'}
    assert (batch['batch'], batch['events_seen']) == (0, 2000)
    assert set(redrive) == {
        'redrive_after_batch', 'wall_sec', 'dlq_rows_before', 'dlq_rows_after',
        'redrive_applied', 'redrive_skipped', 'lake_rows', 'driver_rss_mb'}
    assert redrive['dlq_rows_after'] == (
        redrive['dlq_rows_before'] - redrive['redrive_applied'])
    assert set(summary) == {
        'summary', 'events', 'batches', 'gen_sec', 'applied_total',
        'skipped_total', 'redrive_applied', 'final_dlq_rows', 'final',
        'driver_rss_mb', 'last_run_stats_tail'}
    assert (summary['events'], summary['batches']) == (2000, 1)
    assert summary['applied_total'] == batch['applied']
    assert summary['final']['partitions'] == 128


def test_summaries_of_the_committed_records_match_baseline():
    """BASELINE.md's round-5 protocol medians and round-4 sampler
    medians, read back from their records without Ray."""
    out = _run(['-c', 'import bench, sys; bench.summarize(sys.argv[1:]); '
                'assert "ray" not in sys.modules',
                'tools/protocol_r5_record.jsonl', 'tools/sampler_r4_record.jsonl'],
               REPO).splitlines()
    b1 = out.index('tools/protocol_r5_record.jsonl: invocation b1, 5 runs')
    b2 = out.index('tools/protocol_r5_record.jsonl: invocation b2, 5 runs')
    sampler = out.index('tools/sampler_r4_record.jsonl: invocation -, 168 runs')
    # b1's runner restarted after its third run and counted from 1 again.
    runs = [s.split()[1] for s in out[b1:b2] if s.startswith('  run ')]
    assert runs == ['1', '2', '3', '1', '2']
    assert '  efficiency: n=5 median=0.804 IQR=0.791-0.858' in out[b1:b2]
    assert '  efficiency: n=5 median=0.801 IQR=0.753-0.822' in out[b2:sampler]
    assert any(s.startswith('    8 CPUs: n=54 median=442,182 ') for s in out[sampler:])
    assert any(s.startswith('   32 CPUs: n=114 median=948,899 ') for s in out[sampler:])
