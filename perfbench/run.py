"""CDC ingest benchmark: bulk replay, open-loop micro-batch tail and the
maintenance plane, with a per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``). The last stdout line is one JSON
object; the lines before it say what ran. Inputs, oracle answers and the
maintenance lake are cached per seed under ``.perfbench_work/cache/``,
keyed by a digest of the engine's and the benchmark's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, '.perfbench_work')
SETUPS = 3

END_TO_END_UNITS = {
    'setup_s': 's',
    'write_amp': 'ratio',
    'peak_rss_mb': 'MiB',
}

# The ingest timings. Every workload measures them, but on a shared host
# their spread over ten seeds is about the largest bound BENCHMARK.json
# allows (see perfbench/README.md, "Noise"), so they are not end-to-end
# metrics: --trace 0 prints them on an info line, --trace 1 reports them
# as the per-layer cdc.* metrics.
TIMING_UNITS = {
    'events_per_s': '1/s',
    'latency_p50_s': 's',
}

COUNTERS = ('rows_in', 'rows_applied', 'rows_skipped', 'rows_rejected',
            'lake_rows', 'lake_files', 'lake_bytes')


def _unit(name: str) -> str:
    if name.endswith('_ms') or '_ms.' in name:
        return 'ms'
    if name.endswith('per_s'):
        return '1/s'
    if name.endswith('_s'):
        return 's'
    if 'bytes' in name:
        return 'bytes'
    if name.endswith('skew'):
        return 'ratio'
    return 'count'


def per_layer_metrics(out, maint, replay, validate, upsert) -> dict:
    from perfbench.session import median

    values = {
        **{f'validate.{k}': v for k, v in validate.items()
           if k != 'key_partition_ms'},
        'key_partition_ms': validate['key_partition_ms'],
        **{f'op.{k}': v for k, v in out.stats.items()},
        'exchange.bytes': replay['exchange_bytes'],
        'exchange.skew': replay['exchange_skew'],
        **{f'upsert.{k}': v for k, v in upsert.items()
           if not k.startswith(('partition_table', 'manifest'))},
        'manifest.commit_ms': upsert['manifest_commit_ms'],
        'manifest.bytes_max': maint['manifest_bytes_max'],
        'manifest.bytes_total': maint['manifest_bytes_total'],
        'ledger.bytes': maint['ledger_bytes'],
        'dlq.rows': maint['dlq_rows'],
        'dlq.bytes': maint['dlq_bytes'],
        'dlq.read_ms': median(maint['dlq_read_s']) * 1e3,
        **{f'read.{k}': v for k, v in upsert.items()
           if k.startswith('partition_table')},
        'read.history_files': maint['history_files'],
        'vacuum.files_removed': maint['vacuum_files_removed'],
        **{f'maint.{k}': median(maint[k])
           for k in ('changes_s', 'as_of_s', 'redrive_s', 'vacuum_s')},
        **{f'trace.{k}': v for k, v in replay.items()
           if k not in ('exchange_bytes', 'exchange_skew')},
        **{f'cdc.{k}': out.metrics[k] for k in TIMING_UNITS},
        **{k: out.counters[k] for k in COUNTERS},
    }
    return {k: {'value': v, 'unit': _unit(k)} for k, v in values.items()}


def run(args) -> int:
    sys.path.insert(0, ROOT)
    try:
        import filters_ray  # noqa: F401
    except ImportError as exc:
        print(f'perfbench: cannot import the engine from {ROOT}: {exc}',
              file=sys.stderr)
        return 2
    import pyarrow.parquet as pq

    from perfbench import inputs as inp
    from perfbench import layers, workloads
    from perfbench.session import RaySession, RssSampler, median, remove_tree, session_cpus

    cache = os.path.join(WORK, 'cache', inp.code_digest(ROOT)[:16])
    os.makedirs(cache, exist_ok=True)
    prepared = inp.prepare(args.seed, cache)
    print(f'inputs: seed {args.seed}, {prepared.meta["events"]} events, '
          f'{len(prepared.file_names)} arrival files; generation + oracle '
          f'{prepared.prep_s:.2f} s ({"cached" if not prepared.prep_s else "fresh"})')
    ctx = workloads.Context(prepared, WORK)
    session = RaySession(ROOT, WORK, prepared.warmup_path)
    workload = workloads.WORKLOADS[args.workload]()
    out = workloads.Outcome()
    metrics, maint, setups, peaks = {}, None, [], []
    try:
        for i in range(SETUPS):
            if i:
                session.stop()
            setups.append(session.start())
            if i == 0 and (args.workload == 'maintenance' or args.trace):
                # Untimed and cached per seed: the lake and the as-of answer.
                workloads.build_maintenance_lake(ctx)
                prepared.oracle_prefix()
            if i < SETUPS - workload.sessions:
                continue
            sampler = RssSampler().start()
            try:
                workload.segment(ctx, args.seconds / workload.sessions, out)
            finally:
                peaks.append(sampler.stop())
        workload.finish(ctx, out)
        print(f'session: num_cpus = {session_cpus()} (nproc); set-ups '
              + ', '.join(f'{s:.3f}' for s in setups) + ' s')
        out.metrics['setup_s'] = median(setups)
        out.metrics['peak_rss_mb'] = max(peaks)
        if args.trace:
            maint = out.maint
            if not maint:
                extra = workloads.Outcome()
                maint = workloads.maintenance_cycle(ctx, extra)
                out.attempted += extra.attempted
                out.failed += extra.failed
    except workloads.CallFailed:
        pass
    finally:
        session.stop()

    for line in out.info:
        print(line)
    complete = set(END_TO_END_UNITS) | set(TIMING_UNITS) <= set(out.metrics)
    if complete:
        print('timings: ' + ', '.join(f'{k} {out.metrics[k]:.6g} {u}'
                                      for k, u in TIMING_UNITS.items()))
    if args.trace and complete:
        tracer = layers.Tracer(f'{args.workload}/seed-{args.seed}')
        replay = layers.traced_replay(pq.read_table(prepared.bulk_path), WORK, tracer)
        pinned = inp.pinned_batch(cache)
        metrics = per_layer_metrics(
            out, maint, replay, layers.validate_layers(pinned),
            layers.upsert_layers(pinned, WORK))
        spans = os.path.join(WORK, f'spans-{args.workload}-seed-{args.seed}.jsonl')
        tracer.write(spans)
        print(f'trace: {len(tracer.spans)} spans written to {os.path.relpath(spans, ROOT)}; '
              f'single-thread replay {replay["events_per_s"]:.0f} events/s, '
              f'tracing overhead {replay["overhead_ms"]:.2f} ms')
    elif complete:
        metrics = {k: {'value': out.metrics[k], 'unit': u}
                   for k, u in END_TO_END_UNITS.items()}
    for name in ('bulk-lake', 'tail-lake', 'tail-in', 'maint-lake'):
        remove_tree(os.path.join(WORK, name))
    correct = complete and out.failed == 0
    print(json.dumps({'correct': correct, 'attempted': max(out.attempted, 1),
                      'failed': out.failed, 'metrics': metrics}))
    return 0 if correct else 1


def _run_json(args: list) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def self_test(seed: int) -> int:
    """Same seed → same input, oracle answer and work counters (those of
    ``repeating``); another seed → another input; metric names match
    BENCHMARK.json."""
    sys.path.insert(0, ROOT)
    from perfbench import inputs as inp
    from perfbench.workloads import TAIL_FIXED_COUNTERS

    # Counters that must repeat exactly for a seed.
    repeating = {
        'bulk_replay': COUNTERS,
        'tail_microbatch': TAIL_FIXED_COUNTERS,
        'maintenance': COUNTERS,
    }
    problems = []
    a, b = inp.make_log(seed), inp.make_log(seed)
    if inp.table_digest(a) != inp.table_digest(b):
        problems.append('same seed gave different inputs')
    if inp.table_digest(inp.make_log(seed + 1)) == inp.table_digest(a):
        problems.append('different seeds gave the same input')
    head = a.slice(0, 8192)
    if inp.oracle_answer(head) != inp.oracle_answer(head):
        problems.append('oracle answer differs between runs')

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        spec = json.load(fh)
    if set(END_TO_END_UNITS) != {m['name'] for m in spec['end_to_end']}:
        problems.append('end-to-end names differ from BENCHMARK.json')
    for workload, counters in repeating.items():
        runs = [_run_json(['--workload', workload, '--seed', str(seed),
                           '--seconds', '1', '--trace', '1'])
                for _ in range(2)]
        names = {m['name'] for m in spec['per_layer']}
        for r in runs:
            if not r['correct'] or set(r['metrics']) != names:
                problems.append(f'{workload}: traced run incorrect or its '
                                'metric names differ from BENCHMARK.json')
        first, second = ({k: r['metrics'][k]['value'] for k in counters} for r in runs)
        if first != second:
            problems.append(f'{workload}: work counters differ: {first} vs {second}')
    for p in problems:
        print(f'self-test: {p}')
    print(json.dumps({'self_test': 'fail' if problems else 'pass'}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', choices=(
        'bulk_replay', 'tail_microbatch', 'maintenance'))
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--self-test', action='store_true')
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error('--workload is required')
    t0 = time.perf_counter()
    code = run(args)
    print(f'perfbench: {args.workload} finished in {time.perf_counter() - t0:.1f} s',
          file=sys.stderr)
    return code


if __name__ == '__main__':
    sys.exit(main())
