"""Benchmark harness: the headline CDC ingest+upsert job and query suite,
the CPU-pinned N→4N scaling protocol with its run records, and the
micro-batch replay soak.

Usage::

    python bench.py                  # one JSON line on stdout
    python bench.py --scaling        # the headline job at N and 4N CPUs in
                                     # fresh CPU-pinned processes; one JSON
                                     # line with the scaling efficiency
    python bench.py --scaling --runs 5 --record tools/protocol.jsonl
                                     # five protocol runs, each line also
                                     # appended to the record with its
                                     # provenance
    python bench.py --summarize RECORD...
                                     # per invocation and CPU level: runs,
                                     # median and interquartile range
    python bench.py --soak           # micro-batch replay soak

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default 32), ``GRAFT_BENCH_EVENTS`` (default 1_000_000 at sf0.1, 48M for
``--scaling``, 64M for ``--soak``), ``GRAFT_BENCH_PASSES`` (default 3),
``GRAFT_QUERY_PASSES`` (default 1), ``GRAFT_SCALE_LO``/``GRAFT_SCALE_HI``
(default 8 and 4 × LO).

The headline metric is sustained change-events/sec through the full CDC
pipeline (validate → hash shuffle → LWW upsert → manifest commit), the
BASELINE.json target, reported for the median warm pass. The event log is
synthesized deterministically once and cached as parquet (generation is
untimed); each run upserts into a fresh lake so runs are comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional


HERE = os.path.dirname(os.path.abspath(__file__))
SF_DIR = os.environ.get('GRAFT_SF_DIR', '/root/testdata/sf0.1')
NUM_CPUS = int(os.environ.get('RAY_GRAFT_CPUS', '32'))

_EVENTS_BY_SF = {
    'sf0.001': 20_000,
    'sf0.01': 120_000,
    'sf0.1': 1_000_000,
}

# Scaling log size: the fixed scheduler/shuffle-coordination floor (~2 s)
# must be small against the work at BOTH levels, as it is at the 10^10
# design point. At 16M it was 21% of a 32-wide run's wall and 7% of an
# 8-wide one's, which alone capped measured efficiency near 0.78 on a
# quiet host; at 48M it is ~8% and ~2%.
SCALING_EVENTS = 48_000_000

# The soak: SOAK_BATCHES consecutive shard groups into one retained-history
# lake of SOAK_PARTITIONS partitions, compacting every SOAK_COMPACT_EVERY
# commits; every SOAK_VACUUM_EVERY batches history is vacuumed below the
# watermark of SOAK_KEEP_BATCHES batches back; after half the batches a
# widened-langs DLQ redrive runs while later ingest batches are pending.
SOAK_EVENTS = 64_000_000
SOAK_BATCHES = 16
SOAK_PARTITIONS = 128
SOAK_COMPACT_EVERY = 4
SOAK_VACUUM_EVERY = 4
SOAK_KEEP_BATCHES = 2


def _n_events(default: Optional[int] = None) -> int:
    if 'GRAFT_BENCH_EVENTS' in os.environ:
        return int(os.environ['GRAFT_BENCH_EVENTS'])
    if default:
        return default
    for tag, n in _EVENTS_BY_SF.items():
        if tag in SF_DIR:
            return n
    return 200_000


def event_log_path(n_events: int) -> str:
    """Synthesize (once, cached) the bench event log as parquet shards.

    Uses the vectorized generator (same schema/corruption taxonomy as the
    correctness-test generator; see synth_fast.py) so bench-scale logs
    build in seconds — the cache may be wiped between driver rounds.
    """
    cache = f'/tmp/filters_ray_bench/events-fast-{n_events}'
    marker = os.path.join(cache, '_done')
    if not os.path.exists(marker):
        from filters_ray.sources.synth_fast import write_events_parquet_fast

        shutil.rmtree(cache, ignore_errors=True)
        write_events_parquet_fast(n_events, cache, seed=42)
        with open(marker, 'w') as fh:
            fh.write('ok')
    return cache


def _init_ray(num_cpus: int) -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address='local',
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level='ERROR',
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger('ray.data').setLevel(logging.ERROR)


def run_headline(num_cpus: int) -> dict:
    """The CDC ingest+upsert pipeline; returns timing + throughput."""
    import ray.data as rd

    from filters_ray.pipelines.cdc import CDCPipeline
    from perfbench.session import parse_stats

    n_events = _n_events()
    events_path = event_log_path(n_events)

    # Warm-up before t0 so we measure steady-state compute + shuffle:
    # 1. page cache for the input files (not cold disk);
    # 2. one tiny end-to-end CDC run with enough blocks to touch every
    #    worker process — fresh Ray workers pay a multi-second one-time
    #    import (filters_ray, pandas, chain compile) on their first real
    #    batch, which is process-startup cost, not pipeline throughput.
    for name in os.listdir(events_path):
        if name.endswith('.parquet'):
            with open(os.path.join(events_path, name), 'rb') as fh:
                fh.read()

    from filters_ray.sources.synth import SynthConfig, make_events

    warm_events = make_events(SynthConfig(n_keys=200, n_events=2000, seed=1))
    warm_lake = tempfile.mkdtemp(prefix='bench_warm_')
    try:
        warm_ds = rd.from_arrow(warm_events).repartition(num_cpus * 2)
        CDCPipeline(warm_lake, num_partitions=32, batch_size=64).run(warm_ds)
    finally:
        shutil.rmtree(warm_lake, ignore_errors=True)

    # Timed passes into fresh lakes (GRAFT_BENCH_PASSES, default 3);
    # the headline is the median warm pass, with the warm passes' best
    # and worst beside it. "Sustained throughput" is the metric
    # (BASELINE.json): the first pass carries one-time session costs
    # (worker pool ramp, plasma first-touch) a long-running ingest never
    # sees again, so it is reported apart; co-tenants on a shared host
    # move single passes by ±15%, which a best-of would hide.
    timings = []
    report = stats = None
    for _ in range(int(os.environ.get('GRAFT_BENCH_PASSES', '3'))):
        lake = tempfile.mkdtemp(prefix='bench_lake_')
        try:
            # Partition count is FIXED (not a function of num_cpus):
            # replay determinism pins it per lake, and the scaling
            # comparison must run the identical plan at both levels.
            pipeline = CDCPipeline(
                lake,
                num_partitions=64,
                batch_size=131072,
            )
            t0 = time.time()
            report = pipeline.run(rd.read_parquet(events_path))
            timings.append(time.time() - t0)
            stats = pipeline.last_stats
        finally:
            shutil.rmtree(lake, ignore_errors=True)
    warm = timings[1:] or timings
    elapsed = statistics.median(warm)
    return {
        'cdc_sec': round(elapsed, 3),
        'cdc_sec_best': round(min(warm), 3),
        'cdc_sec_max': round(max(warm), 3),
        'cdc_sec_all': [round(t, 3) for t in timings],
        'cdc_sec_cold': round(timings[0], 3),
        'events': n_events,
        'events_per_sec': round(n_events / elapsed, 1),
        'events_applied': report.events_applied,
        'rejected': sum(report.rejected_by_code.values()),
        'lake_rows': report.lake_rows,
        # The last pass's remote wall and CPU seconds per stage role.
        'stage_s': {k: round(v, 3) for k, v in parse_stats(stats).items()},
    }


QUERY_SUBSET = [
    'q1_pricing_summary',
    'orders_by_nation',
    'top10_orders_by_revenue',
    'events_lww_state',
    'events_hourly_window',
    'docs_token_stats',
    'dedup_exact_docs',
    'docs_minhash_pairs',
    'knn_top10',
    'docs_lang_id',
    'revenue_by_nation_asia',
    'events_hll_users',
    'docs_pii_scrub',
    'events_cdc_changes',
    'events_type_pivot',
    'lineitem_hot_suppliers',
]


def run_queries() -> dict:
    """Per-query wall time; ``GRAFT_QUERY_PASSES=N`` reports best-of-N
    (host noise on this shared box reaches 2.4× on n=1 — use ≥3 passes
    when comparing rounds; see the per-query bands in BASELINE.md)."""
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    passes = int(os.environ.get('GRAFT_QUERY_PASSES', '1'))
    out = {}
    for name in QUERY_SUBSET:
        fn = qs[name]
        best = None
        for _ in range(passes):
            t0 = time.time()
            result = fn(SF_DIR)
            # Force execution of lazy datasets.
            if hasattr(result, 'materialize'):
                result = result.materialize()
            dt = time.time() - t0
            best = dt if best is None else min(best, dt)
        out[name] = round(best, 3)
    return out


def main(headline_only: bool = False) -> None:
    """One JSON line on stdout: the headline pass timings, plus the query
    suite unless ``headline_only``."""
    import ray

    _init_ray(NUM_CPUS)
    headline = run_headline(NUM_CPUS)
    queries = {} if headline_only else run_queries()
    ray.shutdown()
    print(json.dumps({
        'metric': 'cdc_ingest_upsert_sec',
        'value': headline['cdc_sec'],
        'unit': 'sec',
        'queries': queries,
        'sf': SF_DIR,
        'num_cpus': NUM_CPUS,
        **{k: v for k, v in headline.items() if k != 'cdc_sec'},
    }))


def _headline_at(ncpu: int) -> dict:
    """The headline job (no queries) in a fresh process at ``ncpu`` CPUs.

    Each level is CPU-PINNED (``taskset -c 0-(n-1)``) so an "8-CPU node"
    really has 8 cores: without pinning, numpy/arrow worker threads bleed
    onto the host's idle cores and inflate the low level by 10-25%
    (measured), understating the true node-to-node scaling ratio.
    """
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        GRAFT_BENCH_EVENTS=str(_n_events(SCALING_EVENTS)),
    )
    cmd = [sys.executable, '-c', 'import bench; bench.main(headline_only=True)']
    if shutil.which('taskset'):
        cmd = ['taskset', '-c', f'0-{ncpu - 1}'] + cmd
    # The child runs from this file's directory, which Ray also puts on
    # its workers' import path.
    out = subprocess.run(
        cmd, env=env, cwd=HERE, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _scaling_run(lo: int, hi: int) -> dict:
    r_lo = _headline_at(lo)
    r_hi = _headline_at(hi)
    tput_lo = r_lo['events_per_sec']
    tput_hi = r_hi['events_per_sec']
    eff = (tput_hi / tput_lo) / (hi / lo)
    return {
        'metric': 'cdc_scaling_efficiency',
        'value': round(eff, 3),
        'unit': 'ratio',
        'events': r_lo['events'],
        f'sec_{lo}': r_lo['value'],
        f'sec_{hi}': r_hi['value'],
        f'events_per_sec_{lo}': tput_lo,
        f'events_per_sec_{hi}': tput_hi,
        'scaling_efficiency': round(eff, 3),
        'sf': SF_DIR,
        f'stage_s_{lo}': r_lo['stage_s'],
        f'stage_s_{hi}': r_hi['stage_s'],
    }


def _commit() -> Optional[str]:
    """The checkout's HEAD, ``-dirty`` when tracked files differ from it;
    None outside a git checkout."""
    done = subprocess.run(
        ['git', '-C', HERE, 'describe', '--always', '--dirty', '--abbrev=40',
         '--exclude=*'], capture_output=True, text=True)
    return done.stdout.strip() or None


def main_scaling(runs: int = 1, record: Optional[str] = None) -> None:
    """``runs`` protocol runs at ``GRAFT_SCALE_LO`` and ``GRAFT_SCALE_HI``
    CPUs, one JSON line each. With ``record``, each line is also appended
    there with its provenance: the invocation's start time (``batch``),
    the run index, its start time, the commit measured and the 1-minute
    host load before and after the run (a co-tenant's load shows there)."""
    lo = int(os.environ.get('GRAFT_SCALE_LO', '8'))
    hi = int(os.environ.get('GRAFT_SCALE_HI', str(lo * 4)))
    started, commit = int(time.time()), _commit()
    for run in range(1, runs + 1):
        load_pre, ts = os.getloadavg()[0], int(time.time())
        line = _scaling_run(lo, hi)
        print(json.dumps(line), flush=True)
        if record:
            with open(record, 'a') as fh:
                fh.write(json.dumps({
                    'batch': started, 'run': run, 'ts': ts, 'commit': commit,
                    'load_pre': round(load_pre, 2),
                    'load_post': round(os.getloadavg()[0], 2), 'r': line,
                }) + '\n')


def _spread(values: List[float], fmt: str) -> str:
    q1, _, q3 = (statistics.quantiles(values, n=4, method='inclusive')
                 if len(values) > 1 else values * 3)
    return (f'n={len(values)} median={statistics.median(values):{fmt}} '
            f'IQR={q1:{fmt}}-{q3:{fmt}}')


def summarize(paths: List[str]) -> None:
    """Per record, invocation (``batch``; lines without one are one
    invocation) and CPU level: the run count, median and interquartile
    range of events/s. Protocol runs also list each run (index, start time
    in UTC, efficiency, load before and after) and the efficiency's
    spread. A record line is ``{..., "r": <a bench.py JSON line>}``."""
    for path in paths:
        invocations: dict = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    invocations.setdefault(rec.get('batch', '-'), []).append(rec)
        for batch, recs in invocations.items():
            commit = recs[0].get('commit')
            print(f'{path}: invocation {batch}' + (f' at {commit}' if commit else '')
                  + f', {len(recs)} runs')
            levels: dict = {}
            effs = []
            for rec in recs:
                r = rec['r']
                if r['metric'] == 'cdc_scaling_efficiency':
                    effs.append(r['scaling_efficiency'])
                    when = time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime(rec['ts']))
                    print(f"  run {rec['run']} at {when} UTC: efficiency "
                          f"{r['scaling_efficiency']:.3f}, load "
                          f"{rec['load_pre']} -> {rec['load_post']}")
                    tputs = {int(k[len('events_per_sec_'):]): v for k, v in r.items()
                             if k.startswith('events_per_sec_')}
                else:
                    tputs = {r['num_cpus']: r['events_per_sec']}
                for ncpu, tput in tputs.items():
                    levels.setdefault(ncpu, []).append(tput)
            for ncpu in sorted(levels):
                print(f'  {ncpu:>3} CPUs: {_spread(levels[ncpu], ",.0f")} events/s')
            if effs:
                print(f'  efficiency: {_spread(effs, ".3f")}')


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main_soak() -> None:
    """Large-replay soak: the bench log (default 64M events) in
    ``SOAK_BATCHES`` micro-batches, exercising the compaction cadence,
    retained-history growth, periodic ``vacuum_history`` and a mid-replay
    DLQ redrive under memory pressure.

    Prints one JSON line per micro-batch (wall, events/sec, driver RSS,
    lake delta/history state), one for the redrive, and a final summary
    line including a ``ds.stats()`` excerpt for the last run.

    The log is globally LSN-ordered across shards and micro-batches are
    consecutive shard groups, so the delivery contract holds up to the
    generator's ~16-row disorder window at batch boundaries (a handful of
    watermark drops per boundary, irrelevant to the soak's compaction and
    memory questions)."""
    import ray

    from filters_ray.pipelines.cdc import CDCPipeline
    from filters_ray.sources.synth import LANGS

    _init_ray(NUM_CPUS)
    n_events = _n_events(SOAK_EVENTS)
    t0 = time.time()
    events_dir = event_log_path(n_events)
    gen_sec = round(time.time() - t0, 1)

    shards = sorted(
        os.path.join(events_dir, f) for f in os.listdir(events_dir)
        if f.endswith('.parquet')
    )
    per = -(-len(shards) // SOAK_BATCHES)
    groups = [shards[i:i + per] for i in range(0, len(shards), per)]

    lake = tempfile.mkdtemp(prefix='bench_soak_')
    pipeline = CDCPipeline(
        lake, num_partitions=SOAK_PARTITIONS,
        compact_every=SOAK_COMPACT_EVERY, retain_history=True,
    )
    redrive_at = len(groups) // 2
    redrive_applied = 0
    hwm_after_batch = []
    total_applied = total_skipped = 0
    for bi, group in enumerate(groups):
        bt = time.time()
        report = pipeline.run(group)
        wall = time.time() - bt
        total_applied += report.events_applied
        total_skipped += report.events_skipped
        lr = pipeline.lake_report()
        hwm_after_batch.append(lr['hwm_lsn'])
        line = {
            'batch': bi,
            'files': len(group),
            'wall_sec': round(wall, 2),
            'events_seen': report.events_seen,
            'events_per_sec': round(report.events_seen / wall, 1),
            'applied': report.events_applied,
            'skipped': report.events_skipped,
            'lake_rows': lr['lake_rows'],
            'active_deltas': lr['active_deltas'],
            'history_files': lr['history_files'],
            'driver_rss_mb': round(_rss_mb(), 1),
        }
        if (bi + 1) % SOAK_VACUUM_EVERY == 0 and bi + 1 > SOAK_KEEP_BATCHES:
            vt = time.time()
            floor = hwm_after_batch[bi - SOAK_KEEP_BATCHES]
            line['vacuumed_files'] = pipeline.vacuum_history(before_lsn=floor)
            line['vacuum_sec'] = round(time.time() - vt, 2)
            line['history_files_after_vacuum'] = \
                pipeline.lake_report()['history_files']
        print(json.dumps(line), flush=True)

        if bi == redrive_at:
            # The maintenance plane mid-replay: redrive the DLQ under a
            # widened lang set ('klingon' is one of the synthesizer's
            # planted defects), so a real slice of the rejected rows
            # re-validates and merges while later ingest batches are still
            # pending. LWW still protects the lake: a redriven event never
            # overrides a newer writer.
            before = pipeline.dlq_dataset().count()
            rt = time.time()
            rrep = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
            rwall = time.time() - rt
            redrive_applied = rrep.events_applied
            print(json.dumps({
                'redrive_after_batch': bi,
                'wall_sec': round(rwall, 2),
                'dlq_rows_before': before,
                'dlq_rows_after': pipeline.dlq_dataset().count(),
                'redrive_applied': rrep.events_applied,
                'redrive_skipped': rrep.events_skipped,
                'lake_rows': pipeline.lake_report()['lake_rows'],
                'driver_rss_mb': round(_rss_mb(), 1),
            }), flush=True)

    print(json.dumps({
        'summary': True,
        'events': n_events,
        'batches': len(groups),
        'gen_sec': gen_sec,
        'applied_total': total_applied,
        'skipped_total': total_skipped,
        'redrive_applied': redrive_applied,
        'final_dlq_rows': pipeline.dlq_dataset().count(),
        'final': pipeline.lake_report(),
        'driver_rss_mb': round(_rss_mb(), 1),
        'last_run_stats_tail': (pipeline.last_stats or '')[-1600:],
    }), flush=True)
    ray.shutdown()
    shutil.rmtree(lake, ignore_errors=True)


if __name__ == '__main__':
    ap = argparse.ArgumentParser(
        description='CDC benchmark harness; see the module docstring.')
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument('--scaling', action='store_true',
                      help='the CPU-pinned N -> 4N scaling protocol')
    mode.add_argument('--summarize', nargs='+', metavar='RECORD',
                      help='summarize --record files')
    mode.add_argument('--soak', action='store_true',
                      help='the micro-batch replay soak')
    ap.add_argument('--runs', type=int, default=1,
                    help='with --scaling: protocol runs (default 1)')
    ap.add_argument('--record', metavar='PATH',
                    help='with --scaling: append one JSON line per run')
    args = ap.parse_args()
    if (args.runs != 1 or args.record) and not args.scaling:
        ap.error('--runs and --record go with --scaling')
    if args.runs < 1:
        ap.error('--runs must be at least 1')
    if args.scaling:
        main_scaling(args.runs, args.record)
    elif args.summarize:
        summarize(args.summarize)
    elif args.soak:
        main_soak()
    else:
        main()
