"""Benchmark driver: headline CDC ingest+upsert + query suite.

Usage::

    python bench.py                 # one JSON line on stdout
    python bench.py --scaling       # run headline at 8 and 32 CPUs in fresh
                                    # processes; report scaling efficiency

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default 32), ``GRAFT_BENCH_EVENTS`` (default 1_000_000 at sf0.1).

The headline metric is sustained change-events/sec through the full CDC
pipeline (validate → hash shuffle → LWW upsert → manifest commit), the
BASELINE.json target, reported for the median warm pass. The event log is
synthesized deterministically once and cached as parquet (generation is
untimed); each run upserts into a fresh lake so runs are comparable.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


SF_DIR = os.environ.get('GRAFT_SF_DIR', '/root/testdata/sf0.1')
NUM_CPUS = int(os.environ.get('RAY_GRAFT_CPUS', '32'))

_EVENTS_BY_SF = {
    'sf0.001': 20_000,
    'sf0.01': 120_000,
    'sf0.1': 1_000_000,
}


def _n_events() -> int:
    if 'GRAFT_BENCH_EVENTS' in os.environ:
        return int(os.environ['GRAFT_BENCH_EVENTS'])
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


def run_headline(num_cpus: int) -> dict:
    """The CDC ingest+upsert pipeline; returns timing + throughput."""
    import ray
    import ray.data as rd

    from filters_ray.pipelines.cdc import CDCPipeline

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
    report = None
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
            if os.environ.get('GRAFT_BENCH_STATS'):
                print(pipeline.last_stats, file=sys.stderr)
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
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address='local',
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level='ERROR',
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger('ray.data').setLevel(logging.ERROR)

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


def main_scaling() -> None:
    """Run the headline job at N=8 and 4N=32 CPUs in fresh processes.

    Each level is CPU-PINNED (``taskset -c 0-(n-1)``) so an "8-CPU node"
    really has 8 cores: without pinning, numpy/arrow worker threads bleed
    onto the host's idle cores and inflate the low level by 10-25%
    (measured), understating the true node-to-node scaling ratio.
    """

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_HEADLINE_ONLY='1',
            # Larger log for the scaling measurement: fixed scheduler /
            # shuffle-coordination latency (~2s) must be small relative to
            # work, as it is at the real 10^10-event design point.
            GRAFT_BENCH_EVENTS=os.environ.get('GRAFT_BENCH_EVENTS', '16000000'),
        )
        cmd = [sys.executable, 'bench.py']
        if shutil.which('taskset'):
            cmd = ['taskset', '-c', f'0-{ncpu - 1}'] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = int(os.environ.get('GRAFT_SCALE_LO', '8'))
    hi = int(os.environ.get('GRAFT_SCALE_HI', str(lo * 4)))
    r_lo = run(lo)
    r_hi = run(hi)
    tput_lo = r_lo['events_per_sec']
    tput_hi = r_hi['events_per_sec']
    eff = (tput_hi / tput_lo) / (hi / lo)
    print(json.dumps({
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
    }))


if __name__ == '__main__':
    if '--scaling' in sys.argv:
        main_scaling()
    else:
        main(headline_only=bool(os.environ.get('GRAFT_HEADLINE_ONLY')))
