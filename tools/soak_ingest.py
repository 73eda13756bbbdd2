"""Large-replay soak (VERDICT r3 #8): a 64M+ event ingest in micro-batches
exercising delta-compaction cadence (``compact_every``), retained history
growth, and periodic ``vacuum_history`` under memory pressure.

Usage::

    python tools/soak_ingest.py [--events 64000000] [--batches 16]
        [--compact-every 4] [--partitions 128] [--vacuum-every 4]

Prints one JSON line per micro-batch (wall, events/sec, driver RSS, lake
delta/history state) and a final summary line including a ``ds.stats()``
excerpt for the last run. Results are recorded in BASELINE.md.

The event log is the bench generator's (cached, globally LSN-ordered
across shards); micro-batches are consecutive shard groups, so the
delivery contract holds up to the generator's ~16-row disorder window at
batch boundaries (a handful of watermark drops per boundary — noted in
the summary, irrelevant to the soak's compaction/memory questions).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument('--events', type=int, default=64_000_000)
    ap.add_argument('--batches', type=int, default=16)
    ap.add_argument('--compact-every', type=int, default=4)
    ap.add_argument('--partitions', type=int, default=128)
    ap.add_argument('--vacuum-every', type=int, default=4)
    ap.add_argument('--vacuum-keep-batches', type=int, default=2,
                    help='retain at least this many recent batch windows')
    ap.add_argument('--redrive-at', type=int, default=None,
                    help='after this batch index, run a widened-langs DLQ '
                         'redrive mid-replay (maintenance plane coexisting '
                         'with ingest; default: batches // 2)')
    ap.add_argument('--no-redrive', action='store_true')
    ap.add_argument('--num-cpus', type=int,
                    default=int(os.environ.get('RAY_GRAFT_CPUS', '32')))
    ap.add_argument('--lake', default='/tmp/soak_lake')
    args = ap.parse_args()

    import ray

    ray.init(address='local', num_cpus=args.num_cpus,
             include_dashboard=False, ignore_reinit_error=True,
             logging_level='ERROR')
    import logging

    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger('ray.data').setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from bench import event_log_path

    from filters_ray.pipelines.cdc import CDCPipeline

    t0 = time.time()
    events_dir = event_log_path(args.events)
    gen_sec = round(time.time() - t0, 1)

    shards = sorted(
        os.path.join(events_dir, f) for f in os.listdir(events_dir)
        if f.endswith('.parquet')
    )
    per = -(-len(shards) // args.batches)
    groups = [shards[i:i + per] for i in range(0, len(shards), per)]

    shutil.rmtree(args.lake, ignore_errors=True)
    pipeline = CDCPipeline(
        args.lake, num_partitions=args.partitions,
        compact_every=args.compact_every, retain_history=True,
    )

    redrive_at = args.redrive_at
    if redrive_at is None and not args.no_redrive:
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
            'driver_rss_mb': round(rss_mb(), 1),
        }
        vacuumed = 0
        if (
            args.vacuum_every and (bi + 1) % args.vacuum_every == 0
            and bi + 1 > args.vacuum_keep_batches
        ):
            vt = time.time()
            floor = hwm_after_batch[bi - args.vacuum_keep_batches]
            vacuumed = pipeline.vacuum_history(before_lsn=floor)
            line['vacuumed_files'] = vacuumed
            line['vacuum_sec'] = round(time.time() - vt, 2)
            line['history_files_after_vacuum'] = \
                pipeline.lake_report()['history_files']
        print(json.dumps(line), flush=True)

        if redrive_at is not None and bi == redrive_at:
            # Maintenance plane mid-replay (VERDICT r4 #7): redrive the
            # DLQ under a widened lang set ('klingon' is one of the
            # synthesizer's planted defects), so a real slice of the
            # rejected rows re-validates and merges while later ingest
            # batches are still pending. LWW still protects the lake:
            # a redriven event never overrides a newer writer.
            from filters_ray.sources.synth import LANGS
            before = pipeline.dlq_dataset().count()
            rt = time.time()
            rrep = pipeline.replay_dlq(langs=list(LANGS) + ['klingon'])
            rwall = time.time() - rt
            after = pipeline.dlq_dataset().count()
            redrive_applied = rrep.events_applied
            print(json.dumps({
                'redrive_after_batch': bi,
                'wall_sec': round(rwall, 2),
                'dlq_rows_before': before,
                'dlq_rows_after': after,
                'redrive_applied': rrep.events_applied,
                'redrive_skipped': rrep.events_skipped,
                'lake_rows': pipeline.lake_report()['lake_rows'],
                'driver_rss_mb': round(rss_mb(), 1),
            }), flush=True)

    stats = pipeline.last_stats
    final = pipeline.lake_report()
    print(json.dumps({
        'summary': True,
        'events': args.events,
        'batches': len(groups),
        'gen_sec': gen_sec,
        'applied_total': total_applied,
        'skipped_total': total_skipped,
        'redrive_applied': redrive_applied,
        'final_dlq_rows': pipeline.dlq_dataset().count(),
        'final': final,
        'driver_rss_mb': round(rss_mb(), 1),
        'last_run_stats_tail': (stats or '')[-1600:],
    }), flush=True)

    ray.shutdown()


if __name__ == '__main__':
    main()
