"""CLI entry for the CDC ingest job (the ``ray job submit`` target).

Usage::

    python -m filters_ray.cdc_job --events /path/to/event_parquet_dir \\
        --lake /path/to/lake [--partitions 1024] [--num-cpus 32] \\
        [--retain-history] [--tail]

    # ops reads on an existing retained-history lake (no ingest):
    python -m filters_ray.cdc_job --lake /path/to/lake \\
        --changes-since 1000 [--changes-until 2000] [--out feed.parquet]
    python -m filters_ray.cdc_job --lake /path/to/lake --as-of 1500 \\
        [--out snapshot.parquet]

    # maintenance on an existing lake:
    python -m filters_ray.cdc_job --lake /path/to/lake --vacuum-before 1000
    python -m filters_ray.cdc_job --lake /path/to/lake --redrive-dlq \\
        [--strict-langs py go rs ...]

Prints the run report (or read summary) as one JSON line. Owns its Ray
session (guarded — safe under an already-initialised cluster driver too,
where it simply joins the existing session).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description='CDC ingest+upsert job')
    parser.add_argument('--events',
                        help='parquet file/dir of change events (ingest mode)')
    parser.add_argument('--lake', required=True, help='lake table root')
    parser.add_argument('--partitions', type=int, default=256,
                        help='hash partition count (pinned at lake creation)')
    parser.add_argument('--batch-size', type=int, default=131072)
    parser.add_argument('--num-cpus', type=int, default=None,
                        help='only used when this process owns ray.init')
    parser.add_argument('--strict-langs', nargs='*', default=None,
                        help='allowed lang values (default: built-in set)')
    parser.add_argument('--compact-every', type=int, default=8,
                        help='compact a partition on the commit after its base '
                             'plus deltas reach this many files')
    parser.add_argument('--retain-history', action='store_true',
                        help='keep per-commit delta snapshots (enables '
                             '--changes-since / --as-of; pinned at lake '
                             'creation)')
    parser.add_argument('--tail', action='store_true',
                        help='continuously ingest new parquet files '
                             'appearing under --events')
    parser.add_argument('--poll-interval', type=float, default=2.0)
    parser.add_argument('--idle-timeout', type=float, default=None,
                        help='stop tailing after this many idle seconds')
    parser.add_argument('--max-batches', type=int, default=None)
    parser.add_argument('--changes-since', type=int, default=None,
                        help='read mode: change-data-feed rows with '
                             'lsn > this value')
    parser.add_argument('--changes-until', type=int, default=None)
    parser.add_argument('--as-of', type=int, default=None,
                        help='read mode: snapshot of the table as of LSN')
    parser.add_argument('--report', action='store_true',
                        help='read mode: print the lake ops report '
                             '(manifest-only, no data reads)')
    parser.add_argument('--vacuum-before', type=int, default=None,
                        help='maintenance mode: collapse history below '
                             'this LSN into per-partition checkpoints '
                             'and reclaim the files (one Ray task per '
                             'partition)')
    parser.add_argument('--redrive-dlq', action='store_true',
                        help='maintenance mode: re-validate every '
                             "dead-lettered event (with --strict-langs' "
                             'widened chain if given) and upsert the '
                             'now-valid ones')
    parser.add_argument('--out', default=None,
                        help='write read-mode result to this parquet path')
    args = parser.parse_args(argv)

    maintenance_mode = args.vacuum_before is not None or args.redrive_dlq
    read_mode = (args.changes_since is not None
                 or args.as_of is not None or args.report
                 or maintenance_mode)
    if not read_mode and not args.events:
        parser.error('--events is required unless using --changes-since, '
                     '--as-of, --report, --vacuum-before or --redrive-dlq')

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        init_kwargs = dict(include_dashboard=False, ignore_reinit_error=True)
        if args.num_cpus:
            init_kwargs['num_cpus'] = args.num_cpus
        ray.init(**init_kwargs)

    try:
        from filters_ray.pipelines.cdc import CDCPipeline

        if read_mode:
            # A pure read must not create a lake as a side effect: the
            # CDCPipeline constructor writes _meta.json on a missing
            # root, so a typo'd --lake path would silently materialize
            # an empty lake (with retain_history pinned off) before
            # failing confusingly (ADVICE r3 low).
            import os

            if not os.path.exists(os.path.join(args.lake, '_meta.json')):
                print(json.dumps({
                    'error': f'no lake at {args.lake} '
                             '(read mode requires an existing lake)',
                }), file=sys.stderr)
                return 2

        pipeline = CDCPipeline(
            args.lake,
            num_partitions=args.partitions,
            langs=args.strict_langs,
            batch_size=args.batch_size,
            compact_every=args.compact_every,
            retain_history=args.retain_history,
        )
        if read_mode:
            import pyarrow.parquet as pq

            if args.vacuum_before is not None:
                removed = pipeline.vacuum_history(
                    before_lsn=args.vacuum_before)
                print(json.dumps({
                    'mode': 'vacuum', 'before_lsn': args.vacuum_before,
                    'files_removed': removed,
                    'history_files': pipeline.lake_report().get(
                        'history_files', 0),
                }))
                return 0
            if args.redrive_dlq:
                report = pipeline.replay_dlq(langs=args.strict_langs)
                print(json.dumps({'mode': 'redrive', **asdict(report)}))
                return 0
            if args.report:
                print(json.dumps(pipeline.lake_report(), sort_keys=True))
                return 0
            if args.as_of is not None:
                table = pipeline.table_as_of(args.as_of)
                kind = 'as_of'
            else:
                table = pipeline.changes(
                    since_lsn=args.changes_since,
                    until_lsn=args.changes_until,
                )
                kind = 'changes'
            if args.out:
                pq.write_table(table, args.out)
            print(json.dumps({
                'mode': kind, 'rows': table.num_rows,
                'columns': table.column_names,
                'out': args.out,
            }))
            return 0
        if args.tail:
            report = pipeline.tail(
                args.events,
                poll_interval=args.poll_interval,
                idle_timeout=args.idle_timeout,
                max_batches=args.max_batches,
            )
        else:
            report = pipeline.run(args.events)
        print(json.dumps(asdict(report)))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == '__main__':
    sys.exit(main())
