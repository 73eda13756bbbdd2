"""The three workloads. Each times only calls into the public CDC entry
points, checks their outputs against the scalar oracle and fills an
``Outcome`` with its end-to-end metrics, work counters and operator
statistics.

A workload measures in segments, one in each of the last ``sessions`` Ray
sessions of a run (``segment``), and then reports (``finish``). Spreading
the measurement over sessions set up apart in time averages out both the
speed of a session and the host's speed drifting during the run."""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import inputs as inp
from .session import dir_stats, dlq_rows, median, merge_stats, parse_stats, remove_tree

# Workloads repeat until --seconds have passed, with a floor on the sample
# count; the host's speed varies too much for a fixed count to keep a
# run's length in bounds.
BULK_PASSES_MIN = 3
TAIL_INTERVAL_S = 1.5         # one arrival file every 1.5 s
# The tail counters that repeat whatever the batching: it follows how the
# commits kept up with the arrivals, and with it how many rows a batch
# skips and how many files the lake holds.
TAIL_FIXED_COUNTERS = ('rows_in', 'rows_rejected', 'lake_rows')
CHANGES_CALLS = 3             # per maintenance cycle
AS_OF_CALLS = 12              # per maintenance cycle


class CallFailed(Exception):
    """A public call raised; the workload cannot go on."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    maint: Dict[str, object] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)

    def call(self, fn: Callable, *args, **kwargs):
        """Run one public call; returns (result, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, then the run stops
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise CallFailed(getattr(fn, '__name__', 'call')) from exc
        return out, time.perf_counter() - t0

    def check(self, name: str, ok: bool) -> None:
        """An output check; a failed one counts as a failed call."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f'check failed: {name}', file=sys.stderr)


@dataclass
class Context:
    inputs: inp.Inputs
    work: str

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def _check_final_state(out: Outcome, ctx: Context, pipeline, table, what: str) -> None:
    oracle = ctx.inputs.oracle
    out.check(f'{what}: final state equals oracle',
              inp.oracle_digests_of(table) == oracle['digests'])
    out.check(f'{what}: rejection counts equal oracle',
              pipeline.rejection_counts() == oracle['rejected_by_code'])


def _report_counters(report) -> Dict[str, int]:
    return {
        'rows_in': report.events_seen,
        'rows_applied': report.events_applied,
        'rows_skipped': report.events_skipped,
        'rows_rejected': sum(report.rejected_by_code.values()),
        'lake_rows': report.lake_rows,
    }


def _lake_counters(lake: str) -> Dict[str, int]:
    st = dir_stats(lake)
    return {'lake_files': st['files'], 'lake_bytes': st['bytes']}


# -- bulk_replay ---------------------------------------------------------------


def _check_bulk_lake(out: Outcome, ctx: Context, pipeline, what: str) -> None:
    table, _ = out.call(pipeline.final_table)
    _check_final_state(out, ctx, pipeline, table, what)


class BulkReplay:
    """Closed loop: replay the whole log into a fresh 64-partition lake
    with one ``run`` call; passes repeat for each segment's share of
    ``--seconds``, in each of the run's sessions. The first and the last
    pass's lakes are read back with ``final_table`` and checked; every
    pass's work counters are."""

    sessions = 3

    def __init__(self) -> None:
        self.runs: List[float] = []
        self.stats: List[Dict[str, float]] = []
        self.first: Optional[Dict[str, int]] = None
        self.pipeline = None

    def segment(self, ctx: Context, seconds: float, out: Outcome) -> None:
        from filters_ray.pipelines.cdc import CDCPipeline

        lake = ctx.path('bulk-lake')
        end = time.perf_counter() + seconds
        start = len(self.runs)
        while len(self.runs) == start or time.perf_counter() < end:
            remove_tree(lake)
            self.pipeline = CDCPipeline(lake, num_partitions=inp.PARTITIONS)
            report, dt = out.call(self.pipeline.run, ctx.inputs.bulk_path)
            self.runs.append(dt)
            self.stats.append(parse_stats(self.pipeline.last_stats))
            counters = _report_counters(report)
            if self.first is None:
                self.first = counters
                _check_bulk_lake(out, ctx, self.pipeline, 'first bulk pass')
            out.check('bulk: work counters repeat across passes',
                      counters == self.first)

    def finish(self, ctx: Context, out: Outcome) -> None:
        _check_bulk_lake(out, ctx, self.pipeline, 'last bulk pass')
        events, runs = ctx.inputs.meta['events'], self.runs
        out.counters = {**self.first, **_lake_counters(ctx.path('bulk-lake'))}
        out.stats = {k: median([s[k] for s in self.stats]) for k in self.stats[0]}
        out.metrics = {
            'events_per_s': events / median(runs),
            'latency_p50_s': median(runs),
            'write_amp': out.counters['lake_bytes'] / ctx.inputs.bulk_bytes,
        }
        shares = ', '.join(f"{r} {out.stats[f'{r}.wall_s'] / median(runs):.0%}"
                           for r in ('validate', 'exchange', 'upsert'))
        out.info.append(f'bulk_replay: {len(runs)} passes of {events} events '
                        f'over {self.sessions} sessions, in s: '
                        + ' '.join(f'{t:.2f}' for t in runs)
                        + f'; share of the median pass in remote task wall '
                        f'time: {shares}')


# -- tail_microbatch -----------------------------------------------------------


def _ledger(lake: str) -> set:
    path = os.path.join(lake, '_ingest_ledger.json')
    if not os.path.exists(path):
        return set()
    with open(path) as fh:
        return set(json.load(fh)['files'])


def _deliver(src: str, dst_dir: str, name: str) -> None:
    """Atomically place one arrival file (tail ignores the tmp name)."""
    tmp = os.path.join(dst_dir, f'.{name}.tmp')
    shutil.copyfile(os.path.join(src, name), tmp)
    os.replace(tmp, os.path.join(dst_dir, name))


class OpenLoopFeeder:
    """Moves each arrival file into the tailed directory at its due time,
    on a fixed schedule that does not slow down when ingest does."""

    def __init__(self, src: str, dst: str, names: List[str], interval: float) -> None:
        self.src, self.dst, self.names = src, dst, names
        self.interval = interval
        self.start_time = time.perf_counter() + 0.05
        self.due = {n: self.start_time + i * interval for i, n in enumerate(names)}
        self.moved_at: Dict[str, float] = {}
        self.error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> 'OpenLoopFeeder':
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            for name in self.names:
                _sleep_until(self.due[name])
                _deliver(self.src, self.dst, name)
                with self._lock:
                    self.moved_at[name] = time.perf_counter()
        except BaseException as exc:  # re-raised by the ingest loop
            self.error = exc

    def arrived(self) -> int:
        with self._lock:
            return len(self.moved_at)

    def join(self) -> None:
        self._thread.join()


def _sleep_until(t: float) -> None:
    wait = t - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


def _tail_cycle(ctx: Context, out: Outcome) -> Dict[str, object]:
    """One open-loop ingest of the arrival files into a fresh lake. As
    soon as a file has arrived and no ``tail`` call is running, the
    benchmark calls ``tail(max_batches=1)``, which drains every file that
    has arrived; a slow commit makes later arrivals wait and batches
    them."""
    from filters_ray.pipelines.cdc import CDCPipeline

    names = ctx.inputs.file_names
    lake, in_dir = ctx.path('tail-lake'), ctx.path('tail-in')
    for d in (lake, in_dir):
        remove_tree(d)
    os.makedirs(in_dir)
    pipeline = CDCPipeline(lake, num_partitions=inp.TAIL_PARTITIONS,
                           retain_history=True)
    feeder = OpenLoopFeeder(ctx.inputs.files_dir, in_dir, names,
                            TAIL_INTERVAL_S).start()
    latency: Dict[str, float] = {}
    walls, stats, batch_files = [], [], []
    totals = {'rows_in': 0, 'rows_applied': 0, 'rows_skipped': 0}
    deadline = time.perf_counter() + 4 * TAIL_INTERVAL_S * len(names) + 60
    try:
        while len(latency) < len(names):
            if feeder.error is not None:
                raise feeder.error
            if time.perf_counter() > deadline:
                out.check('tail: every file ingested before the deadline', False)
                break
            if feeder.arrived() <= len(latency):
                time.sleep(0.002)
                continue
            before = _ledger(lake)
            report, dt = out.call(pipeline.tail, in_dir, max_batches=1,
                                  poll_interval=0.01, idle_timeout=0)
            returned = time.perf_counter()
            walls.append(dt)
            stats.append(parse_stats(pipeline.last_stats))
            committed = _ledger(lake) - before
            batch_files.append(len(committed))
            for name in committed:
                latency[name] = returned - feeder.due[name]
            totals['rows_in'] += report.events_seen
            totals['rows_applied'] += report.events_applied
            totals['rows_skipped'] += report.events_skipped
    finally:
        feeder.join()
    table, _ = out.call(pipeline.final_table)
    _check_final_state(out, ctx, pipeline, table, 'tail')
    rejected = pipeline.rejection_counts()
    return {
        'counters': {
            **totals,
            'rows_rejected': sum(rejected.values()),
            'lake_rows': table.num_rows,
            **_lake_counters(lake),
        },
        'stats': merge_stats(stats),
        'walls': walls,
        'latency': list(latency.values()),
        'batch_files': batch_files,
        'late': [feeder.moved_at[n] - feeder.due[n] for n in names],
    }


class TailMicrobatch:
    """Open loop: the log's arrival files land one every
    ``TAIL_INTERVAL_S`` on a schedule that does not slow down when ingest
    does (see ``_tail_cycle``). The run's last session runs cycles on
    fresh lakes for ``--seconds``, at least one; latencies and call times
    are pooled over the cycles."""

    sessions = 1

    def __init__(self) -> None:
        self.cycles: List[Dict[str, object]] = []

    def segment(self, ctx: Context, seconds: float, out: Outcome) -> None:
        end = time.perf_counter() + seconds
        start = len(self.cycles)
        while len(self.cycles) == start or time.perf_counter() < end:
            self.cycles.append(_tail_cycle(ctx, out))
            out.check('tail: fixed work counters repeat across cycles',
                      all(self.cycles[-1]['counters'][k] == self.cycles[0]['counters'][k]
                          for k in TAIL_FIXED_COUNTERS))

    def finish(self, ctx: Context, out: Outcome) -> None:
        events, cycles = ctx.inputs.meta['events'], self.cycles
        out.counters = cycles[0]['counters']
        out.stats = {k: median([c['stats'][k] for c in cycles])
                     for k in cycles[0]['stats']}
        walls = [w for c in cycles for w in c['walls']]
        samples = [t for c in cycles for t in c['latency']]
        late = [t for c in cycles for t in c['late']]
        out.metrics = {
            'events_per_s': events * len(cycles) / sum(walls),
            'latency_p50_s': median(samples),
            'write_amp': out.counters['lake_bytes'] / ctx.inputs.files_bytes,
        }
        out.info.append(
            f'tail_microbatch: {len(cycles)} cycles of {len(ctx.inputs.file_names)} '
            f'files at {1 / TAIL_INTERVAL_S:.2f} files/s, {len(walls)} tail calls of '
            f'median {median([n for c in cycles for n in c["batch_files"]])} files '
            f'(longest call {max(walls):.3f} s); commit latency of {len(samples)} '
            f'files up to {max(samples):.3f} s; generator late by median '
            f'{median(late) * 1e3:.2f} ms, max {max(late) * 1e3:.2f} ms')


# -- maintenance ---------------------------------------------------------------


def build_maintenance_lake(ctx: Context) -> str:
    """The lake ``tail_microbatch``'s ingest leaves when every commit keeps
    up (one ``tail`` call per arrival file), built closed-loop so its layout
    repeats exactly; cached per seed and code digest.
    Returns its path (never mutate it: runs work on a copy)."""
    from filters_ray.pipelines.cdc import CDCPipeline

    final = os.path.join(ctx.inputs.root, 'maintenance-lake')
    stats_path = os.path.join(ctx.inputs.root, 'maintenance-build.json')
    if os.path.exists(stats_path):
        return final
    tmp, in_dir = ctx.path('maint-build'), ctx.path('maint-build-in')
    for d in (tmp, in_dir):
        remove_tree(d)
    os.makedirs(in_dir)
    pipeline = CDCPipeline(tmp, num_partitions=inp.TAIL_PARTITIONS,
                           retain_history=True)
    stats = []
    for name in ctx.inputs.file_names:
        _deliver(ctx.inputs.files_dir, in_dir, name)
        pipeline.tail(in_dir, max_batches=1, poll_interval=0.01, idle_timeout=0)
        stats.append(parse_stats(pipeline.last_stats))
    remove_tree(in_dir)
    remove_tree(final)
    shutil.copytree(tmp, final)
    remove_tree(tmp)
    with open(stats_path, 'w') as fh:
        json.dump(merge_stats(stats), fh)
    return final


def maintenance_build_stats(ctx: Context) -> Dict[str, float]:
    with open(os.path.join(ctx.inputs.root, 'maintenance-build.json')) as fh:
        return json.load(fh)


_MAINT_TIMES = ('changes_s', 'as_of_s', 'dlq_read_s', 'redrive_s', 'vacuum_s')


def maintenance_cycle(ctx: Context, out: Outcome) -> Dict[str, object]:
    """One maintenance cycle on a fresh copy of the tail-built lake:
    change feed and time travel at a commit boundary B, the DLQ
    redrive with 'klingon' now legal, then vacuum below B. Timings come
    back as lists (``_MAINT_TIMES``) so cycles can be pooled."""
    from filters_ray.pipelines.cdc import CDCPipeline
    from filters_ray.sources.synth import LANGS

    src = build_maintenance_lake(ctx)
    lake = ctx.path('maint-lake')
    remove_tree(lake)
    shutil.copytree(src, lake)
    b = ctx.inputs.meta['boundary_lsn']
    pipeline = CDCPipeline(lake)
    before = {
        'manifest_bytes': [os.path.getsize(pipeline.store.manifest_path(p))
                           for p in range(pipeline.num_partitions)],
        'ledger_bytes': os.path.getsize(os.path.join(lake, '_ingest_ledger.json')),
        'history_files': pipeline.lake_report()['history_files'],
    }

    changes = []
    for _ in range(CHANGES_CALLS):
        feed, dt = out.call(pipeline.changes, since_lsn=b)
        changes.append(dt)
    out.check('maintenance: change feed rows are all above B',
              feed.num_rows > 0
              and min(feed.column('last_lsn').to_pylist()) > b)

    as_of = []
    expected = ctx.inputs.oracle_prefix()['digests']
    for _ in range(AS_OF_CALLS):
        snap, dt = out.call(pipeline.table_as_of, b)
        as_of.append(dt)
        out.check('maintenance: table_as_of(B) equals the oracle over files '
                  'up to B', inp.oracle_digests_of(snap) == expected)

    dlq_before = dlq_rows(lake)
    dlq_bytes = dir_stats(os.path.join(lake, '_dlq'))['bytes']
    _, dlq_read = out.call(lambda: pipeline.dlq_dataset().materialize())
    redrive, redrive_s = out.call(pipeline.replay_dlq, langs=list(LANGS) + ['klingon'])
    dlq_after = dlq_rows(lake)
    out.check('maintenance: redrive conserves rows (before = applied + '
              'skipped + after)',
              redrive.events_seen == dlq_before
              and dlq_before == redrive.events_applied + redrive.events_skipped + dlq_after)
    out.check('maintenance: the planted lang re-validates', redrive.events_applied > 0)

    removed, vacuum_s = out.call(pipeline.vacuum_history, b)
    out.check('maintenance: vacuum removed history below B', removed > 0)

    report = pipeline.lake_report()
    out.counters = {
        'rows_in': redrive.events_seen,
        'rows_applied': redrive.events_applied,
        'rows_skipped': redrive.events_skipped,
        'rows_rejected': sum(report['rejected_by_code'].values()),
        'lake_rows': report['lake_rows'],
        **_lake_counters(lake),
    }
    return {
        'changes_rows': feed.num_rows,
        'changes_s': changes,
        'as_of_s': as_of,
        'dlq_rows': dlq_before,
        'dlq_bytes': dlq_bytes,
        'dlq_read_s': [dlq_read],
        'redrive_s': [redrive_s],
        'vacuum_s': [vacuum_s],
        'vacuum_files_removed': removed,
        'manifest_bytes_max': max(before['manifest_bytes']),
        'manifest_bytes_total': sum(before['manifest_bytes']),
        'ledger_bytes': before['ledger_bytes'],
        'history_files': before['history_files'],
    }


class Maintenance:
    """Change feed, time travel, DLQ redrive and vacuum on the lake the
    tail ingest of the same log leaves, repeated on fresh copies for
    ``--seconds`` in the run's last session."""

    sessions = 1

    def __init__(self) -> None:
        self.cycles: List[Dict[str, object]] = []

    def segment(self, ctx: Context, seconds: float, out: Outcome) -> None:
        # An untimed first cycle pays the read and redrive paths' first-use
        # costs in this session; its checks still count.
        maintenance_cycle(ctx, out)
        end = time.perf_counter() + seconds
        while not self.cycles or time.perf_counter() < end:
            self.cycles.append(maintenance_cycle(ctx, out))

    def finish(self, ctx: Context, out: Outcome) -> None:
        cycles = self.cycles
        m = dict(cycles[-1])
        for key in _MAINT_TIMES:
            m[key] = [t for c in cycles for t in c[key]]
        out.maint = m
        out.stats = maintenance_build_stats(ctx)
        lake = ctx.path('maint-lake')
        out.metrics = {
            'events_per_s': m['dlq_rows'] / median(m['redrive_s']),
            'latency_p50_s': median(m['as_of_s']),
            'write_amp': dir_stats(lake)['bytes'] / ctx.inputs.files_bytes,
        }
        out.info.append(
            f"maintenance: B = {ctx.inputs.meta['boundary_lsn']}; {len(cycles)} "
            f"cycles; {m['changes_rows']} change rows in "
            f"{median(m['changes_s']):.3f} s; {len(m['as_of_s'])} as-of reads; "
            f"redrive of {m['dlq_rows']} DLQ rows "
            f"in {median(m['redrive_s']):.3f} s; vacuum removed "
            f"{m['vacuum_files_removed']} files in {median(m['vacuum_s']):.3f} s")


WORKLOADS = {
    'bulk_replay': BulkReplay,
    'tail_microbatch': TailMicrobatch,
    'maintenance': Maintenance,
}
