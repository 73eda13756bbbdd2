"""Per-layer measurements: the traced single-process replay and the
pinned-batch layer timings.

Every number here comes from timing calls into public layer functions
from outside (``CDCValidateStage``, ``CompiledChain.apply_column``,
``key_partition``, ``make_upsert_fn``, ``ManifestStore``,
``CDCPipeline.partition_table``); the engine itself carries no probes.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import inputs as inp
from .session import median, remove_tree

REPEATS = 5
REPLAY_PAIRS = 3
UPSERT_SLICES = 10            # bootstrap, 8 deltas (k = 0..7), compact


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out at
    the end of the run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append({})
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = {'id': sid, 'name': name, 'start': start,
                               'end': end, 'parent': parent, 'run': self.run_id}

    def self_times(self, run: str) -> Dict[str, float]:
        """Seconds per span name: each span's duration minus the part of
        it its children cover (children never overlap here)."""
        spans = [s for s in self.spans if s['run'] == run]
        child = {}
        for s in spans:
            if s['parent'] is not None:
                child[s['parent']] = child.get(s['parent'], 0.0) + s['end'] - s['start']
        out: Dict[str, float] = {}
        for s in spans:
            own = s['end'] - s['start'] - child.get(s['id'], 0.0)
            out[s['name']] = out.get(s['name'], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, 'w') as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + '\n')


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield


# -- traced replay -----------------------------------------------------------


def _split_by_partition(validated: pa.Table) -> List[pa.Table]:
    """The exchange's effect in one process: rows grouped by ``_part``."""
    part = validated.column('_part').combine_chunks()
    order = pc.sort_indices(part)
    ordered = validated.take(order)
    ids = np.asarray(ordered.column('_part').to_numpy())
    bounds = np.flatnonzero(np.diff(ids)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(ids)]])
    return [ordered.slice(a, b - a) for a, b in zip(starts, ends)]


def replay(events: pa.Table, lake: str, stage, tracer) -> Dict[str, float]:
    """validate → exchange → upsert per partition group → manifest reads,
    single-threaded, into a fresh lake."""
    from filters_ray.pipelines.cdc import make_upsert_fn
    from filters_ray.state.manifest import ManifestStore

    remove_tree(lake)
    upsert = make_upsert_fn(lake)
    t0 = time.perf_counter()
    with tracer.span('replay'):
        with tracer.span('validate'):
            validated = stage(events)
        with tracer.span('exchange'):
            groups = _split_by_partition(validated)
        for group in groups:
            with tracer.span('upsert'):
                upsert(group)
        with tracer.span('manifest'):
            manifests = ManifestStore(lake).all_manifests()
    wall = time.perf_counter() - t0
    sizes = [g.num_rows for g in groups]
    return {
        'wall_s': wall,
        'spans': 2 + len(groups) + 2,
        'exchange_bytes': validated.nbytes,
        'exchange_skew': max(sizes) / (sum(sizes) / inp.PARTITIONS),
        'lake_rows': sum(m.rows for m in manifests.values()),
    }


def traced_replay(events: pa.Table, work: str, tracer: Tracer) -> Dict[str, float]:
    """Interleave untraced and traced replays (ABBAAB); the traced ones
    give self times, the difference of medians is the tracing overhead."""
    from filters_ray.pipelines.cdc import CDCValidateStage

    stage = CDCValidateStage(num_partitions=inp.PARTITIONS)
    stage(events.slice(0, 1024))  # chain caches, outside the timing
    lake = os.path.join(work, 'replay-lake')
    prefix = tracer.run_id
    plain, traced, runs, info = [], [], [], None
    for i in range(2 * REPLAY_PAIRS):
        if (i + i // 2) % 2:  # plain, traced, traced, plain, plain, traced
            tracer.run_id = f'{prefix}/replay-{i}'
            runs.append(tracer.run_id)
            info = replay(events, lake, stage, tracer)
            traced.append(info['wall_s'])
        else:
            plain.append(replay(events, lake, stage, _NoTracer())['wall_s'])
    tracer.run_id = prefix
    remove_tree(lake)
    self_s = [tracer.self_times(r) for r in runs]
    return {
        'events_per_s': events.num_rows / median(plain),
        'overhead_ms': (median(traced) - median(plain)) * 1e3,
        'spans': info['spans'],
        'exchange_bytes': info['exchange_bytes'],
        'exchange_skew': info['exchange_skew'],
        **{f'self_ms.{k}': median([t[k] for t in self_s]) * 1e3
           for k in ('replay', 'validate', 'exchange', 'upsert', 'manifest')},
    }


# -- pinned-batch layer timings ---------------------------------------------


def _median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def validate_layers(batch: pa.Table) -> Dict[str, float]:
    from filters_ray.pipelines.cdc import CDCValidateStage, key_partition
    from filters_ray.stages.validate import ERRORS_COLUMN

    stage = CDCValidateStage(num_partitions=inp.PARTITIONS)
    out = stage(batch)
    validator = stage.validator
    chains = {}
    for col, chain in validator.compiled.items():
        column = batch.column(col)
        chains[col] = _median_ms(lambda c=chain, x=column: c.apply_column(x))
    table_ms = _median_ms(lambda: validator.validate_table(batch))
    repo = batch.column('repo').combine_chunks()
    path = batch.column('path').combine_chunks()
    rejected = pc.sum(pc.greater(pc.list_value_length(out.column(ERRORS_COLUMN)), 0))
    return {
        'batch_ms': _median_ms(lambda: stage(batch)),
        'assemble_ms': table_ms - sum(chains.values()),
        'rejected_rows': rejected.as_py(),
        'key_partition_ms': _median_ms(
            lambda: key_partition(repo, path, inp.PARTITIONS)),
        **{f'chain_ms.{c}': v for c, v in chains.items()},
    }


def _proc_io() -> Dict[str, int]:
    with open('/proc/self/io') as fh:
        return {k: int(v) for k, v in (line.split(': ') for line in fh)}


def _file_states(root: str) -> Dict[str, tuple]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            st = os.stat(p)
            out[p] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return out


def upsert_layers(batch: pa.Table, work: str) -> Dict[str, float]:
    """One pinned partition group committed as bootstrap, then 8 deltas
    (k = 0..7 active deltas before each), then a compaction; the lake is
    read back with ``partition_table`` after each commit."""
    from filters_ray.pipelines.cdc import CDCPipeline, CDCValidateStage, make_upsert_fn
    from filters_ray.state.manifest import ManifestStore

    stage = CDCValidateStage(num_partitions=inp.PARTITIONS)
    cuts = inp.safe_cuts(batch, UPSERT_SLICES)
    validated = [stage(batch.slice(a, b - a)) for a, b in zip(cuts, cuts[1:])]
    parts = np.concatenate([v.column('_part').to_numpy() for v in validated])
    pid = int(np.bincount(parts).argmax())
    groups = [v.filter(pc.equal(v.column('_part'), pid)) for v in validated]

    lake = os.path.join(work, 'upsert-lake')
    times: Dict[str, List[float]] = {}
    reads: Dict[int, List[float]] = {}
    first: Optional[Dict[str, float]] = None
    for rep in range(3):
        remove_tree(lake)
        pipeline = CDCPipeline(lake, num_partitions=inp.PARTITIONS)
        upsert = make_upsert_fn(lake, compact_every=UPSERT_SLICES - 1)
        counts: Dict[str, float] = {'files_written': 0, 'bytes_written': 0}
        for j, group in enumerate(groups):
            mode = ('bootstrap' if j == 0 else
                    'compact' if j == UPSERT_SLICES - 1 else 'delta')
            files0, io0 = _file_states(lake), _proc_io()
            t0 = time.perf_counter()
            upsert(group)
            times.setdefault(mode, []).append(time.perf_counter() - t0)
            io1, files1 = _proc_io(), _file_states(lake)
            counts['files_written'] += sum(
                1 for p, s in files1.items() if files0.get(p) != s)
            counts['bytes_written'] += io1['wchar'] - io0['wchar']
            if mode == 'delta':
                counts[f'delta_read_bytes.k{j - 1}'] = io1['rchar'] - io0['rchar']
            if mode != 'compact':
                t0 = time.perf_counter()
                pipeline.partition_table(pid)
                reads.setdefault(j, []).append(time.perf_counter() - t0)
        if first is None:
            first = counts
    store = ManifestStore(lake)
    manifest = store.read_manifest(pid)

    def commit():
        store.commit_partition(manifest, None, remove_data=False,
                               expected_version=manifest.commit_version)

    commit_ms = _median_ms(commit, repeats=20)
    remove_tree(lake)
    return {
        **{f'{m}_ms': median(v) * 1e3 for m, v in times.items()},
        **first,
        **{f'partition_table_ms.k{k}': median(v) * 1e3 for k, v in reads.items()},
        'manifest_commit_ms': commit_ms,
    }
