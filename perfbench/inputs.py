"""Seeded benchmark inputs and their oracle answers, cached per seed.

Everything here sits outside the system under test: the ``synth_fast``
generator makes the change log, the scalar ``replay_oracle`` computes the
expected final state, and both are written once per seed under the work
directory so later runs with the same seed skip them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Log shape. Keys = events / 5 and the default corruption taxonomy
# (6% invalid, 3% duplicate deliveries, 8% deletes, zipf-1.2 repos).
N_EVENTS = 65_536
# Arrival files for the tail. One commit costs 0.35-0.55 s on a 4-partition
# lake on one core, nearly all of it fixed cost, and twice that when the
# host is slow; the files arrive every 1.5 s, so a commit finishes before
# the next file is due even then.
N_FILES = 8
WINDOW = 16                   # synth_fast disorder window: cuts land on it
PARTITIONS = 64               # bulk lake
TAIL_PARTITIONS = 4           # tail/maintenance lake
WARMUP_EVENTS = 4_096
PINNED_ROWS = 131_072         # pinned layer batch (one validate batch)
PINNED_SEED = 42              # the pinned batch is the same for every seed
BOUNDARY_FILE = 3             # maintenance B: end of the third file


def code_digest(root: str) -> str:
    """sha256 over the engine's and the benchmark's Python sources. The
    cache lives under it, so a lake or an answer is never reused across
    versions of the code that made it."""
    h = hashlib.sha256()
    for pkg in ('filters_ray', 'perfbench'):
        for dirpath, dirs, names in os.walk(os.path.join(root, pkg)):
            dirs.sort()
            for name in sorted(names):
                if name.endswith('.py'):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode() + b'\0')
                    with open(path, 'rb') as fh:
                        h.update(fh.read())
    return h.hexdigest()


def key_str(repo: str, path: str) -> str:
    return f'{repo}\x00{path}'


def table_digest(table: pa.Table) -> str:
    """sha256 of a table's IPC bytes — input identity for the self-test."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def make_log(seed: int, n_events: int = N_EVENTS) -> pa.Table:
    from filters_ray.sources.synth_fast import make_events_fast

    return make_events_fast(n_events, n_keys=n_events // 5, seed=seed)


def safe_cuts(log: pa.Table, n_files: int) -> List[int]:
    """Row cuts at multiples of the disorder window where the delivery
    contract holds: no event first delivered after a cut carries an lsn
    at or below one delivered before it.

    ``synth_fast`` re-emits row ``i - 1`` as a duplicate of row ``i``; when
    both a window's first row and the row before it are duplicates, event
    ``i - 1`` first appears after the cut. Such cuts move one window on.
    """
    n = log.num_rows
    lsn = np.asarray(log.column('lsn').to_numpy(), dtype=np.int64)
    target = n // n_files
    cuts = [0]
    for k in range(1, n_files):
        c = (k * target) // WINDOW * WINDOW
        while c < n:
            before, after = lsn[:c], lsn[c:]
            hi = before[before >= 0].max(initial=-1)
            late = after[(after >= 0) & (after <= hi)]
            if np.isin(late, before).all():
                break
            c += WINDOW
        cuts.append(c)
    cuts.append(n)
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError('could not place file cuts on the log')
    return cuts


@dataclass
class Inputs:
    """One seed's inputs (paths under the cache directory) and answers."""

    seed: int
    root: str
    prep_s: float              # generation + oracle time, 0.0 on a cache hit

    @property
    def bulk_path(self) -> str:
        return os.path.join(self.root, 'bulk', 'events.parquet')

    @property
    def files_dir(self) -> str:
        return os.path.join(self.root, 'files')

    @property
    def file_names(self) -> List[str]:
        return sorted(os.listdir(self.files_dir))

    @property
    def warmup_path(self) -> str:
        return os.path.join(self.root, 'warmup.parquet')

    def _json(self, name: str) -> dict:
        with open(os.path.join(self.root, name)) as fh:
            return json.load(fh)

    @functools.cached_property
    def meta(self) -> dict:
        return self._json('meta.json')

    @functools.cached_property
    def oracle(self) -> dict:
        """{'digests': {key: sha}, 'rejected_by_code': {...}} over the log."""
        return self._json('oracle.json')

    def oracle_prefix(self) -> dict:
        """Oracle answer over files [0, BOUNDARY_FILE) (the as-of check).
        Only the maintenance cycle needs it, so it is computed on first use
        and then cached with the seed's other answers."""
        path = os.path.join(self.root, 'oracle_prefix.json')
        if not os.path.exists(path):
            rows = self.meta['cuts'][BOUNDARY_FILE]
            answer = oracle_answer(pq.read_table(self.bulk_path).slice(0, rows))
            _write_json(f'{path}.tmp-{os.getpid()}', answer)
            os.replace(f'{path}.tmp-{os.getpid()}', path)
        return self._json('oracle_prefix.json')

    @property
    def bulk_bytes(self) -> int:
        return os.path.getsize(self.bulk_path)

    @property
    def files_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.files_dir, f))
                   for f in self.file_names)


def oracle_answer(events: pa.Table) -> dict:
    from filters_ray.sources.oracle import replay_oracle

    result = replay_oracle(events.to_pylist())
    return {
        'digests': {
            key_str(*k): v for k, v in sorted(result.sha256_by_key().items())
        },
        'rejected_by_code': dict(sorted(result.rejected_by_code.items())),
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, 'w') as fh:
        json.dump(payload, fh, sort_keys=True)


def prepare(seed: int, cache_root: str) -> Inputs:
    """Generate (or reuse) the seed's log, arrival files and oracle
    answer over the whole log."""
    root = os.path.join(cache_root, f'seed-{seed}')
    if os.path.exists(os.path.join(root, 'meta.json')):
        return Inputs(seed, root, 0.0)
    t0 = time.perf_counter()
    tmp = f'{root}.tmp-{os.getpid()}'
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, 'bulk'))
    os.makedirs(os.path.join(tmp, 'files'))

    log = make_log(seed)
    pq.write_table(log, os.path.join(tmp, 'bulk', 'events.parquet'))
    cuts = safe_cuts(log, N_FILES)
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        pq.write_table(log.slice(a, b - a),
                       os.path.join(tmp, 'files', f'events-{i:05d}.parquet'))
    # Warm-up input: a separate small log, so warm-up never touches the
    # measured lake or its page cache.
    pq.write_table(make_log(seed + 1_000_003, WARMUP_EVENTS),
                   os.path.join(tmp, 'warmup.parquet'))

    boundary_row = cuts[BOUNDARY_FILE]
    _write_json(os.path.join(tmp, 'oracle.json'), oracle_answer(log))
    _write_json(os.path.join(tmp, 'meta.json'), {
        'seed': seed,
        'events': log.num_rows,
        'cuts': cuts,
        # Every event delivered before the boundary cut has lsn < the cut
        # row (disorder stays inside a window), later new events are above.
        'boundary_lsn': boundary_row - 1,
        'input_digest': table_digest(log),
    })
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return Inputs(seed, root, time.perf_counter() - t0)


def pinned_batch(cache_root: str) -> pa.Table:
    """The fixed 131,072-row layer batch (same for every seed)."""
    path = os.path.join(cache_root, 'pinned.parquet')
    if not os.path.exists(path):
        tmp = f'{path}.tmp-{os.getpid()}'
        pq.write_table(make_log(PINNED_SEED, PINNED_ROWS), tmp)
        os.replace(tmp, path)
    return pq.read_table(path)


def oracle_digests_of(table: pa.Table) -> Dict[str, str]:
    """Engine-side twin of the oracle digests (sha256(content) per key)."""
    from filters_ray.sources.oracle import final_state_digests

    return {key_str(*k): v for k, v in final_state_digests(table).items()}
