"""Join planning: broadcast map-side hash join + size-based auto choice.

Three join shapes exist in the engine; this module adds the first and
the chooser:

* **broadcast_join** — the right side fits comfortably in a worker heap:
  ship it ONCE via ``ray.put`` (plasma, zero-copy per node), build the
  merge state once per worker process, and stream left batches through
  a map-side merge as Ray tasks. ZERO shuffles — the left side never
  moves.
* **hash_bucket_join** (stages/cogroup.py) — both sides big: one
  all-to-all bucketed exchange.
* **auto_join** — picks by the right side's (estimated) byte size:
  broadcast under the limit, shuffle otherwise. Right/full-outer always
  route to the shuffle join (map-side tasks cannot know which right rows
  stayed unmatched globally).

SQL null-key semantics throughout, matching hash_bucket_join: a null key
never matches; null-key left rows survive under 'left'/'anti', drop
under 'inner'/'semi'.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ['auto_join', 'broadcast_join']

_BROADCAST_MODES = ('inner', 'left', 'semi', 'anti')


class _BroadcastJoinStage:
    def __init__(self, table_ref, left_on: str, right_on: str,
                 how: str) -> None:
        import ray

        right: pa.Table = ray.get(table_ref)
        df = right.to_pandas()
        # SQL: null keys match nothing — drop them from the build side.
        self.right = df[df[right_on].notna()]
        # Original Arrow types: the output is rebuilt against these so
        # pandas' null-padding float promotion (unmatched left rows in a
        # 'left' join NaN-fill int right columns → float64) can never
        # leak heterogeneous block schemas downstream (ADVICE r3 —
        # broadcast and shuffle plans must be byte-identical).
        self.r_types = {
            name: right.schema.field(name).type
            for name in right.column_names
        }
        self.left_on = left_on
        self.right_on = right_on
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        l_types = {
            name: batch.schema.field(name).type
            for name in batch.column_names
        }
        left = batch.to_pandas()
        lo, ro, how = self.left_on, self.right_on, self.how
        if how in ('semi', 'anti'):
            keys = left[lo]
            matched = keys.notna() & keys.isin(self.right[ro])
            keep = matched if how == 'semi' else ~matched
            out = left[keep]
        else:
            notna = left[lo].notna()
            merged = left[notna].merge(
                self.right, left_on=lo, right_on=ro,
                how='inner' if how == 'inner' else 'left',
                suffixes=(None, None),
            )
            if ro != lo and ro in merged.columns:
                merged = merged.drop(columns=[ro])
            if how == 'left' and (~notna).any():
                # Null-key left rows survive unmatched.
                merged = pd.concat([merged, left[~notna]],
                                   ignore_index=True)
            out = merged
        arrays = {}
        for c in out.columns:
            t = l_types.get(c, self.r_types.get(c))
            try:
                arrays[c] = pa.array(out[c].values, type=t, from_pandas=True)
            except (pa.ArrowInvalid, pa.ArrowTypeError) as exc:
                # Fail loudly (ADVICE r4): a silent infer-fallback here
                # could emit divergent per-batch schemas — the exact
                # leak the type restore exists to plug — and would mask
                # a lossy value (e.g. a non-integral float where an int
                # column was expected; NaN padding alone restores fine
                # via from_pandas null handling).
                raise TypeError(
                    f'broadcast join could not restore column {c!r} to '
                    f'its original Arrow type {t} (pandas dtype '
                    f'{out[c].dtype}): {exc}',
                ) from exc
        return pa.table(arrays).replace_schema_metadata(None)


# One join stage per worker process and stage key. A key holds the right
# table's ObjectRef, and a cached stage pins that object in the worker,
# so only the last few stay cached.
_join_stage = functools.lru_cache(maxsize=4)(_BroadcastJoinStage)


def _broadcast_merge(key: tuple, batch: pa.Table) -> pa.Table:
    """Join ``batch`` with the :class:`_BroadcastJoinStage` of ``key``."""
    return _join_stage(*key)(batch)


def broadcast_join(left, right_table: pa.Table, left_on: str,
                   right_on: str, how: str = 'inner'):
    """Map-side hash join of a Dataset against an in-memory right table.

    ``right_table`` is shipped once (``ray.put``); each worker process
    builds its merge state once. 'semi'/'anti' return left columns
    only."""
    import ray

    if how not in _BROADCAST_MODES:
        raise ValueError(
            f'broadcast_join supports {_BROADCAST_MODES}, not {how!r}')
    overlap = (set(left.schema().names)
               & set(right_table.column_names)) - {left_on}
    if how in ('inner', 'left') and overlap - {right_on}:
        raise ValueError(
            f'column names collide across join sides: {overlap - {right_on}}')
    key = (ray.put(right_table), left_on, right_on, how)
    return left.map_batches(functools.partial(_broadcast_merge, key),
                            batch_format='pyarrow')


def _estimated_bytes(ds) -> Optional[int]:
    """Size estimate WITHOUT triggering execution: trust only metadata
    (parquet reads report file-backed sizes; materialized datasets their
    block sizes). Unknown → None."""
    try:
        import ray.data as rd  # noqa: F401

        n = ds.size_bytes()
        return int(n) if n is not None else None
    except Exception:  # noqa: BLE001 — estimation must never fail a join
        return None


def auto_join(left, right, left_on: str, right_on: str,
              how: str = 'inner',
              broadcast_limit_bytes: int = 64 << 20,
              num_buckets: int = 32):
    """Join two Datasets, choosing the physical join by right-side size:
    collect + broadcast when the right side is (estimated) under
    ``broadcast_limit_bytes`` and the mode allows it; otherwise the
    bucketed shuffle join. Semantics are identical either way
    (equivalence-tested)."""
    from .cogroup import hash_bucket_join

    est = _estimated_bytes(right) if how in _BROADCAST_MODES else None
    if est is not None and est <= broadcast_limit_bytes:
        blocks = [b for b in right.iter_batches(batch_format='pyarrow')]
        if blocks:
            schema = blocks[0].schema
            right_table = pa.concat_tables([
                b if b.schema.equals(schema) else b.cast(schema)
                for b in blocks if b.num_rows
            ] or [blocks[0]])
        else:
            right_table = pa.table({})
        if right_table.num_columns:
            return broadcast_join(left, right_table, left_on, right_on,
                                  how=how)
    return hash_bucket_join(left, right, left_on=left_on,
                            right_on=right_on, how=how,
                            num_buckets=num_buckets)
