"""Distributed grouped top-k (per-key window rank, ROW_NUMBER <= k).

SQL shape::

    SELECT * FROM (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY key ORDER BY value DESC,
                                   tie...) AS rn
      FROM t
    ) WHERE rn <= k

Scale shape (no global sort, no per-distinct-key task):

1. ``map_batches`` partial: each block keeps its own top-k *per key*
   (vectorized pandas ``sort_values`` + ``groupby(...).head(k)``) — the
   only stage that sees full data, emits ≤ k × keys-in-block rows.
2. One hash-bucket shuffle on ``hash(key) % num_buckets`` (Python task
   count stays O(num_buckets), never O(distinct keys)).
3. Per-bucket final: the same sort+head over the ≤ k × blocks
   candidates per key.

Top-k-per-key is associative under a TOTAL order, so callers must make
the order total: ``tie_by`` columns break value ties deterministically
(typically the natural unique id). Ordering of output rows is
unspecified (downstream sorts, like any shuffle consumer).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .keyhash import hash_keys

__all__ = ['grouped_top_k']

_BUCKET = '_tk_b'


def grouped_top_k(
    ds,
    key: str,
    value: str,
    k: int,
    descending: bool = True,
    tie_by: Optional[Sequence[str]] = None,
    num_buckets: int = 64,
):
    """Top ``k`` rows per distinct ``key``, ordered by ``value``
    (descending by default) with ``tie_by`` ascending as tie-break.
    Returns a Dataset with the input columns (all preserved)."""
    if k < 1:
        raise ValueError('k must be >= 1')
    tie_cols: List[str] = list(tie_by or [])
    sort_cols = [value] + tie_cols
    ascending = [not descending] + [True] * len(tie_cols)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(sort_cols, ascending=ascending, kind='mergesort')
            .groupby(key, sort=False, dropna=False)
            .head(k)
        )

    rank_cols = [key] + [c for c in sort_cols if c != key]

    def partial(batch: pa.Table) -> pa.Table:
        # Only the ranking columns round-trip through pandas; payload
        # columns are gathered zero-copy-ish by the arrow take below.
        df = batch.select(rank_cols).to_pandas()  # RangeIndex = positions
        kept = local_topk(df)
        out = batch.take(pa.array(kept.index.to_numpy()))
        h = hash_keys(out.column(key))
        return out.append_column(
            _BUCKET, pa.array((h % np.uint64(num_buckets)).astype(np.int64)),
        )

    schema = ds.schema()
    types = dict(zip(schema.names, schema.types))
    out_cols = list(schema.names)

    def final(group: pd.DataFrame) -> pa.Table:
        kept = local_topk(group)
        arrays = {}
        for c in out_cols:
            try:
                arrays[c] = pa.array(
                    kept[c].values, type=types[c], from_pandas=True)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                arrays[c] = pa.Array.from_pandas(kept[c])
        return pa.table(arrays)

    return (
        ds.map_batches(partial, batch_format='pyarrow')
        .groupby(_BUCKET)
        .map_groups(final, batch_format='pandas')
    )
