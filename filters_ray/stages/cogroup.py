"""Distributed hash join as an explicit bucketed cogroup.

``ray.data.Dataset.join`` (2.49, experimental) chokes on the schema-less
empty blocks that ``map_batches`` emits for empty inputs (verified:
``ArrowInvalid: No match ... on right side of the join``), so the engine
ships its own shuffle join with the classic MR cogroup shape:

    tag side + key-hash bucket  →  union  →  ONE shuffle (groupby bucket)
      →  per-bucket vectorized ``pandas.merge``

Properties that matter at scale:

* Exactly one all-to-all exchange, partitioned by ``hash(key) % NB`` —
  the caller picks ``num_buckets`` ≈ cluster cores × small factor, so
  per-group Python invocations stay O(num_buckets), never O(distinct
  keys).
* Tolerates empty / schema-less blocks anywhere in either input (union
  and the hash shuffle both digest them; the merge never sees them).
* Skew: a hot join key inflates one bucket, not one task per key; for
  known-hot keys salt the key upstream (the CDC pipeline's structural
  fix — partition on the *full* composite key — is the usual answer).

Column contract: the two sides' non-key column names must be disjoint
(rename upstream — keeps the engine honest about provenance instead of
auto-suffixing).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .keyhash import hash_keys

__all__ = ['hash_bucket_join']

_KEY = '_cg_k'
_SIDE = '_cg_s'
_BUCKET = '_cg_b'


def _bucket_of(key: pa.Array, num_buckets: int) -> np.ndarray:
    """Stable bucket id per key (the engine's key hash, :func:`hash_keys`).

    Numeric keys hash on their native arrays (a nullable int64 column
    must NOT round-trip through float64: 2.0 and 2 hash differently, so
    the two sides of the join would land in different buckets). Null
    keys get an arbitrary-but-deterministic bucket — they never match,
    they only need a home. Every other key hashes as Python objects.
    Both sides of a join must share the key TYPE (int vs float keys hash
    differently — same contract as SQL)."""
    if pa.types.is_integer(key.type):
        key = pc.fill_null(key.cast(pa.int64()), 0)
    elif pa.types.is_floating(key.type):
        key = pc.fill_null(key.cast(pa.float64()), 0.0)
    else:
        key = np.asarray(key.to_numpy(zero_copy_only=False), dtype=object)
    return (hash_keys(key) % np.uint64(num_buckets)).astype(np.int64)


def hash_bucket_join(
    left,
    right,
    left_on: str,
    right_on: str,
    num_buckets: int = 32,
    how: str = 'inner',
):
    """Join two Datasets on one key column each; returns a Dataset whose
    columns are (left columns) + (right columns minus ``right_on``).

    ``how`` is 'inner', 'left', 'right', 'outer', 'semi' or 'anti'. The
    key column in the output is ``left_on`` with USING-join semantics:
    rows preserved from the right side only (right/outer) carry their key
    there instead of a null. SQL null-key semantics throughout: a null
    key never matches, but null-key rows survive unmatched on whichever
    side the join type preserves.

    'semi' / 'anti' return LEFT columns only — left rows with (without) a
    right-side match, never duplicated by multiple matches (SQL
    EXISTS / NOT EXISTS). A null left key matches nothing, so it is
    dropped by semi and kept by anti. The right side ships only its key
    column through the shuffle (the payload columns never leave their
    node), so a huge right side costs one key column, not a row copy.
    """
    if how not in ('inner', 'left', 'right', 'outer', 'semi', 'anti'):
        raise ValueError(f'unsupported join type: {how!r}')
    existence_only = how in ('semi', 'anti')
    left_schema = left.schema()
    right_schema = right.schema()
    lcols: List[str] = list(left_schema.names)
    rcols: List[str] = [] if existence_only else [
        c for c in right_schema.names if c != right_on]
    overlap = (set(lcols) & set(rcols)) - {left_on}
    if overlap:
        raise ValueError(f'column names collide across join sides: {overlap}')
    l_types = dict(zip(left_schema.names, left_schema.types))
    r_types = dict(zip(right_schema.names, right_schema.types))

    def tag_left(batch: pa.Table) -> pa.Table:
        key = batch.column(left_on).combine_chunks()
        n = batch.num_rows
        cols = {_KEY: key}
        for c in lcols:
            cols[c] = batch.column(c)
        for c in rcols:
            cols[c] = pa.nulls(n, type=r_types[c])
        cols[_SIDE] = pa.array(np.zeros(n, dtype=np.int8))
        cols[_BUCKET] = pa.array(_bucket_of(key, num_buckets))
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        key = batch.column(right_on).combine_chunks()
        if existence_only:
            # Only existence matters: per-batch key dedup shrinks the
            # shuffle payload before it leaves the producing task.
            key = pc.unique(key.drop_null())
        n = len(key)
        cols = {_KEY: key}
        for c in lcols:
            cols[c] = pa.nulls(n, type=l_types[c])
        for c in rcols:
            cols[c] = batch.column(c)
        cols[_SIDE] = pa.array(np.ones(n, dtype=np.int8))
        cols[_BUCKET] = pa.array(_bucket_of(key, num_buckets))
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format='pyarrow').union(
        right.map_batches(tag_right, batch_format='pyarrow'),
    )

    out_cols = lcols + rcols

    def merge_bucket(group: pd.DataFrame) -> pa.Table:
        # Disjoint non-key columns (checked above) ⇒ no suffixing needed.
        # SQL null semantics: a null key matches nothing (pandas merge
        # would match NaN==NaN) — null-key rows are excluded from the
        # merge and re-appended unmatched on the side the join preserves.
        notna = group[_KEY].notna()
        lmask = group[_SIDE] == 0
        if existence_only:
            rkeys = group.loc[~lmask & notna, _KEY].unique()
            matched = notna & group[_KEY].isin(rkeys)
            keep = lmask & (matched if how == 'semi' else ~matched)
            kept = group[keep]
            arrays = {}
            for c in lcols:
                try:
                    arrays[c] = pa.array(
                        kept[c].values, type=l_types[c], from_pandas=True)
                except (pa.ArrowInvalid, pa.ArrowTypeError):
                    arrays[c] = pa.Array.from_pandas(kept[c])
            return pa.table(arrays)
        ldf = group[lmask & notna][[_KEY] + lcols]
        rdf = group[~lmask & notna][[_KEY] + rcols]
        merged = ldf.merge(rdf, on=_KEY, how=how)
        extras = []
        if how in ('left', 'outer'):
            extras.append(group[lmask & ~notna][[_KEY] + lcols])
        if how in ('right', 'outer'):
            extras.append(group[~lmask & ~notna][[_KEY] + rcols])
        if extras:
            merged = pd.concat(
                [merged] + [e.reindex(columns=merged.columns) for e in extras],
                ignore_index=True,
            )
        if how in ('right', 'outer'):
            # USING-join key: right-only rows carry their key in left_on.
            merged[left_on] = merged[left_on].where(
                merged[left_on].notna(), merged[_KEY],
            )
        # The union's null padding floats int columns in pandas — rebuild
        # each column at its original Arrow type (NaN → null).
        arrays = {}
        for c in out_cols:
            t = l_types.get(c) if c in l_types else r_types.get(c)
            values = merged[c].values
            try:
                arrays[c] = pa.array(values, type=t, from_pandas=True)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                arrays[c] = pa.Array.from_pandas(merged[c])
        return pa.table(arrays)

    return tagged.groupby(_BUCKET).map_groups(merge_bucket, batch_format='pandas')
