"""The engine's one key hash: pandas' SipHash of each value.

It routes every keyed decision: CDC partition ids (``key_partition``,
part of the lake format), the cogroup, top-k and dedup buckets, Bloom
bits, HLL registers and document fingerprints. Those are stored or
checked against oracles, so a faster kernel here must keep every hash
bit for bit (``tests/test_keyhash.py``, ``test_key_partition_golden_ids``).
Null fills and type conversions that differ between callers stay with
the callers.

Dictionary-encoded input hashes each dictionary entry once
(:func:`_hash_dictionary`), so a caller whose keys repeat, like the CDC
``repo`` and ``path``, encodes them first and makes a Python object per
distinct value instead of per row.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ['hash_keys']


def hash_keys(values: Union[pa.Array, pa.ChunkedArray, np.ndarray],
              hash_key: str = '0123456789123456') -> np.ndarray:
    """Per-value uint64 SipHash under ``hash_key`` (pandas' default key:
    stable across processes and nodes).

    Dictionary-encoded Arrow input hashes as its decoded values do, each
    dictionary entry once. Other Arrow input goes through
    ``to_numpy(zero_copy_only=False)``, so byte-array types become object
    arrays and numbers native ones (an integer array with nulls becomes
    float64, so callers fill nulls first). Object, bytes and str arrays hash as
    objects without categorizing, under which ``None`` would hash
    differently; any other array hashes its contiguous native values and
    ignores ``hash_key``."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_dictionary(values.type):
            chunks = values.chunks if isinstance(values, pa.ChunkedArray) else [values]
            return np.concatenate([np.empty(0, dtype=np.uint64)]
                                  + [_hash_dictionary(c, hash_key) for c in chunks])
        values = values.to_numpy(zero_copy_only=False)
    if values.dtype.kind in 'OSU':
        values = np.asarray(values, dtype=object)
    else:
        values = np.ascontiguousarray(values)
    return pd.util.hash_array(values, hash_key=hash_key, categorize=False)


def _hash_dictionary(arr: pa.DictionaryArray, hash_key: str) -> np.ndarray:
    """``hash_keys`` of one dictionary array: its entries, plus a null
    when a row is null, hashed once and gathered back through the
    indices. The null is appended only when needed because it changes
    the numpy type of some entries (integers become float64), just as it
    does in the decoded column."""
    entries = arr.dictionary
    if arr.null_count:
        entries = pa.concat_arrays([entries, pa.nulls(1, type=entries.type)])
    table = hash_keys(entries, hash_key=hash_key)
    codes = pc.fill_null(arr.indices, len(arr.dictionary))
    return table[np.asarray(codes.to_numpy(zero_copy_only=False), dtype=np.intp)]
