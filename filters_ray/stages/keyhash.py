"""The engine's one key hash: pandas' SipHash of each value.

It routes every keyed decision: CDC partition ids (``key_partition``,
part of the lake format), the cogroup, top-k and dedup buckets, Bloom
bits, HLL registers and document fingerprints. Those are stored or
checked against oracles, so a faster kernel here must keep every hash
bit for bit (``tests/test_keyhash.py``, ``test_key_partition_golden_ids``).
Null fills and type conversions that differ between callers stay with
the callers.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ['hash_keys']


def hash_keys(values: Union[pa.Array, pa.ChunkedArray, np.ndarray],
              hash_key: str = '0123456789123456') -> np.ndarray:
    """Per-value uint64 SipHash under ``hash_key`` (pandas' default key:
    stable across processes and nodes, vectorized in C).

    Arrow input goes through ``to_numpy(zero_copy_only=False)``, so
    byte-array types become object arrays and numbers native ones (an
    integer array with nulls becomes float64, so callers fill nulls
    first). Object, bytes and str arrays hash as objects without
    categorizing, under which ``None`` would hash differently; any other
    array hashes its contiguous native values and ignores ``hash_key``."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_numpy(zero_copy_only=False)
    if values.dtype.kind in 'OSU':
        values = np.asarray(values, dtype=object)
    else:
        values = np.ascontiguousarray(values)
    return pd.util.hash_array(values, hash_key=hash_key, categorize=False)
