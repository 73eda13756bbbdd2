"""Distributed cardinality sketch (HyperLogLog) over a Dataset column.

The mergeable-sketch pattern the 100-TB design point needs for
COUNT(DISTINCT): each block folds its values into a fixed 2^p-byte
register array inside ``map_batches`` (vectorized hash + leading-zero
rank), the per-block sketches — ONE tiny row each, never the values —
are merged with elementwise max, and only the final 16 KiB sketch
reaches the driver.  Contrast ``Dataset.unique``, whose all-to-all
shuffle moves every distinct value.

Flajolet et al., "HyperLogLog: the analysis of a near-optimal
cardinality estimation algorithm" (AofA 2007) — with the standard
linear-counting small-range correction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .keyhash import hash_keys

__all__ = ['hll_sketch', 'hll_merge', 'hll_estimate', 'approx_distinct']

_U = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a public-domain 64-bit mixer."""
    x = x.astype(_U, copy=True)
    x += _U(0x9E3779B97F4A7C15)
    x ^= x >> _U(30)
    x *= _U(0xBF58476D1CE4E5B9)
    x ^= x >> _U(27)
    x *= _U(0x94D049BB133111EB)
    x ^= x >> _U(31)
    return x


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized uint64 bit_length (position of the highest set bit)."""
    out = np.zeros(x.shape, dtype=np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (_U(1) << _U(s))
        out[big] += s
        v[big] >>= _U(s)
    return out + (v > 0)


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Hash an Arrow column to uint64, dropping nulls.

    Integer/float columns hash their 64-bit pattern through splitmix64;
    everything else goes through the engine's key hash (``hash_keys``,
    over the Python objects of ``to_pandas()``: for bool and timestamp
    columns they hash differently from ``to_numpy()``'s) and a final mix.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.drop_null()
    if pa.types.is_integer(col.type):
        vals = col.to_numpy(zero_copy_only=False)
        return _splitmix64(vals.astype(np.int64).view(_U))
    if pa.types.is_floating(col.type):
        # Bit-pattern hash (widened to float64): value truncation would
        # collide every float sharing an integer part.
        vals = col.to_numpy(zero_copy_only=False).astype(np.float64)
        return _splitmix64(vals.view(_U))
    return _splitmix64(hash_keys(np.asarray(col.to_pandas(), dtype=object)))


def hll_sketch(hashes: np.ndarray, p: int = 14) -> np.ndarray:
    """Fold uint64 hashes into a 2^p uint8 register array."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return reg
    idx = (hashes >> _U(64 - p)).astype(np.int64)
    w = hashes & ((_U(1) << _U(64 - p)) - _U(1))
    rank = ((64 - p) - _bit_length(w) + 1).astype(np.uint8)
    # Scatter-max: sort by register then segment-max (much faster than
    # np.maximum.at's per-element dispatch on large batches).
    order = np.argsort(idx, kind='stable')
    idx_s, rank_s = idx[order], rank[order]
    starts = np.flatnonzero(np.diff(idx_s, prepend=-1))
    reg[idx_s[starts]] = np.maximum.reduceat(rank_s, starts)
    return reg


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(reg: np.ndarray) -> int:
    """Bias-corrected HLL estimate with linear-counting small range."""
    m = len(reg)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.float64(2.0) ** -reg.astype(np.float64))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return int(round(est))


def approx_distinct(ds, col: str, p: int = 14) -> int:
    """Approximate COUNT(DISTINCT col) over a Dataset (~0.8% σ at p=14)."""

    def partial(batch: pa.Table) -> pa.Table:
        reg = hll_sketch(_hash_column(batch.column(col)), p)
        return pa.table({'_hll': pa.array([reg.tobytes()], type=pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    # One 2^p-byte row per block reaches the driver — the reduction is
    # O(blocks), independent of data size.
    for b in ds.select_columns([col]).map_batches(
        partial, batch_format='pyarrow',
    ).iter_batches(batch_format='pyarrow'):
        for sk in b.column('_hll').to_pylist():
            merged = hll_merge(merged, np.frombuffer(sk, dtype=np.uint8))
    return hll_estimate(merged)
