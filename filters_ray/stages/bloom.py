"""Bloom-filter build + membership probe: semi-join pushdown for joins.

The scale problem this solves: a big-big inner join pays for every probe
row shipped through the all-to-all exchange, including rows that will
never match. A Bloom filter built from the (smaller) build side is a few
hundred KiB regardless of probe size — ship it once via the object store
and drop non-matching rows *before* they enter the shuffle. No false
negatives (the filtered probe is a superset of the true semi-join, so a
following exact join returns identical results); false positives only
cost the bytes they fail to save.

Build is a per-block partial (`map_batches` → one packed-bitmap row per
block) folded with streamed OR on the driver: driver traffic is
`num_blocks × num_bits/8` bytes, independent of row count. Probe is a
`map_batches` stage run as Ray tasks; each worker process fetches the
bitmap once (plasma get, zero-copy) and caches its filter.

Hashing is the engine's key hash (`stages/keyhash.hash_keys`, pandas'
SipHash with fixed keys) — stable across processes and nodes — with
double hashing `h1 + i*h2` for the k probe positions, so build and probe
agree on any worker. `h1` is the default-key hash; for string and bytes
keys `h2` is the same hash under a second key, and for numeric keys,
whose hash ignores the key, it is `h1` remixed by splitmix64.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
import pyarrow as pa

from .keyhash import hash_keys
from .sketch import _splitmix64

__all__ = ['BloomFilter', 'build_bloom', 'bloom_semi_filter']

_HASH_KEY_2 = '6543210987654321'


def _hash_pair(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit hash streams per key (double hashing)."""
    h1 = hash_keys(keys)
    if keys.dtype.kind in 'OSU':
        h2 = hash_keys(keys, hash_key=_HASH_KEY_2)
    else:
        # Numeric hashing ignores hash_key (it bit-mixes the values), so
        # derive the second stream by remixing h1.
        h2 = _splitmix64(h1)
    # Odd h2 → full-period stride over a power-of-two bit space.
    return h1, h2 | np.uint64(1)


class BloomFilter:
    """Packed-uint64 Bloom filter. ``num_bits`` is rounded up to a power
    of two so the modulo is a mask (and so build/probe can never disagree
    on geometry)."""

    __slots__ = ('num_bits', 'num_hashes', 'words')

    def __init__(self, num_bits: int, num_hashes: int = 7,
                 words: Optional[np.ndarray] = None) -> None:
        self.num_bits = 1 << max(10, int(math.ceil(math.log2(num_bits))))
        self.num_hashes = num_hashes
        n_words = self.num_bits // 64
        if words is None:
            self.words = np.zeros(n_words, dtype=np.uint64)
        else:
            if len(words) != n_words:
                raise ValueError('bitmap size does not match num_bits')
            self.words = np.asarray(words, dtype=np.uint64)

    @classmethod
    def sized_for(cls, expected_keys: int, bits_per_key: int = 12,
                  num_hashes: int = 7) -> 'BloomFilter':
        """~12 bits/key with k=7 gives ≈0.5% false-positive rate."""
        return cls(max(1024, expected_keys * bits_per_key), num_hashes)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        h1, h2 = _hash_pair(keys)
        i = np.arange(self.num_hashes, dtype=np.uint64)[:, None]
        mask = np.uint64(self.num_bits - 1)
        return (h1[None, :] + i * h2[None, :]) & mask  # (k, n)

    def add(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.words, pos >> np.uint64(6),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the key MAY be present (never a
        false negative)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)  # (k, n)
        bits = (self.words[pos >> np.uint64(6)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=0)

    def union(self, other: 'BloomFilter') -> 'BloomFilter':
        if (self.num_bits, self.num_hashes) != (other.num_bits,
                                                other.num_hashes):
            raise ValueError('bloom geometries differ')
        return BloomFilter(self.num_bits, self.num_hashes,
                           self.words | other.words)

    def fill_ratio(self) -> float:
        return float(np.unpackbits(self.words.view(np.uint8)).mean())


MAX_BLOOM_BITS = 1 << 33  # 1 GiB bitmap cap — FPR degrades past the
# sizing rule instead of the bitmap outgrowing worker/driver heaps.


def build_bloom(ds, column: str, expected_keys: Optional[int] = None,
                num_bits: Optional[int] = None, num_hashes: int = 7,
                fanout: int = 8) -> BloomFilter:
    """Build a Bloom filter over ``ds[column]`` distributed: one packed
    bitmap per block, OR-folded in a REMOTE tree (fan-in ``fanout``) so
    the driver receives exactly ONE bitmap regardless of block count —
    at 10^4 blocks a driver-side fold would stream blocks × num_bits/8
    bytes through the driver NIC. Null keys are skipped (SQL semantics:
    a null key joins nothing). ``num_bits`` is capped at MAX_BLOOM_BITS:
    past it the false-positive rate rises above the ~0.5% design point
    rather than the bitmap exhausting memory."""
    import ray

    if num_bits is None:
        if expected_keys is None:
            expected_keys = ds.count()
        num_bits = max(1024, expected_keys * 12)
    num_bits = min(num_bits, MAX_BLOOM_BITS)
    proto = BloomFilter(num_bits, num_hashes)
    nb, nh = proto.num_bits, proto.num_hashes

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(nb, nh)
        col = batch.column(column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            col = col.drop_null()
        bf.add(col.to_numpy(zero_copy_only=False))
        return pa.table({'words': pa.array([bf.words.tobytes()],
                                           type=pa.large_binary())})

    @ray.remote
    def or_fold(*tables) -> pa.Table:
        acc = np.zeros(nb // 64, dtype=np.uint64)
        for t in tables:
            # Skip empty/schema-less blocks (an empty upstream block maps
            # to an empty output block, not a 1-row bitmap).
            if isinstance(t, pa.Table) and 'words' in t.column_names:
                for blob in t.column('words'):
                    acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
        return pa.table({'words': pa.array([acc.tobytes()],
                                           type=pa.large_binary())})

    refs = list(ds.map_batches(partial, batch_format='pyarrow')
                .to_arrow_refs())
    if not refs:
        return BloomFilter(nb, nh)
    while len(refs) > 1:
        refs = [
            or_fold.remote(*refs[i:i + fanout])
            for i in range(0, len(refs), fanout)
        ]
    final = ray.get(refs[0])
    acc = np.zeros(nb // 64, dtype=np.uint64)
    if isinstance(final, pa.Table) and 'words' in final.column_names:
        for blob in final.column('words'):
            acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
    return BloomFilter(nb, nh, acc)


class BloomProbeStage:
    """Probe: fetch the bitmap once (``__init__``), then per batch keep
    rows whose key MAY be in the build side. Rows with null keys are
    dropped (they can never match an inner/semi join)."""

    def __init__(self, column: str, words_ref, num_bits: int,
                 num_hashes: int) -> None:
        import ray

        self.column = column
        self.bloom = BloomFilter(num_bits, num_hashes, ray.get(words_ref))

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            # Hash only the valid cells: numpy round-trip of a
            # null-bearing int column degrades to float64, whose hashes
            # would not match the build side's int hashes.
            valid = col.is_valid().to_numpy(zero_copy_only=False)
            vals = col.drop_null().to_numpy(zero_copy_only=False)
            mask = np.zeros(len(col), dtype=bool)
            mask[np.flatnonzero(valid)] = self.bloom.contains(vals)
        else:
            mask = self.bloom.contains(col.to_numpy(zero_copy_only=False))
        return batch.filter(pa.array(mask))


# One probe per worker process and stage key. A key holds the bitmap's
# ObjectRef, and a cached probe pins that object in the worker, so only
# the last few stay cached.
_probe_stage = functools.lru_cache(maxsize=4)(BloomProbeStage)


def _bloom_probe(key: tuple, batch: pa.Table) -> pa.Table:
    """Probe ``batch`` with the :class:`BloomProbeStage` of ``key``."""
    return _probe_stage(*key)(batch)


def bloom_semi_filter(ds, column: str, bloom: BloomFilter):
    """Pre-filter ``ds`` to rows whose ``column`` MAY appear in ``bloom``
    — the semi-join pushdown. Superset guarantee: follow with an exact
    join (or `hash_bucket_join(..., how='semi')`) for exact results."""
    import ray

    key = (column, ray.put(bloom.words), bloom.num_bits, bloom.num_hashes)
    return ds.map_batches(functools.partial(_bloom_probe, key),
                          batch_format='pyarrow')
