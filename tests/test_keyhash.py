"""The engine's one key hash (stages/keyhash.py) against the expressions
each call site used before it: per site, per input kind that site
receives, the hashes (or the ids derived from them) are bit-for-bit the
old ones. Partition ids, fingerprints and sketches are stored or checked
against oracles, so a faster kernel behind ``hash_keys`` must keep every
one of these passing."""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from filters_ray.stages.keyhash import hash_keys

TEXT = ['org/repo', '', 'ørg/répo', 'dïr/файл.py', 'p' * 7, 'p' * 8,
        'p' * 9, 'p' * 16, 'd/' * 300, '  Mixed\tCASE  text ']


def _text(kind: str, nulls: bool) -> pa.Array:
    values = [None if nulls and i % 3 == 1 else v for i, v in enumerate(TEXT)]
    if kind == 'binary':
        return pa.array([None if v is None else v.encode() for v in values],
                        type=pa.binary())
    return pa.array(values, type=getattr(pa, kind)())


TEXT_KINDS = [(k, n) for k in ('string', 'large_string', 'binary')
              for n in (False, True)]
NUMBERS = {
    'int32': pa.array([5, None, -7, 2**31 - 1, 0], type=pa.int32()),
    'int64': pa.array([5, None, -7, 2**62, 0], type=pa.int64()),
    'float64': pa.array([5.0, None, -7.5, 1e300, 0.0], type=pa.float64()),
}
OTHERS = {
    'bool': pa.array([True, False, None, True]),
    'timestamp': pa.array([datetime.datetime(2024, 1, 2, 3, 4, 5), None,
                           datetime.datetime(1999, 12, 31)], type=pa.timestamp('us')),
}


def _chunked(arr: pa.Array) -> pa.ChunkedArray:
    return pa.chunked_array([arr.slice(0, 2), arr.slice(2)], type=arr.type)


def _old_object_hash(values, **kw) -> np.ndarray:
    return pd.util.hash_array(values, categorize=False, **kw)


def test_pinned_values():
    """Literal hashes a replacement kernel must reproduce; with
    ``categorize=True`` pandas would hash None as 2**64 - 1."""
    got = hash_keys(pa.array(['org/repo', None, ''], type=pa.string()))
    assert got.dtype == np.uint64
    assert got[1] == np.uint64(8385562840259582418)
    assert got.tolist() == _old_object_hash(
        np.array(['org/repo', None, ''], dtype=object)).tolist()
    assert hash_keys(np.array([], dtype=object)).tolist() == []


def _objects(arr) -> np.ndarray:
    return np.asarray(arr.to_numpy(zero_copy_only=False), dtype=object)


def _encoded(arr):
    return pc.dictionary_encode(arr)


@pytest.mark.parametrize('kind,nulls', TEXT_KINDS)
@pytest.mark.parametrize('n', [0, 7, 8, 9, 16, 600])
def test_dictionary_lengths(kind, nulls, n):
    """Dictionary-encoded arrays of n rows, values of every length up to
    20 bytes and repeats included, hash as their decoded values."""
    values = [None if nulls and i % 5 == 3 else ('ké' * (i % 13))[:i % 21]
              for i in range(n)]
    arr = pa.array(values, type=pa.string()).cast(getattr(pa, kind)())
    assert hash_keys(_encoded(arr)).tolist() == _old_object_hash(_objects(arr)).tolist()


@pytest.mark.parametrize('kind,nulls', TEXT_KINDS)
def test_dictionary_offset_slice(kind, nulls):
    arr = _text(kind, nulls)
    for start in (1, 3, 7):
        part = _encoded(arr).slice(start, 5)
        assert part.offset == start
        assert hash_keys(part).tolist() == _old_object_hash(_objects(arr.slice(start, 5))).tolist()


def test_dictionary_mostly_distinct():
    """Tens of thousands of rows, most of them distinct."""
    n = 32773
    arr = pa.array([f'org{i % 97}/dir{i}/f{i * 7}.py' if i % 11 else None
                    for i in range(n)])
    assert hash_keys(_encoded(arr)).tolist() == _old_object_hash(_objects(arr)).tolist()


@pytest.mark.parametrize('kind,nulls', TEXT_KINDS)
def test_dictionary_chunks(kind, nulls):
    """A chunked dictionary column with an empty chunk, and with chunks
    whose dictionaries differ. ``ChunkedArray.to_numpy`` decodes such a
    column's nulls wrongly on pyarrow 16.1, so the hash must not use it."""
    arr = _text(kind, nulls)
    parts = [arr.slice(0, 4), arr.slice(4, 0), arr.slice(4)]
    expected = _old_object_hash(_objects(arr)).tolist()
    shared = _encoded(pa.chunked_array(parts, type=arr.type))
    apart = pa.chunked_array([_encoded(p) for p in parts])
    assert hash_keys(shared).tolist() == expected
    assert hash_keys(apart).tolist() == expected
    assert hash_keys(pa.chunked_array([], type=shared.type)).tolist() == []


@pytest.mark.parametrize('name', sorted(NUMBERS) + sorted(OTHERS))
def test_dictionary_other_types(name):
    """Non-string dictionaries, with and without a null row, hash as the
    decoded column does (integers with nulls as float64)."""
    arr = {**NUMBERS, **OTHERS}[name]
    for part in (arr, pc.drop_null(arr)):
        assert (hash_keys(_encoded(part)).tolist()
                == hash_keys(part).tolist())


@pytest.mark.parametrize('kind,nulls', TEXT_KINDS)
def test_dictionary_hashes_each_entry_once(monkeypatch, kind, nulls):
    """A repeated key becomes one Python object, not one per row: pandas
    sees the dictionary's entries, and null once when a row is null."""
    from filters_ray.stages import keyhash

    arr = pa.concat_arrays([_text(kind, nulls)] * 50)
    expected = _old_object_hash(_objects(arr)).tolist()
    seen, original = [], pd.util.hash_array

    def hash_array(values, **kw):
        seen.append(len(values))
        return original(values, **kw)

    monkeypatch.setattr(keyhash.pd.util, 'hash_array', hash_array)
    assert hash_keys(_encoded(arr)).tolist() == expected
    assert seen == [len(set(_text(kind, nulls).to_pylist()) - {None}) + nulls]


@pytest.mark.parametrize('kind,nulls', TEXT_KINDS)
def test_key_partition(kind, nulls):
    from filters_ray.pipelines.cdc import key_partition

    repo, path = _text(kind, nulls), _text(kind, False)[::-1]
    for r, p in ((repo, path), (_chunked(repo), _chunked(path))):
        repo_np = np.asarray(r.to_numpy(zero_copy_only=False), dtype=object)
        path_np = np.asarray(p.to_numpy(zero_copy_only=False), dtype=object)
        mixed = ((_old_object_hash(repo_np) * np.uint64(0x9E3779B97F4A7C15))
                 ^ _old_object_hash(path_np))
        for n in (4, 64, 1024):
            expected = (mixed % np.uint64(n)).astype(np.int64)
            assert key_partition(r, p, n).tolist() == expected.tolist()


def _every_kind():
    kinds = {f'{k}{"-nulls" if n else ""}': _text(k, n) for k, n in TEXT_KINDS}
    return {**kinds, **NUMBERS, **OTHERS}


@pytest.mark.parametrize('name,arr', sorted(_every_kind().items()))
def test_topk_bucket(name, arr):
    """``grouped_top_k``'s partial: the key column as ``to_numpy`` gives
    it, objects as objects and everything else native."""
    col = _chunked(arr)
    keys = np.asarray(col.combine_chunks().to_numpy(zero_copy_only=False))
    if keys.dtype == object:
        old = pd.util.hash_array(keys, categorize=False)
    else:
        old = pd.util.hash_array(np.ascontiguousarray(keys), categorize=False)
    assert hash_keys(col).tolist() == old.tolist()


@pytest.mark.parametrize('name,arr', sorted(_every_kind().items()))
def test_cogroup_bucket(name, arr):
    from filters_ray.stages.cogroup import _bucket_of

    if pa.types.is_integer(arr.type):
        vals = pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
        old = pd.util.hash_array(np.ascontiguousarray(vals), categorize=False)
    elif pa.types.is_floating(arr.type):
        vals = pc.fill_null(arr.cast(pa.float64()), 0.0).to_numpy(zero_copy_only=False)
        old = pd.util.hash_array(np.ascontiguousarray(vals), categorize=False)
    else:
        old = _old_object_hash(
            np.asarray(arr.to_numpy(zero_copy_only=False), dtype=object))
    for key in (arr, _chunked(arr)):
        assert _bucket_of(key, 32).tolist() == (old % np.uint64(32)).astype(np.int64).tolist()


def _bloom_inputs():
    out = {name: arr.drop_null().to_numpy(zero_copy_only=False)
           for name, arr in _every_kind().items()}
    out['str-U'] = np.array(TEXT)
    out['bytes-S'] = np.array([t.encode() for t in TEXT[:4]])
    out['list-objects'] = np.array(TEXT + [None], dtype=object)
    return out


@pytest.mark.parametrize('name,keys', sorted(_bloom_inputs().items()))
def test_bloom_hash_pair(name, keys):
    """Both streams, the second under its own ``hash_key`` for object
    keys and a splitmix64 remix of the first for native ones."""
    from filters_ray.stages.bloom import _hash_pair

    k1, k2 = '0123456789123456', '6543210987654321'
    if keys.dtype == object or keys.dtype.kind in ('U', 'S'):
        arr = np.asarray(keys, dtype=object)
        h1 = pd.util.hash_array(arr, hash_key=k1, categorize=False)
        h2 = pd.util.hash_array(arr, hash_key=k2, categorize=False)
    else:
        h1 = pd.util.hash_array(keys, hash_key=k1)
        z = (h1 + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
        z ^= z >> np.uint64(27)
        z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
        h2 = z ^ (z >> np.uint64(31))
    h2 = h2 | np.uint64(1)
    got1, got2 = _hash_pair(keys)
    assert (got1.dtype, got2.dtype) == (np.uint64, np.uint64)
    assert got1.tolist() == h1.tolist()
    assert got2.tolist() == h2.tolist()


@pytest.mark.parametrize('name,arr', sorted(
    (k, v) for k, v in _every_kind().items() if k not in NUMBERS))
def test_sketch_hash_column(name, arr):
    """The HLL's non-numeric path: nulls dropped, ``to_pandas()``
    objects, a final splitmix64."""
    from filters_ray.stages.sketch import _hash_column, _splitmix64

    raw = _old_object_hash(np.asarray(arr.drop_null().to_pandas(), dtype=object))
    assert _hash_column(_chunked(arr)).tolist() == _splitmix64(raw).tolist()


def test_queries_orderkey_bucket():
    """``top10_orders_by_revenue``'s revenue: native int64 order keys."""
    keys = pa.chunked_array([[1, 2, 3], [2**40, 7]], type=pa.int64())
    old = pd.util.hash_array(
        np.ascontiguousarray(keys.combine_chunks().to_numpy()), categorize=False)
    assert hash_keys(keys).tolist() == old.tolist()


@pytest.mark.parametrize('kind,nulls', [k for k in TEXT_KINDS if k[0] != 'binary'])
def test_text_buckets_fill_empty(kind, nulls):
    """``dedup_exact_docs``' text bucket (nulls replaced by a per-row
    scan), the fingerprint-class bucket and ``exact_dedup``'s bucket
    (``fill_null('')`` then objects): null hashes as the empty string."""
    from filters_ray.pipelines.text import normalize_for_fingerprint

    col = _chunked(_text(kind, nulls))
    vals = np.asarray(col.combine_chunks().to_numpy(zero_copy_only=False), dtype=object)
    vals = np.where(np.array([v is None for v in vals]), '', vals)
    assert hash_keys(pc.fill_null(col, '')).tolist() == _old_object_hash(vals).tolist()
    filled = np.asarray(
        pc.fill_null(col.combine_chunks(), '').to_numpy(zero_copy_only=False), dtype=object)
    assert hash_keys(pc.fill_null(col, '')).tolist() == _old_object_hash(filled).tolist()
    norm = normalize_for_fingerprint(col.combine_chunks())
    old = _old_object_hash(np.asarray(
        pc.fill_null(norm, '').to_numpy(zero_copy_only=False), dtype=object))
    new = hash_keys(pc.fill_null(normalize_for_fingerprint(col), ''))
    assert new.tolist() == old.tolist()


@pytest.mark.parametrize('kind,nulls', [k for k in TEXT_KINDS if k[0] != 'binary'])
def test_add_fingerprint(kind, nulls):
    from filters_ray.pipelines.text import add_fingerprint, normalize_for_fingerprint

    batch = pa.table({'text': _chunked(_text(kind, nulls))})
    norm = normalize_for_fingerprint(batch.column('text').combine_chunks())
    mask = np.asarray(pc.is_null(norm).to_numpy(zero_copy_only=False), dtype=bool)
    values = np.asarray(
        pc.fill_null(norm, '').to_numpy(zero_copy_only=False), dtype=object)
    hexes = np.char.mod('%016x', _old_object_hash(values)).astype(object)
    hexes[mask] = None
    assert add_fingerprint(batch).column('fingerprint').to_pylist() == hexes.tolist()


@pytest.mark.parametrize('ids', [
    pa.array([3, 1, 2**40, 0], type=pa.int64()),
    pa.array([3, 1, 7, 0], type=pa.int32()),
    pa.array(['d3', 'd1', 'ø', ''], type=pa.string()),
    pa.array(['d3', 'd1', 'ø', ''], type=pa.large_string()),
])
def test_dedup_pair_and_label_hashes(ids):
    """``_dedup_pairs`` and ``_labels_checksum`` hash the id column as it
    is: an integer id as its native value (a deliberate change: it once
    hashed as its decimal text, through a ``TypeError`` fallback in
    pandas), text ids as objects, as before."""
    native = ids.to_numpy(zero_copy_only=False)
    if pa.types.is_integer(ids.type):
        expect = _old_object_hash(native)
        assert expect.tolist() != _old_object_hash(
            np.asarray(native, dtype=object)).tolist()
    else:
        expect = _old_object_hash(np.asarray(ids.to_pylist(), dtype=object))
    assert hash_keys(ids).tolist() == expect.tolist()
    assert hash_keys(_chunked(ids)).tolist() == expect.tolist()


def test_dedup_pair_buckets_end_to_end():
    """The ``_dedup_pairs`` bucket mix over int64 pair ids, hashed as
    native int64."""
    left = pa.array([1, 5, 9, 2**33], type=pa.int64())
    right = pa.array([2, 5, 10, 3], type=pa.int64())
    native = [_old_object_hash(c.to_numpy()) for c in (left, right)]
    mixed = (native[0] * np.uint64(0x9E3779B97F4A7C15)) ^ native[1]
    new = [hash_keys(c) for c in (left, right)]
    assert ((new[0] * np.uint64(0x9E3779B97F4A7C15)) ^ new[1]).tolist() == mixed.tolist()


def test_simhash_tokens():
    """SimHash hashes token lists as object arrays: both the scalar
    :meth:`simhash64` and the vectorized :meth:`signatures`."""
    from filters_ray.pipelines.dedup import SimHashStage

    texts = ['the quick brown fox', '', None, 'Ünïcode tokens here x y z',
             'a a a b']
    for text in texts:
        tokens = (text or '').lower().split()
        if not tokens:
            continue
        hashes = pd.util.hash_array(np.array(tokens, dtype=object), categorize=False)
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
        votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        old = int(''.join('1' if v > 0 else '0' for v in votes[::-1]), 2)
        assert SimHashStage.simhash64(tokens) == old
        assert int(SimHashStage().signatures([text])[0]) == old
