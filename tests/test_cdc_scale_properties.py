"""Scale-property evidence: skew balance and wide-row handling.

These back the design claims in pipelines/cdc.py's docstring: hashing the
full (repo, path) key spreads hot repos structurally, and content-heavy
rows flow through the pipeline under small batch sizes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline, key_partition
from filters_ray.sources.oracle import final_state_digests, replay_oracle


def test_hot_repo_spreads_across_partitions():
    """One repo owning 50% of keys must still fill partitions evenly —
    the partition key is the full (repo, path) hash, finer than repo."""
    n = 20_000
    hot = n // 2
    repo = pa.array(
        ['org0/hot-repo'] * hot
        + [f'org{i % 5}/repo{i % 37}' for i in range(n - hot)],
    )
    path = pa.array([f'dir{i % 97}/file{i}.py' for i in range(n)])
    parts = key_partition(repo, path, 32)

    counts = np.bincount(parts, minlength=32)
    assert counts.min() > 0
    # Balanced within ~25% of the mean despite 50% key skew on repo.
    assert counts.max() / counts.mean() < 1.25

    # And the hot repo alone spans (almost) every partition.
    hot_parts = np.unique(parts[:hot])
    assert len(hot_parts) >= 30


# (repo, path) keys whose partition ids are pinned: ASCII, an empty path,
# non-ASCII, repo and path lengths around SipHash's 8-byte blocks
# (7/8/9/15/16), a 4,096-char path, and a null raw repo (a DLQ row routes
# on its raw key).
GOLDEN_KEYS = [
    ('org/repo', 'src/main.py'),
    ('org/repo', ''),
    ('ørg/répo', 'dïr/файл.py'),
    ('abcdefg', 'f.py'),
    ('abcdefgh', 'f.py'),
    ('abcdefghi', 'f.py'),
    ('org/r', 'p' * 7),
    ('org/r', 'p' * 8),
    ('org/r', 'p' * 9),
    ('org/r', 'p' * 15),
    ('org/r', 'p' * 16),
    ('org/long', 'd/' * 2048),
    (None, 'orphan.py'),
]

GOLDEN_PARTITIONS = {
    4: [1, 2, 0, 1, 0, 0, 3, 0, 0, 2, 2, 2, 0],
    64: [13, 6, 8, 57, 52, 24, 3, 56, 44, 30, 6, 50, 32],
    1024: [141, 966, 136, 57, 52, 856, 963, 56, 44, 606, 454, 1010, 672],
}


@pytest.mark.parametrize('num_partitions', sorted(GOLDEN_PARTITIONS))
def test_key_partition_golden_ids(num_partitions):
    """A lake's rows live in the partition ``key_partition`` names, so its
    ids are part of the lake format: a new hash must reproduce these ids
    or bump the layout version."""
    repo = pa.array([r for r, _ in GOLDEN_KEYS], type=pa.string())
    path = pa.array([p for _, p in GOLDEN_KEYS], type=pa.string())
    parts = key_partition(repo, path, num_partitions)
    assert parts.dtype == np.int64
    assert parts.tolist() == GOLDEN_PARTITIONS[num_partitions]


@pytest.mark.usefixtures('ray_session')
def test_wide_rows_small_batches(tmp_path):
    """100 KB contents through the full pipeline with a small batch size
    (the memory-aware rule: batch bytes × concurrency bounded)."""
    import ray.data as rd

    n = 60
    big = 'x' * 100_000
    log = pa.table({
        'lsn': pa.array(range(n), type=pa.int64()),
        'op': pa.array(['insert'] * n),
        'repo': pa.array([f'org/r{i % 3}' for i in range(n)]),
        'path': pa.array([f'f{i}.py' for i in range(n)]),
        'commit': pa.array(['a' * 40] * n),
        'lang': pa.array(['py'] * n),
        'content': pa.array([big + str(i) for i in range(n)]),
    })

    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4, batch_size=8)
    report = pipeline.run(rd.from_arrow(log))
    assert report.events_applied == n

    oracle = replay_oracle(log.to_pylist())
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()


@pytest.mark.usefixtures('ray_session')
def test_empty_and_unicode_content_sha_preserved(tmp_path):
    """Byte-preservation invariants: empty string, \\r\\n, multibyte."""
    import ray.data as rd

    contents = ['', 'a\r\nb\r\n', '♪♫ мой файл é\n', 'plain\n']
    n = len(contents)
    log = pa.table({
        'lsn': pa.array(range(n), type=pa.int64()),
        'op': pa.array(['insert'] * n),
        'repo': pa.array(['org/r'] * n),
        'path': pa.array([f'f{i}' for i in range(n)]),
        'commit': pa.array(['b' * 40] * n),
        'lang': pa.array(['py'] * n),
        'content': pa.array(contents),
    })
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=2)
    pipeline.run(rd.from_arrow(log))

    table = pipeline.final_table()
    stored = {
        p: c for p, c in zip(table.column('path').to_pylist(),
                             table.column('content').to_pylist())
    }
    for i, original in enumerate(contents):
        got = stored[f'f{i}']
        got_bytes = got if isinstance(got, bytes) else got.encode()
        assert got_bytes == original.encode(), f'content {i} mutated'
