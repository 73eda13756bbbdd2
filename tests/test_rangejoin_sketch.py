"""Interval join (stages/rangejoin.py) and HLL sketch (stages/sketch.py)."""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = '/root/testdata/sf0.001'


def _bands():
    return pa.table({
        'band': pa.array(['low', 'mid', 'high']),
        'lo': pa.array([0.0, 10.0, 100.0]),
        'hi': pa.array([10.0, 100.0, 1000.0]),
    })


@pytest.mark.usefixtures('ray_session')
class TestIntervalJoin:
    def _ds(self, values):
        import ray.data as rd
        return rd.from_arrow(pa.table({
            'id': pa.array(range(len(values)), type=pa.int64()),
            'v': pa.array(values, type=pa.float64()),
        }))

    def test_inner_matches_and_bounds(self):
        from filters_ray.stages.rangejoin import interval_join

        # 10.0 is [lo] of 'mid' (inclusive); 100.0 leaves 'mid' (hi is
        # exclusive); -1 and 5000 match nothing.
        out = interval_join(
            self._ds([0.0, 5.0, 10.0, 99.9, 100.0, 999.9, -1.0, 5000.0]),
            _bands(), on='v',
        ).to_pandas().sort_values('id')
        assert out['id'].tolist() == [0, 1, 2, 3, 4, 5]
        assert out['band'].tolist() == ['low', 'low', 'mid', 'mid', 'high', 'high']

    def test_left_keeps_unmatched_with_nulls(self):
        from filters_ray.stages.rangejoin import interval_join

        out = interval_join(
            self._ds([5.0, -3.0, 250.0]), _bands(), on='v', how='left',
        ).to_pandas().sort_values('id')
        assert len(out) == 3
        assert out['band'].tolist()[0] == 'low'
        assert out['band'].isna().tolist() == [False, True, False]

    def test_null_probe_never_matches(self):
        import ray.data as rd

        from filters_ray.stages.rangejoin import interval_join

        ds = rd.from_arrow(pa.table({
            'id': pa.array([0, 1], type=pa.int64()),
            'v': pa.array([None, 5.0], type=pa.float64()),
        }))
        inner = interval_join(ds, _bands(), on='v').to_pandas()
        assert inner['id'].tolist() == [1]
        left = interval_join(ds, _bands(), on='v', how='left').to_pandas()
        assert left.sort_values('id')['band'].isna().tolist() == [True, False]

    def test_timestamp_probe(self):
        import ray.data as rd

        from filters_ray.stages.rangejoin import interval_join

        ivals = pa.table({
            'name': pa.array(['w1']),
            'lo': pa.array([np.datetime64('2024-01-01', 'us')]),
            'hi': pa.array([np.datetime64('2024-02-01', 'us')]),
        })
        ds = rd.from_arrow(pa.table({
            'id': pa.array([0, 1], type=pa.int64()),
            'ts': pa.array([np.datetime64('2024-01-15', 'us'),
                            np.datetime64('2024-03-01', 'us')]),
        }))
        out = interval_join(ds, ivals, on='ts').to_pandas()
        assert out['id'].tolist() == [0]

    def test_empty_interval_table(self):
        from filters_ray.stages.rangejoin import interval_join

        empty = _bands().slice(0, 0)
        inner = interval_join(self._ds([1.0, 2.0]), empty, on='v').to_pandas()
        assert len(inner) == 0
        left = interval_join(
            self._ds([1.0, 2.0]), empty, on='v', how='left',
        ).to_pandas()
        assert len(left) == 2 and left['band'].isna().all()

    def test_rejects_bad_intervals(self):
        from filters_ray.stages.rangejoin import interval_join

        overlapping = pa.table({
            'band': pa.array(['a', 'b']),
            'lo': pa.array([0.0, 5.0]),
            'hi': pa.array([10.0, 20.0]),
        })
        with pytest.raises(ValueError):
            interval_join(self._ds([1.0]), overlapping, on='v')


class TestHll:
    def test_sketch_merge_equals_whole(self):
        from filters_ray.stages.sketch import hll_merge, hll_sketch

        rng = np.random.RandomState(7)
        h = rng.randint(0, 2**63, size=50000).astype(np.uint64)
        whole = hll_sketch(h)
        merged = hll_merge(hll_sketch(h[:20000]), hll_sketch(h[20000:]))
        assert np.array_equal(whole, merged)

    def test_estimate_accuracy(self):
        from filters_ray.stages.sketch import (
            _splitmix64, hll_estimate, hll_sketch,
        )

        for n in (100, 5000, 200000):
            h = _splitmix64(np.arange(n, dtype=np.int64).view(np.uint64))
            est = hll_estimate(hll_sketch(h))
            assert abs(est - n) / n < 0.03, (n, est)

    def test_empty(self):
        from filters_ray.stages.sketch import hll_estimate, hll_sketch

        assert hll_estimate(hll_sketch(np.array([], dtype=np.uint64))) == 0

    @pytest.mark.usefixtures('ray_session')
    def test_approx_distinct_vs_exact(self):
        import ray.data as rd

        from filters_ray.stages.sketch import approx_distinct

        rng = np.random.RandomState(11)
        vals = rng.randint(0, 40000, size=120000)
        ds = rd.from_arrow(pa.table({'u': pa.array(vals, type=pa.int64())}))
        exact = len(np.unique(vals))
        est = approx_distinct(ds, 'u')
        assert abs(est - exact) / exact < 0.02, (exact, est)

    def test_float_hashes_are_bit_pattern(self):
        from filters_ray.stages.sketch import _hash_column

        # Value truncation would collapse 0.1/0.2/0.3 into one hash.
        col = pa.array([0.1, 0.2, 0.3, 0.5, 1.5, -3.0, 2.5, None])
        h = _hash_column(col)
        assert len(np.unique(h)) == 7
        # float32 must widen, not truncate, and agree with float64 of
        # the widened value.
        f32 = pa.array([0.5, 1.5], type=pa.float32())
        f64 = pa.array([0.5, 1.5], type=pa.float64())
        assert np.array_equal(_hash_column(f32), _hash_column(f64))

    @pytest.mark.usefixtures('ray_session')
    def test_string_column(self):
        import ray.data as rd

        from filters_ray.stages.sketch import approx_distinct

        vals = [f'user-{i % 500}' for i in range(5000)]
        ds = rd.from_arrow(pa.table({'u': pa.array(vals)}))
        est = approx_distinct(ds, 'u')
        assert abs(est - 500) / 500 < 0.05


@pytest.mark.usefixtures('ray_session')
def test_new_queries_against_duckdb():
    """Oracle-check the four new SQL-paired queries at sf0.001 in-test
    (the driver re-checks at sf0.01)."""
    import duckdb

    from filters_ray.pipelines.queries import QUERIES

    con = duckdb.connect()
    for t in ('orders', 'lineitem', 'events'):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'"
        )
    for name in ('orders_price_band_stats', 'events_value_delta',
                 'lineitem_quantity_quantiles', 'lineitem_rollup_counts'):
        fn, sql = QUERIES[name]
        import pandas as pd
        ours = fn(SF_DIR)
        if isinstance(ours, pa.Table):
            ours = ours.to_pandas()
        elif not isinstance(ours, pd.DataFrame):
            ours = ours.to_pandas()   # ray Dataset
        theirs = con.execute(sql).fetchdf()
        ours = ours[sorted(ours.columns)].sort_values(
            list(sorted(ours.columns))).reset_index(drop=True)
        theirs = theirs[sorted(theirs.columns)].sort_values(
            list(sorted(theirs.columns))).reset_index(drop=True)
        assert len(ours) == len(theirs), name
        for col in ours.columns:
            a, b = ours[col], theirs[col]
            if a.dtype.kind == 'f' or b.dtype.kind == 'f':
                np.testing.assert_allclose(
                    a.astype(float), b.astype(float),
                    rtol=0, atol=1e-9, err_msg=f'{name}.{col}',
                )
            else:
                assert a.tolist() == b.tolist(), f'{name}.{col}'
