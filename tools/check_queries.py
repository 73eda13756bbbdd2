"""Local mirror of the driver's correctness harness.

Runs every ``queries()`` entry at the given sf and, where an
``oracle_sql()`` entry exists, compares row count + sorted-column value
frame against DuckDB. Usage::

    python tools/check_queries.py [sf_dir] [name ...]

from any directory: the repository is this file's parent directory.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def normalize(df):
    import numpy as np
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if pd.api.types.is_numeric_dtype(df[col]):
            df[col] = df[col].astype(np.float64)
        else:
            df[col] = df[col].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def run_checks(sf_dir: str, only=None, log=print) -> list:
    """Check ``queries()`` vs ``oracle_sql()`` at ``sf_dir``; returns the
    failing names. Caller owns the Ray session (pytest reuses its
    session fixture; ``main`` below inits its own)."""
    import duckdb

    import __ray_entry__ as entrymod

    only = set(only) if only else None
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ['region', 'nation', 'customer', 'supplier', 'part', 'orders',
              'lineitem', 'events', 'documents', 'embeddings']:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            log(f'FAIL  {name}: raised {type(exc).__name__}: {exc}')
            failures.append(name)
            continue
        elapsed = time.time() - t0
        if name not in sqls:
            log(f'ok    {name}: rows={len(ours)} ({elapsed:.1f}s, rows-only)')
            continue
        theirs = con.execute(sqls[name]).fetchdf()
        # Dtype-kind check first: an int column on one side vs float on
        # the other would survive the value compare below but may break a
        # dtype-sensitive value hash.
        kinds_a = {c: ours[c].dtype.kind for c in sorted(ours.columns)}
        kinds_b = {c: theirs[c].dtype.kind for c in sorted(theirs.columns)}
        mismatched = {
            c for c in kinds_a
            if c in kinds_b and {kinds_a[c], kinds_b[c]} == {'i', 'f'}
        }
        if mismatched:
            log(f'FAIL  {name}: int/float dtype mismatch in {sorted(mismatched)} '
                  f'(ours={ {c: kinds_a[c] for c in mismatched} }, '
                  f'orcl={ {c: kinds_b[c] for c in mismatched} })')
            failures.append(name)
            continue
        a, b = normalize(ours), normalize(theirs)
        if len(a) != len(b):
            log(f'FAIL  {name}: rows {len(a)} != {len(b)} ({elapsed:.1f}s)')
            failures.append(name)
        elif list(a.columns) != list(b.columns):
            log(f'FAIL  {name}: columns {list(a.columns)} != {list(b.columns)}')
            failures.append(name)
        elif not a.equals(b):
            diff = (a != b).any(axis=1)
            log(f'FAIL  {name}: values differ in {int(diff.sum())} rows '
                  f'({elapsed:.1f}s)')
            log('  ours:', a[diff].head(3).to_dict('records'))
            log('  orcl:', b[diff].head(3).to_dict('records'))
            failures.append(name)
        else:
            log(f'ok    {name}: rows={len(a)} match ({elapsed:.1f}s)')

    con.close()
    return failures


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else '/root/testdata/sf0.01'
    only = set(sys.argv[2:]) or None

    # Ray's workers import the engine too, from the same directory.
    os.environ['PYTHONPATH'] = os.pathsep.join(
        p for p in (ROOT, os.environ.get('PYTHONPATH')) if p)
    ray.init(address='local', num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    failures = run_checks(sf_dir, only=only)

    ray.shutdown()
    print(f'\n{len(failures)} failures' if failures else '\nall green')
    return 1 if failures else 0


if __name__ == '__main__':
    raise SystemExit(main())
