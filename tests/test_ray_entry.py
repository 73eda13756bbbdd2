"""Driver contract: entry() / queries() / oracle_sql() sanity.

Mirrors what the graft driver does: Ray pre-initialised, module imported,
entry smoke-checked, query/oracle key alignment verified.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.usefixtures('ray_session')
def test_entry_runs_and_returns_rows():
    import __ray_entry__ as entrymod

    result = entrymod.entry()
    import pandas as pd
    import pyarrow as pa
    assert isinstance(result, (pa.Table, pd.DataFrame)) or hasattr(result, 'take_all')
    n = result.num_rows if isinstance(result, pa.Table) else len(result)
    assert n > 0
    cols = (
        result.column_names if isinstance(result, pa.Table)
        else list(result.columns)
    )
    assert {'repo', 'path', 'last_lsn', 'content_sha'} <= set(cols)


def test_oracle_keys_subset_of_queries():
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    assert set(sqls) <= set(qs)
    assert len(qs) >= 25
    # Contract: callables take one positional arg (sf_dir).
    import inspect
    for name, fn in qs.items():
        sig = inspect.signature(fn)
        assert len(sig.parameters) >= 1, name


def test_entry_is_deterministic():
    """Two entry() calls → same rows (exactly-once + seeded fixture)."""
    import ray

    if not ray.is_initialized():
        pytest.skip('needs the session fixture indirectly')
