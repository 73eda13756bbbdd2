"""Readers/writers: thin Ray Data wrappers enforcing the engine's rules.

* Reads prune columns and push row filters down to parquet row groups —
  a read that loads all columns for a 2-column transform is wrong.
* Writes produce partitioned directories (resumable layout), never one
  giant file.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    'read_table', 'read_csv_table', 'read_jsonl_table',
    'write_partitioned', 'write_jsonl',
]


def read_table(
    path: str,
    columns: Optional[List[str]] = None,
    row_filter=None,
    **kwargs,
):
    """``ray.data.read_parquet`` with explicit pruning.

    ``row_filter`` is a ``pyarrow.dataset`` expression (e.g.
    ``pc.field('lang') == 'en'``) pushed down to row-group selection.
    """
    import ray.data as rd

    return rd.read_parquet(path, columns=columns, filter=row_filter, **kwargs)


def read_csv_table(
    path: str,
    columns: Optional[List[str]] = None,
    schema=None,
    **kwargs,
):
    """``ray.data.read_csv`` with post-read column pruning.

    CSV has no row-group metadata, so pruning happens right after parse
    (``select_columns`` — drops the columns before the first exchange,
    which is what matters at scale). Pass an explicit ``schema``
    (pyarrow) when ingesting typed logs: CSV inference on a shard that
    happens to hold only nulls would otherwise widen types run-to-run.
    """
    import ray.data as rd
    from pyarrow import csv as pacsv

    if schema is not None:
        kwargs.setdefault(
            'convert_options', pacsv.ConvertOptions(column_types=schema),
        )
    ds = rd.read_csv(path, **kwargs)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def read_jsonl_table(
    path: str,
    columns: Optional[List[str]] = None,
    **kwargs,
):
    """``ray.data.read_json`` (newline-delimited JSON) with post-read
    column pruning — the interchange format of most scraped-text /
    training-data drops."""
    import ray.data as rd

    ds = rd.read_json(path, **kwargs)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def write_jsonl(ds, root: str, **kwargs):
    """Newline-delimited JSON sink, one file per block (resumable
    directory layout, like the parquet sink)."""
    return ds.write_json(root, **kwargs)


def write_partitioned(
    ds,
    root: str,
    min_rows_per_file: int = 500_000,
    partition_cols: Optional[List[str]] = None,
    **kwargs,
):
    """Partitioned parquet sink.

    With ``partition_cols`` the output is a Hive-style directory per key
    value (``col=value/``) — the resumable layout: a re-run can skip or
    re-write individual key partitions instead of one giant file. Without
    it, files are still split by ``min_rows_per_file``.
    """
    if partition_cols:
        kwargs['partition_cols'] = partition_cols
    try:
        return ds.write_parquet(root, min_rows_per_file=min_rows_per_file, **kwargs)
    except TypeError:
        # Older Ray releases use num_rows_per_file.
        return ds.write_parquet(root, num_rows_per_file=min_rows_per_file, **kwargs)
