"""Additive schema widening for the lake (SURVEY.md §4 "state" row).

The lake has one schema, recorded in ``_meta.json``. Each commit that
carries rows widens it with its batch's schema (``widen_schema``, through
``ManifestStore.widen_lake_schema``) before it stages a file, and every
read of base, delta and history files uses it, so a column added by a
later run reads as null on earlier rows. A change the rules below reject
makes that commit raise ``ValueError``: the batch commits nothing, and
the lake stays readable. These rules are the lake's only: events as
delivered (input files, DLQ files, a materialized dataset's blocks) are
combined before validation under Arrow's permissive promotion
(``_DELIVERED`` in :mod:`filters_ray.pipelines.cdc`), which also turns
string and binary into binary, so validation can judge every event, and
only what it lets through meets these rules at commit. Widening rules
are additive-only, mirroring FilterMapper's extra/missing-key semantics
(reference complex.py:194-241):

* a new column (an "allowed extra key" in validation) is appended as a
  nullable field;
* integer types widen int8→int16→int32→int64, float32→float64;
* Arrow's ``null`` type (a column null on every row of a batch) widens
  to the other type, either way round;
* anything else (drop, rename, incompatible retype) is rejected —
  such events belong in the DLQ, not the lake.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pyarrow as pa

__all__ = ['widen_schema', 'align_table']

_INT_ORDER = ['int8', 'int16', 'int32', 'int64']
_FLOAT_ORDER = ['float', 'double']  # Arrow names for float32/float64


def _widened_type(old: pa.DataType, new: pa.DataType) -> Optional[pa.DataType]:
    """The common widened type, or None if incompatible."""
    if old.equals(new) or pa.types.is_null(new):
        return old
    if pa.types.is_null(old):
        return new
    so, sn = str(old), str(new)
    if so in _INT_ORDER and sn in _INT_ORDER:
        return old if _INT_ORDER.index(so) >= _INT_ORDER.index(sn) else new
    if so in _FLOAT_ORDER and sn in _FLOAT_ORDER:
        return old if _FLOAT_ORDER.index(so) >= _FLOAT_ORDER.index(sn) else new
    if so in _INT_ORDER and sn in _FLOAT_ORDER:
        return new
    if so in _FLOAT_ORDER and sn in _INT_ORDER:
        return old
    if {so, sn} == {'string', 'large_string'}:
        return pa.large_string()
    if {so, sn} == {'binary', 'large_binary'}:
        return pa.large_binary()
    return None


def widen_schema(current: pa.Schema, incoming: pa.Schema) -> Tuple[pa.Schema, List[str]]:
    """Merge ``incoming`` into ``current`` additively.

    Returns (widened schema, change log). Raises ``ValueError`` on
    non-additive change.
    """
    fields = {f.name: f for f in current}
    order = [f.name for f in current]
    changes: List[str] = []

    for field_ in incoming:
        if field_.name not in fields:
            fields[field_.name] = pa.field(field_.name, field_.type, nullable=True)
            order.append(field_.name)
            changes.append(f'+column {field_.name}:{field_.type}')
            continue
        old = fields[field_.name]
        widened = _widened_type(old.type, field_.type)
        if widened is None:
            raise ValueError(
                f'non-additive schema change on {field_.name!r}: '
                f'{old.type} -> {field_.type}'
            )
        if not widened.equals(old.type):
            fields[field_.name] = pa.field(field_.name, widened, nullable=True)
            changes.append(f'widen {field_.name}: {old.type} -> {widened}')

    return pa.schema([fields[name] for name in order]), changes


def align_table(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project a table onto ``schema``: missing columns become null,
    narrower types are cast up. Column order follows ``schema``."""
    arrays = []
    for field_ in schema:
        if field_.name in table.column_names:
            col = table.column(field_.name)
            if not col.type.equals(field_.type):
                col = col.cast(field_.type)
            arrays.append(col)
        else:
            arrays.append(pa.nulls(table.num_rows, type=field_.type))
    return pa.table(arrays, schema=schema)
