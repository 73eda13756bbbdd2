"""Batch record validation: FilterMapper semantics over Arrow tables.

This is the engine's `BatchFilterRunner` (SURVEY.md §2.6): a `map_batches`
stage that applies per-column compiled chains (FilterMapper semantics —
reference complex.py:174-383) to every row of a `pyarrow.Table`, producing:

* transformed columns (chain outputs) for clean rows,
* an ``_errors`` column ``list<struct<key: string, code: string>>``
  mirroring ``FilterRunner.error_codes`` keyed by dotted path,
* an ``_original`` struct column holding the batch's own input columns,
  typed as they arrived, for errored rows only (null on clean rows), so
  the dead-letter dataset keeps each rejected row exactly as delivered.

A dead-letter file (:func:`dlq_rows`) is that struct's fields written as
ordinary columns, each with its input Arrow type, next to ``_errors``:
redrive reads it back as the same events it started as, with no per-row
encode or decode on either side.

Chain compilation happens ONCE in ``__init__`` (actor/worker construction
state — SURVEY.md §3.4); ``__call__`` does per-batch vectorized work only.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import base as fbase
from ..vector import CompiledChain, compile_chain

__all__ = [
    'ERRORS_COLUMN',
    'ORIGINAL_COLUMN',
    'RecordValidator',
    'RowRule',
    'ValidateStage',
    'dlq_rows',
    'errors_type',
    'split_clean_dlq',
]

ERRORS_COLUMN = '_errors'
ORIGINAL_COLUMN = '_original'

#: A cross-column row rule: table -> [(mask, key, code)]. Used for
#: conditions one column chain cannot express (e.g. "content required
#: unless op == delete").
RowRule = Callable[[pa.Table], List[Tuple[np.ndarray, str, str]]]


def errors_type() -> pa.DataType:
    return pa.list_(pa.struct([('key', pa.string()), ('code', pa.string())]))


class RecordValidator:
    """Compiled FilterMapper over record batches.

    :param filter_map: ``{column: chain spec | None}`` — ``None`` marks the
        column required-but-unfiltered (reference complex.py:244-253).
    :param allow_missing_keys / allow_extra_keys: tri-state (bool | key
        set) with FilterMapper semantics; ``allow_extra_keys`` is the
        schema-evolution hook — allowed extra columns pass through.
    :param row_rules: optional cross-column rules evaluated after the
        per-column chains.
    """

    def __init__(
        self,
        filter_map: Dict[str, fbase.FilterCompatible],
        allow_missing_keys: Union[bool, Iterable] = True,
        allow_extra_keys: Union[bool, Iterable] = True,
        row_rules: Optional[List[RowRule]] = None,
    ) -> None:
        self.filter_map = dict(filter_map)
        self.allow_missing_keys = (
            set(allow_missing_keys)
            if isinstance(allow_missing_keys, (set, frozenset, list, tuple))
            else bool(allow_missing_keys)
        )
        self.allow_extra_keys = (
            set(allow_extra_keys)
            if isinstance(allow_extra_keys, (set, frozenset, list, tuple))
            else bool(allow_extra_keys)
        )
        self.row_rules = list(row_rules or [])
        self.compiled: Dict[str, Optional[CompiledChain]] = {
            col: (compile_chain(spec) if spec is not None else None)
            for col, spec in self.filter_map.items()
        }

    # -- helpers ---------------------------------------------------------

    def _missing_ok(self, key: str) -> bool:
        if self.allow_missing_keys is True:
            return True
        if self.allow_missing_keys is False:
            return False
        return key in self.allow_missing_keys

    def _extra_ok(self, key: str) -> bool:
        if self.allow_extra_keys is True:
            return True
        if self.allow_extra_keys is False:
            return False
        return key in self.allow_extra_keys

    # -- main ------------------------------------------------------------

    def validate_table(self, table: pa.Table) -> pa.Table:
        """Validate/transform a batch; returns mapped columns + allowed
        extras + ``_errors`` + ``_original``."""
        n = table.num_rows
        out_cols: 'dict[str, pa.Array]' = {}
        all_entries: List[Tuple[np.ndarray, str, str]] = []  # (rows, key, code)

        for col, compiled in self.compiled.items():
            if col in table.column_names:
                source = table.column(col)
            elif self._missing_ok(col):
                # Missing column filtered as all-null (complex.py:293-296).
                source = pa.nulls(n, type=pa.null())
            else:
                all_entries.append((np.arange(n), col, 'missing'))
                out_cols[col] = pa.nulls(n, type=pa.string())
                continue

            if compiled is None:
                out_cols[col] = (
                    source.combine_chunks()
                    if isinstance(source, pa.ChunkedArray) else source
                )
                continue

            values, errors = compiled.apply_column(source)
            out_cols[col] = values
            for rows, code, subkey in errors.entries:
                key = f'{col}.{subkey}' if subkey else col
                all_entries.append((rows, key, code))

        # Extra columns (sorted last — complex.py:306-331).
        extras = sorted(set(table.column_names) - set(self.filter_map))
        for col in extras:
            if self._extra_ok(col):
                out_cols[col] = table.column(col).combine_chunks()
            else:
                all_entries.append((np.arange(n), col, 'unexpected'))
                # Rejected extras are dropped from the output.

        # Cross-column row rules.
        if self.row_rules:
            probe = pa.table(out_cols)
            for rule in self.row_rules:
                for mask, key, code in rule(probe):
                    rows = np.flatnonzero(mask)
                    if rows.size:
                        all_entries.append((rows, key, code))

        out_cols[ERRORS_COLUMN], error_mask = _build_errors_column(n, all_entries)
        out_cols[ORIGINAL_COLUMN] = _original_column(table, error_mask)
        return pa.table(out_cols)


def _build_errors_column(
    n: int,
    entries: List[Tuple[np.ndarray, str, str]],
) -> Tuple[pa.Array, np.ndarray]:
    """Assemble list<struct<key,code>> from (row-indices, key, code) groups."""
    if not entries:
        empty = pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int32)),
            pa.array([], type=pa.struct([('key', pa.string()), ('code', pa.string())])),
        )
        return empty, np.zeros(n, dtype=bool)

    rows = np.concatenate([e[0] for e in entries])
    keys = np.concatenate([np.full(len(e[0]), e[1], dtype=object) for e in entries])
    codes = np.concatenate([np.full(len(e[0]), e[2], dtype=object) for e in entries])

    order = np.argsort(rows, kind='stable')
    rows, keys, codes = rows[order], keys[order], codes[order]

    counts = np.bincount(rows, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])

    structs = pa.StructArray.from_arrays(
        [pa.array(keys, type=pa.string()), pa.array(codes, type=pa.string())],
        names=['key', 'code'],
    )
    col = pa.ListArray.from_arrays(pa.array(offsets), structs)
    return col, counts > 0


def _original_column(table: pa.Table, error_mask: np.ndarray) -> pa.Array:
    """The errored rows' own input columns as one struct, null on clean
    rows: one take whose indices are null on the clean rows."""
    clean = ~error_mask
    rows = table.take(pa.array(np.arange(table.num_rows), mask=clean))
    return pa.StructArray.from_arrays(
        [c.combine_chunks() for c in rows.columns],
        names=table.column_names, mask=pa.array(clean),
    )


class ValidateStage:
    """`map_batches` callable: compile chains once, validate per batch.

    Pass a zero-arg ``spec_factory`` returning the ``RecordValidator``
    kwargs — filter instances hold weakref parents and must be built
    inside the worker, not pickled (SURVEY.md §3.4).
    """

    def __init__(self, spec_factory: Callable[[], dict]) -> None:
        self.validator = RecordValidator(**spec_factory())

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.validator.validate_table(batch)


def dlq_rows(rejected: pa.Table) -> pa.Table:
    """The dead-letter layout of validated rows that all carry errors: each
    row's own input columns, with their input types, plus ``_errors``."""
    return pa.Table.from_struct_array(rejected.column(ORIGINAL_COLUMN)) \
        .append_column(ERRORS_COLUMN, rejected.column(ERRORS_COLUMN))


def split_clean_dlq(table: pa.Table) -> Tuple[pa.Table, pa.Table]:
    """Split a validated table into (clean, dlq).

    Clean rows drop the protocol columns; DLQ rows are in the dead-letter
    layout (:func:`dlq_rows`).
    """
    has_errors = pc.greater(pc.list_value_length(table.column(ERRORS_COLUMN)), 0)
    clean = table.filter(pc.invert(has_errors)).drop_columns(
        [ERRORS_COLUMN, ORIGINAL_COLUMN],
    )
    return clean, dlq_rows(table.filter(has_errors))
