"""Engine-specific custom filters (the user-extension surface in action).

Built exactly the way a third-party user would extend the library
(reference docs/writing_filters.rst:87-137): subclass ``BaseFilter``,
implement ``_apply``; optionally attach a vectorized ``apply_column`` that
the batch compiler picks up automatically (see
:func:`filters_ray.vector.kernels.make_kernel`).
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import BaseFilter

__all__ = [
    'First',
    'ContentRequiredUnlessDelete',
    'Lookup',
    'content_required_rule',
]


class First(BaseFilter):
    """Take the first element of a sequence (e.g. unwrap Regex's match
    list back to the matched string). Empty sequences are invalid."""

    CODE_EMPTY = 'empty'

    templates = {
        CODE_EMPTY: 'Non-empty sequence expected.',
    }

    def _apply(self, value: Any) -> Any:
        try:
            return value[0]
        except (IndexError, KeyError):
            return self._invalid_value(value, self.CODE_EMPTY)
        except TypeError:
            raise  # trapped by BaseFilter.apply → code 'exception'

    # -- vectorized path --------------------------------------------------

    def apply_column(self, arr: pa.Array):
        from ..vector.arrays import as_one_array
        from ..vector.kernels import (
            KernelResult,
            ScalarFallbackKernel,
            _as_bool_ndarray,
            _nullify,
        )

        arr = as_one_array(arr)
        if not (pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)):
            return ScalarFallbackKernel(self)(arr)
        n = len(arr)
        valid = _as_bool_ndarray(pc.is_valid(arr), n)
        empty = _as_bool_ndarray(pc.equal(pc.list_value_length(arr), 0), n)
        has_first = valid & ~empty
        errors = [(empty & valid, self.CODE_EMPTY, '')]
        if not has_first.any():
            return KernelResult(pa.nulls(n, type=arr.type.value_type), errors)
        offsets = np.asarray(arr.offsets)
        idx = np.where(has_first, offsets[:-1], 0)
        taken = arr.values.take(pa.array(idx, type=pa.int64()))
        out = _nullify(taken, ~has_first)
        return KernelResult(out, errors)


class ContentRequiredUnlessDelete(BaseFilter):
    """Record-level rule: ``content`` must be non-null unless op=delete.

    Scalar form — applied to the *mapping* after a FilterMapper (chains
    can't see sibling keys). The vectorized twin is
    :func:`content_required_rule`.
    """

    CODE_EMPTY = 'empty'

    templates = {
        CODE_EMPTY: 'This value is required.',
    }

    def __init__(self, op_key: str = 'op', content_key: str = 'content') -> None:
        super().__init__()
        self.op_key = op_key
        self.content_key = content_key

    def _apply(self, value: Any) -> Any:
        if not isinstance(value, dict):
            return value
        if value.get(self.op_key) != 'delete' and value.get(self.content_key) is None:
            self._invalid_value(
                value=None,
                reason=self.CODE_EMPTY,
                sub_key=self.content_key,
            )
            # The record itself survives; only the content error is noted
            # (row-level rejection happens at the DLQ split).
        return value


class Lookup(BaseFilter):
    """Map a value through a (small, broadcast) dimension table.

    The engine analogue of the reference's per-value DB-lookup extension
    (``f.ext.Model``, docs/filters_list.rst:319-351): the lookup dict is
    built once per worker (broadcast-hash semi-join semantics, no
    shuffle). Values absent from the table are invalid (``not_found``)
    unless a ``default`` is given.
    """

    CODE_NOT_FOUND = 'not_found'
    _MISSING = object()

    templates = {
        CODE_NOT_FOUND: 'No entry found matching this value.',
    }

    def __init__(self, table: dict, default: Any = _MISSING) -> None:
        super().__init__()
        self.table = table
        self.default = default

    def _apply(self, value: Any) -> Any:
        try:
            return self.table[value]
        except (KeyError, TypeError):
            if self.default is not self._MISSING:
                return self.default
            return self._invalid_value(value, self.CODE_NOT_FOUND)

    # -- vectorized path --------------------------------------------------

    def apply_column(self, arr: pa.Array):
        from ..vector.arrays import as_one_array
        from ..vector.kernels import KernelResult, _as_bool_ndarray, _nullify

        arr = as_one_array(arr)
        keys = list(self.table.keys())
        try:
            key_arr = pa.array(keys, type=arr.type)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            # Key/column type mismatch: nothing matches.
            n = len(arr)
            miss = _as_bool_ndarray(pc.is_valid(arr), n)
            if self.default is not self._MISSING:
                vals = pa.array([self.default] * n)
                return KernelResult(vals)
            return KernelResult(pa.nulls(n), [(miss, self.CODE_NOT_FOUND, '')])
        # index_in gives, per row, the position in the key list (or null).
        idx = pc.index_in(arr, value_set=key_arr)
        found = _as_bool_ndarray(pc.is_valid(idx), len(arr))
        values_arr = pa.array(list(self.table.values()))
        taken = values_arr.take(pc.fill_null(idx, 0))
        out = _nullify(taken, ~found)
        miss = ~found & _as_bool_ndarray(pc.is_valid(arr), len(arr))
        if self.default is not self._MISSING:
            if miss.any():
                out = pc.if_else(
                    pa.array(~miss), out, pa.scalar(self.default, type=out.type),
                )
            return KernelResult(out)
        return KernelResult(out, [(miss, self.CODE_NOT_FOUND, '')])


def content_required_rule(
    op_column: str = 'op', content_column: str = 'content',
) -> 'callable':
    """Vectorized RowRule twin of :class:`ContentRequiredUnlessDelete`."""

    from ..vector.arrays import as_one_array

    def rule(table: pa.Table) -> List[Tuple[np.ndarray, str, str]]:
        op = table.column(op_column)
        content = table.column(content_column)
        mask = pc.and_kleene(
            pc.not_equal(op, pa.scalar('delete')),
            pc.is_null(content),
        )
        dense = np.asarray(
            as_one_array(pc.fill_null(mask, True)).to_numpy(zero_copy_only=False),
            dtype=bool,
        )
        # Rows whose op itself failed validation (null) are already DLQ'd
        # by the op chain; still flag missing content for parity with the
        # scalar rule (op null != 'delete' → content required).
        return [(dense, content_column, 'empty')]

    return rule
