"""Zero-copy access to Arrow columns.

Validation keeps an accepted row's bytes where they arrived: a column is
read as the array it already is, and a rejected row is nulled by a new
validity bitmap over the same offset and data buffers. Only the bitmap
is new memory (one bit per row).
"""

from __future__ import annotations

from typing import Union

import numpy as np
import pyarrow as pa

__all__ = ['as_one_array', 'has_flat_layout', 'value_offsets', 'with_validity']


def as_one_array(column: Union[pa.Array, pa.ChunkedArray]) -> pa.Array:
    """A column as one array: its only chunk itself, the chunks combined
    when there are several (``combine_chunks`` copies even one chunk)."""
    if isinstance(column, pa.ChunkedArray):
        if column.num_chunks == 1:
            return column.chunk(0)
        return column.combine_chunks()
    return column


def has_flat_layout(t: pa.DataType) -> bool:
    """Types whose array is a validity bitmap plus value buffers, with no
    child array: primitive (numeric, boolean, temporal), string and
    binary of every width."""
    return (pa.types.is_primitive(t) or pa.types.is_string(t)
            or pa.types.is_large_string(t) or pa.types.is_binary(t)
            or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t))


def with_validity(arr: pa.Array, valid: np.ndarray) -> pa.Array:
    """``arr`` with row ``i`` null where ``valid[i]`` is False, over the same
    offset and data buffers (a type with :func:`has_flat_layout` only).

    A row made valid shows the bytes its slot already spans, so callers
    only make valid a row that was valid, or one whose value is the empty
    span they mean."""
    n = len(arr)
    if valid.all():
        bitmap = None
    else:
        bits = np.zeros(arr.offset + n, dtype=bool)
        bits[arr.offset:] = valid
        bitmap = pa.py_buffer(np.packbits(bits, bitorder='little'))
    return pa.Array.from_buffers(
        arr.type, n, [bitmap, *arr.buffers()[1:]],
        null_count=n - int(np.count_nonzero(valid)), offset=arr.offset)


def value_offsets(arr: pa.Array) -> np.ndarray:
    """The ``n + 1`` offsets of a string or binary array's rows into its
    data buffer, as int64, read from the offset buffer under the array's
    slice offset."""
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64 if large else np.int32,
                            count=arr.offset + len(arr) + 1)[arr.offset:]
    return offsets.astype(np.int64)
