"""Chain compiler: FilterChain spec → vectorized column transform.

Implements the reference's per-value short-circuit (reference
base.py:521-532) with error masks instead of control flow: kernel *k+1*'s
results are only taken for rows whose error mask is still clear, and a
row's value freezes at its replacement the moment it errors.

Chain specs (class, instance, ``a | b``) are the same objects the scalar
API builds — compile once per actor/worker (stateful-stage rule,
SURVEY.md §3.4), apply per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import base as fbase
from ..functions import string as fstring
from ..functions.engine_filters import First
from .arrays import as_one_array, value_offsets, with_validity
from .kernels import (
    KernelResult,
    ScalarFallbackKernel,
    _nullify,
    fused_regex_first,
    make_kernel,
    printable_rows,
)

__all__ = ['ColumnErrors', 'CompiledChain', 'compile_chain']


@dataclass
class ColumnErrors:
    """Per-row error codes for one column: parallel lists of row index
    arrays + (code, subkey) labels, cheap to merge across columns."""

    n: int
    entries: List[Tuple[np.ndarray, str, str]] = field(default_factory=list)

    def add(self, mask: np.ndarray, code: str, subkey: str = '') -> None:
        if mask.any():
            self.entries.append((np.flatnonzero(mask), code, subkey))

    @property
    def row_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        for rows, _, _ in self.entries:
            mask[rows] = True
        return mask

    def codes_per_row(self) -> List[List[Tuple[str, str]]]:
        out: List[List[Tuple[str, str]]] = [[] for _ in range(self.n)]
        for rows, code, subkey in self.entries:
            for i in rows:
                out[i].append((subkey, code))
        return out


def _is_binary_like(t: pa.DataType) -> bool:
    return (
        pa.types.is_binary(t) or pa.types.is_large_binary(t)
        or pa.types.is_fixed_size_binary(t)
    )


class CompiledChain:
    """A filter chain compiled to a sequence of column kernels."""

    def __init__(self, spec: fbase.FilterCompatible) -> None:
        resolved = fbase.BaseFilter.resolve(spec)
        if isinstance(resolved, fbase.FilterChain):
            members = list(resolved._filters)
        elif resolved is None:
            members = []
        else:
            members = [resolved]
        # Filters whose scalar output is a Python object that Arrow must
        # re-represent (UUID → canonical string) are only vector-safe as
        # the LAST member: a downstream member would see the string in
        # the vector path but the object in the scalar path, diverging
        # on error codes (e.g. Uuid | Regex: wrong_type vs malformed).
        # Such chains run whole-chain scalar, preserving object flow.
        # Decimal and Round are representation-bearing the same way:
        # their scalar outputs are Decimal OBJECTS, which a column can
        # only hold as decimal128 at one batch-wide scale — or, when a
        # batch value exceeds 38 digits (a 1e300 float expansion), as
        # strings. Either materialization changes what a downstream
        # member observes (Unicode renders '-3.0' for the scalar chain's
        # '-3'; Regex flags 'malformed' where the scalar chain says
        # 'wrong_type' — soak findings, r3). Mid-chain, they route the
        # whole chain scalar; as the LAST member the materialization is
        # the documented output-representation erasure, not a semantic
        # change.
        from ..functions import number as fnumber

        object_bearing = (fstring.Uuid, fnumber.Decimal, fnumber.Round)
        if any(isinstance(m, object_bearing) for m in members[:-1]):
            members = [resolved]
            self._members = members
            self._kernels = [ScalarFallbackKernel(resolved)]
        else:
            self._members = members
            self._kernels = [make_kernel(m) for m in members]
        self._steps = self._plan()
        self._scalar_fallbacks: dict = {}

    def _plan(self) -> List[Tuple[Callable, Tuple[int, ...]]]:
        """The chain as steps ``(kernel, member indices)``: one member
        each, except an anchored ``Regex | First``, which runs as one
        kernel (:func:`~filters_ray.vector.kernels.fused_regex_first`)."""
        steps, i, m = [], 0, self._members
        while i < len(m):
            fused = (fused_regex_first(m[i])
                     if i + 1 < len(m) and type(m[i]) is fstring.Regex
                     and type(m[i + 1]) is First else None)
            if fused is not None:
                steps.append((fused, (i, i + 1)))
                i += 2
            else:
                steps.append((self._kernels[i], (i,)))
                i += 1
        return steps

    def apply_column(self, arr) -> Tuple[pa.Array, ColumnErrors]:
        """Apply the chain to a column; returns (values, errors).

        For rows that errored, the returned value is the row's replacement
        (null, except e.g. MaxBytes truncation). A row no step changes
        keeps its input bytes: the result shares the input's buffers
        wherever the chain is the identity on the accepted rows.
        """
        arr = as_one_array(arr)
        if pa.types.is_dictionary(arr.type):
            return self._apply_dictionary(arr)
        enc = self._maybe_auto_encode(arr)
        if enc is not None:
            self.dict_fast_path_hits += 1
            return self._apply_dictionary(enc, plain=arr)
        return self._apply_plain(arr)

    def _apply_plain(self, arr: pa.Array) -> Tuple[pa.Array, ColumnErrors]:
        """:meth:`apply_column`'s row-wise path: every step over every row."""
        n = len(arr)
        errors = ColumnErrors(n)
        ok = np.ones(n, dtype=bool)
        current = arr
        probe = _Probe(arr)
        # (mask, values-at-error) pairs to stitch replacements back in.
        frozen: List[Tuple[np.ndarray, pa.Array]] = []

        steps = list(self._steps)
        while steps:
            kernel, members = steps.pop(0)
            result = self._run_step(kernel, members, current, probe)
            if result is None:
                # A fused step off its fast path: run its members instead.
                steps[:0] = [(self._kernels[k], (k,)) for k in members]
                continue
            newly = np.zeros(n, dtype=bool)
            for mask, code, subkey in result.errors:
                effective = mask & ok
                errors.add(effective, code, subkey)
                newly |= effective
            if newly.any():
                frozen.append((newly, result.values))
                ok &= ~newly
            current = result.values
            if not ok.any():
                break

        return self._stitch(current, frozen, n), errors

    def _run_step(self, kernel: Callable, members: Tuple[int, ...],
                  current: pa.Array, probe: '_Probe') -> Optional[KernelResult]:
        try:
            if getattr(kernel, 'probes', False):
                return kernel(current, probe.rows(current))
            return kernel(current)
        except Exception:  # noqa: BLE001
            if len(members) > 1:
                return None
            # A vector kernel met a type/shape it cannot handle (e.g.
            # Max(3) over a string column). The scalar path defines the
            # semantics for every input — fall back for this batch.
            ki = members[0]
            fallback = self._scalar_fallbacks.get(ki)
            if fallback is None:
                fallback = ScalarFallbackKernel(self._members[ki])
                self._scalar_fallbacks[ki] = fallback
            return fallback(current)

    # Auto-encode gate (VERDICT r4 #8): parquet readers decode dictionary
    # pages back to plain strings, so the dictionary fast path was
    # unreachable from a real read. Probe a prefix; when a string column
    # is low-cardinality (CDC's repo/lang/op), one C hash pass buys
    # running the whole chain over the uniques instead of every row, and
    # a column the chain leaves unchanged keeps its input buffers. No row
    # minimum: the plain path copies such a column however short it is
    # (a small tail() file, a DLQ file).
    _DICT_PROBE = 1024           # prefix rows to probe
    _DICT_PROBE_MAX_UNIQUE = 128  # probe uniques above this → skip
    dict_fast_path_hits = 0      # instance-shadowed instrumentation counter

    def _maybe_auto_encode(self, arr: pa.Array):
        """Dictionary-encode a plain low-cardinality string column so the
        dictionary fast path fires on parquet-decoded input; returns the
        DictionaryArray, or None to take the plain path. Output values and
        error masks are identical either way (`_apply_dictionary` gathers
        decoded results back through the indices; parity-tested)."""
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            return None
        probe = arr.slice(0, self._DICT_PROBE)
        if len(pc.unique(probe)) > self._DICT_PROBE_MAX_UNIQUE:
            return None
        enc = pc.dictionary_encode(arr)
        # Prefix lied (e.g. locally-clustered data): encoding a
        # high-cardinality column would make the chain run over ~all
        # values anyway, plus gather overhead — fall back.
        if len(enc.dictionary) > len(arr) // 4:
            return None
        return enc

    def _apply_dictionary(self, arr: pa.DictionaryArray, plain: Optional[pa.Array] = None):
        """Dictionary fast path (VERDICT r3 #7): run the chain ONCE over
        the dictionary's unique values (plus one null sentinel standing
        in for every null row — chains are per-value, so the null
        outcome is uniform), then gather values and error masks back
        through the indices. Cost: chain over n_unique values + O(n)
        gathers — the win on low-cardinality string columns (repo/lang
        in the CDC schema). Semantics are identical to applying the
        chain to the decoded column (parity-tested in test_vector.py):
        the scalar side sees decoded Python values either way. When
        ``plain`` (the decoded column) is given and the chain changed no
        value, only nulled some, the result is ``plain`` under a new
        validity bitmap instead of a gathered copy."""
        n = len(arr)
        vals = arr.dictionary
        sentinel = len(vals)
        vals_plus = pa.concat_arrays([vals, pa.nulls(1, type=vals.type)])
        # Unique values: encoding them again never pays (and an empty
        # dictionary would recurse forever).
        out_vals, val_errors = self._apply_plain(vals_plus)

        idx = pc.fill_null(arr.indices, sentinel).cast(pa.int64())
        idx_np = np.asarray(idx.to_numpy(zero_copy_only=False), dtype=np.int64)
        valid = None if plain is None else _kept_rows(plain, vals_plus, out_vals)
        out = (out_vals.take(idx) if valid is None
               else with_validity(plain, valid[idx_np]))

        errors = ColumnErrors(n)
        for rows, code, subkey in val_errors.entries:
            mask_vals = np.zeros(sentinel + 1, dtype=bool)
            mask_vals[rows] = True
            errors.add(mask_vals[idx_np], code, subkey)
        return out, errors

    @staticmethod
    def _stitch(
        current: pa.Array,
        frozen: List[Tuple[np.ndarray, pa.Array]],
        n: int,
    ) -> pa.Array:
        """Overlay frozen replacement values onto the final array."""
        if not frozen:
            return current
        out = current
        for mask, vals in frozen:
            # Fast path: nearly every filter's replacement for an errored
            # row is null — then the overlay is just "null out the masked
            # rows", no cross-type stitching (measured: the Python
            # fallback below cost 0.4s/batch on the CDC commit chain).
            masked_vals = vals.filter(pa.array(mask))
            if masked_vals.null_count == len(masked_vals):
                out = _nullify(out, mask)
                continue
            if vals.type != out.type:
                # A binary↔string cast would silently re-type the
                # replacement (MaxBytes' truncated BYTES must stay bytes
                # even when the chain's output column is string — soak
                # finding, r3); only same-representation casts are safe.
                bin_str_clash = (
                    _is_binary_like(vals.type) != _is_binary_like(out.type)
                )
                try:
                    if bin_str_clash:
                        raise pa.ArrowTypeError('binary/string clash')
                    vals = vals.cast(out.type)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    # Rare type clash (e.g. replacement bytes into a string
                    # chain output): stitch in Python.
                    out_py = out.to_pylist()
                    vals_py = vals.to_pylist()
                    for i in np.flatnonzero(mask):
                        out_py[i] = vals_py[i]
                    out = pa.array(out_py)
                    continue
            try:
                out = pc.if_else(pa.array(~mask), out, vals)
            except pa.ArrowNotImplementedError:
                # if_else not implemented for this type (nested lists):
                # take() based overlay.
                take_from_vals = np.flatnonzero(mask)
                out_py = out.to_pylist()
                vals_py = vals.to_pylist()
                for i in take_from_vals:
                    out_py[i] = vals_py[i]
                out = pa.array(out_py, type=out.type)
        return out


class _Probe:
    """One column's :func:`~filters_ray.vector.kernels.printable_rows`,
    computed on first use and shared by the chain's steps while their
    values are the column's own bytes (the same offset and data buffers;
    a step that only nulls rows keeps them)."""

    def __init__(self, arr: pa.Array) -> None:
        self._arr = arr
        self._rows: Optional[np.ndarray] = None

    def rows(self, values: pa.Array) -> Optional[np.ndarray]:
        """The probe for ``values``, or None when they are other bytes."""
        if not _same_strings(values, self._arr):
            return None
        if self._rows is None:
            self._rows = printable_rows(self._arr)
        return self._rows


def _same_strings(a: pa.Array, b: pa.Array) -> bool:
    """Whether two string arrays are views of the same offsets and bytes."""
    if not (a.type == b.type and (pa.types.is_string(a.type)
                                  or pa.types.is_large_string(a.type))):
        return False
    if len(a) != len(b) or a.offset != b.offset:
        return False
    return all((x is None and y is None) or (x is not None and y is not None
                                             and x.address == y.address)
               for x, y in zip(a.buffers()[1:], b.buffers()[1:]))


def _kept_rows(plain: pa.Array, before: pa.Array, after: pa.Array) -> Optional[np.ndarray]:
    """Per dictionary entry, whether a row holding it stays valid, when
    the chain mapped every entry of ``before`` (the last one the null
    sentinel) to itself or to null; None when it changed a value. The
    sentinel may also become the empty string when every null row of
    ``plain`` already spans no bytes."""
    if after.type != before.type:
        return None
    valid = np.asarray(pc.is_valid(after).to_numpy(zero_copy_only=False), dtype=bool)
    same = np.asarray(pc.fill_null(pc.equal(after, before), False)
                      .to_numpy(zero_copy_only=False), dtype=bool)
    changed = valid & ~same
    if changed[-1] and (not plain.null_count or (
            after[-1].as_py() == '' and _null_rows_empty(plain))):
        changed[-1] = False
    return None if changed.any() else valid


def _null_rows_empty(arr: pa.Array) -> bool:
    """Whether every null row of a string column spans no bytes."""
    if not arr.null_count:
        return True
    valid = np.asarray(pc.is_valid(arr).to_numpy(zero_copy_only=False), dtype=bool)
    return not np.diff(value_offsets(arr))[~valid].any()


def compile_chain(spec: fbase.FilterCompatible) -> CompiledChain:
    return CompiledChain(spec)
