"""Vectorized Arrow column kernels for the scalar filter library.

Each kernel maps a filter instance to a column transform::

    kernel(values: pa.Array) -> KernelResult(values, errors)

where ``errors`` is a list of ``(mask, code, subkey)`` triples — ``mask`` a
boolean ndarray marking rows that failed with ``code``. The contract:

* Null rows follow the filter's None policy (pass everywhere except
  Required-style filters) — kernels must not flag nulls spuriously.
* For rows flagged in an error mask, ``values`` already holds the row's
  replacement (null for every filter except MaxBytes truncation).
* Vectorized kernels must agree cell-for-cell with the scalar filter
  (enforced by tests/test_vector.py's scalar-vs-vector parity battery).

Routing contract, so that only the routed rows ever leave Arrow:

* A kernel returns its masks as they are, empty ones included;
  :meth:`~filters_ray.vector.compiler.ColumnErrors.add` drops the empty.
* A row a kernel cannot judge goes to the scalar filter through
  :func:`_scalar_rows`. An answer that does not cast to the kernel's
  output type raises, as do answers stringified for a non-string
  output, and the chain then runs that batch on the scalar filter.
* A row a kernel patches in Python goes through :func:`_python_rows`.

Filters without a vector implementation fall back to
:class:`ScalarFallbackKernel`, which loops the compiled scalar chain over
the batch — correct for every filter, used off the hot path.

Known, deliberate divergence class — COLUMN TYPE UNIFICATION: an Arrow
column holds one type, so when a batch mixes representations the whole
column widens to string (Python ints beyond int64; ``Optional`` string
defaults landing in a numeric column). Error codes still match the
scalar filters in these cases except when a >int64 value flows into a
later member (the scalar path hands it the int object, the vector path
the stringified column). Arrow's binary type likewise erases the
bytes/bytearray distinction: ``ByteArray | Choice`` yields 'exception'
scalar-side (bytearray is unhashable) but bytes-membership semantics
vector-side. Bytes-valued Choice sets crash when rendering a rejection
— identically to the reference library (verified), an unsupported
configuration there too. Verified by the randomized chain soak: all
other scalar/vector divergences are parity bugs and treated as such.
"""

from __future__ import annotations

import decimal
import unicodedata
import uuid as _uuid
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import base as fbase
from ..functions import complex as fcomplex  # noqa: F401 (registered fallback)
from ..functions import number as fnumber
from ..functions import simple as fsimple
from ..functions import string as fstring
from .arrays import as_one_array, has_flat_layout, with_validity

__all__ = ['KernelResult', 'ScalarFallbackKernel', 'make_kernel']

ErrorEntry = Tuple[np.ndarray, str, str]  # (mask, code, subkey)


@dataclass
class KernelResult:
    values: pa.Array
    errors: List[ErrorEntry] = field(default_factory=list)


def _as_bool_ndarray(mask: pa.Array, n: int) -> np.ndarray:
    """Arrow boolean array (possibly with nulls) -> dense ndarray[bool]."""
    if isinstance(mask, np.ndarray):
        return mask
    return np.asarray(pc.fill_null(mask, False).to_numpy(zero_copy_only=False), dtype=bool)


def _null_like(arr: pa.Array) -> pa.Array:
    return pa.nulls(len(arr), type=arr.type)


def _nullify(arr: pa.Array, mask: np.ndarray) -> pa.Array:
    """Set masked rows to null: a new validity bitmap over the same
    buffers for flat types, ``if_else`` for nested ones."""
    if not mask.any():
        return arr
    if has_flat_layout(arr.type):
        return with_validity(arr, _not_null_mask(arr) & ~mask)
    return pc.if_else(pa.array(~mask), arr, pa.scalar(None, type=arr.type))


def _length_array(arr: pa.Array) -> Optional[pa.Array]:
    """Per-row length for sized column types, else None."""
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.utf8_length(arr)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t):
        return pc.binary_length(arr)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return pc.list_value_length(arr)
    if pa.types.is_map(t):
        return pc.list_value_length(arr)
    return None


def _not_null_mask(arr: pa.Array) -> np.ndarray:
    return _as_bool_ndarray(pc.is_valid(arr), len(arr))


def _scatter(arr: pa.Array, mask: np.ndarray, values: pa.Array) -> pa.Array:
    """``arr`` with its masked rows replaced, in order, by ``values``."""
    spread = values.take(pa.array(np.cumsum(mask) - 1, mask=~mask))
    return pc.if_else(pa.array(mask), spread, arr)


def _scalar_rows(arr: pa.Array, out: pa.Array, rest: np.ndarray,
                 scalar_fb: 'ScalarFallbackKernel', errors: List[ErrorEntry]) -> pa.Array:
    """``out`` with its ``rest`` rows replaced by the scalar filter's
    answers for those rows of ``arr``; the filter's error masks, lifted to
    the whole column, are appended to ``errors``. Raises when an answer
    does not cast to ``out``'s type, and when the answers came back
    stringified (they share no Arrow type) for a non-string ``out``: a
    string cast may round them (Arrow's string→decimal cast turns
    ``'1E-69'`` into ``0E-8`` without raising)."""
    if not rest.any():
        return out
    res = scalar_fb(arr.filter(pa.array(rest)))
    t = out.type
    if pa.types.is_string(res.values.type) and not (
            pa.types.is_string(t) or pa.types.is_large_string(t)):
        raise TypeError(f'scalar answers stringified for a {t} column')
    values = res.values.cast(t)
    rows = np.flatnonzero(rest)
    for mask, code, subkey in res.errors:
        full = np.zeros(len(arr), dtype=bool)
        full[rows[mask]] = True
        errors.append((full, code, subkey))
    return _scatter(out, rest, values)


def _python_rows(out: pa.Array, src: pa.Array, rows: np.ndarray,
                 fn: Callable[[Any], Any]) -> pa.Array:
    """``out`` with its ``rows`` rows (non-null in ``src``) replaced by
    ``fn`` of ``src``'s values there: only those rows leave Arrow."""
    if not rows.any():
        return out
    fixed = [fn(v) for v in src.filter(pa.array(rows)).to_pylist()]
    return _scatter(out, rows, pa.array(fixed, type=out.type))


# ---------------------------------------------------------------------------
# individual kernels
# ---------------------------------------------------------------------------


def _kernel_not_empty(filt: fsimple.NotEmpty) -> Callable[[pa.Array], KernelResult]:
    allow_none = filt.allow_none
    code = filt.CODE_EMPTY

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        lengths = _length_array(arr)
        if lengths is None:
            # Length-less values are never empty.
            empty = np.zeros(n, dtype=bool)
        else:
            empty = _as_bool_ndarray(pc.equal(lengths, 0), n)
        if not allow_none:
            empty |= ~_not_null_mask(arr)
        if not empty.any():
            return KernelResult(arr)
        return KernelResult(_nullify(arr, empty), [(empty, code, '')])

    return kernel


def _kernel_empty(filt: fsimple.Empty) -> Callable[[pa.Array], KernelResult]:
    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        lengths = _length_array(arr)
        if lengths is None:
            bad = _not_null_mask(arr)  # every non-null length-less value fails
        else:
            bad = _as_bool_ndarray(pc.greater(lengths, 0), n)
        return KernelResult(_nullify(arr, bad), [(bad, filt.CODE_NOT_EMPTY, '')])

    return kernel


def _kernel_optional(filt: fsimple.Optional) -> Callable[[pa.Array], KernelResult]:
    default = filt.default

    def kernel(arr: pa.Array) -> KernelResult:
        lengths = _length_array(arr)
        replace = ~_not_null_mask(arr)
        if lengths is not None:
            replace |= _as_bool_ndarray(pc.equal(lengths, 0), len(arr))
        if not replace.any():
            return KernelResult(arr)
        if default is None:
            return KernelResult(_nullify(arr, replace))
        out_type = arr.type if not pa.types.is_null(arr.type) else None
        try:
            scalar = pa.scalar(default, type=out_type)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            scalar = pa.scalar(default)
            arr = arr.cast(scalar.type)
        return KernelResult(pc.if_else(pa.array(~replace), arr, scalar))

    return kernel


def _kernel_lengths(filt) -> Callable[[pa.Array], KernelResult]:
    """Shared implementation for Length / MaxLength / MinLength."""
    if isinstance(filt, fsimple.Length):
        lo = hi = filt.length
        unsized_code = fbase.Type.CODE_WRONG_TYPE  # Type(Sized) gate
    elif isinstance(filt, fsimple.MaxLength):
        lo, hi = None, filt.max_length
        unsized_code = fbase.BaseFilter.CODE_EXCEPTION  # len() TypeError
    else:
        lo, hi = filt.min_length, None
        unsized_code = fbase.BaseFilter.CODE_EXCEPTION

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        lengths = _length_array(arr)
        if lengths is None:
            bad = _not_null_mask(arr)
            return KernelResult(_nullify(arr, bad), [(bad, unsized_code, '')])
        errors: List[ErrorEntry] = []
        dead = np.zeros(n, dtype=bool)
        if hi is not None:
            too_long = _as_bool_ndarray(pc.greater(lengths, hi), n)
            errors.append((too_long, 'too_long', ''))
            dead |= too_long
        if lo is not None:
            too_short = _as_bool_ndarray(pc.less(lengths, lo), n) & ~dead
            errors.append((too_short, 'too_short', ''))
            dead |= too_short
        return KernelResult(_nullify(arr, dead), errors)

    return kernel


def _compatible_choices(choices, t) -> Optional[list]:
    """Choices that can equal a value of Arrow type ``t`` under PYTHON
    equality (scalar membership semantics): bytes never match str (and
    Arrow's silent str→binary cast must not pretend otherwise), while
    bool/int/float cross-match numerically. ``None`` ⇒ exotic choice
    types OR a nested column type (list/struct/map values are unhashable
    scalar-side → membership raises code 'exception'), fall back to the
    scalar filter.  Only column types whose Python-equality behavior is
    modeled below may proceed — anything else (nested, decimal128,
    dictionary-encoded, temporal, ...) routes scalar, because e.g.
    ``Decimal('1') in {1}`` and dict-encoded ``'a' in {'a'}`` are True
    under Python equality while an empty compat list would wrongly flag
    every non-null row."""
    if not (
        pa.types.is_boolean(t) or pa.types.is_integer(t)
        or pa.types.is_floating(t)
        or pa.types.is_string(t) or pa.types.is_large_string(t)
        or pa.types.is_binary(t) or pa.types.is_large_binary(t)
        or pa.types.is_fixed_size_binary(t) or pa.types.is_null(t)
    ):
        return None
    out = []
    for c in choices:
        if isinstance(c, bool):
            if pa.types.is_boolean(t):
                out.append(c)
            elif pa.types.is_integer(t) or pa.types.is_floating(t):
                out.append(int(c))
        elif isinstance(c, int):
            if pa.types.is_integer(t) or pa.types.is_floating(t):
                out.append(c)
            elif pa.types.is_boolean(t) and c in (0, 1):
                out.append(bool(c))
        elif isinstance(c, float):
            if pa.types.is_floating(t):
                out.append(c)
            elif pa.types.is_integer(t) and c.is_integer():
                out.append(int(c))
            elif pa.types.is_boolean(t) and c in (0.0, 1.0):
                out.append(bool(c))
        elif isinstance(c, str):
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                out.append(c)
        elif isinstance(c, (bytes, bytearray)):
            if pa.types.is_binary(t) or pa.types.is_large_binary(t) \
                    or pa.types.is_fixed_size_binary(t):
                out.append(bytes(c))
        else:
            return None
    return out


def _kernel_choice(filt: fsimple.Choice) -> Callable[[pa.Array], KernelResult]:
    choices = sorted(filt.choices, key=repr)
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        compat = _compatible_choices(choices, arr.type)
        if compat is None:
            return scalar_fb(arr)
        if not compat:
            # No choice can equal this column's type: nothing matches.
            bad = _not_null_mask(arr)
            return KernelResult(_nullify(arr, bad), [(bad, filt.CODE_INVALID, '')])
        try:
            value_set = pa.array(compat, type=arr.type)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
            return scalar_fb(arr)
        ok = _as_bool_ndarray(pc.is_in(arr, value_set=value_set), len(arr))
        bad = ~ok & _not_null_mask(arr)
        return KernelResult(_nullify(arr, bad), [(bad, filt.CODE_INVALID, '')])

    return kernel


def _non_ascii(arr: pa.Array) -> np.ndarray:
    """Rows holding any non-ASCII character; nulls count as ASCII."""
    return _as_bool_ndarray(pc.invert(pc.string_is_ascii(arr)), len(arr))


def _kernel_casefold(filt: fstring.CaseFold) -> Callable[[pa.Array], KernelResult]:
    def kernel(arr: pa.Array) -> KernelResult:
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            return KernelResult(_null_like(arr), [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        # ASCII rows: casefold == lower, fully vectorized. Non-ASCII rows
        # (rare in the CDC corpus) drop to Python str.casefold for parity
        # (e.g. 'ß' -> 'ss', which utf8_lower cannot produce).
        return KernelResult(
            _python_rows(pc.utf8_lower(arr), arr, _non_ascii(arr), str.casefold))

    return kernel


def _kernel_strip(filt: fstring.Strip) -> Callable[[pa.Array], KernelResult]:
    leading = filt.leading.pattern if filt.leading else None
    trailing = filt.trailing.pattern if filt.trailing else None

    def strip(v: str) -> str:
        if filt.leading:
            v = filt.leading.sub('', v)
        if filt.trailing:
            v = filt.trailing.sub('', v)
        return v

    def kernel(arr: pa.Array) -> KernelResult:
        arr = as_one_array(arr)
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            return KernelResult(_null_like(arr), [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        # ASCII rows: RE2 (its \s and \p{C} agree with Python's inside
        # ASCII). Non-ASCII rows: the exact scalar regexes (RE2's \s is
        # ASCII-only — it would keep U+00A0 etc., found by hypothesis).
        out = arr
        if leading:
            out = pc.replace_substring_regex(out, pattern=leading, replacement='', max_replacements=1)
        if trailing:
            out = pc.replace_substring_regex(out, pattern=trailing, replacement='', max_replacements=1)
        return KernelResult(_python_rows(out, arr, _non_ascii(arr), strip))

    return kernel


# Non-printables excluding whitespace. \x0b is explicitly excluded from
# removal: Python's \s includes vertical tab, RE2's does not, so without
# it RE2 would strip \x0b where the scalar filter keeps it.
_NPR_PATTERN = r'[^\P{C}\s\x0b]+'


def printable_rows(arr: pa.Array) -> np.ndarray:
    """Rows that are null or printable ASCII (``' '`` to ``'~'``, the
    empty string included): normalizing leaves them as they are, and no
    guard of the RE2 Regex path fires on them. A chain probes a string
    column once (:class:`~filters_ray.vector.compiler.CompiledChain`)."""
    return np.asarray(pc.fill_null(pc.ascii_is_printable(arr), True)
                      .to_numpy(zero_copy_only=False), dtype=bool)


def _normalize_string_array(arr: pa.Array,
                            printable: Optional[np.ndarray] = None) -> pa.Array:
    """NFC + strip non-printables + unix newlines (Unicode normalize=True).

    Printable ASCII rows (``printable``, probed here when not given) are
    already normal, so a column of them is returned as it is; the other
    rows are normalized apart and scattered back only if one changed."""
    if printable is None:
        printable = printable_rows(arr)
    rest = ~printable
    if not rest.any():
        return arr
    sub = arr.filter(pa.array(rest))
    fixed = _normalize_rows(sub)
    return arr if fixed.equals(sub) else _scatter(arr, rest, fixed)


def _normalize_rows(arr: pa.Array) -> pa.Array:
    """:func:`_normalize_string_array` row by row.

    ASCII rows are fully vectorized (RE2). Non-ASCII rows take the exact
    scalar code path (Python ``regex`` + unicodedata) because (a)
    pyarrow's utf8_normalize does not compose NFC (verified on Arrow 16)
    and (b) RE2's ``\\p{C}`` table diverges from the ``regex`` module's on
    e.g. unassigned codepoints (found by hypothesis).
    """
    out = pc.replace_substring_regex(arr, pattern=_NPR_PATTERN, replacement='')
    out = _python_rows(out, arr, _non_ascii(arr), lambda v: unicodedata.normalize(
        'NFC', fstring._NON_PRINTABLE.sub('', v)))
    out = pc.replace_substring(out, pattern='\r\n', replacement='\n')
    out = pc.replace_substring(out, pattern='\r', replacement='\n')
    return out


def _coerce_to_string(arr: pa.Array, encoding: str) -> Tuple[pa.Array, np.ndarray]:
    """Unicode coercion step: returns (string array, wrong_encoding mask)."""
    t = arr.type
    n = len(arr)
    bad = np.zeros(n, dtype=bool)

    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return arr, bad

    if pa.types.is_binary(t) or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t):
        if encoding.lower().replace('-', '') == 'utf8':
            try:
                return arr.cast(pa.string()), bad  # cast validates UTF-8
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                pass
        # Per-row decode (invalid rows or non-UTF-8 encodings).
        py = arr.to_pylist()
        out: list = []
        for i, v in enumerate(py):
            if v is None:
                out.append(None)
                continue
            try:
                out.append(v.decode(encoding))
            except (UnicodeDecodeError, LookupError):
                out.append(None)
                bad[i] = True
        return pa.array(out, type=pa.string()), bad

    if pa.types.is_boolean(t):
        return pc.if_else(arr, pa.scalar('1'), pa.scalar('0')), bad

    if pa.types.is_integer(t):
        return arr.cast(pa.string()), bad

    if pa.types.is_floating(t):
        if not pa.types.is_float64(t):
            # The scalar path sees the WIDENED Python float (float32 0.1
            # → 0.10000000149011612); match it before stringifying.
            arr = arr.cast(pa.float64())
        s = arr.cast(pa.string())
        # Python str() keeps '.0' on integral floats ('-3.0'); Arrow's
        # cast drops it ('-3'). Append it when the repr carries no
        # fraction dot, exponent, or nan/inf marker (soak finding, r3).
        plain = pc.invert(pc.match_substring_regex(s, r'[.eEni]'))
        s = pc.if_else(plain, pc.binary_join_element_wise(s, '.0', ''), s)
        # Arrow's fixed↔scientific threshold differs from Python's
        # (1e15 → '1e+15' vs '1000000000000000.0'; Python pads the
        # exponent: '1e-05'). Rebuild the boundary rows — anything Arrow
        # printed scientific or near the small-magnitude cutoff — with
        # Python's own repr.
        risky = _as_bool_ndarray(
            pc.match_substring_regex(s, r'e|^-?0\.0000'), n,
        )
        return _python_rows(s, arr, risky, str), bad

    if pa.types.is_decimal(t):
        # format(v, 'f') semantics — Arrow's decimal->string is plain form.
        return arr.cast(pa.string()), bad

    # Fallback: stringify via Python.
    py = arr.to_pylist()
    return pa.array([None if v is None else str(v) for v in py], type=pa.string()), bad


def _kernel_unicode(filt: fstring.Unicode) -> Callable[[pa.Array], KernelResult]:
    normalize = filt.normalize
    encoding = filt.encoding

    def kernel(arr: pa.Array, printable: Optional[np.ndarray] = None) -> KernelResult:
        coerced, bad = _coerce_to_string(arr, encoding)
        if normalize:
            coerced = _normalize_string_array(
                coerced, printable if coerced is arr else None)
        return KernelResult(coerced, [(bad, filt.CODE_DECODE_ERROR, '')])

    kernel.probes = normalize
    return kernel


def _kernel_bytestring(filt: fstring.ByteString) -> Callable[[pa.Array], KernelResult]:
    inner = _kernel_unicode(filt)

    def kernel(arr: pa.Array, printable: Optional[np.ndarray] = None) -> KernelResult:
        res = inner(arr, printable)
        return KernelResult(res.values.cast(pa.binary()), res.errors)

    kernel.probes = inner.probes
    return kernel


_INT_RE = r'^[+-]?[0-9]+$'


def _kernel_int(filt: fnumber.Int) -> Callable[[pa.Array], KernelResult]:
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        t = arr.type
        n = len(arr)
        if pa.types.is_integer(t):
            return KernelResult(arr.cast(pa.int64()) if t != pa.int64() else arr)
        if pa.types.is_boolean(t):
            return KernelResult(arr.cast(pa.int64()))
        if pa.types.is_floating(t):
            finite = _as_bool_ndarray(pc.is_finite(arr), n)
            non_finite = ~finite & _not_null_mask(arr)
            frac = _as_bool_ndarray(
                pc.not_equal(pc.subtract(arr, pc.floor(arr)), 0.0), n,
            ) & ~non_finite
            safe = _nullify(arr, non_finite | frac)
            return KernelResult(safe.cast(pa.int64()), [
                (non_finite, fnumber.Decimal.CODE_NON_FINITE, ''),
                (frac, filt.CODE_DECIMAL, '')])
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            intlike = _as_bool_ndarray(pc.match_substring_regex(arr, _INT_RE), n)
            try:
                out = _nullify(arr, ~intlike).cast(pa.int64())
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                # Overflowing int64 (huge literals): punt entirely to scalar.
                return scalar_fb(arr)
            # Decimal-ish strings ('2.0', '1e3', 'NaN', ...) go through
            # the scalar filter for exact parity.
            errors: List[ErrorEntry] = []
            out = _scalar_rows(arr, out, ~intlike & _not_null_mask(arr), scalar_fb, errors)
            return KernelResult(out, errors)
        return scalar_fb(arr)

    return kernel


def _kernel_minmax(filt) -> Callable[[pa.Array], KernelResult]:
    is_max = isinstance(filt, fnumber.Max)
    bound = filt.max_value if is_max else filt.min_value
    exclusive = filt.exclusive
    code = filt.CODE_TOO_BIG if is_max else filt.CODE_TOO_SMALL

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        if is_max:
            cmp = pc.greater_equal(arr, bound) if exclusive else pc.greater(arr, bound)
        else:
            cmp = pc.less_equal(arr, bound) if exclusive else pc.less(arr, bound)
        bad = _as_bool_ndarray(cmp, n)
        return KernelResult(_nullify(arr, bad), [(bad, code, '')])

    return kernel


def _regex_baseline_flags() -> frozenset:
    """Flag values the vector Regex path accepts (plain UNICODE compiles)."""
    import re as _stdlib_re

    import regex as _regex_mod

    return frozenset({
        _regex_mod.compile('x', _regex_mod.UNICODE).flags,
        _regex_mod.compile('x').flags,
        _stdlib_re.compile('x').flags,
    })


_REGEX_PLAIN_FLAGS = _regex_baseline_flags()


def _is_whole_string_anchored(pattern: str) -> bool:
    """True iff a match of ``pattern`` is provably the whole string:
    ``^...$``-anchored, the trailing ``$`` unescaped, and no top-level
    (outside any group / char class) ``|``, ``^`` or ``$`` in between —
    so e.g. ``^a|b$`` and ``^a\\$`` correctly stay scalar."""
    if not (pattern.startswith('^') and pattern.endswith('$')) or len(pattern) < 2:
        return False
    bs = 0
    j = len(pattern) - 2
    while j >= 0 and pattern[j] == '\\':
        bs += 1
        j -= 1
    if bs % 2:
        return False  # trailing $ is escaped — not an anchor
    depth = 0
    in_class = False
    i = 1
    end = len(pattern) - 1
    while i < end:
        c = pattern[i]
        if c == '\\':
            i += 2
            continue
        if in_class:
            if c == ']':
                in_class = False
        elif c == '[':
            in_class = True
        elif c == '(':
            depth += 1
        elif c == ')':
            depth -= 1
        elif depth == 0 and c in '|^$':
            return False
        i += 1
    return True


def _regex_vectorizes(filt: fstring.Regex) -> bool:
    """Only fully-anchored patterns vectorize, and only without
    compiled-in flags (RE2 would silently drop IGNORECASE etc.)."""
    pattern = filt.regex.pattern
    return (isinstance(pattern, str) and _is_whole_string_anchored(pattern)
            and getattr(filt.regex, 'flags', None) in _REGEX_PLAIN_FLAGS)


def _kernel_regex(filt: fstring.Regex) -> Optional[Callable[[pa.Array], KernelResult]]:
    """Hybrid Regex kernel: RE2 (pc.match_substring_regex) for the rows
    where RE2 and Python ``regex`` semantics provably agree; everything
    else row-routes to the scalar filter.

    Divergences handled (ADVICE r1):
    * compiled-in flags (IGNORECASE/MULTILINE/...) — whole kernel scalar;
    * Unicode classes (``\\w`` matches 'é' in Python, not in RE2) — any
      row containing a non-ASCII character goes scalar;
    * Python's ``$`` matches before a trailing newline, RE2's does not —
      any row ending in ``\\n`` goes scalar;
    * ``^a|b$`` / ``^a\\$`` are not whole-string anchors — whole kernel
      scalar (via :func:`_is_whole_string_anchored`).
    """
    if not _regex_vectorizes(filt):
        return None
    pattern = filt.regex.pattern
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array, printable: Optional[np.ndarray] = None) -> KernelResult:
        n = len(arr)
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            out = pa.nulls(n, type=pa.list_(pa.string()))
            return KernelResult(out, [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        try:
            ok, bad, rest = _regex_rows(arr, pattern, printable)
        except pa.ArrowInvalid:
            return scalar_fb(arr)
        # Anchored pattern ⇒ the single match is the whole string: wrap it.
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(ok.astype(np.int32), out=offsets[1:])
        flat = arr.filter(pa.array(ok))
        wrapped = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
        # Null out rows that were null or invalid.
        wrapped = _nullify(wrapped, ~ok)
        errors: List[ErrorEntry] = [(bad, filt.CODE_INVALID, '')]
        return KernelResult(_scalar_rows(arr, wrapped, rest, scalar_fb, errors), errors)

    kernel.probes = True
    return kernel


def _regex_rows(arr: pa.Array, pattern: str,
                printable: Optional[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """The rows of a string column an anchored RE2 ``pattern`` judges as
    Python's ``regex`` would: ``(ok, bad, rest)``, where ``rest`` rows
    need the scalar filter. Raises ``ArrowInvalid`` on a pattern RE2
    cannot compile."""
    n = len(arr)
    not_null = _not_null_mask(arr)
    # Rows where RE2 may disagree with Python regex → scalar path:
    # non-ASCII (Unicode classes), trailing \n ($ semantics), and
    # \x0b (in Python's \s, not RE2's — the one ASCII class gap). None
    # of them is printable ASCII, so only the other rows are looked at.
    if printable is None:
        printable = printable_rows(arr)
    rest = not_null & ~printable
    if rest.any():
        ascii_only = _as_bool_ndarray(
            pc.equal(pc.utf8_length(arr), pc.binary_length(arr)), n,
        )
        trailing_nl = _as_bool_ndarray(pc.ends_with(arr, pattern='\n'), n)
        has_vt = _as_bool_ndarray(
            pc.greater_equal(pc.find_substring(arr, '\x0b'), 0), n,
        )
        rest &= ~ascii_only | trailing_nl | has_vt
    vec = not_null & ~rest
    ok = _as_bool_ndarray(pc.match_substring_regex(arr, pattern), n) & vec
    return ok, ~ok & vec, rest


def fused_regex_first(filt: fstring.Regex) -> Optional[Callable]:
    """``Regex | First`` as one kernel, for a pattern the Regex kernel
    vectorizes: the match of a whole-string anchor is the string itself,
    so the pair returns its input with the non-matching rows nulled,
    instead of a list column that ``First`` unwraps again. Returns None
    (the caller then runs the pair) on a non-string column, a pattern RE2
    cannot compile, or a row that needs the scalar filter."""
    if not _regex_vectorizes(filt):
        return None
    pattern = filt.regex.pattern

    def kernel(arr: pa.Array, printable: Optional[np.ndarray] = None
               ) -> Optional[KernelResult]:
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            return None
        try:
            ok, bad, rest = _regex_rows(arr, pattern, printable)
        except pa.ArrowInvalid:
            return None
        if rest.any():
            return None
        return KernelResult(_nullify(arr, bad), [(bad, filt.CODE_INVALID, '')])

    kernel.probes = True
    return kernel


def _kernel_maxbytes(filt: fstring.MaxBytes) -> Callable[[pa.Array], KernelResult]:
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        t = arr.type
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            return scalar_fb(arr)
        if filt.encoding.lower().replace('-', '') != 'utf8':
            return scalar_fb(arr)
        coerced, bad_enc = _coerce_to_string(arr, filt.encoding)
        # The scalar path runs Unicode(encoding) with its default
        # normalize=True before measuring (reference string.py:316-323).
        coerced = _normalize_string_array(coerced)
        as_bytes = coerced.cast(pa.binary())
        too_long = _as_bool_ndarray(
            pc.greater(pc.binary_length(as_bytes), filt.max_bytes), n,
        ) & ~bad_enc
        errors = [(bad_enc, fstring.Unicode.CODE_DECODE_ERROR, ''),
                  (too_long, filt.CODE_TOO_LONG, '')]
        if filt.truncate:
            # Truncate only the violating rows (rare) in Python; the
            # undecodable rows are already null in ``coerced``.
            return KernelResult(_python_rows(
                as_bytes, coerced, too_long, lambda v: filt.truncate_string(
                    filt.prefix + v, filt.max_bytes, filt.encoding)), errors)
        return KernelResult(_nullify(as_bytes, too_long | bad_enc), errors)

    return kernel


def _kernel_noop(filt: fsimple.NoOp) -> Callable[[pa.Array], KernelResult]:
    return lambda arr: KernelResult(arr)


def _kernel_array(filt: fsimple.Array) -> Callable[[pa.Array], KernelResult]:
    """Array (non-string sequence) kernel: list columns pass, string /
    binary columns flag wrong_type wholesale; mixed/object columns keep
    scalar semantics."""
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        t = arr.type
        if pa.types.is_list(t) or pa.types.is_large_list(t) \
                or pa.types.is_fixed_size_list(t):
            return KernelResult(arr)
        if pa.types.is_string(t) or pa.types.is_large_string(t) \
                or pa.types.is_binary(t) or pa.types.is_large_binary(t):
            bad = _not_null_mask(arr)
            return KernelResult(
                _null_like(arr),
                [(bad, fbase.Type.CODE_WRONG_TYPE, '')],
            )
        return scalar_fb(arr)

    return kernel


# Strict ISO-8601 timestamps (no timezone) — the vectorizable subset; the
# reference's dateutil parser accepts far more, so everything else drops
# to the scalar fallback row-wise.
_ISO_RE = r'^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}:\d{2}(\.\d{1,6})?)?$'


def _kernel_datetime(filt) -> Callable[[pa.Array], KernelResult]:
    # Only the plain-UTC configuration vectorizes (naive inputs assume
    # UTC, result converted to UTC) — matching Datetime(timezone=None).
    from dateutil.tz import tzutc

    if not isinstance(filt.timezone, tzutc):
        return ScalarFallbackKernel(filt)

    is_date = isinstance(filt, fsimple.Date)
    naive = filt.naive
    scalar_fb = ScalarFallbackKernel(filt)
    out_type = (
        pa.date32() if is_date
        else pa.timestamp('us') if naive
        else pa.timestamp('us', tz='UTC')
    )

    def kernel(arr: pa.Array) -> KernelResult:
        t = arr.type
        n = len(arr)
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            values = arr
            if pa.types.is_date(t) and is_date:
                return KernelResult(arr)  # plain dates pass untouched
            ts = values.cast(pa.timestamp('us'))
            if pa.types.is_timestamp(t) and t.tz is not None:
                ts = values.cast(pa.timestamp('us', tz='UTC')).cast(pa.timestamp('us'))
            if is_date:
                return KernelResult(ts.cast(pa.date32()))
            if naive:
                return KernelResult(ts)
            return KernelResult(ts.cast(pa.timestamp('us', tz='UTC')))
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            return scalar_fb(arr)
        iso = _as_bool_ndarray(pc.match_substring_regex(arr, _ISO_RE), n)
        rest = ~iso & _not_null_mask(arr)
        safe = _nullify(arr, ~iso)
        try:
            ts = safe.cast(pa.timestamp('us'))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            return scalar_fb(arr)
        out = ts.cast(out_type) if not out_type.equals(ts.type) else ts
        # Non-ISO rows: exact dateutil semantics via the scalar filter.
        errors: List[ErrorEntry] = []
        return KernelResult(_scalar_rows(arr, out, rest, scalar_fb, errors), errors)

    return kernel


def _kernel_bytearray(filt: fsimple.ByteArray) -> Optional[Callable[[pa.Array], KernelResult]]:
    """ByteArray fast path: binary columns pass through, UTF-8 strings
    cast zero-copy to binary. Non-UTF-8 encodings and list<int> inputs
    keep exact scalar semantics (per-element range errors)."""
    if filt.encoding.lower().replace('-', '') != 'utf8':
        return None
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        t = arr.type
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            return KernelResult(arr)
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            # Any valid str encodes cleanly to UTF-8 (bad_encoding is
            # impossible for this encoding) — zero-copy cast.
            return KernelResult(arr.cast(pa.binary()))
        return scalar_fb(arr)

    return kernel


_UUID_CANON = r'^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$'


def _kernel_uuid(filt: fstring.Uuid) -> Callable[[pa.Array], KernelResult]:
    """Uuid fast path: canonical 8-4-4-4-12 strings validate and
    canonicalize vectorized; exotic forms (braces, urn:, bare 32-hex,
    UUID objects) drop to the scalar filter row-wise.

    Vector output is the canonical string form (``str(UUID)``), matching
    the engine's Arrow representation of UUID values.
    """
    scalar_fb = ScalarFallbackKernel(filt)
    version = filt.version

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            return scalar_fb(arr)
        canon = _as_bool_ndarray(pc.match_substring_regex(arr, _UUID_CANON), n)
        rest = ~canon & _not_null_mask(arr)
        if version is not None:
            # UUID.version is only meaningful for the RFC-4122 variant
            # (variant nibble at offset 19 in [89ab]); for other variants
            # the scalar filter sees version=None and rejects — route
            # those rows to the scalar path for exact parity.
            var_char = pc.utf8_slice_codeunits(pc.utf8_lower(arr), 19, 20)
            rfc = _as_bool_ndarray(
                pc.is_in(var_char, value_set=pa.array(['8', '9', 'a', 'b'])), n,
            )
            rest |= canon & ~rfc
            canon &= rfc
        out = pc.utf8_lower(_nullify(arr, ~canon))
        errors: List[ErrorEntry] = []
        if version is not None:
            # Version nibble = hex digit at offset 14 of the canonical form.
            ver_char = pc.utf8_slice_codeunits(out, 14, 15)
            ok_ver = _as_bool_ndarray(pc.equal(ver_char, format(version, 'x')), n)
            wrong = canon & ~ok_ver
            errors.append((wrong, filt.CODE_WRONG_VERSION, ''))
            out = _nullify(out, wrong)
        return KernelResult(_scalar_rows(arr, out, rest, scalar_fb, errors), errors)

    return kernel


# Strict dotted-quad, 0-255 per octet, NO leading zeros (inet_pton
# semantics on Linux rejects '01.2.3.4'); RE2-safe.
_IPV4_OCTET = r'(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])'
_IPV4_RE = rf'^{_IPV4_OCTET}(\.{_IPV4_OCTET}){{3}}$'


def _kernel_ip(filt: fstring.IpAddress) -> Optional[Callable[[pa.Array], KernelResult]]:
    """Hybrid IpAddress kernel: the IPv4 dotted-quad check vectorizes
    (strict regex — equivalent to inet_pton(AF_INET) for string input);
    rows containing ':' are IPv6 candidates and row-route to the scalar
    filter (which normalizes to canonical presentation form)."""
    scalar_fb = ScalarFallbackKernel(filt)
    ipv4, ipv6 = filt.ipv4, filt.ipv6

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            return KernelResult(_null_like(arr), [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        not_null = _not_null_mask(arr)
        # Embedded NUL: inet_pton raises ValueError (trapped as code
        # 'exception' by the scalar filter), not "invalid" — row-route.
        rest = not_null & _as_bool_ndarray(
            pc.greater_equal(pc.find_substring(arr, '\x00'), 0), n,
        )
        if ipv6:
            has_colon = _as_bool_ndarray(
                pc.greater_equal(pc.find_substring(arr, ':'), 0), n,
            )
            rest |= not_null & has_colon
        if ipv4:
            ok = _as_bool_ndarray(pc.match_substring_regex(arr, _IPV4_RE), n)
        else:
            ok = np.zeros(n, dtype=bool)
        bad = not_null & ~ok & ~rest
        out = _nullify(arr, bad | rest)
        errors: List[ErrorEntry] = [(bad, filt.CODE_INVALID, '')]
        return KernelResult(_scalar_rows(arr, out, rest, scalar_fb, errors), errors)

    return kernel


def _kernel_decimal(filt) -> Optional[Callable[[pa.Array], KernelResult]]:
    """Hybrid Decimal kernel: plain decimal strings (``[+-]?digits[.digits]``)
    cast vectorized to ``decimal128(38, batch-max-scale)``; everything
    else (scientific notation, NaN/Inf, tuples, int/float columns whose
    binary-float expansion the scalar filter preserves exactly) row-routes
    to the scalar filter. ``max_precision`` configs stay fully scalar
    (quantize semantics)."""
    if filt.max_precision is not None:
        return None
    scalar_fb = ScalarFallbackKernel(filt)
    plain_re = r'^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)$'

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        t = arr.type
        if pa.types.is_decimal(t):
            return KernelResult(arr)
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            return scalar_fb(arr)
        not_null = _not_null_mask(arr)
        plain = _as_bool_ndarray(pc.match_substring_regex(arr, plain_re), n) & not_null
        rest = not_null & ~plain
        if not plain.any():
            return scalar_fb(arr)
        dot = np.asarray(
            pc.fill_null(pc.find_substring(arr, '.'), -1)
            .to_numpy(zero_copy_only=False), dtype=np.int64,
        )
        length = np.asarray(
            pc.fill_null(pc.utf8_length(arr), 0).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        frac = np.where((dot >= 0) & plain, length - dot - 1, 0)
        int_digits = np.where(dot >= 0, dot, length)  # incl. sign: safe upper bound
        max_frac = int(frac[plain].max())
        max_int = int(int_digits[plain].max())
        if max_frac > 18 or max_int + max_frac > 37:
            return scalar_fb(arr)
        safe = _nullify(arr, ~plain)
        try:
            dec = safe.cast(pa.decimal128(38, max_frac))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            return scalar_fb(arr)
        # A routed row needing a wider scale than the plain rows, or
        # routed answers with no common decimal type, raise in
        # _scalar_rows: the chain then runs the batch scalar.
        errors: List[ErrorEntry] = []
        return KernelResult(_scalar_rows(arr, dec, rest, scalar_fb, errors), errors)

    return kernel


def _kernel_round(filt) -> Callable[[pa.Array], KernelResult]:
    """Round kernel: integer columns with an integral ``to_nearest`` and
    HALF_UP rounding vectorize with exact integer arithmetic
    (``sign · ((|v|·2 + n) // 2n) · n``); floats/decimals/strings keep
    the scalar filter's exact Decimal-space semantics."""
    from decimal import ROUND_HALF_UP

    scalar_fb = ScalarFallbackKernel(filt)
    nearest = filt.to_nearest
    if (
        filt.rounding != ROUND_HALF_UP
        or nearest != nearest.to_integral_value()
        or nearest <= 0
    ):
        return scalar_fb
    n_int = int(nearest)
    result_type = filt.result_type

    def kernel(arr: pa.Array) -> KernelResult:
        if not pa.types.is_integer(arr.type):
            return scalar_fb(arr)
        valid = _not_null_mask(arr)
        vals = np.asarray(
            pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(zero_copy_only=False),
            dtype=np.int64,
        )
        if vals.min(initial=0) == np.iinfo(np.int64).min:
            return scalar_fb(arr)  # |INT64_MIN| wraps under np.abs
        if np.abs(vals).max(initial=0) > (1 << 62) - n_int:
            return scalar_fb(arr)  # doubling overflow guard
        mags = (np.abs(vals) * 2 + n_int) // (2 * n_int) * n_int
        rounded = np.sign(vals) * mags
        out = pa.array(rounded)
        if result_type is decimal.Decimal:
            out = out.cast(pa.decimal128(38, 0))
        elif result_type is float:
            out = out.cast(pa.float64())
        elif result_type is not int:
            return scalar_fb(arr)
        return KernelResult(_nullify(out, ~valid))

    return kernel


_RE_META = set('\\^$.|?*+()[]{}')


def _split_regex_safe(pattern: str) -> bool:
    """True iff the separator regex is a plain sequence of literals /
    character classes / class escapes, each optionally ``+``-quantified —
    shapes where RE2 split and Python ``regex.split`` provably agree
    (no capture groups in output, no zero-width matches)."""
    i, n = 0, len(pattern)
    if n == 0:
        return False
    while i < n:
        c = pattern[i]
        if c == '[':
            i += 1
            if i < n and pattern[i] == '^':
                i += 1
            if i < n and pattern[i] == ']':
                i += 1  # leading ] is a literal
            while i < n and pattern[i] != ']':
                if pattern[i] == '\\':
                    i += 1
                i += 1
            if i >= n:
                return False
            i += 1
        elif c == '\\':
            if i + 1 >= n or pattern[i + 1] not in 'dswDSW.\\+*?[](){}|^$tnr ':
                return False
            i += 2
        elif c in '(){}|*?^$.':
            return False
        else:
            i += 1
        if i < n and pattern[i] == '+':
            i += 1
    return True


def _kernel_split(filt: fstring.Split) -> Optional[Callable[[pa.Array], KernelResult]]:
    """Vectorized Split, list output only.

    Literal separators use ``pc.split_pattern``. Safe regex separators
    (:func:`_split_regex_safe`) use RE2's ``pc.split_pattern_regex`` with
    non-ASCII rows routed through the scalar filter (``\\s``/``\\w``
    class semantics diverge outside ASCII). Capture groups (Python puts
    them in the output), exotic constructs, flagged patterns, and the
    keys→OrderedDict variant stay scalar.
    """
    if filt.keys is not None:
        return None
    pattern = filt.regex.pattern
    if not isinstance(pattern, str) or not pattern:
        return None
    if any(c in _RE_META for c in pattern):
        if (
            _split_regex_safe(pattern)
            and getattr(filt.regex, 'flags', None) in _REGEX_PLAIN_FLAGS
        ):
            return _regex_split_kernel(filt, pattern)
        return None

    def kernel(arr: pa.Array) -> KernelResult:
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            out = pa.nulls(len(arr), type=pa.list_(pa.string()))
            return KernelResult(out, [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        return KernelResult(pc.split_pattern(arr, pattern=pattern))

    return kernel


def _regex_split_kernel(
    filt: fstring.Split, pattern: str,
) -> Callable[[pa.Array], KernelResult]:
    scalar_fb = ScalarFallbackKernel(filt)

    def kernel(arr: pa.Array) -> KernelResult:
        n = len(arr)
        if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
            bad = _not_null_mask(arr)
            out = pa.nulls(n, type=pa.list_(pa.string()))
            return KernelResult(out, [(bad, fbase.Type.CODE_WRONG_TYPE, '')])
        not_null = _not_null_mask(arr)
        ascii_only = _as_bool_ndarray(
            pc.equal(pc.utf8_length(arr), pc.binary_length(arr)), n,
        )
        # \x0b: in Python's \s but not RE2's — the one ASCII class gap.
        has_vt = _as_bool_ndarray(
            pc.greater_equal(pc.find_substring(arr, '\x0b'), 0), n,
        )
        rest = not_null & (~ascii_only | has_vt)
        try:
            out = pc.split_pattern_regex(arr, pattern=pattern)
        except pa.ArrowInvalid:
            return scalar_fb(arr)
        errors: List[ErrorEntry] = []
        return KernelResult(_scalar_rows(arr, out, rest, scalar_fb, errors), errors)

    return kernel


def _kernel_repeater(filt: 'fcomplex.FilterRepeater') -> Callable[[pa.Array], KernelResult]:
    """Vectorized FilterRepeater over list columns.

    Flatten (keeping offsets) → apply the compiled element chain to the
    flat child array → rebuild the ListArray. Per-element error isolation
    comes free: a failed element is null at its position, siblings are
    processed (reference complex.py:127-145); error subkeys are the
    element index within the row ('parentkey.i').
    """
    if filt.restrict_keys is not None:
        return ScalarFallbackKernel(filt)  # index restriction: rare, scalar
    scalar_fb = ScalarFallbackKernel(filt)

    from .compiler import CompiledChain

    chain = CompiledChain(filt._filter_chain)

    def kernel(arr: pa.Array) -> KernelResult:
        arr = as_one_array(arr)
        if not (pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)):
            # Mappings / other iterables / wrong types: scalar semantics.
            return scalar_fb(arr)
        n = len(arr)
        # ``arr.values`` ignores slicing (returns the full unsliced child);
        # restrict to the slice window and rebase offsets to 0 so sliced
        # batches (which Ray Data block slicing produces) don't process —
        # or misattribute errors from — out-of-window elements.
        offsets = np.asarray(arr.offsets)
        base = int(offsets[0])
        flat = arr.values.slice(base, int(offsets[-1]) - base)
        if base:
            offsets = offsets - base
        out_flat, elem_errors = chain.apply_column(flat)

        # Map flat-element errors back to (row, index-within-row) keys.
        errors: List[ErrorEntry] = []
        if elem_errors.entries:
            starts = offsets[:-1]
            row_of = np.searchsorted(offsets, np.arange(len(flat)), side='right') - 1
            for rows_flat, code, subkey in elem_errors.entries:
                by_subkey: dict = {}
                for fi in rows_flat:
                    row = int(row_of[fi])
                    idx_in_row = int(fi - starts[row])
                    key = f'{idx_in_row}.{subkey}' if subkey else str(idx_in_row)
                    by_subkey.setdefault(key, []).append(row)
                for key, row_list in by_subkey.items():
                    mask = np.zeros(n, dtype=bool)
                    mask[row_list] = True
                    errors.append((mask, code, key))

        rebuilt = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), out_flat,
        )
        # Preserve null rows (offsets alone lose the validity bitmap).
        null_rows = ~_not_null_mask(arr)
        rebuilt = _nullify(rebuilt, null_rows)
        # NOTE: per-element errors do NOT fail the row itself — the row's
        # value keeps the rebuilt list (failed elements are null inside).
        return KernelResult(rebuilt, errors)

    return kernel


# ---------------------------------------------------------------------------
# scalar fallback
# ---------------------------------------------------------------------------


class _CapturingHandler(fbase.BaseInvalidValueHandler):
    """Collects (subkey, code) pairs for the row being processed."""

    def __init__(self) -> None:
        self.entries: List[Tuple[str, str]] = []

    def handle_invalid_value(self, message: str, exc_info: bool, context: dict) -> Any:
        self.entries.append((context.get('key', ''), context.get('code') or message))


def to_arrow_value(value: Any) -> Any:
    """Normalize scalar filter outputs to Arrow-friendly values."""
    if isinstance(value, _uuid.UUID):
        return str(value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value


class ScalarFallbackKernel:
    """Correct-for-everything kernel: loops the scalar filter over rows.

    Used for filters with no vector implementation (Base64Decode,
    JsonDecode, Type, FilterMapper), for the rows and column types a hybrid
    kernel routes here, and for a batch a vector kernel cannot handle.
    Keeps one compiled chain + one capturing handler per kernel instance
    (single-threaded within a Ray task — reuse is safe, SURVEY.md §3.4).
    """

    def __init__(self, filt: fbase.BaseFilter, output_type: Optional[pa.DataType] = None) -> None:
        self._filter = filt
        self._handler = _CapturingHandler()
        self._filter.handler = self._handler
        self._output_type = output_type

    def __call__(self, arr: pa.Array) -> KernelResult:
        n = len(arr)
        values = arr.to_pylist()
        out: list = []
        row_errors: List[List[Tuple[str, str]]] = []
        any_error_rows: dict = {}
        handler = self._handler
        filt = self._filter
        for i, value in enumerate(values):
            handler.entries = []
            result = filt.apply(value)
            if handler.entries:
                for subkey, code in handler.entries:
                    any_error_rows.setdefault((code, subkey), []).append(i)
            out.append(to_arrow_value(result))
        try:
            out_arr = pa.array(out, type=self._output_type)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError, ValueError):
            # OverflowError: Python ints beyond int64 (scalar Int accepts
            # arbitrary precision) — stringify rather than crash the task.
            out_arr = pa.array([None if v is None else str(v) for v in out], type=pa.string())
        errors: List[ErrorEntry] = []
        for (code, subkey), rows in any_error_rows.items():
            mask = np.zeros(n, dtype=bool)
            mask[rows] = True
            errors.append((mask, code, subkey))
        return KernelResult(out_arr, errors)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_VECTOR_BUILDERS: List[Tuple[type, Callable]] = [
    (fsimple.Date, _kernel_datetime),          # before Datetime (subclass)
    (fsimple.Datetime, _kernel_datetime),
    (fsimple.NotEmpty, _kernel_not_empty),     # also covers Required (subclass)
    (fsimple.Empty, _kernel_empty),
    (fsimple.Optional, _kernel_optional),
    (fsimple.Length, _kernel_lengths),
    (fsimple.MaxLength, _kernel_lengths),
    (fsimple.MinLength, _kernel_lengths),
    (fsimple.Choice, _kernel_choice),
    (fsimple.ByteArray, _kernel_bytearray),
    (fsimple.Array, _kernel_array),
    (fsimple.NoOp, _kernel_noop),
    (fstring.CaseFold, _kernel_casefold),
    (fstring.Strip, _kernel_strip),
    (fstring.ByteString, _kernel_bytestring),  # before Unicode (subclass)
    (fstring.Unicode, _kernel_unicode),
    (fstring.MaxBytes, _kernel_maxbytes),
    (fstring.Regex, _kernel_regex),
    (fstring.Split, _kernel_split),
    (fstring.Uuid, _kernel_uuid),
    (fstring.IpAddress, _kernel_ip),
    (fnumber.Int, _kernel_int),
    (fnumber.Decimal, _kernel_decimal),
    (fnumber.Round, _kernel_round),
    (fnumber.Max, _kernel_minmax),
    (fnumber.Min, _kernel_minmax),
    (fcomplex.FilterRepeater, _kernel_repeater),
]


def make_kernel(filt: fbase.BaseFilter) -> Callable[[pa.Array], KernelResult]:
    """Pick the best kernel for a filter instance.

    Third-party filters may expose their own vectorization by defining
    ``apply_column(arr) -> KernelResult`` (the extension surface).
    """
    custom = getattr(filt, 'apply_column', None)
    if callable(custom):
        return custom
    for ftype, builder in _VECTOR_BUILDERS:
        if type(filt) is ftype or (isinstance(filt, ftype) and _exact_subclass_ok(filt, ftype)):
            kernel = builder(filt)
            if kernel is not None:
                return kernel
    return ScalarFallbackKernel(filt)


def _exact_subclass_ok(filt: fbase.BaseFilter, ftype: type) -> bool:
    """Allow subclass dispatch only for the known-safe cases."""
    if isinstance(filt, fsimple.Required) and ftype is fsimple.NotEmpty:
        return True
    return type(filt) is ftype
