"""Scalar-vs-vector parity: ``compiled.apply_column(col)[i] == scalar(col[i])``.

Every chain is applied (a) per value through the scalar FilterRunner and
(b) once through the compiled column kernel; values and error codes must
agree row by row (SURVEY.md §5 test plan, step 1).
"""

from __future__ import annotations

import datetime
import decimal

import pyarrow as pa
import pytest
import regex as _regex

import filters_ray as f
from filters_ray.functions.engine_filters import First
from filters_ray.vector import compile_chain
from filters_ray.vector.kernels import to_arrow_value

D = decimal.Decimal


def scalar_reference(spec_builder, values):
    """Row-by-row scalar application → (cleaned list, codes per row)."""
    cleaned, codes = [], []
    for value in values:
        runner = f.FilterRunner(spec_builder(), value)
        cleaned.append(to_arrow_value(runner.cleaned_data))
        row_codes = []
        for key, cs in runner.error_codes.items():
            for c in cs:
                row_codes.append((key, c))
        codes.append(sorted(row_codes))
    return cleaned, codes


def assert_parity(spec_builder, column, type_=None):
    arr = pa.array(column, type=type_)
    compiled = compile_chain(spec_builder())
    out, errors = compiled.apply_column(arr)

    expected_vals, expected_codes = scalar_reference(spec_builder, column)

    got_codes = [sorted(row) for row in errors.codes_per_row()]
    assert got_codes == expected_codes, (
        f'error codes differ\n got: {got_codes}\n exp: {expected_codes}'
    )

    got_vals = out.to_pylist()
    norm_expected = []
    for v in expected_vals:
        norm_expected.append(v)
    # Arrow converts some types on round-trip — compare loosely but
    # deterministically.
    assert len(got_vals) == len(norm_expected)
    for i, (g, e) in enumerate(zip(got_vals, norm_expected)):
        if isinstance(e, D) and isinstance(g, (int, float, D)):
            assert D(str(g)) == e, f'row {i}: {g!r} != {e!r}'
        else:
            assert g == e, f'row {i}: {g!r} != {e!r}'


STRINGS = ['foo', '', None, '  pad  ', 'BAR', 'a\r\nb', '\x00ctl\x1f', 'é', 'дом', 'x' * 50]
INTS = [1, 2, None, -5, 0, 1 << 40]
FLOATS = [1.0, 2.5, None, -3.0, float('nan'), float('inf'), 0.0]
NUMSTR = ['1', '42', None, '-3', '2.0', '1.5', 'NaN', 'x', '', '+Inf', ' 7']


CASES = [
    ('required_str', lambda: f.Required, STRINGS, None),
    ('required_int', lambda: f.Required, INTS, None),
    ('notempty', lambda: f.NotEmpty, STRINGS, None),
    ('empty', lambda: f.Empty, STRINGS, None),
    ('empty_int', lambda: f.Empty, INTS, None),
    ('optional', lambda: f.Optional(default='dflt'), STRINGS, None),
    ('maxlen', lambda: f.MaxLength(4), STRINGS, None),
    ('minlen', lambda: f.MinLength(3), STRINGS, None),
    ('len', lambda: f.Length(3), STRINGS, None),
    ('maxlen_int', lambda: f.MaxLength(4), INTS, None),
    ('choice', lambda: f.Choice(choices={'foo', 'BAR'}), STRINGS, None),
    ('choice_int', lambda: f.Choice(choices={1, 2}), INTS, None),
    # bytes column vs str choices: Python equality says NO match (Arrow
    # would silently encode the str set to bytes — soak finding).
    ('choice_bytes_vs_str', lambda: f.Choice(choices={'1', 'a'}),
     [b'1', b'a', b'x', None], pa.binary()),
    ('choice_after_bytestring', lambda: f.ByteString | f.Choice(choices={'1', 'a'}),
     ['1', 'a', 'x', None], None),
    ('choice_bool_vs_int', lambda: f.Choice(choices={1, 3}),
     [True, False, None], None),  # Python: True == 1 → accepted
    # list values are unhashable → scalar set membership raises
    # (code 'exception'); the kernel must route nested columns scalar.
    ('choice_after_split', lambda: f.Split(':') | f.Choice(choices={'a', 'b'}),
     ['a:b', 'a', None], None),
    # decimal128 column (the Decimal kernel's output): Python equality
    # says Decimal('1') in {1} is True — the kernel must route scalar,
    # not emit an empty choice set (ADVICE r2).
    ('choice_after_decimal', lambda: f.Decimal | f.Choice(choices={1, 2}),
     ['1', '2', '3', None], None),
    ('choice_decimal_col', lambda: f.Choice(choices={1, 2}),
     [D('1'), D('3'), None], pa.decimal128(10, 0)),
    # dictionary-encoded column: dict-encoded 'a' in {'a'} is True.
    ('choice_dict_col', lambda: f.Choice(choices={'a', 'b'}),
     ['a', 'c', None, 'b'], pa.dictionary(pa.int32(), pa.string())),
    ('casefold', lambda: f.CaseFold, STRINGS, None),
    ('strip', lambda: f.Strip, STRINGS, None),
    ('unicode', lambda: f.Unicode, STRINGS, None),
    # \x0b is whitespace to Python (kept by the non-printable strip)
    # but not to RE2 — the vector path must keep it too (soak finding).
    ('unicode_vertical_tab', lambda: f.Unicode,
     ['\x0b', 'a\x0bb', '\x0c', 'a\x00b', None], None),
    ('maxbytes_vertical_tab', lambda: f.MaxBytes(4),
     ['\x0b', 'ab\x0bcd', None], None),
    # Uuid mid-chain: downstream members must see the UUID OBJECT (the
    # scalar semantics), not the canonical string → whole-chain scalar.
    ('uuid_then_regex', lambda: f.Uuid | f.Regex(r'^[0-9a-f-]+$'),
     ['3466c56a-2f7e-4e5b-affa-292cbe84c2fb', 'nope', None], None),
    ('uuid_then_maxlen', lambda: f.Uuid | f.MaxLength(50),
     ['3466c56a-2f7e-4e5b-affa-292cbe84c2fb', None], None),
    ('unicode_int', lambda: f.Unicode, INTS, None),
    ('unicode_float', lambda: f.Unicode, [1.5, None, -2.25], None),
    # Integral floats keep Python str()'s trailing '.0' ('-3.0', not
    # Arrow's '-3'); fixed/scientific threshold rows rebuild with
    # Python's repr (soak findings, r3).
    ('unicode_float_integral', lambda: f.Unicode,
     [-3.0, 1.0, 0.0, 1e15, 1e16, 1e-4, 1e-5, float('nan'), None], None),
    # float32 widens to the Python double the scalar path sees
    # (float32(0.1) → '0.10000000149011612'), it does not keep Arrow's
    # float32 shortest repr (review finding, r3). Values are pre-rounded
    # to the float32 grid so the harness's scalar side sees what the
    # column stores.
    ('unicode_float32', lambda: f.Unicode,
     [float(__import__('numpy').float32(0.1)), 1.5, -3.0, None],
     pa.float32()),
    # Decimal mid-chain routes the whole chain scalar: its decimal128
    # materialization (batch-max scale / >38-digit stringify) would
    # change what downstream members observe (soak findings, r3).
    ('decimal_then_unicode', lambda: f.Decimal | f.Unicode,
     ['-3', '1.5', None, 'x'], None),
    ('decimal_then_regex', lambda: f.Decimal | f.Regex(r'^[a-z]+$'),
     [1.005, 2.5, 1e300, None], None),
    ('round_then_unicode', lambda: f.Round(10) | f.Unicode,
     [4, 5, 6, None], None),
    # MaxBytes' replacement for a too-long row is truncated BYTES
    # (reference string.py:255); the stitch must not cast it back to
    # str even when the chain's output column is string-typed (soak
    # finding, r3). All non-null rows error so both paths stay bytes.
    ('maxbytes_bytes_replacement_kept',
     lambda: f.MaxBytes(2) | f.Unicode | f.MinLength(0),
     ['ümlaut', 'abcd', None, '256.1.1.1'], None),
    ('unicode_bool', lambda: f.Unicode, [True, False, None], None),
    ('unicode_bin', lambda: f.Unicode, [b'ok', None, b'\xff\xfe', 'é'.encode()], pa.binary()),
    ('bytestring', lambda: f.ByteString, STRINGS, None),
    ('int_str', lambda: f.Int, NUMSTR, None),
    ('int_int', lambda: f.Int, INTS, None),
    ('int_float', lambda: f.Int, FLOATS, None),
    ('min', lambda: f.Min(0), INTS, None),
    ('decimal_str', lambda: f.Decimal,
     ['1.5', '-3.25', '42', '.5', '1.', '+7.10', None, '', 'x',
      '1e3', 'NaN', '-Inf', '  2 '], None),
    ('decimal_int', lambda: f.Decimal, INTS, None),
    ('decimal_float', lambda: f.Decimal, FLOATS, None),
    ('decimal_precision', lambda: f.Decimal(max_precision=2),
     ['1.005', '2.5', None, 'x'], None),
    ('round_int_default', lambda: f.Round, INTS, None),
    ('round_int_nearest5', lambda: f.Round(5), [1, 2, 3, -2, -3, 12, None, 0], None),
    ('round_int_result_int', lambda: f.Round(10, result_type=int),
     [4, 5, 6, -5, None], None),
    ('round_str', lambda: f.Round('0.1'), ['1.27', '0.35', None, 'x'], None),
    # INT64_MIN: np.abs wraps, so the overflow guard must route scalar
    # instead of emitting silently wrong rounded values (ADVICE r2).
    ('round_int64_min', lambda: f.Round(5), [-(1 << 63), 4, None], None),
    ('ipv6_only', lambda: f.IpAddress(ipv4=False, ipv6=True),
     ['::1', '2001:db8::ff00:42:8329', '127.0.0.1', 'nope', '', None,
      '2001:0db8:0000:0000:0000:ff00:0042:8329'], None),
    ('ipv4_and_v6', lambda: f.IpAddress(ipv4=True, ipv6=True),
     ['127.0.0.1', '::1', '256.1.1.1', 'fe80::', 'x', None], None),
    ('split_regex_class_plus', lambda: f.Split(r'[,;]+'),
     ['a,b;;c', 'x', '', None, ',lead', 'trail;'], None),
    ('split_regex_ws', lambda: f.Split(r'\s+'),
     ['a b\tc', ' pad ', 'solo', None, 'é spaced'], None),
    ('max', lambda: f.Max(2), INTS, None),
    ('max_excl', lambda: f.Max(2, exclusive=True), INTS, None),
    ('regex_anchored', lambda: f.Regex(r'^[0-9a-f]{3}$'),
     ['bee', 'xyz', None, '', 'BEE', 'beef'], None),
    ('regex_findall', lambda: f.Regex(r'\d+'), ['a1b22', 'none', None], None),
    # RE2-vs-Python-regex divergence battery (ADVICE r1): trailing
    # newline ($ semantics), Unicode classes, compiled-in flags,
    # top-level alternation, escaped trailing $.
    ('regex_trailing_newline', lambda: f.Regex(r'^[0-9a-f]{3}$'),
     ['abc\n', 'abc', 'abc\n\n', 'xyz\n', None, ''], None),
    ('regex_unicode_classes', lambda: f.Regex(r'^\w+$'),
     ['héllo', 'hi', 'дом', '!!', None, 'a b'], None),
    ('regex_ignorecase', lambda: f.Regex(_regex.compile(r'^abc$', _regex.IGNORECASE)),
     ['ABC', 'abc', 'x', None], None),
    ('regex_top_alternation', lambda: f.Regex(r'^a|b$'),
     ['xb', 'a', 'ab', 'q', None], None),
    ('regex_escaped_dollar', lambda: f.Regex(r'^\d+\$'),
     ['12$x', '12$', 'x', None], None),
    ('split_literal', lambda: f.Split(':'), ['a:b:c', 'solo', '', None, '::'], None),
    ('split_regex_fallback', lambda: f.Split(r'[,;]'), ['a,b;c', 'x', None], None),
    ('split_keys_fallback', lambda: f.Split(':', keys=('a', 'b')),
     ['x:y', 'solo', None], None),
    ('maxbytes', lambda: f.MaxBytes(4), STRINGS, None),
    ('maxbytes_notrunc', lambda: f.MaxBytes(4, truncate=False), STRINGS, None),
    ('uuid', lambda: f.Uuid,
     ['3466c56a-2f7e-4e5b-affa-292cbe84c2fb', 'nope', None, ''], None),
    ('uuid_forms', lambda: f.Uuid,
     ['3466C56A-2F7E-4E5B-AFFA-292CBE84C2FB',
      '{3466c56a-2f7e-4e5b-affa-292cbe84c2fb}',
      'urn:uuid:3466c56a-2f7e-4e5b-affa-292cbe84c2fb',
      '3466c56a2f7e4e5baffa292cbe84c2fb', 'zz', None], None),
    ('uuid_v4', lambda: f.Uuid(version=4),
     ['3466c56a-2f7e-4e5b-affa-292cbe84c2fb',   # v4
      '2830f705-d496-1b2b-b4ea-3cfcd5ad2c5e',   # v1 → wrong_version
      'nope', None], None),
    # Non-RFC-4122 variants: UUID.version is None there, so version=4
    # must reject them (wrong_version) even with a '4' version nibble.
    ('uuid_v4_non_rfc_variant', lambda: f.Uuid(version=4),
     ['aaaaaaaa-aaaa-4aaa-0aaa-aaaaaaaaaaaa',   # NCS variant
      'aaaaaaaa-aaaa-4aaa-8aaa-aaaaaaaaaaaa',   # RFC-4122 → ok
      'aaaaaaaa-aaaa-4aaa-caaa-aaaaaaaaaaaa',   # Microsoft variant
      'aaaaaaaa-aaaa-4aaa-eaaa-aaaaaaaaaaaa',   # future variant
      None], None),
    ('ipv4', lambda: f.IpAddress,
     ['127.0.0.1', '255.255.255.255', '256.1.1.1', '01.2.3.4', '1.2.3',
      '1.2.3.4.5', '::1', '', None, '0.0.0.0'], None),
    ('base64', lambda: f.Base64Decode, [b'aGVsbG8=', b'!!!', None, b'-_-_'], pa.binary()),
    ('bytearray_str', lambda: f.ByteArray, ['abc', 'тест', '', None], None),
    ('array_lists', lambda: f.Array, [[1, 2], [], None, [5]], pa.list_(pa.int64())),
    ('array_strings', lambda: f.Array, ['not a list', '', None], None),
    ('array_ints', lambda: f.Array, [1, None, 3], None),
    ('array_chain_len', lambda: f.Array | f.MaxLength(2),
     [[1], [1, 2, 3], None, []], pa.list_(pa.int64())),
    ('bytearray_bin', lambda: f.ByteArray, [b'ok', b'', None], pa.binary()),
    ('bytearray_listint', lambda: f.ByteArray,
     [[65, 66], [300], [-1, 65], [], None], pa.list_(pa.int64())),
    ('datetime_naive', lambda: f.Datetime(naive=True),
     ['2015-05-11T14:56:58-05:00', 'nope', None, '2020-01-01'], None),
    ('datetime_iso_fast', lambda: f.Datetime(naive=True),
     ['2020-01-01 10:30:00', '2020-06-01T00:00:00.250000', None, 'junk',
      '2021-02-03'], None),
    ('datetime_aware', lambda: f.Datetime(),
     ['2020-01-01 10:30:00', None, '2015-05-11T14:56:58-05:00'], None),
    ('date_from_string', lambda: f.Date(naive=True),
     ['2020-01-01', 'nope', None, '2021-07-15 13:00:00'], None),
    ('datetime_ts_column', lambda: f.Datetime(naive=True),
     [datetime.datetime(2020, 1, 1, 5, 0, 0), None], pa.timestamp('us')),
    ('chain_cdc_repo', lambda: f.Required | f.Unicode | f.Strip | f.NotEmpty | f.MaxLength(6),
     STRINGS, None),
    ('chain_int_max', lambda: f.Int | f.Max(3), NUMSTR, None),
    ('chain_shortcircuit', lambda: f.MaxLength(3) | f.MinLength(8) | f.Required,
     STRINGS, None),
    ('chain_casefold_choice', lambda: f.CaseFold | f.Choice(choices={'foo', 'bar'}),
     STRINGS, None),
    ('chain_optional_choice', lambda: f.Unicode | f.Optional('py') | f.Choice(choices={'py', 'rs'}),
     ['py', 'rs', None, '', 'go'], None),
    ('repeater_int', lambda: f.FilterRepeater(f.Int | f.Max(5)),
     [[1, 2], [9, 3], None, [], [4, 10, 2]], pa.list_(pa.int64())),
    ('repeater_strings', lambda: f.FilterRepeater(f.Required | f.Unicode | f.MaxLength(3)),
     [['ab', 'toolong'], [], None, ['x', None]], pa.list_(pa.string())),
    ('repeater_then_len', lambda: f.FilterRepeater(f.Int) | f.MaxLength(2),
     [['1'], ['1', '2', '3'], None, ['x']], pa.list_(pa.string())),
    # Type-mismatched kernels must fall back to scalar semantics
    # (Max over strings raises → code 'exception'), not crash the batch.
    ('max_on_strings', lambda: f.Max(3), ['a', None, 'b'], None),
    ('min_on_strings', lambda: f.Min(0), ['a', None], None),
]


@pytest.mark.parametrize(
    ('name', 'builder', 'column', 'type_'),
    CASES,
    ids=[c[0] for c in CASES],
)
def test_vector_parity(name, builder, column, type_):
    assert_parity(builder, column, type_)


def test_compiled_chain_reuse():
    """One compiled chain instance must be reusable across batches."""
    compiled = compile_chain(f.Int | f.Max(3))
    for _ in range(3):
        out, errors = compiled.apply_column(pa.array(['1', '9', None]))
        assert out.to_pylist() == [1, None, None]
        assert errors.codes_per_row() == [[], [('', 'too_big')], []]


def test_repeater_sliced_list_column():
    """Sliced ListArray batches (Ray block slicing) must only process —
    and attribute errors to — in-window elements (ADVICE r1)."""
    full = pa.array([[1, 2], [3, -1], [5], [6, -2]])
    compiled = compile_chain(f.FilterRepeater(f.Min(0)))
    out, errors = compiled.apply_column(full.slice(2))
    assert out.to_pylist() == [[5], [6, None]]
    assert errors.codes_per_row() == [[], [('1', 'too_small')]]


@pytest.mark.parametrize('builder', [
    lambda: f.Required | f.Unicode | f.NotEmpty,
    lambda: f.Required | f.Unicode | f.Strip | f.NotEmpty | f.MaxLength(2),
    lambda: f.Unicode | f.Choice(choices={'py', 'abc'}),
    lambda: f.Unicode | f.Optional('') | f.Choice(choices={'', 'py', 'abc'}),
    lambda: f.Unicode,
    lambda: f.Unicode | f.Regex(r'^[a-z]+$') | First(),
    lambda: f.Unicode | f.MaxBytes(2),
    lambda: f.Int,
    lambda: f.CaseFold,
    lambda: f.Uuid,
    lambda: f.IpAddress(ipv4=True, ipv6=True),
    lambda: f.Datetime,
    lambda: f.Decimal,
    lambda: f.Split(r'\s+'),
    lambda: f.Regex(r'^\w+$'),
    lambda: f.MaxBytes(3, truncate=True),
])
@pytest.mark.parametrize('values', [
    ['x', 'py', 'py', '', 'abc', None, '12'],
    ['zzzz', 'abc', None, '', 'a\x01b', 'py\r\n', 'é\x02', 'xyz', None],
    ['zz', 'abcd', 'é', '1.5', 'ß', '1.2.3.4', '::1', '2020-01-02',
     'March 3, 2020', '7', '1e3', '12345678-1234-5678-1234-567812345678',
     '{12345678-1234-5678-1234-567812345678}', None, 'a b', '1e-7', 'xyz'],
])
def test_sliced_string_column_keeps_accepted_values(builder, values):
    """A column that is a slice (validation reads a Ray batch's chunk as
    it is, offset included) keeps every accepted row's value when its
    rejected rows are nulled, defaulted, normalized or truncated, and
    when the rows a kernel routes to the scalar filter or patches in
    Python are scattered back. ``pc.if_else(mask, sliced_strings, null)``
    gave ``'ab\\x00'`` for ``'abc'`` on pyarrow 16.1."""
    column = pa.array(values).slice(1)
    out, errors = compile_chain(builder()).apply_column(column)
    expected_vals, expected_codes = scalar_reference(builder, column.to_pylist())
    assert out.to_pylist() == expected_vals
    assert [sorted(row) for row in errors.codes_per_row()] == expected_codes


def test_int_overflow_survives_arrow():
    """Python ints beyond int64 must take the stringify fallback, not
    crash the validate task (ADVICE r1: OverflowError path)."""
    compiled = compile_chain(f.Int)
    out, errors = compiled.apply_column(
        pa.array(['99999999999999999999999999', '5']),
    )
    assert errors.codes_per_row() == [[], []]
    assert out.to_pylist() == ['99999999999999999999999999', '5']


def test_large_column_fastpath():
    """Vector path handles a larger column without falling over."""
    n = 50_000
    col = pa.array((['ok'] * 9 + ['']) * (n // 10))
    compiled = compile_chain(f.Required | f.Unicode | f.MaxLength(5))
    out, errors = compiled.apply_column(col)
    assert len(out) == n
    assert errors.row_mask.sum() == n // 10


DICT_CASES = [
    ('dict_choice', lambda: f.Required | f.Choice(choices={'py', 'go', 'rs'}),
     ['py', 'go', 'xx', None, 'py', 'rs', 'go', 'xx', '']),
    ('dict_regex', lambda: f.Unicode | f.Regex(r'^[a-z]+$'),
     ['abc', 'ABC', None, 'x1', 'abc', 'zz', '', 'ABC']),
    ('dict_strip_maxlen', lambda: f.Strip | f.MaxLength(3),
     ['  ab ', 'abcd', None, 'x', '  ab ', 'toolong', 'x']),
    ('dict_lengths', lambda: f.Length(2),
     ['ab', 'a', None, 'abcd', 'ab', 'cd', 'a']),
    ('dict_int_chain', lambda: f.Int | f.Min(0) | f.Max(10),
     [1, 5, 99, None, -2, 5, 1]),
]


@pytest.mark.parametrize(
    'name,builder,column', DICT_CASES, ids=[c[0] for c in DICT_CASES])
def test_dictionary_column_parity(name, builder, column):
    """Dictionary fast path (VERDICT r3 #7): a dictionary-encoded column
    must produce byte-identical values AND error codes to the decoded
    column and to the scalar reference — the chain runs once over the
    unique values and gathers back through the indices."""
    plain = pa.array(column)
    darr = plain.dictionary_encode()
    compiled = compile_chain(builder())

    out_d, err_d = compiled.apply_column(darr)
    out_p, err_p = compiled.apply_column(plain)
    assert out_d.to_pylist() == out_p.to_pylist()
    assert [sorted(r) for r in err_d.codes_per_row()] == \
        [sorted(r) for r in err_p.codes_per_row()]

    _, expected_codes = scalar_reference(builder, column)
    assert [sorted(r) for r in err_d.codes_per_row()] == expected_codes


def test_dictionary_all_null_and_empty_dict():
    compiled = compile_chain(f.Required | f.Unicode)
    all_null = pa.array([None, None], type=pa.string()).dictionary_encode()
    out, errors = compiled.apply_column(all_null)
    assert out.to_pylist() == [None, None]
    assert [sorted(r) for r in errors.codes_per_row()] == \
        [[('', 'empty')], [('', 'empty')]]


class TestAutoDictionaryEncode:
    """Auto-encode gate (VERDICT r4 #8): parquet readers decode dictionary
    pages to plain strings, so the r3 fast path never fired on real reads.
    apply_column now probes big plain string columns and dictionary-encodes
    the low-cardinality ones itself."""

    def _big_low_card(self, n=20_000):
        vals = ['py', 'go', 'rs', 'xx', None, ''] * (n // 6)
        return pa.array(vals, type=pa.string())

    def test_fires_on_low_cardinality_plain_strings(self, monkeypatch):
        col = self._big_low_card()
        compiled = compile_chain(f.Required | f.Choice(choices={'py', 'go', 'rs'}))
        out_fast, err_fast = compiled.apply_column(col)
        assert compiled.dict_fast_path_hits == 1

        # Parity vs the gate held shut (the plain row-wise path).
        monkeypatch.setattr(type(compiled), '_DICT_PROBE_MAX_UNIQUE', -1)
        out_plain, err_plain = compiled.apply_column(col)
        assert out_fast.to_pylist() == out_plain.to_pylist()
        assert [sorted(r) for r in err_fast.codes_per_row()] == \
            [sorted(r) for r in err_plain.codes_per_row()]

    def test_skips_high_cardinality(self):
        n = 8192
        col = pa.array([f'commit-{i:040d}' for i in range(n)])
        compiled = compile_chain(f.Required | f.MaxLength(64))
        compiled.apply_column(col)
        assert compiled.dict_fast_path_hits == 0

    def test_clustered_prefix_falls_back_on_dict_size(self):
        # First 1024 rows are one value (probe says low-cardinality) but
        # the full column is ~unique: the post-encode dictionary-size
        # check must reject it.
        n = 8192
        col = pa.array(['same'] * 2048 + [f'u{i}' for i in range(n - 2048)])
        compiled = compile_chain(f.Required | f.MaxLength(64))
        compiled.apply_column(col)
        assert compiled.dict_fast_path_hits == 0

    def test_small_low_cardinality_columns_encode(self, monkeypatch):
        # No row minimum: a short column takes the fast path too, with
        # the plain path's values and errors, and keeps its input buffer.
        col = pa.array(['py', 'go', None, 'xx'] * 50)
        compiled = compile_chain(f.Required | f.Choice(choices={'py', 'go'}))
        out_fast, err_fast = compiled.apply_column(col)
        assert compiled.dict_fast_path_hits == 1
        assert out_fast.buffers()[2].address == col.buffers()[2].address

        monkeypatch.setattr(type(compiled), '_DICT_PROBE_MAX_UNIQUE', -1)
        out_plain, err_plain = compiled.apply_column(col)
        assert compiled.dict_fast_path_hits == 1
        assert out_fast.to_pylist() == out_plain.to_pylist()
        assert err_fast.codes_per_row() == err_plain.codes_per_row()
