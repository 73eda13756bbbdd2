"""Property-based tests (hypothesis) for the trickiest invariants."""

from __future__ import annotations

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filters_ray as f
from filters_ray.sources.oracle import replay_oracle
from filters_ray.vector import compile_chain
from filters_ray.vector.kernels import to_arrow_value

TEXT = st.text(max_size=64)


@settings(max_examples=200, deadline=None)
@given(value=TEXT, max_bytes=st.integers(min_value=1, max_value=32))
def test_maxbytes_truncation_invariants(value, max_bytes):
    """Truncation is a prefix, fits the limit, and never splits a
    multibyte sequence (i.e. the result decodes cleanly)."""
    out = f.MaxBytes.truncate_string(value, max_bytes, 'utf-8')
    assert len(out) <= max_bytes
    decoded = out.decode('utf-8')  # must not raise
    assert value.startswith(decoded)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=1, max_size=128))
def test_base64_round_trip(data):
    # (empty input is invalid by definition — matches the reference,
    # which rejects the empty byte string with 'not_base64')
    import base64
    assert f.Base64Decode().apply(base64.b64encode(data)) == data
    assert f.Base64Decode().apply(base64.urlsafe_b64encode(data)) == data


@settings(max_examples=50, deadline=None)
@given(column=st.lists(st.one_of(st.none(), TEXT), min_size=1, max_size=30))
def test_vector_scalar_parity_random_strings(column):
    """The CDC repo-chain agrees scalar-vs-vector on arbitrary strings."""
    build = lambda: f.Required | f.Unicode | f.Strip | f.NotEmpty | f.MaxLength(10)  # noqa: E731
    compiled = compile_chain(build())
    out, errors = compiled.apply_column(pa.array(column, type=pa.string()))

    got_vals = out.to_pylist()
    got_codes = [sorted(r) for r in errors.codes_per_row()]
    for i, value in enumerate(column):
        runner = f.FilterRunner(build(), value)
        expected_codes = sorted(
            (k, c) for k, cs in runner.error_codes.items() for c in cs
        )
        assert got_codes[i] == expected_codes, (i, value)
        assert got_vals[i] == to_arrow_value(runner.cleaned_data), (i, value)


def _record_strategy():
    scalar = st.one_of(
        st.none(), st.integers(-5, 5), st.text(max_size=8),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
        st.booleans(), st.lists(st.text(max_size=4), max_size=3),
    )
    keys = st.sampled_from(['id', 'name', 'tags', 'extra1', 'extra2'])
    return st.dictionaries(keys, scalar, max_size=5)


@settings(max_examples=150, deadline=None)
@given(record=st.one_of(st.none(), _record_strategy(),
                        st.integers(), st.text(max_size=5)))
def test_mapper_fuzz_vs_reference(record):
    """Arbitrary records through an eclectic FilterMapper: our library
    and the reference must agree on codes, values AND messages."""
    import sys
    sys.path.insert(0, 'tests')
    from conftest import load_reference_filters
    ref = load_reference_filters()
    if ref is None:
        return

    def build(m):
        return m.FilterMapper(
            {
                'id': m.Required | m.Int | m.Max(3),
                'name': m.Unicode | m.Strip | m.MaxLength(5),
                'tags': m.FilterRepeater(m.Unicode | m.NotEmpty),
            },
            allow_missing_keys={'tags'},
            allow_extra_keys={'extra1'},
        )

    ours = f.FilterRunner(build(f), record, capture_exc_info=True)
    theirs = ref.FilterRunner(build(ref), record, capture_exc_info=True)
    assert dict(ours.error_codes) == dict(theirs.error_codes), record
    assert ours.cleaned_data == theirs.cleaned_data, record
    our_msgs = {k: [m['message'] for m in v] for k, v in ours.errors.items()}
    ref_msgs = {k: [m['message'] for m in v] for k, v in theirs.errors.items()}
    assert our_msgs == ref_msgs, record


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_lww_final_state_order_independent(seed):
    """The oracle's final state is invariant under event reordering
    (identity = lsn; LWW = max lsn per key) when every event is seen."""
    import random

    rng = random.Random(seed)
    keys = [('r/a', 'f1'), ('r/a', 'f2'), ('r/b', 'f1')]
    events = []
    for lsn in range(30):
        repo, path = rng.choice(keys)
        op = rng.choice(['insert', 'update', 'delete'])
        events.append({
            'lsn': lsn, 'op': op, 'repo': repo, 'path': path,
            'commit': 'c' * 40, 'lang': 'py',
            'content': None if op == 'delete' else f'body {lsn}',
        })
    base = replay_oracle(list(events))
    shuffled = list(events)
    rng.shuffle(shuffled)
    again = replay_oracle(shuffled)
    assert base.sha256_by_key() == again.sha256_by_key()
    assert base.rejected_by_code == again.rejected_by_code


NUMERIC_STR = st.one_of(
    st.none(),
    st.text(max_size=12),
    st.from_regex(r'[+-]?[0-9]{1,12}(\.[0-9]{0,8})?', fullmatch=True),
    st.from_regex(r'[+-]?[0-9]{1,3}[eE][+-]?[0-9]{1,2}', fullmatch=True),
)


@settings(max_examples=150, deadline=None)
@given(column=st.lists(NUMERIC_STR, min_size=1, max_size=25))
@example(column=['0E10', '1E-69', '0.00000000'])  # no common decimal type
def test_decimal_kernel_parity_random(column):
    """Decimal hybrid kernel ≡ scalar on arbitrary numeric-ish strings
    (values compared numerically — the vector path normalizes scale)."""
    import decimal as d
    build = lambda: f.Decimal  # noqa: E731
    compiled = compile_chain(build())
    out, errors = compiled.apply_column(pa.array(column, type=pa.string()))
    got_vals = out.to_pylist()
    got_codes = [sorted(r) for r in errors.codes_per_row()]
    for i, value in enumerate(column):
        runner = f.FilterRunner(build(), value)
        expected_codes = sorted(
            (k, c) for k, cs in runner.error_codes.items() for c in cs
        )
        assert got_codes[i] == expected_codes, (i, value)
        exp = runner.cleaned_data
        got = got_vals[i]
        if isinstance(exp, d.Decimal) and got is not None:
            assert d.Decimal(str(got)) == exp, (i, value)
        else:
            assert got == exp or (got is None and exp is None), (i, value)


@settings(max_examples=100, deadline=None)
@given(
    column=st.lists(st.one_of(st.none(), st.integers(-10**9, 10**9)),
                    min_size=1, max_size=25),
    nearest=st.integers(1, 50),
)
def test_round_kernel_parity_random(column, nearest):
    import decimal as d
    build = lambda: f.Round(nearest)  # noqa: E731
    compiled = compile_chain(build())
    out, errors = compiled.apply_column(pa.array(column, type=pa.int64()))
    assert not any(errors.codes_per_row())
    for i, value in enumerate(column):
        exp = f.FilterRunner(build(), value).cleaned_data
        got = out.to_pylist()[i]
        if value is None:
            assert got is None
        else:
            assert d.Decimal(str(got)) == exp, (i, value, nearest)


@settings(max_examples=100, deadline=None)
@given(column=st.lists(st.one_of(
    st.none(), st.text(max_size=20),
    st.from_regex(r'[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}', fullmatch=True),
    st.from_regex(r'[0-9a-f:]{2,20}', fullmatch=True),
), min_size=1, max_size=25))
def test_ip_kernel_parity_random(column):
    build = lambda: f.IpAddress(ipv4=True, ipv6=True)  # noqa: E731
    compiled = compile_chain(build())
    out, errors = compiled.apply_column(pa.array(column, type=pa.string()))
    got_codes = [sorted(r) for r in errors.codes_per_row()]
    for i, value in enumerate(column):
        runner = f.FilterRunner(build(), value)
        expected_codes = sorted(
            (k, c) for k, cs in runner.error_codes.items() for c in cs
        )
        assert got_codes[i] == expected_codes, (i, value)
        assert out.to_pylist()[i] == to_arrow_value(runner.cleaned_data), (i, value)


@settings(max_examples=100, deadline=None)
@given(column=st.lists(st.one_of(st.none(), st.text(max_size=24)),
                       min_size=1, max_size=25),
       sep=st.sampled_from([r'[,;]', r'\s+', r'[,;]+', r'-+']))
def test_split_regex_kernel_parity_random(column, sep):
    build = lambda: f.Split(sep)  # noqa: E731
    compiled = compile_chain(build())
    out, errors = compiled.apply_column(pa.array(column, type=pa.string()))
    got_codes = [sorted(r) for r in errors.codes_per_row()]
    for i, value in enumerate(column):
        runner = f.FilterRunner(build(), value)
        expected_codes = sorted(
            (k, c) for k, cs in runner.error_codes.items() for c in cs
        )
        assert got_codes[i] == expected_codes, (i, value, sep)
        assert out.to_pylist()[i] == to_arrow_value(runner.cleaned_data), (i, value, sep)
