"""Randomized scalar-vs-vector chain soak.

Generates random filter chains × random Arrow columns and asserts the
compiled vector kernel agrees with the scalar FilterRunner cell for
cell (values AND error codes).  This protocol caught 5 real parity
bugs across rounds 2-3 — re-run it after ANY kernel change::

    python tools/soak_chains.py [n_chains] [seed]

Exit 0 = no divergence.  Chain parameters are FROZEN at draw time (a
prior version re-drew them per construction, comparing different
chains — keep the default-arg binding).

Known-acceptable divergence classes are avoided by construction, not
skipped after the fact: columns are type-homogeneous and ints stay
inside int64 (Arrow type-unification divergences are documented in
vector/kernels.py).
"""

from __future__ import annotations

import os
import random
import sys

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import filters_ray as f  # noqa: E402
from filters_ray.vector import compile_chain  # noqa: E402
from filters_ray.vector.kernels import to_arrow_value  # noqa: E402

# --------------------------------------------------------------------------
# filter pool: each entry draws frozen params and returns a spec builder
# --------------------------------------------------------------------------


def _pool(rng: random.Random, kind: str, position: int):
    def p(*opts):
        return rng.choice(opts)

    # Optional-with-default is drawn only as the FIRST member, with a
    # default in the COLUMN's type family. Anywhere else the default's
    # type can clash with a mid-chain-morphed column type (Decimal →
    # decimal128, Regex/Split → list), forcing Arrow type unification —
    # the documented, accepted divergence class (vector/kernels.py
    # docstring) — out of the parity domain.
    default = {
        'str': p('dflt', ''), 'int': p(0, 7), 'float': p(0.0, 1.5),
        'bytes': b'd', 'bool': True,
    }[kind]

    head_only = [
        lambda d=default: (lambda: f.Optional(default=d)),
    ] if position == 0 else []

    return head_only + [
        lambda: (lambda: f.Required),
        lambda: (lambda: f.NotEmpty),
        lambda: (lambda: f.Empty),
        lambda n=rng.randint(0, 8): (lambda: f.MaxLength(n)),
        lambda n=rng.randint(0, 8): (lambda: f.MinLength(n)),
        lambda n=rng.randint(0, 6): (lambda: f.Length(n)),
        lambda: (lambda: f.CaseFold),
        lambda: (lambda: f.Strip),
        lambda: (lambda: f.Unicode),
        lambda: (lambda: f.NoOp),
        lambda n=rng.randint(1, 10): (lambda: f.MaxBytes(n)),
        # Homogeneous choice sets only: the REFERENCE's Choice.__str__
        # (simple.py:156, json.dumps(sorted(choices))) crashes on mixed
        # int/str sets, so mixed sets are out of the parity domain.
        lambda c=tuple(rng.sample(
            rng.choice([['foo', 'BAR', '', 'a', '1', '2.0'], [1, 2, 0, 7]]),
            3,
        )): (lambda: f.Choice(choices=set(c))),
        lambda: (lambda: f.Int),
        lambda n=rng.randint(-3, 5): (lambda: f.Min(n)),
        lambda n=rng.randint(-3, 5): (lambda: f.Max(n)),
        lambda n=rng.randint(-3, 5), e=rng.random() < .5:
            (lambda: f.Max(n, exclusive=e)),
        lambda: (lambda: f.Decimal),
        lambda n=rng.randint(1, 6): (lambda: f.Decimal(max_precision=n)),
        lambda: (lambda: f.Round),
        lambda n=p(1, 2, 5, 10): (lambda: f.Round(n)),
        lambda g=p('0.1', '0.25', '1'): (lambda: f.Round(g)),
        lambda: (lambda: f.Uuid),
        lambda v4=rng.random() < .8, v6=rng.random() < .5:
            (lambda: f.IpAddress(ipv4=v4 or not v6, ipv6=v6)),
        lambda pat=p(r'^[0-9a-f]{3}$', r'\d+', r'^\w+$', r'^a|b$',
                     r'^[a-z]+ [a-z]+$', r'(?i)^abc$'):
            (lambda: f.Regex(pat)),
        lambda sep=p(':', ',', r'[,;]+', r'\s+'): (lambda: f.Split(sep)),
        lambda: (lambda: f.ByteString),
        lambda: (lambda: f.Base64Decode),
    ]


# --------------------------------------------------------------------------
# column generators (type-homogeneous)
# --------------------------------------------------------------------------

_STR_VALUES = [
    'foo', 'BAR', '', ' pad ', 'a\r\nb', '\x00ctl\x1f', 'é', 'дом',
    'x' * 30, '1', '42', '-3', '2.5', 'NaN', 'Inf', '1e3', ' 7 ',
    'a,b;c', 'a:b:c', '::', 'beef', 'abc\n', 'a b', '\x0b', 'a\x0bb',
    '3466c56a-2f7e-4e5b-affa-292cbe84c2fb', '127.0.0.1', '::1',
    '256.1.1.1', 'Zm9v', 'Zm9vYg==', '!!!', '\t', ' nbsp',
    'mixed123', 'ALLCAPS', 'ümlaut', '{"k": 1}',
]
_INT_VALUES = [0, 1, 2, -5, 7, 100, -1, 1 << 40, -(1 << 62), (1 << 62)]
_FLOAT_VALUES = [
    0.0, 1.0, 2.5, -3.0, 0.35, 1.005, float('nan'), float('inf'),
    -float('inf'), 1e300, -0.5,
]
_BYTES_VALUES = [b'foo', b'', b'\xff\xfe', b'Zm9v', b'1', 'é'.encode()]


def _column(rng: random.Random):
    kind = rng.choice(['str', 'str', 'str', 'int', 'float', 'bytes', 'bool'])
    pool, typ = {
        'str': (_STR_VALUES, None),
        'int': (_INT_VALUES, None),
        'float': (_FLOAT_VALUES, None),
        'bytes': (_BYTES_VALUES, pa.binary()),
        'bool': ([True, False], None),
    }[kind]
    n = rng.randint(3, 12)
    vals = [rng.choice(pool) for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.2:
            vals[i] = None
    return vals, typ, kind


def _scalar_reference(spec_builder, values):
    cleaned, codes = [], []
    for value in values:
        runner = f.FilterRunner(spec_builder(), value)
        cleaned.append(to_arrow_value(runner.cleaned_data))
        row = []
        for key, cs in runner.error_codes.items():
            row.extend((key, c) for c in cs)
        codes.append(sorted(row))
    return cleaned, codes


def _desc(build) -> str:
    try:
        return str(build())
    except Exception:  # noqa: BLE001 — repr itself may raise (parity w/ ref)
        return '<unprintable chain>'


def _norm(v):
    import decimal
    if isinstance(v, decimal.Decimal):
        # decimal128 carries no signed zero and a column-wide scale:
        # compare by numeric value, -0 folded to 0 (documented erasure).
        return ('dec', '0' if v == 0 else str(v.normalize()))
    if isinstance(v, float) and v != v:
        return ('nan',)
    if isinstance(v, list):
        return tuple(_norm(x) for x in v)
    return v


def _values_eq(got, exp) -> bool:
    import decimal
    if _norm(got) == _norm(exp):
        return True
    # Documented erasure: a Decimal that cannot materialize as
    # decimal128 (>38 digits, mixed scales) stringifies in the column.
    if isinstance(got, str) and isinstance(exp, decimal.Decimal):
        try:
            return decimal.Decimal(got) == exp
        except decimal.InvalidOperation:
            return False
    # Documented erasure: a column cannot mix str and bytes rows (the
    # scalar chain can — e.g. MaxBytes' bytes replacement beside clean
    # str rows); one family wins, utf-8-equivalent either way.
    if isinstance(got, bytes) and isinstance(exp, str):
        return got == exp.encode('utf-8')
    if isinstance(got, str) and isinstance(exp, bytes):
        try:
            return got.encode('utf-8') == exp
        except UnicodeEncodeError:
            return False
    return False


def soak(n_chains: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    for i in range(n_chains):
        col, typ, kind = _column(rng)
        draws = [
            rng.choice(_pool(rng, kind, pos))()
            for pos in range(rng.randint(1, 4))
        ]

        def build(ds=tuple(draws)):
            spec = ds[0]()
            for d in ds[1:]:
                spec = spec | d()
            return spec
        try:
            arr = pa.array(col, type=typ)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
            continue
        try:
            exp_vals, exp_codes = _scalar_reference(build, col)
        except Exception as exc:  # noqa: BLE001 — scalar path crashed
            print(f'[{i}] SCALAR CRASH {type(exc).__name__}: {exc} '
                  f'chain={_desc(build)} col={col!r}')
            failures += 1
            continue
        try:
            out, errors = compile_chain(build()).apply_column(arr)
            got_codes = [sorted(r) for r in errors.codes_per_row()]
            got_vals = out.to_pylist()
        except Exception as exc:  # noqa: BLE001
            print(f'[{i}] VECTOR CRASH {type(exc).__name__}: {exc} '
                  f'chain={_desc(build)} col={col!r}')
            failures += 1
            continue
        if got_codes != exp_codes:
            print(f'[{i}] CODE DIVERGENCE chain={_desc(build)} col={col!r}\n'
                  f'  got: {got_codes}\n  exp: {exp_codes}')
            failures += 1
            continue
        mism = [
            (j, g, e) for j, (g, e) in enumerate(zip(got_vals, exp_vals))
            if not _values_eq(g, e)
        ]
        if mism:
            print(f'[{i}] VALUE DIVERGENCE chain={_desc(build)} col={col!r}\n'
                  f'  rows: {mism[:5]}')
            failures += 1
    return failures


if __name__ == '__main__':
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260817
    bad = soak(n, seed)
    print(f'soak: {n} chains, seed {seed}, {bad} divergences')
    sys.exit(1 if bad else 0)
