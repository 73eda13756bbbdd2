"""RecordValidator parity vs scalar FilterMapper + Ray map_batches smoke."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import filters_ray as f
from filters_ray.stages.validate import (
    ERRORS_COLUMN,
    RecordValidator,
    ValidateStage,
    split_clean_dlq,
)

LANGS = {'py', 'rs', 'js', 'go', 'c'}


def spec():
    return {
        'filter_map': {
            'id': f.Required | f.Int | f.Min(0),
            'name': f.Required | f.Unicode | f.Strip | f.NotEmpty | f.MaxLength(10),
            'lang': f.Unicode | f.Optional('py') | f.Choice(choices=LANGS),
        },
        'allow_missing_keys': False,
        'allow_extra_keys': False,
    }


ROWS = [
    {'id': '1', 'name': ' alice ', 'lang': 'py'},
    {'id': '-2', 'name': 'bob', 'lang': 'rs'},          # too_small
    {'id': '3', 'name': '', 'lang': None},               # empty name, lang → default
    {'id': 'x', 'name': 'this name is way too long', 'lang': 'zz'},  # 3 errors
    {'id': '5', 'name': 'ok', 'lang': 'js'},
]


def scalar_mapper_codes(rows):
    mapper = f.FilterMapper(
        spec()['filter_map'], allow_missing_keys=False, allow_extra_keys=False,
    )
    per_row = []
    for row in rows:
        runner = f.FilterRunner(mapper, row)
        codes = []
        for key, cs in runner.error_codes.items():
            for c in cs:
                codes.append((key, c))
        per_row.append(sorted(codes))
    return per_row


def test_batch_matches_scalar_mapper():
    table = pa.table({
        'id': [r['id'] for r in ROWS],
        'name': [r['name'] for r in ROWS],
        'lang': [r['lang'] for r in ROWS],
    })
    validator = RecordValidator(**spec())
    out = validator.validate_table(table)

    got = []
    for entry in out.column(ERRORS_COLUMN).to_pylist():
        got.append(sorted((e['key'], e['code']) for e in entry))
    assert got == scalar_mapper_codes(ROWS)

    # Clean-row transforms match the scalar mapper's cleaned data.
    assert out.column('name').to_pylist()[0] == 'alice'
    assert out.column('lang').to_pylist()[2] == 'py'  # Optional default
    assert out.column('id').to_pylist()[0] == 1


def test_missing_column_rejected():
    table = pa.table({'id': ['1'], 'name': ['a']})
    out = RecordValidator(**spec()).validate_table(table)
    errs = out.column(ERRORS_COLUMN).to_pylist()[0]
    # lang missing → allow_missing_keys=False → 'missing'
    assert ('lang', 'missing') in {(e['key'], e['code']) for e in errs}


def test_extra_column_rejected_and_dropped():
    table = pa.table({
        'id': ['1'], 'name': ['a'], 'lang': ['py'], 'attachment': ['virus'],
    })
    out = RecordValidator(**spec()).validate_table(table)
    errs = out.column(ERRORS_COLUMN).to_pylist()[0]
    assert {(e['key'], e['code']) for e in errs} == {('attachment', 'unexpected')}
    assert 'attachment' not in out.column_names


def test_extra_column_allowed_passes_through():
    cfg = spec()
    cfg['allow_extra_keys'] = {'branch'}
    table = pa.table({
        'id': ['1'], 'name': ['a'], 'lang': ['py'], 'branch': ['main'],
    })
    out = RecordValidator(**cfg).validate_table(table)
    assert out.column('branch').to_pylist() == ['main']
    assert out.column(ERRORS_COLUMN).to_pylist() == [[]]


def test_split_clean_dlq():
    table = pa.table({
        'id': ['1', 'x'], 'name': ['a', 'b'], 'lang': ['py', 'py'],
    })
    out = RecordValidator(**spec()).validate_table(table)
    clean, dlq = split_clean_dlq(out)
    assert clean.num_rows == 1
    assert dlq.num_rows == 1
    assert ERRORS_COLUMN not in clean.column_names
    # DLQ preserves the original payload, typed as it arrived.
    assert dlq.column('id').to_pylist() == ['x']
    assert dlq.column('id').type == pa.string()


def test_row_rule():
    def content_required_unless_delete(table: pa.Table):
        import numpy as np
        op = table.column('op')
        content = table.column('content')
        mask = pc.and_(
            pc.not_equal(op, pa.scalar('delete')),
            pc.is_null(content),
        )
        return [(np.asarray(pc.fill_null(mask, False)), 'content', 'empty')]

    validator = RecordValidator(
        filter_map={'op': f.Required | f.Unicode, 'content': None},
        row_rules=[content_required_unless_delete],
    )
    table = pa.table({
        'op': ['insert', 'delete', 'update'],
        'content': [None, None, 'x'],
    })
    out = validator.validate_table(table)
    got = [
        {(e['key'], e['code']) for e in entry}
        for entry in out.column(ERRORS_COLUMN).to_pylist()
    ]
    assert got == [{('content', 'empty')}, set(), set()]


@pytest.mark.usefixtures('ray_session')
def test_validate_stage_in_ray_pipeline():
    import ray.data as rd

    table = pa.table({
        'id': [str(i) for i in range(100)],
        'name': [f'user{i}' if i % 10 else '' for i in range(100)],
        'lang': ['py'] * 100,
    })
    ds = rd.from_arrow(table)

    # NOTE: the factory must be a closure/lambda (pickled by value) — a
    # module-level function from a non-importable test module would make
    # the actor restart forever with ModuleNotFoundError.
    def local_spec():
        import filters_ray as flt
        return {
            'filter_map': {
                'id': flt.Required | flt.Int | flt.Min(0),
                'name': flt.Required | flt.Unicode | flt.Strip | flt.NotEmpty | flt.MaxLength(10),
                'lang': flt.Unicode | flt.Optional('py') | flt.Choice(choices=LANGS),
            },
            'allow_missing_keys': False,
            'allow_extra_keys': False,
        }

    validated = ds.map_batches(
        ValidateStage,
        fn_constructor_args=(local_spec,),
        batch_format='pyarrow',
        concurrency=2,
    )
    out = validated.take_all()
    assert len(out) == 100
    n_bad = sum(1 for r in out if r[ERRORS_COLUMN])
    assert n_bad == 10


def test_auto_dict_fast_path_fires_on_flagship_batch():
    """Integration pin for the auto-encode gate (VERDICT r4 #8): on a
    flagship-shaped event batch (parquet-decoded = plain strings) the
    dictionary fast path must fire for the low-cardinality columns
    (op/repo/lang) and stay shut for the ~unique ones
    (commit/path/content), where encode+gather would only add cost."""
    from filters_ray.pipelines.cdc import CDCValidateStage
    from filters_ray.sources.synth import SynthConfig, make_events

    batch = make_events(SynthConfig(n_keys=3000, n_events=9000, seed=5))
    assert batch.num_rows >= 8192  # well past the gate's 1,024-row probe

    stage = CDCValidateStage(num_partitions=16)
    out = stage(batch)
    assert out.num_rows == batch.num_rows

    hits = {
        col: chain.dict_fast_path_hits
        for col, chain in stage.validator.compiled.items()
        if chain is not None
    }
    for col in ('op', 'repo', 'lang'):
        assert hits.get(col, 0) >= 1, (col, hits)
    for col in ('commit', 'path', 'content'):
        assert hits.get(col, 0) == 0, (col, hits)


def test_short_batch_keeps_the_repo_and_lang_buffers():
    """A batch far below 4,096 rows (a small ``tail()`` file, a DLQ file
    a redrive validates) keeps the input data buffers of its
    low-cardinality ``repo`` and ``lang`` columns, as a long one does:
    the dictionary fast path has no row minimum."""
    from filters_ray.pipelines.cdc import _make_validate_fn
    from filters_ray.sources.synth_fast import make_events_fast

    batch = make_events_fast(1000, n_keys=200, seed=53)
    out = _make_validate_fn(8, None, True)(batch)
    for col in ('repo', 'lang'):
        given, got = batch.column(col), out.column(col)
        assert (given.num_chunks, got.num_chunks) == (1, 1)
        assert got.chunk(0).buffers()[2].address == given.chunk(0).buffers()[2].address, col


def test_validated_columns_keep_the_input_buffers(tmp_path):
    """Validation copies no accepted row: on a batch read from parquet,
    with rejected rows among the accepted ones, each validated string
    column is the input's data buffer under a new validity bitmap, and
    its values are the scalar chain's, row by row."""
    import pyarrow.parquet as pq

    from filters_ray.pipelines.cdc import CDCValidateStage, cdc_validator_spec
    from filters_ray.sources.synth import SynthConfig, make_events
    from filters_ray.vector.kernels import ScalarFallbackKernel

    path = str(tmp_path / 'events.parquet')
    pq.write_table(make_events(SynthConfig(n_keys=3000, n_events=9000, seed=5)), path)
    batch = pq.read_table(path)
    out = CDCValidateStage(num_partitions=16)(batch)
    rejected = pc.sum(pc.greater(pc.list_value_length(out.column(ERRORS_COLUMN)), 0))
    assert 0 < rejected.as_py() < batch.num_rows

    chains = cdc_validator_spec()['filter_map']
    for col in ('repo', 'path', 'commit', 'lang', 'content'):
        given, got = batch.column(col), out.column(col)
        assert (given.num_chunks, got.num_chunks) == (1, 1)
        assert got.chunk(0).buffers()[2].address == given.chunk(0).buffers()[2].address, col
        scalar = ScalarFallbackKernel(chains[col])(given.chunk(0))
        assert got.to_pylist() == scalar.values.to_pylist(), col
