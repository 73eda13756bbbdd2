"""End-to-end training-corpus preparation: the ops composed.

    read → quality-score filter → language filter → PII scrub →
    exact dedup → MinHash near-dup removal → token counting →
    partitioned write

Everything streams through Ray Data; the only wide operations are the
two dedup groupbys. This is the "user of the reference could run their
whole pipeline here" composition surface.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .dedup import exact_dedup, minhash_dedup
from .text import PiiRedactStage, add_quality_score, add_token_count

__all__ = ['prepare_corpus']


def prepare_corpus(
    ds,
    text_column: str = 'text',
    key: str = 'doc_id',
    min_quality: float = 0.6,
    languages: Optional[set] = None,
    lang_column: str = 'lang',
    near_dup_threshold: float = 0.8,
    scrub_pii: bool = True,
    output_dir: Optional[str] = None,
    collect_stats: bool = True,
):
    """Run the full prep pipeline; returns (dataset, stats dict).

    With ``output_dir`` the result is also written as partitioned parquet
    (resumable layout). ``collect_stats=False`` skips the per-stage
    ``count()`` actions (each one re-executes the lazy upstream — only
    pay for them when the numbers are wanted).
    """
    stats: dict = {}
    if collect_stats:
        stats['input_rows'] = ds.count()

    # 1. Quality gate (vectorized scoring inside map_batches).
    def quality_gate(batch: pa.Table) -> pa.Table:
        scored = add_quality_score(batch, text_column)
        keep = pc.greater_equal(scored.column('quality_score'), min_quality)
        return scored.filter(keep).drop_columns(
            ['n_chars_q', 'punct_ratio', 'upper_ratio'],
        )

    ds = ds.map_batches(quality_gate, batch_format='pyarrow')

    # 2. Language gate (vectorized is_in on the provided lang column).
    if languages:
        lang_set = pa.array(sorted(languages))

        def lang_gate(batch: pa.Table) -> pa.Table:
            keep = pc.is_in(batch.column(lang_column), value_set=lang_set)
            return batch.filter(pc.fill_null(keep, False))

        ds = ds.map_batches(lang_gate, batch_format='pyarrow')

    if collect_stats:
        stats['after_gates'] = ds.count()

    # 3. PII scrub (vectorized RE2 — redaction BEFORE dedup so redacted
    #    twins of differently-PII'd texts deduplicate).
    if scrub_pii:
        ds = ds.map_batches(
            PiiRedactStage(column=text_column), batch_format='pyarrow',
        ).map_batches(
            lambda b: b.drop_columns(
                [c for c in b.column_names if c.startswith('n_')
                 and c[2:] in ('email', 'ipv4', 'phone', 'ssn')]),
            batch_format='pyarrow',
        )

    # 4. Exact dedup (hash partition + per-group first).
    ds = exact_dedup(ds, column=text_column, key=key)
    if collect_stats:
        stats['after_exact_dedup'] = ds.count()

    # 5. Near-dup removal (MinHash-LSH + Jaccard verify + components).
    ds, clusters = minhash_dedup(
        ds, column=text_column, key=key, threshold=near_dup_threshold,
    )
    stats['near_dup_clusters'] = len(set(clusters.values())) if clusters else 0
    if collect_stats:
        stats['after_near_dedup'] = ds.count()

    # 6. Token counting (training-budget accounting).
    ds = ds.map_batches(
        lambda b: add_token_count(b, text_column), batch_format='pyarrow',
    )

    if output_dir:
        from ..sources.io import write_partitioned
        write_partitioned(ds, output_dir, min_rows_per_file=100_000)

    return ds, stats
