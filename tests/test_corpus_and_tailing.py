"""Corpus-prep composition + CDC micro-batch tailing."""

from __future__ import annotations

import pyarrow as pa
import pytest

from filters_ray.pipelines.cdc import CDCPipeline
from filters_ray.pipelines.corpus import prepare_corpus
from filters_ray.sources.oracle import final_state_digests, replay_oracle
from filters_ray.sources.synth import SynthConfig, make_events


@pytest.mark.usefixtures('ray_session')
def test_prepare_corpus_pipeline(tmp_path):
    import ray.data as rd

    docs = [
        # Good prose, duplicated exactly and near-duplicated.
        ('the quick brown fox jumps over the lazy dog and keeps running', 'en'),
        ('the quick brown fox jumps over the lazy dog and keeps running', 'en'),
        ('the quick brown fox jumps over the lazy cat and keeps running', 'en'),
        # Good but filtered language.
        ('der schnelle braune fuchs springt über den faulen hund heute', 'de'),
        # Junk: too short.
        ('short', 'en'),
        # Junk: punctuation soup.
        ('!!! ??? ;;; ### $$$ %%% ^^^ &&& *** ((( ))) @@@ !!! ??? ;;;', 'en'),
        # Another distinct good doc.
        ('completely different content describing ray data pipelines today', 'en'),
    ]
    table = pa.table({
        'doc_id': list(range(len(docs))),
        'text': [d[0] for d in docs],
        'lang': [d[1] for d in docs],
    })

    out, stats = prepare_corpus(
        rd.from_arrow(table),
        languages={'en'},
        # 1.0 = no penalties; 'short' scores 0.6 (length), the punct soup
        # 0.8 (punct ratio) — 0.9 keeps only clean prose.
        min_quality=0.9,
        near_dup_threshold=0.6,
        output_dir=str(tmp_path / 'corpus'),
    )
    result = out.to_pandas()
    kept = set(result['doc_id'])

    assert 0 in kept           # canonical survivor of the dup cluster
    assert 1 not in kept       # exact dup removed
    assert 2 not in kept       # near dup removed
    assert 3 not in kept       # language-gated
    assert 4 not in kept       # too short
    assert 5 not in kept       # punct soup
    assert 6 in kept
    assert 'n_tokens_ws' in result.columns
    assert stats['input_rows'] == 7
    assert stats['after_near_dedup'] == len(result)
    # Partitioned output written.
    import os
    assert any(f.endswith('.parquet') for f in os.listdir(tmp_path / 'corpus'))


@pytest.mark.usefixtures('ray_session')
def test_cdc_tailing_micro_batches(tmp_path):
    """Tail the log in 5 sequential micro-batches (the streaming shape);
    final state must equal one-shot replay and the oracle."""
    import ray.data as rd

    cfg = SynthConfig(n_keys=100, n_events=1000, n_repos=10, seed=23)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())

    lake = str(tmp_path / 'lake')
    pipeline = CDCPipeline(lake, num_partitions=8)
    n = log.num_rows
    # Micro-batch boundaries must respect the source's disorder bound
    # (delivery contract: once the checkpoint passes lsn L, no event ≤ L
    # will ever be delivered again except as a duplicate). The synth log
    # disorders within 16-event windows, so cut on multiples of 16.
    step = (n // 5 // 16) * 16
    starts = list(range(0, n, step))
    for start in starts:
        chunk = log.slice(start, min(step, n - start))
        pipeline.run(rd.from_arrow(chunk))

    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code

    # Watermarks advanced monotonically across micro-batches.
    for m in pipeline.lineage():
        assert m['hwm_lsn'] >= 0


@pytest.mark.usefixtures('ray_session')
def test_cdc_directory_tail(tmp_path):
    """First-class tail mode: files arriving in a directory are ingested
    incrementally (ledger skips processed files), final state equals the
    oracle, and a ledger-less replay of the same files is a no-op."""
    import json
    import os

    import pyarrow.parquet as pq

    cfg = SynthConfig(n_keys=80, n_events=800, n_repos=8, seed=31)
    log = make_events(cfg)
    oracle = replay_oracle(log.to_pylist())

    events_dir = tmp_path / 'incoming'
    events_dir.mkdir()
    lake = str(tmp_path / 'lake_tail')
    pipeline = CDCPipeline(lake, num_partitions=4)

    # Arrivals in 4 waves (cut on the synth disorder window of 16).
    n = log.num_rows
    step = (n // 4 // 16) * 16
    starts = list(range(0, n, step))
    for wave, start in enumerate(starts):
        chunk = log.slice(start, min(step, n - start))
        pq.write_table(chunk, events_dir / f'wal-{wave:04d}.parquet')
        # Each tail call drains everything currently visible, then goes
        # idle and exits — simulating the poll loop batch by batch.
        pipeline.tail(str(events_dir), poll_interval=0.01, idle_timeout=0.0)

    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()
    assert pipeline.rejection_counts() == oracle.rejected_by_code

    ledger = json.loads(
        open(os.path.join(lake, '_ingest_ledger.json')).read(),
    )
    assert len(ledger['files']) == len(starts)

    # All files already in the ledger: tail again → nothing ingested.
    again = pipeline.tail(str(events_dir), poll_interval=0.01, idle_timeout=0.0)
    assert again.events_seen == 0

    # Ledger lost (crash before it was written): files re-read, but the
    # watermarks drop every event — state unchanged (exactly-once).
    os.remove(os.path.join(lake, '_ingest_ledger.json'))
    replay = pipeline.tail(str(events_dir), poll_interval=0.01, idle_timeout=0.0)
    assert replay.events_applied == 0
    assert final_state_digests(pipeline.final_table()) == oracle.sha256_by_key()


@pytest.mark.usefixtures('ray_session')
def test_tail_skips_hidden_files_as_run_does(tmp_path):
    """``tail()`` takes the event files ``run(directory)`` takes: names
    starting with ``_`` or ``.`` (a writer's temporary or marker files)
    are not events, and its ledger keys stay the plain file names."""
    import json
    import os

    import pyarrow.parquet as pq

    log = make_events(SynthConfig(n_keys=40, n_events=200, n_repos=4, seed=5))
    other = make_events(SynthConfig(n_keys=40, n_events=200, n_repos=4, seed=6))
    events_dir = tmp_path / 'incoming'
    events_dir.mkdir()
    pq.write_table(log, events_dir / 'wal-0000.parquet')
    for hidden in ('_x.parquet', '.x.parquet'):
        pq.write_table(other, events_dir / hidden)

    tailed = CDCPipeline(str(tmp_path / 'tail'), num_partitions=4)
    report = tailed.tail(str(events_dir), poll_interval=0.01, idle_timeout=0)
    assert report.events_seen == log.num_rows
    ledger = json.loads(open(os.path.join(tailed.lake_root,
                                          '_ingest_ledger.json')).read())
    assert ledger == {'files': ['wal-0000.parquet']}
    assert final_state_digests(tailed.final_table()) == \
        replay_oracle(log.to_pylist()).sha256_by_key()

    ran = CDCPipeline(str(tmp_path / 'run'), num_partitions=4)
    assert ran.run(str(events_dir)).events_seen == log.num_rows
    assert ran.final_table() == tailed.final_table()


@pytest.mark.usefixtures('ray_session')
def test_tail_reports_each_rejection_once(tmp_path, monkeypatch):
    """One ``tail()`` call that commits two batches, each of one valid
    and one ``lang='klingon'`` event, into a 1-partition lake reports
    each rejection once, as the lake holds them, and the lake's
    lifetime counters include both applied events."""
    import os

    import pyarrow.parquet as pq

    def batch(lsn: int) -> pa.Table:
        return pa.Table.from_pylist([
            {'lsn': lsn + i, 'op': 'insert', 'repo': 'org/r', 'path': f'f{lsn + i}',
             'commit': 'a' * 40, 'lang': lang, 'content': 'x'}
            for i, lang in enumerate(('py', 'klingon'))])

    events_dir = tmp_path / 'incoming'
    events_dir.mkdir()
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=1)
    pq.write_table(batch(1), events_dir / 'wal-0000.parquet')
    second = events_dir / 'wal-0001.parquet'
    run = pipeline.run

    def run_then_arrive(paths):
        report = run(paths)
        if not os.path.exists(second):  # arrives while the first commits
            pq.write_table(batch(3), second)
        return report

    monkeypatch.setattr(pipeline, 'run', run_then_arrive)
    report = pipeline.tail(str(events_dir), max_batches=2, poll_interval=0.01,
                           idle_timeout=10)
    assert (report.events_seen, report.events_applied) == (4, 2)
    assert report.rejected_by_code == pipeline.rejection_counts() == {
        'not_valid_choice': 2}
    assert pipeline.lake_report()['events_applied'] == 2


@pytest.mark.usefixtures('ray_session')
def test_tail_with_retained_history_serves_cdf(tmp_path):
    """The streaming shape end-to-end: directory tailing into a
    retained-history lake; the change-data-feed covers every applied
    event and LWW over the feed reproduces the live table."""
    import pyarrow.parquet as pq

    from filters_ray.pipelines.cdc import _drop_tombstones, _last_writer_wins

    cfg = SynthConfig(n_keys=50, n_events=480, n_repos=5, seed=47)
    log = make_events(cfg).sort_by([('lsn', 'ascending')])
    events_dir = tmp_path / 'incoming'
    events_dir.mkdir()
    pipeline = CDCPipeline(str(tmp_path / 'lake'), num_partitions=4,
                           compact_every=2, retain_history=True)

    step = log.num_rows // 3
    for wave in range(3):
        chunk = log.slice(wave * step,
                          step if wave < 2 else log.num_rows - 2 * step)
        pq.write_table(chunk, events_dir / f'wal-{wave:04d}.parquet')
        pipeline.tail(str(events_dir), poll_interval=0.01, idle_timeout=0.0)

    feed = pipeline.changes()
    assert feed.num_rows > 0
    replayed = _drop_tombstones(_last_writer_wins(feed))
    assert final_state_digests(replayed) == \
        final_state_digests(pipeline.final_table())
    # A mid-stream snapshot is also answerable after tailing.
    mid = int(pa.compute.max(
        log.slice(0, 2 * step).column('lsn')).as_py())
    snap = pipeline.table_as_of(mid)
    assert 0 < snap.num_rows <= pipeline.final_table().num_rows


def test_cdc_job_read_mode_requires_existing_lake(tmp_path, ray_session):
    """ADVICE r3: a typo'd --lake in a pure read must not create an
    empty lake as a side effect — it errors out instead."""
    import os

    from filters_ray.cdc_job import main

    missing = str(tmp_path / 'no_such_lake')
    rc = main(['--lake', missing, '--report'])
    assert rc == 2
    assert not os.path.exists(os.path.join(missing, '_meta.json'))


def test_cdc_job_maintenance_modes(tmp_path, ray_session):
    """--vacuum-before and --redrive-dlq are reachable from the ray-job
    CLI (maintenance on an existing lake, no ingest args needed)."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from filters_ray.cdc_job import main
    from filters_ray.pipelines.cdc import CDCPipeline

    def ev(lsn, path, content, lang=''):
        return {'lsn': lsn, 'op': 'insert', 'repo': 'r1', 'path': path,
                'commit': 'c' * 40, 'lang': lang, 'content': content}

    lake = str(tmp_path / 'maint')
    pipeline = CDCPipeline(lake, num_partitions=2, retain_history=True)
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(1, 'a.txt', 'A'),
        ev(2, 'b.txt', 'B', lang='klingon'),  # rejected -> DLQ
    ])))
    pipeline.run(rd.from_arrow(pa.Table.from_pylist([
        ev(10, 'a.txt', 'A2'),
    ])))
    assert pipeline.rejection_counts() != {}

    rc = main(['--lake', lake, '--vacuum-before', '3'])
    assert rc == 0
    floors = [
        m.history_floor_lsn
        for m in pipeline.store.all_manifests().values()
    ]
    assert max(floors) >= 1

    # Redrive with a widened lang set: the klingon row becomes valid.
    rc = main(['--lake', lake, '--redrive-dlq',
               '--strict-langs', 'klingon'])
    assert rc == 0
    assert pipeline.rejection_counts() == {}
    assert pipeline.lookup('r1', 'b.txt')['content'] == b'B'
