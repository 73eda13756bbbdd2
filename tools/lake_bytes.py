"""Where a lake's bytes are: by file kind, and by column from the footers.

Kinds follow the committed manifests (the lake's liveness rule): a
partition's ``base``, its active ``deltas``, ``history`` files not
listed in ``deltas``, its ``dlq`` files, and the manifests themselves;
then ``_meta.json``, the tail ledger, and any other non-dot file
(``unlisted``: debris no manifest names). Per column, the compressed
and uncompressed sizes of every column chunk, summed per top-level
column and per Parquet file kind; ``footer`` is each file's footer
(the 4-byte length before ``PAR1`` plus 8). No data page is read.

Usage::

    python tools/lake_bytes.py <lake>
"""

from __future__ import annotations

import collections
import os
import struct
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), '..'))


def file_kinds(lake: str) -> dict:
    """``{path: kind}`` for every non-dot file under ``lake``."""
    from filters_ray.state.manifest import ManifestStore

    store = ManifestStore(lake)
    kinds = {store.meta_path(): 'meta',
             os.path.join(lake, '_ingest_ledger.json'): 'ledger'}
    for pid, m in store.all_manifests().items():
        kinds[store.manifest_path(pid)] = 'manifest'
        for name in m.history:
            kinds[store.delta_path(pid, name)] = 'history'
        for name in m.deltas:
            kinds[store.delta_path(pid, name)] = 'delta'
        if m.base:
            kinds[store.delta_path(pid, m.base)] = 'base'
        for name in m.dlq:
            kinds[store.dlq_path(pid, name)] = 'dlq'
    return {os.path.join(d, f): kinds.get(os.path.join(d, f), 'unlisted')
            for d, _, files in os.walk(lake) for f in files
            if not f.startswith('.')}


def footer_bytes(path: str) -> int:
    with open(path, 'rb') as fh:
        fh.seek(-8, os.SEEK_END)
        return struct.unpack('<i', fh.read(4))[0] + 8


def measure(lake: str) -> tuple:
    """``(by kind, by (kind, column))``: ``{kind: [files, bytes,
    footer]}`` and ``{(kind, column): [compressed, uncompressed]}``."""
    import pyarrow.parquet as pq

    by_kind = collections.defaultdict(lambda: [0, 0, 0])
    by_column = collections.defaultdict(lambda: [0, 0])
    for path, kind in sorted(file_kinds(lake).items()):
        row = by_kind[kind]
        row[0] += 1
        row[1] += os.path.getsize(path)
        if not path.endswith('.parquet'):
            continue
        row[2] += footer_bytes(path)
        meta = pq.read_metadata(path)
        for rg in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                chunk = meta.row_group(rg).column(c)
                sizes = by_column[kind, chunk.path_in_schema.split('.')[0]]
                sizes[0] += chunk.total_compressed_size
                sizes[1] += chunk.total_uncompressed_size
    return dict(by_kind), dict(by_column)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    by_kind, by_column = measure(sys.argv[1])
    print(f'{"kind":<10}{"files":>7}{"bytes":>12}{"footer":>10}')
    for kind, (files, nbytes, footer) in sorted(by_kind.items()):
        print(f'{kind:<10}{files:>7}{nbytes:>12,}{footer:>10,}')
    total = [sum(v[i] for v in by_kind.values()) for i in range(3)]
    print(f'{"total":<10}{total[0]:>7}{total[1]:>12,}{total[2]:>10,}')
    print()
    print(f'{"kind":<10}{"column":<12}{"compressed":>12}{"uncompressed":>14}')
    for (kind, column), (packed, raw) in sorted(by_column.items()):
        print(f'{kind:<10}{column:<12}{packed:>12,}{raw:>14,}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
