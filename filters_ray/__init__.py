"""filters_ray — a Ray-Data-native data-processing / CDC-ingest engine.

Layers:

* :mod:`filters_ray.functions` — the scalar filter/validation library
  (re-exported here, so ``import filters_ray as f; f.Int | f.Max(3)``
  works exactly like the reference API).
* :mod:`filters_ray.vector` — vectorized Arrow column kernels + the chain
  compiler used inside ``map_batches``.
* :mod:`filters_ray.stages` — Ray Data batch stages (validation / DLQ
  split, joins, sketches), run as Ray tasks.
* :mod:`filters_ray.pipelines` — end-to-end pipelines: CDC upsert, dedup,
  similarity search, text analysis, relational queries.
* :mod:`filters_ray.state` — manifests, high-watermarks, schema registry.
* :mod:`filters_ray.sources` — readers/writers with column pruning and
  resumable partitioned layout.
"""

from .functions import *  # noqa: F401,F403 — scalar API parity surface
from .functions import __all__ as _functions_all

__all__ = list(_functions_all)
__version__ = '0.1.0'
