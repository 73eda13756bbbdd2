"""State: manifests, high-watermarks, schema widening."""

from .manifest import ManifestStore, PartitionManifest, TableMeta
from .registry import align_table, widen_schema

__all__ = [
    'ManifestStore',
    'PartitionManifest',
    'TableMeta',
    'align_table',
    'widen_schema',
]
