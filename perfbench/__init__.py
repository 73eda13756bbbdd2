"""CDC ingest benchmark (entry point: ``perfbench/run.py``)."""
