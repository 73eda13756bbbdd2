"""End-to-end pipelines: CDC upsert, dedup, similarity, text analysis,
multimodal plumbing, corpus prep, and the query/oracle surface."""
