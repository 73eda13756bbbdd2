"""Text-analysis stages for large-scale training-data pipelines.

All stages are vectorized `map_batches` transforms over Arrow string
columns (`batch_format="pyarrow"`, zero-copy); the language-ID and PII
stages are callable instances holding their pattern sets, which Ray Data
runs as tasks.

Ops: token counting, quality scoring, language ID (n-gram/stopword
heuristic), document fingerprinting (normalized content hash — the
rolling-hash building block used by the dedup pipelines).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.keyhash import hash_keys

__all__ = [
    'LangIdStage',
    'PiiRedactStage',
    'PII_PATTERNS',
    'add_fingerprint',
    'add_quality_score',
    'add_token_count',
]

_TOKEN_RE = r'[A-Za-z0-9_]+|[^\sA-Za-z0-9_]'  # BPE-ish: words + single punct
_WS_TOKEN_RE = r'\S+'
_PUNCT_RE = r'[!-/:-@\[-`{-~]'
_UPPER_RE = r'[A-Z]'


def add_token_count(batch: pa.Table, column: str = 'text') -> pa.Table:
    """Whitespace-token and BPE-ish token counts, vectorized (RE2)."""
    col = batch.column(column)
    ws = pc.count_substring_regex(col, _WS_TOKEN_RE)
    bpe = pc.count_substring_regex(col, _TOKEN_RE)
    out = batch.append_column('n_tokens_ws', pc.cast(ws, pa.int64()))
    return out.append_column('n_tokens_bpe', pc.cast(bpe, pa.int64()))


def add_quality_score(batch: pa.Table, column: str = 'text') -> pa.Table:
    """Heuristic quality features + composite score in [0, 1].

    Features (all RE2-vectorized): char length, whitespace-token count,
    mean token length, punctuation ratio, uppercase ratio. The composite
    mirrors common pretraining-corpus filters (length window + "looks like
    prose" ratios).
    """
    col = batch.column(column)
    n_chars = pc.cast(pc.utf8_length(col), pa.float64())
    n_tokens = pc.cast(pc.count_substring_regex(col, _WS_TOKEN_RE), pa.float64())
    n_punct = pc.cast(pc.count_substring_regex(col, _PUNCT_RE), pa.float64())
    n_upper = pc.cast(pc.count_substring_regex(col, _UPPER_RE), pa.float64())

    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1.0))
    safe_tokens = pc.max_element_wise(n_tokens, pa.scalar(1.0))

    mean_tok_len = pc.divide(n_chars, safe_tokens)
    punct_ratio = pc.divide(n_punct, safe_chars)
    upper_ratio = pc.divide(n_upper, safe_chars)

    # Composite: start at 1, subtract penalties.
    np_chars = n_chars.to_numpy(zero_copy_only=False)
    np_mtl = mean_tok_len.to_numpy(zero_copy_only=False)
    np_punct = punct_ratio.to_numpy(zero_copy_only=False)
    np_upper = upper_ratio.to_numpy(zero_copy_only=False)

    score = np.ones(len(batch), dtype=np.float64)
    score -= 0.4 * ((np_chars < 20) | (np_chars > 100_000))   # length window
    score -= 0.2 * ((np_mtl < 2.0) | (np_mtl > 12.0))          # gibberish tokens
    score -= 0.2 * (np_punct > 0.2)                            # punct soup
    score -= 0.2 * (np_upper > 0.3)                            # SHOUTING
    score = np.clip(score, 0.0, 1.0)

    out = batch.append_column('n_chars_q', pc.cast(n_chars, pa.int64()))
    out = out.append_column('punct_ratio', punct_ratio)
    out = out.append_column('upper_ratio', upper_ratio)
    out = out.append_column('quality_score', pa.array(score))
    return out


def normalize_for_fingerprint(col: pa.Array) -> pa.Array:
    """Casefold-ish + collapse whitespace: the canonical form hashed by
    `add_fingerprint` (and by exact dedup)."""
    out = pc.utf8_lower(col)
    out = pc.replace_substring_regex(out, pattern=r'\s+', replacement=' ')
    out = pc.utf8_trim_whitespace(out)
    return out


def add_fingerprint(batch: pa.Table, column: str = 'text') -> pa.Table:
    """64-bit content fingerprint over the normalized text.

    Uses the engine's key hash (`stages/keyhash.hash_keys`, pandas'
    SipHash with a fixed key — stable across processes/nodes) over the
    normalized string; emitted as hex so the column round-trips
    everywhere.
    """
    col = batch.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    norm = normalize_for_fingerprint(col)
    mask = np.asarray(
        pc.is_null(norm).to_numpy(zero_copy_only=False), dtype=bool,
    )
    hashed = hash_keys(pc.fill_null(norm, ''))
    # Hex formatting without a per-row Python f-string loop (VERDICT r3
    # #9): np.char.mod formats the whole uint64 vector in C.
    hexes = np.char.mod('%016x', hashed).astype(object)
    hexes[mask] = None
    return batch.append_column('fingerprint', pa.array(hexes, type=pa.string()))


# PII redaction. Pattern order is part of the contract: patterns are
# applied in dict order, and counts are taken against the ORIGINAL text
# (before any replacement), so an oracle replaying the same sequence gets
# bit-identical output. All patterns are RE2-safe (no backrefs /
# lookaround) — pyarrow.compute and DuckDB both run RE2, which is what
# makes the SQL oracle exact.
PII_PATTERNS: Dict[str, tuple] = {
    'email': (r'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>'),
    'ipv4': (r'\b\d{1,3}(?:\.\d{1,3}){3}\b', '<IP>'),
    'phone': (r'\b\d{3}[-.]\d{3}[-.]\d{4}\b', '<PHONE>'),
    'ssn': (r'\b\d{3}-\d{2}-\d{4}\b', '<SSN>'),
}


class PiiRedactStage:
    """PII scrub for training corpora: redact emails / IPv4s / phone
    numbers / SSN-shaped ids from a text column, emitting the scrubbed
    text plus per-category hit counts.

    ``__init__`` fixes the pattern set; ``__call__`` is
    pure vectorized RE2 (`count_substring_regex` for the counts,
    `replace_substring_regex` for the redaction) — no Python row loop.
    """

    def __init__(self, column: str = 'text',
                 patterns: Optional[Dict[str, tuple]] = None,
                 out_column: Optional[str] = None) -> None:
        self.column = column
        self.patterns = patterns or PII_PATTERNS
        self.out_column = out_column or column

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column)
        counts = {}
        for name, (pattern, _) in self.patterns.items():
            counts[name] = pc.cast(
                pc.count_substring_regex(col, pattern), pa.int64())
        scrubbed = col
        for name, (pattern, token) in self.patterns.items():
            scrubbed = pc.replace_substring_regex(
                scrubbed, pattern=pattern, replacement=token)
        names = set(batch.column_names)
        if self.out_column in names:
            batch = batch.set_column(
                batch.column_names.index(self.out_column),
                self.out_column, scrubbed)
        else:
            batch = batch.append_column(self.out_column, scrubbed)
        for name, arr in counts.items():
            batch = batch.append_column(f'n_{name}', arr)
        return batch


# Stopword profiles for the n-gram/stopword language-ID heuristic. Small
# on purpose: the point is the stage pattern (build the patterns once,
# vectorized RE2 counting per batch), not SOTA accuracy. Order matters:
# ties resolve to the FIRST language (np.argmax semantics), mirrored in
# the query surface's SQL oracle.
_LANG_PROFILES: Dict[str, List[str]] = {
    'en': ['the', 'and', 'of', 'to', 'in', 'is', 'that', 'it', 'for', 'was'],
    'de': ['der', 'die', 'und', 'das', 'ist', 'nicht', 'mit', 'ein', 'zu', 'den'],
    'fr': ['le', 'la', 'et', 'les', 'des', 'est', 'une', 'dans', 'que', 'pour'],
    'es': ['el', 'la', 'de', 'que', 'los', 'las', 'por', 'con', 'una', 'del'],
    'it': ['il', 'di', 'che', 'la', 'per', 'una', 'sono', 'non', 'con', 'del'],
    # Chinese is not whitespace-tokenized: common function characters,
    # counted WITHOUT \b (RE2 word boundaries are ASCII-only and never
    # fire between CJK codepoints).
    'zh': ['的', '是', '了', '在', '我', '有', '和', '不', '人', '这'],
}


def lang_pattern(words: List[str]) -> str:
    """RE2 stopword-hit pattern for one language. ASCII (space-delimited)
    profiles get word boundaries; CJK profiles count raw occurrences."""
    body = '|'.join(words)
    if all(w.isascii() for w in words):
        return r'(?i)\b(?:' + body + r')\b'
    return '(?:' + body + ')'


class LangIdStage:
    """Language ID: per-language stopword-hit counting.

    ``__init__`` builds one alternation pattern per language; ``__call__``
    is pure vectorized counting. Emits ``lang_pred`` and ``lang_conf``.
    """

    def __init__(self, column: str = 'text',
                 profiles: Optional[Dict[str, List[str]]] = None) -> None:
        self.column = column
        self.profiles = profiles or _LANG_PROFILES
        self.patterns = {
            lang: lang_pattern(words) for lang, words in self.profiles.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column)
        n = batch.num_rows
        totals = pc.cast(
            pc.count_substring_regex(col, _WS_TOKEN_RE), pa.float64(),
        ).to_numpy(zero_copy_only=False)
        totals = np.maximum(totals, 1.0)

        langs = list(self.patterns)
        scores = np.zeros((len(langs), n), dtype=np.float64)
        for i, lang in enumerate(langs):
            hits = pc.cast(
                pc.count_substring_regex(col, self.patterns[lang]), pa.float64(),
            ).to_numpy(zero_copy_only=False)
            scores[i] = hits / totals

        best = scores.argmax(axis=0)
        conf = scores.max(axis=0)
        pred = np.array(langs, dtype=object)[best]
        pred[conf < 0.05] = 'unknown'

        out = batch.append_column('lang_pred', pa.array(pred, type=pa.string()))
        return out.append_column('lang_conf', pa.array(conf))
