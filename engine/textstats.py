"""Text analysis operators: token counting, quality scoring, language ID,
document fingerprinting.

All hot paths are vectorized ``pyarrow.compute`` regex/length kernels; the
stopword/langid marker scans use precompiled alternation regexes evaluated by
``pc.count_substring_regex`` — no per-row Python in the scoring stages.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.sketches import _splitmix, hash64

#: Tiny per-language marker-word profiles (top function words). The langid is
#: a heuristic n-gram/marker scorer, not a model — by design (no ML deps).
LANG_MARKERS = {
    "en": ["the", "and", "of", "to", "a", "in", "is", "that", "it", "for"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "ein", "mit", "zu"],
    "fr": ["le", "la", "les", "et", "des", "est", "une", "dans", "que"],
    "es": ["el", "la", "los", "de", "que", "y", "en", "un", "una", "es"],
}

STOPWORDS_EN = ("the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
                "that", "for", "on", "with", "as", "at", "by", "this")


def token_count_batch(texts: pa.Array) -> pa.Array:
    """Whitespace token count == number of maximal ``\\S+`` runs."""
    return pc.count_substring_regex(texts, r"\S+")


def token_counts(ds, *, text_col: str = "text", key_col: str = "doc_id",
                 batch_size: int = 8192, concurrency=None):
    def _fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        return pa.table({
            key_col: batch.column(key_col),
            "n_tokens": pc.cast(pc.fill_null(token_count_batch(t), 0),
                                pa.int64()),
        })

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


_BPE_ISH = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"


def bpe_ish_token_counts(ds, *, text_col: str = "text",
                         key_col: str = "doc_id", batch_size: int = 8192,
                         concurrency=None):
    """BPE-ish proxy count: letter runs + single digits + punctuation marks
    (a deterministic regex stand-in for a tokenizer vocabulary)."""
    def _fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        return pa.table({
            key_col: batch.column(key_col),
            "n_bpe_tokens": pc.cast(
                pc.fill_null(pc.count_substring_regex(t, _BPE_ISH), 0),
                pa.int64()),
        })

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def token_doc_frequency(ds, *, text_col: str = "text",
                        batch_size: int = 8192, concurrency=None):
    """Inverted-index statistics: document frequency per token.

    The classic corpus-wide wide op done Ray-Data-first: tokens are split
    zero-copy (``pc.split_pattern_regex``), per-batch DISTINCT (doc, token)
    pairs are computed via dictionary codes + ``np.unique`` (the per-batch
    partial), and only (token, partial_df) rows shuffle into the token
    :func:`engine.shuffle.combine` — never the token stream itself.
    """
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch.column(text_col), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        from engine.kernels import _flatten, _valid_mask
        active = _valid_mask(toks)
        flat, parent, _ = _flatten(toks, active)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([parent, codes]), axis=1)
        uniq_codes, df_counts = np.unique(pairs[1], return_counts=True)
        tokens = enc.dictionary.take(pa.array(uniq_codes, pa.int64()))
        keep = pc.greater(pc.utf8_length(tokens), 0)  # leading separators
        return pa.table({"token": pc.cast(tokens.filter(keep), pa.string()),
                         "partial_df": pa.array(df_counts.astype(np.int64))
                         .filter(keep)})

    from engine.shuffle import combine
    return combine(ds, "token", {"df": ("partial_df", "sum")},
                   derive=_partial, batch_size=batch_size,
                   concurrency=concurrency)


def quality_scores(ds, *, text_col: str = "text", key_col: str = "doc_id",
                   batch_size: int = 8192, concurrency=None):
    """Length / punctuation / digit / uppercase / stopword ratios per doc."""
    stop_rx = r"(?i)\b(" + "|".join(STOPWORDS_EN) + r")\b"

    def _fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        n_chars = pc.cast(pc.fill_null(pc.utf8_length(t), 0), pa.float64())
        n_tok = pc.cast(pc.fill_null(token_count_batch(t), 0), pa.float64())
        n_punct = pc.cast(pc.fill_null(
            pc.count_substring_regex(t, r"[.,!?;:]"), 0), pa.float64())
        n_digit = pc.cast(pc.fill_null(
            pc.count_substring_regex(t, r"[0-9]"), 0), pa.float64())
        n_upper = pc.cast(pc.fill_null(
            pc.count_substring_regex(t, r"[A-Z]"), 0), pa.float64())
        n_stop = pc.cast(pc.fill_null(
            pc.count_substring_regex(t, stop_rx), 0), pa.float64())
        denom_c = pc.max_element_wise(n_chars, 1.0)
        denom_t = pc.max_element_wise(n_tok, 1.0)
        return pa.table({
            key_col: batch.column(key_col),
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pc.cast(n_tok, pa.int64()),
            "punct_ratio": pc.divide(n_punct, denom_c),
            "digit_ratio": pc.divide(n_digit, denom_c),
            "upper_ratio": pc.divide(n_upper, denom_c),
            "stopword_ratio": pc.divide(n_stop, denom_t),
            "mean_token_len": pc.divide(
                pc.cast(pc.fill_null(
                    pc.count_substring_regex(t, r"\S"), 0), pa.float64()),
                denom_t),
        })

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


class LangIdBatch:
    """Marker-word language scorer (actor pool stage: the alternation
    regexes compile once per actor)."""

    def __init__(self, text_col: str = "text", key_col: str = "doc_id"):
        self.text_col = text_col
        self.key_col = key_col
        self.rx = {lang: r"(?i)\b(" + "|".join(words) + r")\b"
                   for lang, words in LANG_MARKERS.items()}
        self.cjk = r"[\x{4e00}-\x{9fff}]"

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch.column(self.text_col)
        n_tok = pc.cast(pc.fill_null(token_count_batch(t), 0),
                        pa.float64()).to_numpy(zero_copy_only=False)
        denom = np.maximum(n_tok, 1.0)
        scores = {}
        for lang, rx in self.rx.items():
            c = pc.cast(pc.fill_null(pc.count_substring_regex(t, rx), 0),
                        pa.float64()).to_numpy(zero_copy_only=False)
            scores[lang] = c / denom
        cjk = pc.cast(pc.fill_null(pc.count_substring_regex(t, self.cjk), 0),
                      pa.float64()).to_numpy(zero_copy_only=False)
        n_chars = pc.cast(pc.fill_null(pc.utf8_length(t), 1),
                          pa.float64()).to_numpy(zero_copy_only=False)
        scores["zh"] = cjk / np.maximum(n_chars, 1.0) * 5.0
        langs = list(scores)
        mat = np.stack([scores[l] for l in langs], axis=1)
        best = np.argmax(mat, axis=1)
        best_score = mat[np.arange(len(mat)), best]
        pred = np.where(best_score > 0.01,
                        np.array(langs, dtype=object)[best], "und")
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "lang_pred": pa.array(pred.tolist(), pa.string()),
            "lang_score": pa.array(best_score, pa.float64()),
        })


def language_id(ds, *, text_col: str = "text", key_col: str = "doc_id",
                batch_size: int = 8192, concurrency=None):
    return ds.map_batches(LangIdBatch(text_col, key_col),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def fingerprint_batch(texts: list, *, window: int = 8,
                      keep: int = 4) -> list[str]:
    """Rolling-hash winnowing fingerprint: the ``keep`` smallest 64-bit
    hashes of ``window``-byte rolling windows, hex-joined. Deterministic."""
    out = []
    with np.errstate(over="ignore"):
        for t in texts:
            b = (t or "").encode("utf-8")
            if len(b) < window:
                h = hash64(np.array([b.decode("utf-8", "replace")],
                                    dtype=object))
                out.append(f"{int(h[0]):016x}")
                continue
            arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
            # polynomial rolling hash over all windows, vectorized via cumsum
            # of base powers: h(i) = sum arr[i+j] * B^(w-1-j) mod 2^64
            B = np.uint64(1099511628211)
            pw = np.empty(window, dtype=np.uint64)
            pw[0] = 1
            for j in range(1, window):
                pw[j] = pw[j - 1] * B
            n = len(arr) - window + 1
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(window):
                acc += arr[j:j + n] * pw[window - 1 - j]
            acc = _splitmix(acc, 99)
            k = min(keep, n)
            smallest = np.sort(np.partition(acc, k - 1)[:k])
            out.append("".join(f"{int(x):016x}" for x in smallest))
    return out


def fingerprints(ds, *, text_col: str = "text", key_col: str = "doc_id",
                 window: int = 8, keep: int = 4, batch_size: int = 8192,
                 concurrency=None):
    def _fn(batch: pa.Table) -> pa.Table:
        fps = fingerprint_batch(batch.column(text_col).to_pylist(),
                                window=window, keep=keep)
        return pa.table({
            key_col: batch.column(key_col),
            "fingerprint": pa.array(fps, pa.string()),
        })

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def heavy_hitter_tokens(ds, *, text_col: str = "text", k: int = 20,
                        capacity: int = 512, batch_size: int = 8192,
                        concurrency=None):
    """Approximate top-k tokens by frequency WITHOUT a shuffle: per-batch
    SpaceSaving sketches (engine/sketches.py) are OR-merged like the Bloom
    and HLL partials — at 100 TB the only data movement is one
    ``capacity``-counter summary per batch. Guarantee: any token with true
    frequency > N/capacity appears; est counts overestimate by at most the
    reported ``max_error``. Exact ``token_doc_frequency`` is the shuffle
    path when exactness is required.

    Returns a pa.Table (token, est_count, max_error) of the global top-k.
    """
    from engine.sketches import SpaceSaving

    def _partial(batch: pa.Table) -> pa.Table:
        ss = SpaceSaving(capacity)
        texts = batch.column(text_col).to_pylist()
        toks: list = []
        for t in texts:
            toks.extend((t or "").split())
        ss.update(toks)
        return pa.table({"sketch": pa.array([ss.to_bytes()], pa.binary())})

    def _merge_block(b: pa.Table) -> pa.Table:
        m = SpaceSaving(capacity)
        for blob in b.column("sketch").to_pylist():
            m.merge(SpaceSaving.from_bytes(blob))
        return pa.table({"sketch": pa.array([m.to_bytes()], pa.binary())})

    from engine.shuffle import tree_reduce
    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size,
                           concurrency=concurrency)
    final = tree_reduce(parts, _merge_block)
    merged = SpaceSaving(capacity)
    for row in final.iter_rows():
        merged.merge(SpaceSaving.from_bytes(row["sketch"]))
    rows = merged.top(k)
    return pa.table({
        "token": pa.array([r[0] for r in rows], pa.string()),
        "est_count": pa.array([r[1] for r in rows], pa.int64()),
        "max_error": pa.array([r[2] for r in rows], pa.int64()),
    })


def _word_ngrams(text: str, n: int) -> list:
    w = (text or "").lower().split()
    if not w:
        return []
    if len(w) < n:
        return [" ".join(w)]
    return [" ".join(w[i:i + n]) for i in range(len(w) - n + 1)]


def ngram_novelty(ds, reference_ds, *, text_col: str = "text",
                  key_col: str = "doc_id", n: int = 3,
                  exact_limit: int = 5_000_000, fpr: float = 0.01,
                  batch_size: int = 65536):
    """Per-document novelty vs a reference corpus: the fraction of a
    document's DISTINCT word ``n``-grams NOT present in the reference —
    the signal a pretraining pipeline uses to rank "new" text against an
    already-trained corpus (novelty 0 = fully contained).

    The reference gram set builds distributedly (per-batch distinct
    grams merged by :func:`engine.shuffle.combine`) and broadcasts once.
    Below ``exact_limit`` distinct grams it ships as a sorted string
    array (EXACT — what a SQL oracle can reproduce); above, as a Bloom
    filter of gram hashes (fpr -> novelty slightly UNDER-estimated,
    never over), the same degradation contract as the referential
    checks. Scoring is map-only.
    """
    import pandas as pd
    import ray
    from engine.shuffle import combine

    def _ref_grams(batch: pa.Table) -> pa.Table:
        grams = set()
        for t in batch.column(text_col).to_pylist():
            grams.update(_word_ngrams(t, n))
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    ref_distinct = combine(reference_ds, "g", {"n": ("g", "count")},
                           derive=_ref_grams, batch_size=batch_size)
    n_ref = ref_distinct.count()
    if n_ref <= exact_limit:
        grams = ref_distinct.to_pandas()  # a zero-row frame has no columns
        ref = np.sort(grams["g"].to_numpy()) if len(grams) \
            else np.zeros(0, dtype=object)
        mode = "exact"
    else:
        from engine.sketches import Bloom
        bloom = Bloom.for_capacity(n_ref, fpr)
        for b in ref_distinct.iter_batches(batch_format="pandas",
                                           batch_size=65536):
            bloom.add(b["g"].to_numpy())
        ref = bloom
        mode = "bloom"
    ref_obj = ray.put((mode, ref))

    class _Score:
        """Vectorized batch scorer: every document's distinct grams
        flatten into ONE array (doc-index tagged), membership resolves
        with one searchsorted / Bloom probe over the whole batch, and
        per-doc novel counts come from a bincount — no per-document
        Python loop in the hot path (gram extraction itself is the same
        split-based pass the other text kernels use)."""

        def __init__(self, r):
            self.r = r
            self._s = None

        def __call__(self, df):
            if self._s is None:
                self._s = ray.get(self.r) if not isinstance(
                    self.r, tuple) else self.r
            mode_, ref_ = self._s
            n_docs = len(df)
            flat, owner = [], []
            for i, t in enumerate(df[text_col]):  # list building only
                g = _word_ngrams(t, n)
                flat.extend(g)
                owner.extend([i] * len(g))
            if flat:
                pairs = pd.DataFrame({
                    "i": np.array(owner, dtype=np.int64),
                    "g": np.array(flat, dtype=object)}) \
                    .drop_duplicates()
                garr = pairs["g"].to_numpy()
                if mode_ == "exact":
                    if len(ref_):
                        pos = np.clip(np.searchsorted(ref_, garr),
                                      0, len(ref_) - 1)
                        known = ref_[pos] == garr
                    else:
                        known = np.zeros(len(garr), dtype=bool)
                else:
                    known = ref_.contains(garr)
                idx = pairs["i"].to_numpy()
                total = np.bincount(idx, minlength=n_docs)
                novel = np.bincount(idx[~known], minlength=n_docs)
            else:
                total = np.zeros(n_docs, dtype=np.int64)
                novel = np.zeros(n_docs, dtype=np.int64)
            t_arr = total.astype(np.float64)
            return pd.DataFrame({
                key_col: df[key_col].to_numpy(),
                "novel_grams": novel.astype(np.int64),
                "total_grams": total.astype(np.int64),
                "novelty": np.where(t_arr > 0,
                                    novel / np.maximum(t_arr, 1), 0.0)})

    return ds.map_batches(_Score(ref_obj), batch_format="pandas",
                          batch_size=batch_size)


def compression_ratio(ds, *, text_col: str = "text",
                      key_col: str = "doc_id", level: int = 6,
                      batch_size: int = 65536):
    """Per-document zlib compression ratio (compressed/raw bytes) — the
    CCNet-style quality heuristic: highly repetitive or templated text
    compresses far below prose, near-random noise barely at all. Map-only;
    the per-row zlib call is C-bound. Empty/NULL text scores ratio 1.0.
    """
    import zlib
    import pandas as pd

    def _fn(df):
        if text_col not in df.columns or not len(df):
            return pd.DataFrame({key_col: [], "raw_bytes": [],
                                 "compressed_bytes": [], "ratio": []})
        raw, comp = [], []
        for t in df[text_col]:
            b = (t or "").encode("utf-8")
            raw.append(len(b))
            comp.append(len(zlib.compress(b, level)) if b else 0)
        raw_a = np.array(raw, dtype=np.int64)
        comp_a = np.array(comp, dtype=np.int64)
        return pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "raw_bytes": raw_a,
            "compressed_bytes": comp_a,
            "ratio": np.where(raw_a > 0,
                              comp_a / np.maximum(raw_a, 1), 1.0)})

    return ds.map_batches(_fn, batch_format="pandas",
                          batch_size=batch_size)


#: PII patterns (RE2-safe, ASCII): both pyarrow.compute and DuckDB evaluate
#: these with RE2 semantics, so counts agree engine-for-engine.
PII_PATTERNS = {
    "n_emails": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "n_phones": r"\b[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}\b",
    "n_ipv4": r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b",
    "n_ssn_like": r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b",
}


def pii_flags(ds, *, text_col: str = "text", key_col: str = "doc_id",
              batch_size: int = 8192, concurrency=None):
    """Per-document PII pattern counts (emails, phone-shaped numbers, IPv4,
    SSN-shaped ids) + an aggregate ``has_pii`` flag — the redaction /
    filter gate of a training-data pipeline. Pure vectorized RE2 counts
    (``pc.count_substring_regex``); map-only."""
    def _fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        cols = {key_col: batch.column(key_col)}
        any_hit = None
        for name, rx in PII_PATTERNS.items():
            c = pc.cast(pc.fill_null(pc.count_substring_regex(t, rx), 0),
                        pa.int64())
            cols[name] = c
            hit = pc.greater(c, 0)
            any_hit = hit if any_hit is None else pc.or_(any_hit, hit)
        cols["has_pii"] = any_hit
        return pa.table(cols)

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


#: replacement tags per PII pattern, in a fixed application order
PII_REPLACEMENTS = [
    ("n_emails", "[EMAIL]"),
    ("n_ssn_like", "[SSN]"),
    ("n_phones", "[PHONE]"),
    ("n_ipv4", "[IP]"),
]


def redact_pii(ds, *, text_col: str = "text", key_col: str = "doc_id",
               batch_size: int = 8192, concurrency=None):
    """Replace every PII pattern match with a typed tag ([EMAIL], [SSN],
    [PHONE], [IP]) in a FIXED order (SSN-shaped before phone-shaped, so
    overlapping digit runs resolve deterministically) — the redaction
    stage paired with ``pii_flags``. Vectorized
    ``pc.replace_substring_regex`` (global replacement, RE2), map-only.
    NULL text stays NULL."""
    def _fn(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column(text_col), pa.string())
        for name, tag in PII_REPLACEMENTS:
            t = pc.replace_substring_regex(
                t, pattern=PII_PATTERNS[name], replacement=tag)
        return pa.table({key_col: batch.column(key_col),
                         "redacted_text": t})

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def pack_sequences(ds, *, text_col: str = "text", key_col: str = "doc_id",
                   token_budget: int = 512, shard_size: int = 128,
                   counter: str = "whitespace", batch_size: int = 65536):
    """Sequence packing for training: assign documents to fixed
    token-budget bins with NEXT-FIT in doc-id order, shard-locally —
    bins never span shards (``shard = key // shard_size``), so every
    shard packs independently and deterministically at any parallelism.
    A document longer than the budget gets its own bin.

    ``counter`` picks the token-length model the bins are sized by:
    ``"whitespace"`` (``\\S+`` runs) or ``"bpe"`` (the deterministic
    BPE-ish proxy ``[A-Za-z]+|[0-9]|[^A-Za-z0-9\\s]`` — tokenizer-aware
    packing changes bin shapes because punctuation-heavy and digit-heavy
    docs count much longer than their whitespace length).

    Returns (key, shard, bin, n_tokens); ``bin`` numbers restart per
    shard. Shards co-locate (:func:`engine.shuffle.by_key`); within a
    shard the bin boundaries are found by iterating ``searchsorted`` over
    the token-count cumsum — the loop is per BIN (corpus tokens / budget
    per shard), not per document.
    """
    import pandas as pd
    from engine.shuffle import by_key
    if counter == "whitespace":
        _count = token_count_batch
    elif counter == "bpe":
        def _count(texts):
            return pc.count_substring_regex(texts, _BPE_ISH)
    else:
        raise ValueError(f"unknown counter {counter!r}")

    def _counts(b: pa.Table) -> pa.Table:
        t = b.column(text_col)
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        n = pc.cast(pc.fill_null(_count(t), 0),
                    pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(keys), "shard": pa.array(keys // shard_size),
            "n_tokens": pa.array(n, pa.int64())})

    def _pack(df):
        sub = df.sort_values(["shard", "key"],
                             kind="mergesort").reset_index(drop=True)
        out_bins = np.empty(len(sub), dtype=np.int64)
        for _, idx in sub.groupby("shard", sort=False).indices.items():
            n = sub["n_tokens"].to_numpy()[idx]
            cs = np.cumsum(n)
            bins = np.empty(len(idx), dtype=np.int64)
            start, b = 0, 0
            while start < len(idx):
                base = cs[start - 1] if start else 0
                # furthest doc that still fits; oversized docs go alone
                end = int(np.searchsorted(cs, base + token_budget,
                                          side="right"))
                if end <= start:
                    end = start + 1
                bins[start:end] = b
                b += 1
                start = end
            out_bins[idx] = bins
        return pd.DataFrame({
            key_col: sub["key"].to_numpy(),
            "shard": sub["shard"].to_numpy(),
            "bin": out_bins,
            "n_tokens": sub["n_tokens"].to_numpy()})

    counts = ds.map_batches(_counts, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
    return by_key(counts, "shard", _pack, empty=pd.DataFrame(
        {key_col: [], "shard": [], "bin": [], "n_tokens": []}))


def tfidf_topk(ds, *, text_col: str = "text", key_col: str = "doc_id",
               k: int = 5, batch_size: int = 8192, concurrency=None):
    """Top-``k`` TF-IDF terms per document: ``score = tf * ln(N / df)``
    with tf the in-document token count, df from
    :func:`token_doc_frequency` (same whitespace tokenization, empties
    dropped) and N the TOTAL document count. Ties break by token
    ascending (``row_number()`` parity), so the row set is
    deterministic. Returns (doc, token, tf, score).

    Scale shape: the per-doc half needs NO shuffle at all — a document's
    tokens live in its own row, so tf and the top-k both resolve inside
    ``map_batches``. The corpus-wide half is the df table: when the
    vocabulary is small (at most ``shuffle.SMALL_ROWS`` tokens, the
    engine's one small-side size) it broadcasts ONCE via ``ray.put``
    (sorted token array + counts, one searchsorted per batch dictionary)
    and the per-doc top-k runs in the same map; above it the (doc,
    token, tf) combiner rows — NOT the raw token stream — flow through
    :func:`engine.shuffle.join` on token and a per-doc top-k
    (:func:`engine.shuffle.by_key`). This keeps its own fork because
    only the broadcast route can fuse the top-k into the scoring map.
    """
    import math

    import pandas as pd
    import ray

    from engine import shuffle
    from engine.kernels import _flatten, _valid_mask
    from engine.shuffle import by_key, join

    n_docs = float(ds.count())
    df_tab = token_doc_frequency(ds, text_col=text_col,
                                 batch_size=batch_size,
                                 concurrency=concurrency).materialize()
    vocab_n = df_tab.count()

    def _doc_tf(batch: pa.Table) -> pa.Table:
        """Distinct (doc, token, tf) rows of one batch — the combiner;
        the key keeps its input type."""
        toks = pc.split_pattern_regex(batch.column(text_col),
                                      pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        active = _valid_mask(toks)
        flat, parent, _ = _flatten(toks, active)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        pairs, tf = np.unique(np.stack([parent, codes]), axis=1,
                              return_counts=True)
        tok = pc.cast(enc.dictionary.take(pa.array(pairs[1])), pa.string())
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(pairs[0])),
            "token": tok, "tf": pa.array(tf, pa.int64())}).filter(
            pc.greater(pc.utf8_length(tok), 0))  # drop empty tokens

    def _topk_frame(df):
        """Deterministic per-doc top-k of a (doc, token, tf, score)
        frame sorted wholly in one pass (score desc, token asc)."""
        sub = df.sort_values([key_col, "score", "token"],
                             ascending=[True, False, True],
                             kind="mergesort")
        return sub.groupby(key_col, sort=False).head(k)

    if vocab_n <= shuffle.SMALL_ROWS:
        dfp = df_tab.to_pandas().sort_values("token")
        ref = ray.put((dfp["token"].to_numpy(),
                       dfp["df"].to_numpy().astype(np.float64)))

        class _Score:
            def __init__(self):
                self._m = None

            def __call__(self, batch: pa.Table) -> "pd.DataFrame":
                if self._m is None:
                    self._m = ray.get(ref)
                toks, dfs = self._m
                t = _doc_tf(batch).to_pandas()
                if not len(t):
                    return pd.DataFrame({key_col: [], "token": [],
                                         "tf": pd.array([],
                                                        dtype="int64"),
                                         "score": []})
                pos = np.searchsorted(toks, t["token"].to_numpy())
                d = dfs[np.minimum(pos, len(dfs) - 1)]
                t["score"] = t["tf"].to_numpy() * np.log(n_docs / d)
                return _topk_frame(t)

        # autoscaling (1, 4) actor pool, NOT a fixed size: a fixed pool
        # equal to the cluster CPU count reserves every slot and starves
        # the upstream read/map tasks — a hard DEADLOCK at num_cpus=4
        # (observed in-suite); min=1 always leaves room to make progress
        return ds.map_batches(_Score, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size,
                              concurrency=concurrency or (1, 4))

    # distributed fall-through: combiner rows join df on token, then a
    # per-doc top-k by key (in-batch partial first)
    tf_rows = ds.map_batches(_doc_tf, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=batch_size,
                             concurrency=concurrency)
    joined = join(tf_rows, df_tab, "token")

    def _score(df):
        out = df[[key_col, "token", "tf"]].copy()
        out["score"] = df["tf"].to_numpy() \
            * np.log(n_docs / df["df"].to_numpy().astype(np.float64))
        return _topk_frame(out)  # in-batch partial top-k bounds the rows

    return by_key(joined, key_col, _topk_frame, prep=_score,
                  empty=pd.DataFrame({key_col: [], "token": [],
                                      "tf": pd.array([], dtype="int64"),
                                      "score": []}))


def token_type_ratio(ds, *, text_col: str = "text",
                     key_col: str = "doc_id", batch_size: int = 8192,
                     concurrency=None):
    """Per-document lexical-diversity stats: whitespace token count,
    distinct token count, and type-token ratio (distinct / total; NULL
    for an empty document). NULL text counts as empty.

    Map-only (no shuffle): tokens split zero-copy per batch
    (``pc.split_pattern_regex``), per-doc distincts via dictionary codes
    + ``np.unique`` on (doc, code) pairs — the same vectorized combiner
    as :func:`token_doc_frequency`, but the aggregate is row-local so it
    never leaves the batch. Returns (key, n_tokens, n_distinct, ttr).
    """
    from engine.kernels import _flatten, _valid_mask

    def _fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)  # drop split artifacts of separators
        parent = parent[keep]
        codes = flat.dictionary_encode().indices.to_numpy(
            zero_copy_only=False)[keep]
        n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
        if len(parent):
            pairs = np.unique(np.stack([parent, codes]), axis=1)
            n_distinct = np.bincount(pairs[0], minlength=n) \
                .astype(np.int64)
        else:
            n_distinct = np.zeros(n, dtype=np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            ttr = np.where(n_tokens > 0, n_distinct / n_tokens, np.nan)
        return pa.table({
            key_col: batch.column(key_col),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "ttr": pa.array(ttr, pa.float64(), mask=np.isnan(ttr))})

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def text_chunks(ds, *, text_col: str = "text", key_col: str = "doc_id",
                chunk_tokens: int = 64, stride: int = 32,
                batch_size: int = 2048, concurrency=None):
    """Sliding token-window chunking — the context-window splitter of an
    LLM training pipeline: each document yields chunks of up to
    ``chunk_tokens`` whitespace tokens starting every ``stride`` tokens
    (the last chunk may be short; an empty/NULL document yields none).

    Map-only and fully vectorized: one flatten of the batch's token
    lists, chunk membership built with repeat/cumsum index arithmetic
    (no per-doc loop), one fancy-indexed gather, and the chunk strings
    come from ``pc.binary_join`` over a rebuilt ListArray. Row expansion
    is ~1/stride chunks per token, so downstream batches stay bounded;
    at 100 TB this is the stage you'd size ``batch_size`` against the
    longest documents. Returns (key, chunk_start, n_tokens, chunk).
    """
    from engine.kernels import _flatten, _valid_mask
    if stride <= 0 or chunk_tokens <= 0:
        raise ValueError("chunk_tokens and stride must be positive")

    def _fn(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            key_col: pa.array([], batch.schema.field(key_col).type),
            "chunk_start": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk": pa.array([], pa.string())})
        n = batch.num_rows
        if not n:
            return empty
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        counts = np.bincount(parent, minlength=n).astype(np.int64)
        base = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=base[1:])
        n_chunks = np.where(counts > 0, (counts - 1) // stride + 1, 0)
        total = int(n_chunks.sum())
        if not total:
            return empty
        cdoc = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
        cum = np.zeros(n, dtype=np.int64)
        np.cumsum(n_chunks[:-1], out=cum[1:])
        ordinal = np.arange(total, dtype=np.int64) - cum[cdoc]
        cstart = ordinal * stride
        clen = np.minimum(chunk_tokens, counts[cdoc] - cstart)
        # gather indices for every chunk's tokens, in chunk order
        ccum = np.zeros(total, dtype=np.int64)
        np.cumsum(clen[:-1], out=ccum[1:])
        tot_tok = int(clen.sum())
        within = np.arange(tot_tok, dtype=np.int64) - np.repeat(ccum, clen)
        gather = np.repeat(base[cdoc] + cstart, clen) + within
        offsets = np.append(ccum, tot_tok)
        chunks = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat.take(pa.array(gather))),
            " ")
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(cdoc)),
            "chunk_start": pa.array(cstart, pa.int64()),
            "n_tokens": pa.array(clen, pa.int64()),
            "chunk": pc.cast(chunks, pa.string())})

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def bigram_heavy_hitters(ds, *, text_col: str = "text", k: int = 20,
                         batch_size: int = 8192, concurrency=None):
    """EXACT corpus-wide top-k adjacent-token bigrams by occurrence count
    (ties broken by bigram ascending). The shuffle-bound sibling of the
    sketch-based :func:`heavy_hitter_tokens`: per-batch exact bigram
    counts collapse inside ``map_batches`` (adjacency = consecutive
    flattened tokens with the same parent row; joined via
    ``pc.binary_join_element_wise``), so only (bigram, partial_count)
    rows shuffle into :func:`engine.shuffle.combine`; a per-block top-k
    after the merge bounds the final sort at blocks x k rows. Returns
    the top-k Dataset (bigram, n_occurrences).
    """
    from engine.kernels import _flatten, _valid_mask

    def _partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"bigram": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        if len(parent) < 2:
            return empty
        adj = parent[1:] == parent[:-1]
        if not adj.any():
            return empty
        amask = pa.array(np.r_[adj, False])
        bmask = pa.array(np.r_[False, adj])
        bigrams = pc.binary_join_element_wise(
            flat.filter(amask), flat.filter(bmask), " ")
        vc = pc.value_counts(bigrams)
        return pa.table({"bigram": pc.cast(vc.field("values"), pa.string()),
                         "cnt": pc.cast(vc.field("counts"), pa.int64())})

    def _block_topk(b: pa.Table) -> pa.Table:
        if b.num_rows > k:
            b = b.take(pc.select_k_unstable(
                b, k, [("n_occurrences", "descending"),
                       ("bigram", "ascending")]))
        return b

    from engine.shuffle import combine
    return combine(ds, "bigram", {"n_occurrences": ("cnt", "sum")},
                   derive=_partial, batch_size=batch_size,
                   concurrency=concurrency) \
        .map_batches(_block_topk, batch_format="pyarrow") \
        .sort(["n_occurrences", "bigram"],
              descending=[True, False]).limit(k)


def token_entropy(ds, *, text_col: str = "text", key_col: str = "doc_id",
                  batch_size: int = 8192, concurrency=None):
    """Per-document unigram Shannon entropy (natural log) and
    top-token share — the two standard repetition/diversity quality
    signals: low entropy or a high max-token share flags degenerate or
    template text. Empty/NULL documents report NULL for both.

    Map-only (no shuffle): distinct (doc, token) pair counts via
    dictionary codes + ``np.unique`` (the :func:`token_doc_frequency`
    combiner), then the entropy reduces with one ``np.bincount`` over
    ``p*ln(p)`` weights and the max share with one ``np.maximum.at`` —
    no per-doc loop. Returns (key, n_tokens, entropy, top_share).
    """
    from engine.kernels import _flatten, _valid_mask

    def _fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        parent = parent[keep]
        codes = flat.dictionary_encode().indices.to_numpy(
            zero_copy_only=False)[keep]
        n_tok = np.bincount(parent, minlength=n).astype(np.int64)
        ent = np.full(n, np.nan)
        top = np.full(n, np.nan)
        if len(parent):
            pairs, c = np.unique(np.stack([parent, codes]), axis=1,
                                 return_counts=True)
            p = c / n_tok[pairs[0]]
            e = np.zeros(n)
            np.add.at(e, pairs[0], -p * np.log(p))
            mx = np.zeros(n)
            np.maximum.at(mx, pairs[0], c)
            has = n_tok > 0
            ent[has] = e[has]
            top[has] = mx[has] / n_tok[has]
        return pa.table({
            key_col: batch.column(key_col),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "entropy": pa.array(ent, pa.float64(), mask=np.isnan(ent)),
            "top_share": pa.array(top, pa.float64(), mask=np.isnan(top))})

    return ds.map_batches(_fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def token_counts_by_group(ds, *, group_col: str = "lang",
                          text_col: str = "text",
                          batch_size: int = 8192, concurrency=None):
    """Token OCCURRENCE counts per (group, token) — the per-language
    vocabulary profile. NULL groups drop; NULL text counts as empty.
    Returns (group, token, cnt).

    Scale shape: the per-batch (group-code, token-code) pair counts (one
    ``np.unique`` over stacked dictionary codes — the
    :func:`token_doc_frequency` trick with the doc axis swapped for the
    group axis) bound the shuffle at per-batch-distinct pairs; the
    :func:`engine.shuffle.combine` merge is (groups x
    vocabulary)-bounded.
    """
    from engine.kernels import _flatten, _valid_mask
    from engine.shuffle import combine

    def _partial(batch: pa.Table) -> pa.Table:
        gcol = batch.column(group_col)
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        keep_g = pc.is_valid(gcol).to_numpy(zero_copy_only=False)
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False) & keep_g[parent]
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        empty = pa.table({group_col: pa.array([], gcol.type),
                          "token": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if not len(parent):
            return empty
        genc = gcol.dictionary_encode()
        gcodes = genc.indices.to_numpy(zero_copy_only=False)[parent]
        tenc = flat.dictionary_encode()
        tcodes = tenc.indices.to_numpy(zero_copy_only=False)
        # a NULL group makes .indices nullable -> float codes with NaN;
        # the keep mask already dropped those rows, so the cast is safe
        pairs, cnt = np.unique(
            np.stack([gcodes, tcodes]).astype(np.int64), axis=1,
            return_counts=True)
        return pa.table({
            group_col: genc.dictionary.take(pa.array(pairs[0])),
            "token": pc.cast(tenc.dictionary.take(pa.array(pairs[1])),
                             pa.string()),
            "cnt": pa.array(cnt.astype(np.int64))})

    return combine(ds, [group_col, "token"], {"cnt": ("cnt", "sum")},
                   derive=_partial, batch_size=batch_size,
                   concurrency=concurrency)


def vocabulary_stats(ds, *, text_col: str = "text",
                     batch_size: int = 8192, concurrency=None):
    """Corpus vocabulary profile in one pass: distinct token count,
    hapax-legomena count (tokens occurring exactly once), and total
    token occurrences. Returns ONE row
    (vocab_size, hapax_count, total_tokens).

    Scale shape: per-batch token ``value_counts`` shuffle only
    (token, cnt) rows into :func:`engine.shuffle.combine`; the three
    scalars then fold from per-block partials over the token aggregate
    (count / count-if-1 / sum, a keyless ``combine``) — the vocabulary
    itself never coalesces into one block.
    """
    from engine.kernels import _flatten, _valid_mask
    from engine.shuffle import combine

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0)
        vc = pc.value_counts(flat.filter(keep))
        return pa.table({"token": pc.cast(vc.field("values"), pa.string()),
                         "cnt": pc.cast(vc.field("counts"), pa.int64())})

    def _fold(b: pa.Table) -> pa.Table:
        n = b.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({
            "vocab": pa.array([len(n)], pa.int64()),
            "hapax": pa.array([int((n == 1).sum())], pa.int64()),
            "total": pa.array([int(n.sum())], pa.int64())})

    tokens = combine(ds, "token", {"cnt": ("cnt", "sum")}, derive=_partial,
                     batch_size=batch_size, concurrency=concurrency)
    t = combine(tokens, [], {"vocab_size": ("vocab", "sum"),
                             "hapax_count": ("hapax", "sum"),
                             "total_tokens": ("total", "sum")},
                derive=_fold).take_all()[0]
    return pa.table({c: pa.array([int(v or 0)], pa.int64())
                     for c, v in t.items()})


def jaccard_to_query(ds, *, query_tokens, text_col: str = "text",
                     key_col: str = "doc_id", k: int = 10,
                     batch_size: int = 8192, concurrency=None):
    """Top-k documents by token-set Jaccard similarity to ONE query
    token set — the "find documents like this one" search. Each doc's
    distinct tokens intersect the broadcast query set map-only; ties
    break by key ascending. A doc and query both empty report NULL
    similarity (SQL NULLIF); an empty doc against a non-empty query
    scores 0. Returns the top-k Dataset (key, jaccard).

    Scale shape: the query set ships ONCE via ``ray.put`` (sorted
    array + searchsorted membership); per-batch distinct (doc, token)
    pairs come from the dictionary-code combiner, so scoring is one
    vectorized pass — no shuffle before the k-row sort+limit.
    """
    import ray
    from engine.kernels import _flatten, _valid_mask
    q = np.unique(np.array([t for t in query_tokens if t], dtype=object))
    qref = ray.put(q)

    def _score(batch: pa.Table) -> pa.Table:
        qs = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref
        n = batch.num_rows
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        parent = parent[keep]
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)[keep]
        nd = np.zeros(n, dtype=np.int64)
        inter = np.zeros(n, dtype=np.int64)
        if len(parent):
            pairs = np.unique(np.stack([parent, codes]).astype(np.int64),
                              axis=1)
            nd = np.bincount(pairs[0], minlength=n).astype(np.int64)
            dic = np.asarray(enc.dictionary.to_pylist(), dtype=object)
            tok = dic[pairs[1]]
            if len(qs):
                pos = np.minimum(np.searchsorted(qs, tok), len(qs) - 1)
                member = qs[pos] == tok
                inter = np.bincount(pairs[0][member],
                                    minlength=n).astype(np.int64)
        union = nd + len(qs) - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            j = np.where(union > 0, inter / union, np.nan)
        return pa.table({
            key_col: batch.column(key_col),
            "jaccard": pa.array(j, pa.float64(), mask=np.isnan(j))})

    scored = ds.map_batches(_score, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size,
                            concurrency=concurrency)
    return scored.sort(["jaccard", key_col],
                       descending=[True, False]).limit(k)


def doc_mean_idf(ds, *, text_col: str = "text", key_col: str = "doc_id",
                 batch_size: int = 8192, concurrency=None):
    """Per-document lexical rarity: the mean inverse document frequency
    ``avg(ln(N / df))`` over the doc's DISTINCT tokens — high values
    flag unusual vocabulary, low values boilerplate. Documents with no
    tokens emit no row (SQL inner-join parity). Returns
    (key, mean_idf, n_distinct).

    Scale shape (the :func:`tfidf_topk` gate, ``shuffle.SMALL_ROWS``
    tokens): the df table comes from the :func:`token_doc_frequency`
    combiner; a small one broadcasts once (sorted-array searchsorted,
    the per-doc mean in the same map), above it the per-batch distinct
    (doc, token) pairs join df on token (:func:`engine.shuffle.join`)
    and a per-key groupby averages (:func:`engine.shuffle.by_key`) —
    both routes exact.
    """
    import ray
    import pandas as pd
    from engine import shuffle
    n_docs = ds.count()
    df_tab = token_doc_frequency(ds, text_col=text_col,
                                 batch_size=batch_size,
                                 concurrency=concurrency).materialize()
    vocab_n = df_tab.count()
    from engine.kernels import _flatten, _valid_mask

    def _pairs(batch: pa.Table) -> pa.Table:
        """Distinct (doc, token) rows of one batch; the key keeps its
        input type."""
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column(text_col), ""), pattern=r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat, parent, _ = _flatten(toks, _valid_mask(toks))
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)[keep]
        p, c = np.unique(np.stack([parent[keep], codes]).astype(np.int64),
                         axis=1)
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(p)),
            "token": pc.cast(enc.dictionary.take(pa.array(c)),
                             pa.string())})

    if vocab_n <= shuffle.SMALL_ROWS:
        dfp = df_tab.to_pandas().sort_values("token")
        ref = ray.put((dfp["token"].to_numpy(),
                       dfp["df"].to_numpy().astype(np.float64)))

        def _score(batch: pa.Table) -> "pd.DataFrame":
            toks_, dfs_ = ray.get(ref)
            t = _pairs(batch).to_pandas()
            if not len(t):
                return pd.DataFrame({key_col: [], "mean_idf": [],
                                     "n_distinct":
                                         pd.array([], dtype="int64")})
            pos = np.minimum(np.searchsorted(toks_,
                                             t["token"].to_numpy()),
                             len(dfs_) - 1)
            idf = np.log(n_docs / dfs_[pos])
            g = pd.Series(idf).groupby(t[key_col].to_numpy(),
                                       sort=False)
            out = pd.DataFrame({
                "mean_idf": g.mean().to_numpy(np.float64),
                "n_distinct": g.size().to_numpy(np.int64)})
            out.insert(0, key_col, g.mean().index.to_numpy())
            return out

        return ds.map_batches(_score, batch_format="pyarrow",
                              zero_copy_batch=True,
                              batch_size=batch_size,
                              concurrency=concurrency)

    # distributed fall-through: distinct pairs join df on token, then a
    # per-key mean (per-doc rows co-locate)
    from engine.shuffle import by_key, join
    pairs_ds = ds.map_batches(_pairs, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size,
                              concurrency=concurrency)
    joined = join(pairs_ds, df_tab, "token")

    def _idf(df):
        return pd.DataFrame({
            key_col: df[key_col],
            "idf": np.log(n_docs / df["df"].to_numpy(np.float64))})

    def _mean(df):
        g = df.groupby(key_col, sort=False)["idf"]
        out = pd.DataFrame({
            "mean_idf": g.mean().to_numpy(np.float64),
            "n_distinct": g.size().to_numpy(np.int64)})
        out.insert(0, key_col, g.mean().index.to_numpy())
        return out

    return by_key(joined, key_col, _mean, prep=_idf,
                  empty=pd.DataFrame({key_col: [], "mean_idf": [],
                                      "n_distinct": pd.array(
                                          [], dtype="int64")}))
