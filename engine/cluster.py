"""Near-duplicate cluster resolution: connected components over candidate
pairs + one canonical survivor per cluster.

The LSH dedup family (engine/dedup.py) emits *pairs*; actually deduplicating
a corpus needs *clusters* — the transitive closure of the pair relation —
and a deterministic survivor per cluster. The reference has no clustering
stage (its dedup is structural schema dedup, ``json_schema.rs``); this
module is part of the large-scale training-data toolkit built on the same
sparse-pair machinery.

Scale shape
-----------
``connected_components`` is distributed min-label propagation with
label-link shortcuts: each round unions the current node->label mapping into
the edge set (the dataset-op analog of pointer jumping), so the round count
tracks log(component diameter), not diameter. One round is two
coarse-partition group-aggregates over the SPARSE edge + label rows — the
corpus itself never shuffles, and P partitions track cluster CPUs
(engine/shuffle.py) — plus one scalar ``sum`` for the convergence test.
Labels are monotonically non-increasing, so a zero changed-count is an exact
fixpoint, not a heuristic.

``resolve_duplicates`` removes the loser keys with one ``left_anti``
:func:`engine.shuffle.join`, which broadcasts a small loser side and
hash-joins a large one.

NULL keys: an edge with a NULL end is dropped before either route (SQL
drops NULL-key edges), so a NULL node is never in a cluster.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)

_KIND_EDGE, _KIND_LABEL = 0, 1


def _lookup(keys, table_keys, table_vals):
    """Vectorized ``table[k] if k in table else k`` preserving dtype (a
    pandas ``.map`` would float-ify int64 on misses)."""
    import pandas as pd
    if not len(table_keys):
        return np.asarray(keys)
    idx = pd.Index(table_keys)
    pos = idx.get_indexer(keys)
    vals = np.asarray(table_vals)
    out = vals[np.clip(pos, 0, len(vals) - 1)]
    return np.where(pos >= 0, out, np.asarray(keys))


def _numpy_components(a: np.ndarray, b: np.ndarray):
    """Vectorized union-find on dense-remapped node ids: alternate
    min-scatter along edges (``np.minimum.at``) with pointer jumping
    (``lab = lab[lab]`` to its fixpoint) until every edge is internally
    consistent. O((E+V) log V) at numpy speed, no Python per-edge loop."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    u, v = inv[:len(a)], inv[len(a):]
    lab = np.arange(len(nodes))
    while True:
        np.minimum.at(lab, u, lab[v])
        np.minimum.at(lab, v, lab[u])
        while True:
            nl = lab[lab]
            if np.array_equal(nl, lab):
                break
            lab = nl
        if len(u) == 0 or bool(np.all(lab[u] == lab[v])):
            return nodes, nodes[lab]


def connected_components(pairs, *, key_a: str = "key_a",
                         key_b: str = "key_b", max_rounds: int = 50):
    """(node, cluster_id) for every node incident to a pair; ``cluster_id``
    is the minimum node id of the component. A pair with a NULL end is no
    edge.

    Nodes with no pair are implicitly their own singleton cluster and are
    not emitted (keeps the output proportional to the duplicate set, not
    the corpus).

    Routing: at or below ``shuffle.SMALL_ROWS`` edge rows the whole
    sparse edge set collapses into ONE Ray task running the numpy
    union-find — worker-side, never the driver — because log(diameter)
    distributed rounds cost ~5 Ray jobs each and fixed job overhead
    dominates small graphs. Above it, distributed label propagation
    takes over.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data
    from engine import shuffle
    from engine.shuffle import by_key, not_null

    def _sym(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.and_(not_null(t.column(key_a)),
                             not_null(t.column(key_b))))
        a = t.column(key_a).to_numpy()
        b = t.column(key_b).to_numpy()
        return pd.DataFrame({
            "node": np.concatenate([a, b]),
            "val": np.concatenate([b, a]),
            "kind": np.full(2 * len(a), _KIND_EDGE, dtype=np.int8)})

    edges = pairs.map_batches(_sym, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        kt = pa.int64()
        try:
            kt = pairs.schema().base_schema.field(key_a).type
        except Exception:  # pragma: no cover - schema unavailable
            pass
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], kt), "cluster_id": pa.array([], kt)}))

    if n_edges <= shuffle.SMALL_ROWS:
        def _local(df):
            nodes, comp = _numpy_components(df["node"].to_numpy(),
                                            df["val"].to_numpy())
            return pd.DataFrame({"node": nodes, "cluster_id": comp})

        return edges.repartition(1).map_batches(
            _local, batch_format="pandas", batch_size=None)

    def _propagate(df):
        """One partition: candidate labels scattered along edge rows.

        Label rows (kind 1) carry each node's current label; nodes without
        one (round 1) default to themselves. Every edge row (node, nbr)
        emits (nbr, label[node]); every node also re-emits its own label so
        the follow-up min never loses coverage.
        """
        lab = df[df["kind"] == _KIND_LABEL]
        src = df[df["kind"] == _KIND_EDGE]
        lk, lv = lab["node"].to_numpy(), lab["val"].to_numpy()
        src_lab = _lookup(src["node"].to_numpy(), lk, lv)
        nodes = pd.unique(np.concatenate([src["node"].to_numpy(), lk]))
        return pd.DataFrame({
            "node": np.concatenate([src["val"].to_numpy(), nodes]),
            "cand": np.concatenate([src_lab, _lookup(nodes, lk, lv)])})

    def _minimize(df):
        """One partition: new label = min candidate; changed vs previous."""
        cand = df[df["kind"] == _KIND_EDGE]
        prev = df[df["kind"] == _KIND_LABEL]
        newlab = cand.groupby("node", as_index=False)["val"].min()
        prev_vals = _lookup(newlab["node"].to_numpy(),
                            prev["node"].to_numpy(),
                            prev["val"].to_numpy())
        return pd.DataFrame({
            "node": newlab["node"].to_numpy(),
            "label": newlab["val"].to_numpy(),
            "changed": (newlab["val"].to_numpy()
                        < prev_vals).astype(np.int64)})

    labels = None
    for rnd in range(max_rounds):
        if labels is None:
            u = edges
        else:
            def _lab_rows(df, _kind=np.int8(_KIND_LABEL)):
                n = df["node"].to_numpy()
                l = df["label"].to_numpy()
                ne = l != n
                # label rows for every node + shortcut edges (v<->label)
                return pd.DataFrame({
                    "node": np.concatenate([n, n[ne], l[ne]]),
                    "val": np.concatenate([l, l[ne], n[ne]]),
                    "kind": np.concatenate([
                        np.full(len(n), _KIND_LABEL, dtype=np.int8),
                        np.full(2 * int(ne.sum()), _KIND_EDGE,
                                dtype=np.int8)])})

            u = edges.union(labels.map_batches(_lab_rows,
                                               batch_format="pandas"))

        cands = by_key(u, "node", _propagate,
                       empty=pd.DataFrame({"node": [], "cand": []}))

        def _cand_rows(df):
            return pd.DataFrame({
                "node": df["node"].to_numpy(),
                "val": df["cand"].to_numpy(),
                "kind": np.full(len(df), _KIND_EDGE, dtype=np.int8)})

        u2 = cands.map_batches(_cand_rows, batch_format="pandas")
        if labels is not None:
            def _prev_rows(df):
                return pd.DataFrame({
                    "node": df["node"].to_numpy(),
                    "val": df["label"].to_numpy(),
                    "kind": np.full(len(df), _KIND_LABEL, dtype=np.int8)})
            u2 = u2.union(labels.map_batches(_prev_rows,
                                             batch_format="pandas"))

        labels = by_key(u2, "node", _minimize, empty=pd.DataFrame({
            "node": [], "label": [],
            "changed": pd.array([], dtype="int64")})).materialize()
        changed = labels.sum("changed") or 0
        if changed == 0:
            break
    else:  # pragma: no cover - pathological diameter
        logger.warning("connected_components: no fixpoint in %d rounds",
                       max_rounds)

    def _final(df):
        return pd.DataFrame({"node": df["node"].to_numpy(),
                             "cluster_id": df["label"].to_numpy()})

    return labels.map_batches(_final, batch_format="pandas")


def resolve_duplicates(docs, pairs, *, key_col: str = "doc_id"):
    """Survivor view of ``docs``: every near-dup cluster keeps only its
    minimum-key member; rows in no cluster pass through untouched.

    The loser-key side (cluster members minus survivors) is proportional
    to the duplicate count; one ``left_anti`` :func:`engine.shuffle.join`
    drops its keys from ``docs``.
    """
    import pandas as pd
    from engine.shuffle import join

    def _losers(df):
        sub = df[df["node"].to_numpy() != df["cluster_id"].to_numpy()]
        return pd.DataFrame({"node": sub["node"].to_numpy()})

    losers = connected_components(pairs).map_batches(_losers,
                                                     batch_format="pandas")
    return join(docs, losers, key_col, "left_anti", right_on="node")


def shingle_candidate_pairs(docs, *, text_col: str = "text",
                            key_col: str = "doc_id", n: int = 3,
                            max_bucket_size: int | None = 256):
    """Candidate pairs = documents sharing at least one word ``n``-gram
    shingle (exact blocking — every true near-dup pair with any shared
    shingle is a candidate; contrast with minhash banding, which samples).

    SQL-expressible (DuckDB: unnest distinct grams, self-join on gram), so
    pipelines built on it can be oracled end-to-end. Shingles shuffle as
    64-bit hashes, never strings; a hash collision can only ADD a candidate
    pair, and any added pair that survives a downstream jaccard >= t > 0
    filter must share a real gram — so the *filtered* pair set is exact.
    ``max_bucket_size`` (default 256 — the SAFE, bounded behavior) drops
    flood shingles shared by more than that many docs, bounding per-shingle
    pair volume at cap^2/2; the exactness claim then holds only for pairs
    outside dropped floods. Pass ``None`` to UNCAP when an oracle compares
    (the SQL self-join is flood-blind), never in a scale run.
    """
    import pandas as pd
    from engine.dedup import _doc_shingle_hashes, _pairs_via_partitions, \
        _unique_pairs

    def _shingles(df):
        h, counts = _doc_shingle_hashes(df[text_col].tolist(), n)
        keys = np.repeat(df[key_col].to_numpy(), counts)
        frame = pd.DataFrame({"key": keys,
                              # 63-bit: uint64 keys round-trip Ray groupby
                              # as pickled objects (see dedup._add_bkey)
                              "bkey": (h >> np.uint64(1)).astype(np.int64)})
        return frame.drop_duplicates()

    cand = docs.map_batches(_shingles, batch_format="pandas")
    cap = max_bucket_size if max_bucket_size is not None else 1 << 30
    pairs = _pairs_via_partitions(cand, max_bucket_size=cap)
    return _unique_pairs(pairs)


def _near_dup_edges(docs, *, text_col: str, key_col: str, n: int,
                    threshold: float, max_bucket_size: int | None):
    """Shingle-blocked candidates -> exact jaccard >= threshold edges."""
    from engine.dedup import verify_pairs_jaccard
    cand = shingle_candidate_pairs(docs, text_col=text_col, key_col=key_col,
                                   n=n, max_bucket_size=max_bucket_size)
    return verify_pairs_jaccard(cand, docs, text_col=text_col,
                                key_col=key_col, n=n, threshold=threshold)


def near_dup_clusters(docs, *, text_col: str = "text",
                      key_col: str = "doc_id", n: int = 3,
                      threshold: float = 0.6,
                      max_bucket_size: int | None = 256):
    """End-to-end: shingle-blocked candidates -> exact jaccard >= threshold
    edges -> connected components. Returns (node, cluster_id) rows for every
    document in a near-dup cluster of size >= 2."""
    return connected_components(_near_dup_edges(
        docs, text_col=text_col, key_col=key_col, n=n,
        threshold=threshold, max_bucket_size=max_bucket_size))


def resolve_near_duplicates(docs, *, text_col: str = "text",
                            key_col: str = "doc_id", n: int = 3,
                            threshold: float = 0.6,
                            max_bucket_size: int | None = 256):
    """Survivor view: ``docs`` minus every non-canonical near-dup cluster
    member (the deduplication a training pipeline actually applies)."""
    edges = _near_dup_edges(docs, text_col=text_col, key_col=key_col, n=n,
                            threshold=threshold,
                            max_bucket_size=max_bucket_size)
    return resolve_duplicates(docs, edges, key_col=key_col)
