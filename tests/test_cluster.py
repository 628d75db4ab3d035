"""Connected components / near-dup cluster resolution (engine/cluster.py)."""

import numpy as np
import pyarrow as pa
import pytest


def _uf_components(edges, nodes=None):
    """Pure-Python union-find reference: node -> min member of component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    members = {}
    for x in (nodes if nodes is not None else list(parent)):
        members.setdefault(find(x), []).append(x)
    out = {}
    for mem in members.values():
        lo = min(mem)
        for x in mem:
            out[x] = lo
    return out


def _pairs_ds(edges, typ=pa.int64()):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "key_a": pa.array([a for a, _ in edges], typ),
        "key_b": pa.array([b for _, b in edges], typ)}))


def _cc_dict(pairs):
    from engine.cluster import connected_components
    df = connected_components(pairs).to_pandas()
    if "node" not in df.columns:  # Ray empty-dataset to_pandas drops schema
        assert len(df) == 0
        return {}
    return dict(zip(df["node"], df["cluster_id"]))


class TestConnectedComponents:
    def test_two_components_and_isolated(self, ray_session):
        edges = [(1, 2), (2, 3), (10, 11), (3, 1)]
        got = _cc_dict(_pairs_ds(edges))
        assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}

    def test_long_chain_converges(self, ray_session):
        # worst-case diameter for plain propagation; the label-link
        # shortcuts must close a 64-node chain well within max_rounds
        edges = [(i, i + 1) for i in range(63)]
        got = _cc_dict(_pairs_ds(edges))
        assert got == {i: 0 for i in range(64)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_union_find(self, ray_session, seed):
        rng = np.random.default_rng(seed)
        n = 80
        m = int(rng.integers(20, 120))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, (m, 2))
                 if a != b]
        got = _cc_dict(_pairs_ds(edges))
        nodes = sorted({x for e in edges for x in e})
        assert got == _uf_components(edges, nodes)

    def test_distributed_path_matches_single_task(self, ray_session,
                                                  large_route):
        """Force the label-propagation scale path and pin it to the numpy
        union-find fast path on a graph with a non-trivial diameter."""
        from engine.cluster import connected_components
        rng = np.random.default_rng(7)
        edges = [(i, i + 1) for i in range(6)]            # chain
        edges += [(int(a), int(b)) for a, b in rng.integers(20, 40, (12, 2))
                  if a != b]
        fast = _cc_dict(_pairs_ds(edges))
        large_route()
        dist_df = connected_components(_pairs_ds(edges)).to_pandas()
        dist = dict(zip(dist_df["node"], dist_df["cluster_id"]))
        assert dist == fast

    def test_string_keys(self, ray_session):
        edges = [("b", "c"), ("a", "b"), ("x", "y")]
        got = _cc_dict(_pairs_ds(edges, pa.string()))
        assert got == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}

    def test_empty_pairs(self, ray_session):
        got = _cc_dict(_pairs_ds([]))
        assert got == {}

    def test_duplicate_and_self_edges(self, ray_session):
        edges = [(1, 2), (2, 1), (1, 2), (3, 3)]
        got = _cc_dict(_pairs_ds(edges))
        assert got[1] == 1 and got[2] == 1 and got[3] == 3


class TestResolveDuplicates:
    def _docs(self, ids):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([f"t{i}" for i in ids])}))

    def test_broadcast_path(self, ray_session):
        from engine.cluster import resolve_duplicates
        docs = self._docs(list(range(8)))
        pairs = _pairs_ds([(1, 2), (2, 5), (6, 7)])
        out = resolve_duplicates(docs, pairs).to_pandas()
        # losers 2, 5, 7 dropped; singletons + cluster minima kept
        assert sorted(out["doc_id"]) == [0, 1, 3, 4, 6]

    def test_join_path_matches_broadcast(self, ray_session, large_route):
        from engine.cluster import resolve_duplicates
        docs = self._docs(list(range(30)))
        pairs = _pairs_ds([(i, i + 1) for i in range(0, 20, 2)])
        a = resolve_duplicates(docs, pairs).to_pandas()
        large_route()
        b = resolve_duplicates(docs, pairs).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])

    def test_null_ends_are_no_edges(self, ray_session, route):
        """SQL drops a NULL-key edge: a pair with a NULL end joins no
        cluster on either route, and a NULL node is never a loser."""
        from engine.cluster import connected_components, resolve_duplicates
        edges = [(None, None), (1, None), (None, 4), (2, 3), (None, None)]
        got = connected_components(_pairs_ds(edges)).to_pandas()
        assert dict(zip(got["node"], got["cluster_id"])) == {2: 2, 3: 2}
        out = resolve_duplicates(self._docs([1, 2, 3, 4]), _pairs_ds(edges))
        assert sorted(out.to_pandas()["doc_id"]) == [1, 2, 4]

    def test_no_pairs_passthrough(self, ray_session):
        from engine.cluster import resolve_duplicates
        docs = self._docs([1, 2, 3])
        out = resolve_duplicates(docs, _pairs_ds([])).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2, 3]


class TestNearDupClusters:
    def test_planted_clusters(self, ray_session):
        import ray.data
        base = ("the quick brown fox jumps over the lazy dog while "
                "seventeen apples fall from the old oak tree")
        alt = base.replace("lazy", "sleepy")          # near-dup of base
        other = ("completely different words about parquet arrow ray "
                 "datasets shuffling partitions and actor pools at scale")
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array([base, alt, base + " extra", other,
                              "unrelated tiny text"])}))
        from engine.cluster import near_dup_clusters
        df = near_dup_clusters(docs, threshold=0.5).to_pandas()
        got = dict(zip(df["node"], df["cluster_id"]))
        # 0,1,2 form one cluster; 3 and 4 share no shingle with anything
        assert got == {0: 0, 1: 0, 2: 0}

    def test_matches_duckdb_oracle(self, ray_session):
        """End-to-end parity vs a DuckDB recursive-CTE oracle on the
        sf0.001 documents table (same shape as the driver compare)."""
        import duckdb
        import ray.data
        sf = "/root/testdata/sf0.001"
        docs = ray.data.read_parquet(f"{sf}/documents.parquet",
                                     columns=["doc_id", "text"])
        from engine.cluster import near_dup_clusters
        got = near_dup_clusters(docs, threshold=0.6).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        exp = duckdb.sql(f"""
            with recursive
            d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\\s+'),
                         x -> x <> '') as w
              from read_parquet('{sf}/documents.parquet')),
            g as (
              select doc_id,
                     list_distinct(case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end) as grams
              from d),
            ex as (select doc_id, unnest(grams) as gram from g),
            cand as (
              select distinct a.doc_id as u, b.doc_id as v
              from ex a join ex b using (gram)
              where a.doc_id < b.doc_id),
            e as (
              select u, v from cand
              join g ga on ga.doc_id = cand.u
              join g gb on gb.doc_id = cand.v
              where (case when len(ga.grams) = 0 and len(gb.grams) = 0
                          then 1.0
                          else len(list_distinct(list_intersect(
                                   ga.grams, gb.grams)))::double
                               / len(list_distinct(ga.grams || gb.grams))
                     end) >= 0.6),
            sym as (select u as a, v as b from e
                    union all select v, u from e),
            reach(node, l) as (
              select distinct a, a from sym
              union
              select s.b, r.l from reach r join sym s on s.a = r.node)
            select node, min(l) as cluster_id from reach group by node
            order by node
        """).df()
        assert len(got) == len(exp)
        assert got["node"].tolist() == exp["node"].tolist()
        assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()
