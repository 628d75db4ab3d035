"""Empty-input and NULL-key behaviour of every keyed shuffle operator:
each ``shuffle.by_key`` operator and each decomposable aggregate that
merges per-batch partials by key.

Each operator runs on (a) a typed empty input and (b) a three-row input
whose partition or grouping keys are all NULL. The expected row count and output
schema are pinned per operator: they record the engine's documented
per-family contracts (the ewma family drops NULL keys, the PARTITION BY
family keeps them as one partition, NULL-group-dropping aggregates emit
nothing) and which operators return a typed versus a schemaless empty.
A schemaless empty is pinned as ``None``.
"""

import datetime as dt
import functools
import importlib
import tempfile

import pyarrow as pa
import pytest

T0 = dt.datetime(2024, 1, 1, 9, 0, 0)
TS = [T0, T0 + dt.timedelta(hours=1), T0 + dt.timedelta(hours=2)]


def _table(kind, cols):
    """``cols``: name -> (type, three all-NULL-key row values)."""
    n = 0 if kind == "empty" else 3
    return pa.table({name: pa.array(vals[:n], typ)
                     for name, (typ, vals) in cols.items()})


def _ds(kind, cols):
    import ray.data
    return ray.data.from_arrow(_table(kind, cols))


def events(kind):
    return _ds(kind, {
        "event_id": (pa.int64(), [1, 2, 3]),
        "user_id": (pa.int64(), [None, None, None]),
        "ts": (pa.timestamp("us"), TS),
        "value": (pa.float64(), [1.0, 2.0, 4.0]),
        "event_type": (pa.string(), ["click", "purchase", "click"])})


def intervals(kind):
    return _ds(kind, {
        "interval_id": (pa.int64(), [10, 11, 12]),
        "user_id": (pa.int64(), [None, None, None]),
        "start": (pa.timestamp("us"), TS),
        "end": (pa.timestamp("us"),
                [t + dt.timedelta(minutes=30) for t in TS])})


def docs(kind):
    return _ds(kind, {
        "doc_id": (pa.int64(), [None, None, None]),
        "text": (pa.string(), ["a b c d e", "a b c d e", "x y z"])})


def labelled_vectors(kind):
    return _ds(kind, {
        "label": (pa.int64(), [None, None, None]),
        "embedding": (pa.list_(pa.float64()),
                      [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])})


def pairs(kind):
    return _ds(kind, {"key_a": (pa.int64(), [None, None, None]),
                      "key_b": (pa.int64(), [None, None, None])})


def _events_with_null(*null_cols):
    """Events whose ``null_cols`` are all NULL; ``user_id`` is set."""
    def make(kind):
        cols = {
            "event_id": (pa.int64(), [1, 2, 3]),
            "user_id": (pa.int64(), [7, 7, 8]),
            "ts": (pa.timestamp("us"), TS),
            "value": (pa.float64(), [1.0, 2.0, 4.0]),
            "event_type": (pa.string(), ["click", "purchase", "click"])}
        for c in null_cols:
            cols[c] = (cols[c][0], [None, None, None])
        return _ds(kind, cols)
    return make


untyped_events = _events_with_null("event_type")
untimed_events = _events_with_null("ts")
valueless_events = _events_with_null("value", "event_type")


def lineitem(kind):
    return _ds(kind, {
        "l_orderkey": (pa.int64(), [None, None, None]),
        "l_suppkey": (pa.int64(), [None, None, None]),
        "l_quantity": (pa.float64(), [1.0, 2.0, 3.0]),
        "l_extendedprice": (pa.float64(), [10.0, 20.0, 30.0]),
        "l_discount": (pa.float64(), [0.06, 0.06, 0.06]),
        "l_returnflag": (pa.string(), [None, None, None]),
        "l_linestatus": (pa.string(), [None, None, None]),
        "l_shipdate": (pa.timestamp("us"), [None, None, None])})


def orders(kind):
    return _ds(kind, {
        "o_orderkey": (pa.int64(), [None, None, None]),
        "o_custkey": (pa.int64(), [None, None, None]),
        "o_totalprice": (pa.float64(), [5.0, 6.0, 7.0]),
        "o_orderdate": (pa.timestamp("us"),
                        [dt.datetime(1996, 2, 1)] * 3)})


def _dimension(cols, kind="null"):
    """A dimension table: the same three valid rows for every ``kind``
    (only the fact tables are empty or NULL-keyed), or with
    ``kind="empty"`` no rows for every ``kind``."""
    return lambda _: _ds(kind, cols)


CUSTOMER = {
    "c_custkey": (pa.int64(), [1, 2, 3]),
    "c_name": (pa.string(), ["a", "b", "c"]),
    "c_nationkey": (pa.int32(), [0, 0, 1]),
    "c_acctbal": (pa.float64(), [1.0, 2.0, 3.0]),
    "c_mktsegment": (pa.string(), ["BUILDING", "AUTO", "BUILDING"])}
NATION = {
    "n_nationkey": (pa.int32(), [0, 1, 2]),
    "n_name": (pa.string(), ["A", "B", "C"]),
    "n_regionkey": (pa.int32(), [0, 0, 1])}
REGION = {
    "r_regionkey": (pa.int32(), [0, 1, 2]),
    "r_name": (pa.string(), ["ASIA", "EUROPE", "AFRICA"])}
customer = _dimension(CUSTOMER)
supplier = _dimension({
    "s_suppkey": (pa.int64(), [1, 2, 3]),
    "s_nationkey": (pa.int32(), [0, 0, 1])})
nation = _dimension(NATION)
region = _dimension(REGION)
no_customer = _dimension(CUSTOMER, "empty")
no_nation = _dimension(NATION, "empty")
no_region = _dimension(REGION, "empty")


def null_docs(kind):
    return _ds(kind, {
        "doc_id": (pa.int64(), [1, 2, 3]),
        "text": (pa.string(), [None, None, None]),
        "lang": (pa.string(), [None, None, None])})


def null_vectors(kind):
    return _ds(kind, {
        "label": (pa.int64(), [1, 1, 2]),
        "embedding": (pa.list_(pa.float64()), [None, None, None])})


def _mod(module, name, *inputs, **kw):
    """Runner: ``module.name`` over each input built for ``kind``."""
    def run(kind):
        fn = getattr(importlib.import_module(module), name)
        return fn(*(f(kind) for f in inputs), **kw)
    return run


_rel = functools.partial(_mod, "engine.relational")


def _stream_windows(kind):
    from engine.streaming import process_micro_batch
    with tempfile.TemporaryDirectory() as state:
        out, _ = process_micro_batch(events(kind), state)
        return out.materialize()


def _stream_dedup(kind, tmp_path):
    from engine.streaming import stream_dedup_micro_batch
    out, _ = stream_dedup_micro_batch(docs(kind), str(tmp_path / "state"))
    return out


GROUPED = dict(group_col="user_id", value_col="value")
_stats = functools.partial(_mod, "engine.stats")
_text = functools.partial(_mod, "engine.textstats")

CASES = {
    "events_per_user_hour": _rel("events_per_user_hour", events),
    "sessionize": _rel("sessionize", events),
    "session_aggregate": _rel("session_aggregate", events),
    "grouped_topk": _rel("grouped_topk", events, group_col="user_id",
                         score_col="value", id_col="event_id"),
    "rolling_window_mean": _rel("rolling_window_mean", events),
    "asof_join": _rel("asof_join", events, events),
    "interval_join": _rel("interval_join", events, intervals,
                          max_duration_s=3600.0),
    "count_distinct": _rel("count_distinct", events, group_col="user_id",
                           value_col="event_type"),
    "ewma": _rel("ewma", events),
    "ewma_halflife": _rel("ewma_halflife", events),
    "lag_diff": _rel("lag_diff", events),
    "keep_latest": _rel("keep_latest", events),
    "pivot_agg": _rel("pivot_agg", events, group_col="user_id",
                      pivot_col="event_type", value_col="value",
                      values=["click", "purchase"]),
    "except_distinct": _rel("except_distinct", events, events,
                            key_col="user_id"),
    "union_distinct": _rel("union_distinct", events, events,
                           key_col="user_id"),
    "grouped_mode": _rel("grouped_mode", events, group_col="user_id",
                         value_col="event_type"),
    "running_sum": _rel("running_sum", events),
    "collect_sequence": _rel("collect_sequence", events),
    "rolling_window_sum_count": _rel("rolling_window_sum_count", events),
    "rolling_window_min_max": _rel("rolling_window_min_max", events),
    "window_ranks": _rel("window_ranks", events),
    "window_rank_fractions": _rel("window_rank_fractions", events),
    "running_min_max": _rel("running_min_max", events),
    "interevent_gap_stats": _rel("interevent_gap_stats", events),
    "delta_from_first": _rel("delta_from_first", events),
    "grouped_zscore": _rel("grouped_zscore", events),
    "grouped_minmax_scale": _rel("grouped_minmax_scale", events),
    "user_activity_span": _rel("user_activity_span", events),
    "event_type_cooccurrence": _rel("event_type_cooccurrence", events),
    "collect_distinct_sorted": _rel("collect_distinct_sorted", events),
    "session_duration_stats": _rel("session_duration_stats", events),
    "user_hour_entropy": _rel("user_hour_entropy", events),
    "cohort_retention": _rel("cohort_retention", events),
    "rolling_rows_mean": _rel("rolling_rows_mean", events),
    "event_transition_matrix": _rel("event_transition_matrix", events),
    "daily_active_users": _rel("daily_active_users", events),
    "peak_hourly_rate": _rel("peak_hourly_rate", events),
    "share_within_group": _rel("share_within_group", events,
                               outer_col="user_id",
                               inner_col="event_type"),
    "user_repeat_rate": _rel("user_repeat_rate", events),
    "daily_ratio": _rel("daily_ratio", events),
    "longest_daily_streak": _rel("longest_daily_streak", events),
    "grouped_quantiles": _mod("engine.stats", "grouped_quantiles", events,
                              qs=[0.5], **GROUPED),
    "grouped_gini": _mod("engine.stats", "grouped_gini", events, **GROUPED),
    "grouped_iqr_outliers": _mod("engine.stats", "grouped_iqr_outliers",
                                 events, id_col="event_id", **GROUPED),
    "grouped_quantile_buckets": _mod("engine.stats",
                                     "grouped_quantile_buckets", events,
                                     id_col="event_id", **GROUPED),
    "grouped_mad": _mod("engine.stats", "grouped_mad", events, **GROUPED),
    "pack_sequences": _mod("engine.textstats", "pack_sequences", docs),
    "grouped_centroids": _mod("engine.similarity", "grouped_centroids",
                              labelled_vectors, group_col="label",
                              vec_col="embedding", dim=2),
    "connected_components": _mod("engine.cluster", "connected_components",
                                 pairs),
    "connected_components_single_task": _mod(
        "engine.cluster", "connected_components", pairs),
    "minhash_near_duplicates": _mod("engine.dedup",
                                    "minhash_near_duplicates", docs),
    "simhash_near_duplicates": _mod("engine.dedup",
                                    "simhash_near_duplicates", docs),
    "duplicate_keys": _mod("engine.uniqueness", "duplicate_keys", docs,
                           key="doc_id"),
    # decomposable aggregates: per-batch partials merged by key
    "exact_duplicates": _mod("engine.dedup", "exact_duplicates", null_docs),
    "normalized_duplicates": _mod("engine.dedup", "normalized_duplicates",
                                  null_docs),
    "dangling_fk_rows": _mod("engine.referential", "dangling_fk_rows",
                             orders, customer, fk="o_custkey",
                             pk="c_custkey"),
    "q1_pricing_summary": _rel("q1_pricing_summary", lineitem),
    "revenue_by_segment": _rel("revenue_by_segment", orders, customer),
    "revenue_by_segment_join": _rel("revenue_by_segment", orders, customer),
    "revenue_by_segment_no_customer": _rel("revenue_by_segment", orders,
                                           no_customer),
    "top_event_types": _rel("top_event_types", untyped_events),
    "q3_shipping_priority": _rel("q3_shipping_priority", lineitem, orders,
                                 customer),
    "q3_shipping_priority_join": _rel("q3_shipping_priority", lineitem,
                                      orders, customer),
    "q3_shipping_priority_no_customer": _rel("q3_shipping_priority",
                                             lineitem, orders, no_customer),
    "q5_local_supplier_volume": _rel("q5_local_supplier_volume", lineitem,
                                     orders, customer, supplier, nation,
                                     region),
    "q5_local_supplier_volume_join": _rel(
        "q5_local_supplier_volume", lineitem, orders, customer, supplier,
        nation, region),
    "q5_local_supplier_volume_no_nation": _rel(
        "q5_local_supplier_volume", lineitem, orders, customer, supplier,
        no_nation, region),
    "q5_local_supplier_volume_no_region": _rel(
        "q5_local_supplier_volume", lineitem, orders, customer, supplier,
        nation, no_region),
    "q6_forecast_revenue": _rel("q6_forecast_revenue", lineitem),
    "dense_daily_counts": _rel("dense_daily_counts", untimed_events),
    "rollup_counts": _rel("rollup_counts", untimed_events),
    "activity_heatmap": _rel("activity_heatmap", untimed_events),
    "q10_returned_item_reporting": _rel("q10_returned_item_reporting",
                                        lineitem, orders, customer, nation),
    "q10_returned_item_reporting_join": _rel(
        "q10_returned_item_reporting", lineitem, orders, customer, nation),
    "q10_returned_item_reporting_no_customer": _rel(
        "q10_returned_item_reporting", lineitem, orders, no_customer,
        nation),
    "q10_returned_item_reporting_no_nation": _rel(
        "q10_returned_item_reporting", lineitem, orders, customer,
        no_nation),
    "time_to_first_target": _rel("time_to_first_target", events),
    "orders_per_customer_histogram": _rel("orders_per_customer_histogram",
                                          orders, customer),
    "user_value_concentration": _rel("user_value_concentration", events),
    "embedding_covariance": _mod("engine.similarity", "embedding_covariance",
                                 null_vectors, dim=2),
    "grouped_moments": _stats("grouped_moments", events, **GROUPED),
    "grouped_corr": _stats("grouped_corr", events, group_col="user_id",
                           x_col="value", y_col="event_id"),
    "value_histogram": _stats("value_histogram", valueless_events, col="value",
                              lo=0.0, hi=10.0, bins=4),
    "percentile_rank": _stats("percentile_rank", valueless_events, col="value",
                              id_col="event_id"),
    "grouped_weighted_mean": _stats("grouped_weighted_mean", events,
                                    weight_col="event_id", **GROUPED),
    "grouped_histogram": _stats("grouped_histogram", events,
                                group_col="user_id", col="value", lo=0.0,
                                hi=10.0, bins=4),
    "mutual_information": _stats("mutual_information", untyped_events,
                                 a_col="event_type", b_col="value", lo=0.0,
                                 hi=10.0, bins=4),
    "spearman_corr": _stats("spearman_corr", valueless_events,
                            x_col="value", y_col="event_id"),
    "corr_matrix": _stats("corr_matrix", valueless_events,
                          cols=["value", "event_id"]),
    "pareto_share": _stats("pareto_share", events, key_col="user_id",
                           value_col="value"),
    "grouped_count_mean": _stats("grouped_count_mean", events,
                                 group_cols=["user_id", "event_type"],
                                 value_col="value"),
    "process_micro_batch": _stream_windows,
    "token_doc_frequency": _text("token_doc_frequency", null_docs),
    "ngram_novelty": _text("ngram_novelty", null_docs, null_docs),
    "bigram_heavy_hitters": _text("bigram_heavy_hitters", null_docs),
    "token_counts_by_group": _text("token_counts_by_group", null_docs),
    "vocabulary_stats": _text("vocabulary_stats", null_docs),
    # the hash-join fall-throughs of the TF-IDF family
    "tfidf_topk_join": _text("tfidf_topk", docs),
    "tfidf_topk_join_no_text": _text("tfidf_topk", null_docs),
    "doc_mean_idf_join": _text("doc_mean_idf", docs),
    "doc_mean_idf_join_no_text": _text("doc_mean_idf", null_docs),
}

#: cases that run on the large route of ``engine.shuffle`` (the
#: ``large_route`` fixture): the hash joins of the ``_join`` cases and
#: the distributed label propagation of ``connected_components``; every
#: other case runs on the small route (broadcast joins, one-task merges,
#: the single-task union-find)
LARGE = {"connected_components", "doc_mean_idf_join",
         "doc_mean_idf_join_no_text", "q10_returned_item_reporting_join",
         "q3_shipping_priority_join", "q5_local_supplier_volume_join",
         "revenue_by_segment_join", "tfidf_topk_join",
         "tfidf_topk_join_no_text"}

# name -> {kind: (rows, "column:type ..." or None when schemaless)}.
# Not pinned, because it fails before producing a result: the NULL-key
# case of stream_dedup_micro_batch (its state write rejects NULL keys).
# The joins of q3, q5, q10, revenue_by_segment and the tfidf_topk /
# doc_mean_idf fall-throughs go through ``shuffle.join``, which joins
# empty and all-NULL-key sides on both routes; the dimension lookups go
# through ``relational._key_rows``, where a side without a non-NULL key
# row gives the typed empty result (the ``_join`` cases take the
# hash-join route, the ``_no_<dimension>`` cases an empty dimension
# table). A pair with a NULL end is no edge, so both
# connected_components routes give the typed empty.
EXPECTED = {
    "activity_heatmap": {
        "empty": (0, "dow:int64 hod:int64 n:int64"),
        "null": (0, "dow:int64 hod:int64 n:int64")},
    "asof_join": {
        "empty": (0, None),
        "null": (0, "event_id:int64 user_id:double value:double")},
    "bigram_heavy_hitters": {
        "empty": (0, None),
        "null": (0, None)},
    "cohort_retention": {
        "empty": (0, "cohort:string day_offset:int64 n_users:int64"),
        "null": (0, "cohort:string day_offset:int64 n_users:int64")},
    "collect_distinct_sorted": {
        "empty": (0, None),
        "null": (0, None)},
    "collect_sequence": {
        "empty": (0, None),
        "null": (0, "user_id:double seq:<class 'object'> n_items:int64")},
    "connected_components": {
        "empty": (0, "node:int64 cluster_id:int64"),
        "null": (0, "node:int64 cluster_id:int64")},
    "connected_components_single_task": {
        "empty": (0, "node:int64 cluster_id:int64"),
        "null": (0, "node:int64 cluster_id:int64")},
    "corr_matrix": {
        "empty": (0, "col_x:string col_y:string r:double n:int64"),
        "null": (1, "col_x:string col_y:string r:double n:int64")},
    "count_distinct": {
        "empty": (0, "user_id:int64 n_distinct:int64"),
        "null": (0, "user_id:int64 n_distinct:int64")},
    "daily_active_users": {
        "empty": (0, None),
        "null": (0, None)},
    "daily_ratio": {
        "empty": (0, None),
        "null": (1,
                    "day:<class 'object'> n_num:int64 n_den:int64 "
                    "ratio:double")},
    "dangling_fk_rows": {
        "empty": (0, "key:int64 n_occurrences:int64"),
        "null": (0, "key:int64 n_occurrences:int64")},
    "delta_from_first": {
        "empty": (0, None),
        "null": (3, "event_id:int64 delta_from_first:double")},
    "dense_daily_counts": {
        "empty": (0, "day:timestamp[us] n:int64"),
        "null": (0, "day:timestamp[us] n:int64")},
    "doc_mean_idf_join": {
        "empty": (0, None),
        "null": (0, "doc_id:double mean_idf:double n_distinct:int64")},
    "doc_mean_idf_join_no_text": {
        "empty": (0, None),
        "null": (0, None)},
    "duplicate_keys": {
        "empty": (0, None),
        "null": (0, None)},
    "embedding_covariance": {
        "empty": (0, "i:int64 j:int64 cov:double n:int64"),
        "null": (0, "i:int64 j:int64 cov:double n:int64")},
    "event_transition_matrix": {
        "empty": (0, "from_type:string to_type:string n:int64"),
        "null": (0, "from_type:string to_type:string n:int64")},
    "event_type_cooccurrence": {
        "empty": (0, "type_a:string type_b:string n_keys:int64"),
        "null": (0, "type_a:string type_b:string n_keys:int64")},
    "events_per_user_hour": {
        "empty": (0, None),
        "null": (0, None)},
    "ewma": {
        "empty": (0, None),
        "null": (0, None)},
    "ewma_halflife": {
        "empty": (0, None),
        "null": (0, None)},
    "exact_duplicates": {
        "empty": (0, "text_hash:string keep_id:int64 dup_count:int64"),
        "null": (1, "text_hash:string keep_id:int64 dup_count:int64")},
    "except_distinct": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_centroids": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_corr": {
        "empty": (0, "user_id:int64 n:int64 corr:double"),
        "null": (0, "user_id:int64 n:int64 corr:double")},
    "grouped_count_mean": {
        "empty": (0,
                    "user_id:int64 event_type:string n:int64 mean:double"),
        "null": (0,
                    "user_id:int64 event_type:string n:int64 mean:double")},
    "grouped_gini": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_histogram": {
        "empty": (0, "user_id:int64 bin:int64 n:int64"),
        "null": (0, "user_id:int64 bin:int64 n:int64")},
    "grouped_iqr_outliers": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_mad": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_minmax_scale": {
        "empty": (0, None),
        "null": (3, "event_id:int64 scaled:double")},
    "grouped_mode": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_moments": {
        "empty": (0,
                    "user_id:int64 n:int64 mean:double std_samp:double "
                    "vmin:double vmax:double"),
        "null": (0,
                    "user_id:int64 n:int64 mean:double std_samp:double "
                    "vmin:double vmax:double")},
    "grouped_quantile_buckets": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_quantiles": {
        "empty": (0, None),
        "null": (0, "user_id:double q:double value:double")},
    "grouped_topk": {
        "empty": (0, None),
        "null": (0, None)},
    "grouped_weighted_mean": {
        "empty": (0, "user_id:int64 n:int64 weighted_mean:double"),
        "null": (0, "user_id:int64 n:int64 weighted_mean:double")},
    "grouped_zscore": {
        "empty": (0, None),
        "null": (3, "event_id:int64 z:double")},
    "interevent_gap_stats": {
        "empty": (0, None),
        "null": (1,
                    "user_id:double n_gaps:int64 avg_gap_s:double "
                    "max_gap_s:double")},
    "interval_join": {
        "empty": (0, None),
        "null": (0, "event_id:int64 interval_id:int64 user_id:double")},
    "keep_latest": {
        "empty": (0, None),
        "null": (1,
                    "event_id:int64 user_id:int64 ts:timestamp[us] "
                    "value:double event_type:string")},
    "lag_diff": {
        "empty": (0, None),
        "null": (3, "event_id:int64 lag_diff:double")},
    "longest_daily_streak": {
        "empty": (0, None),
        "null": (0, None)},
    "minhash_near_duplicates": {
        "empty": (0, "key_a:int64 key_b:int64 est_jaccard:double"),
        "null": (0, "key_a:int64 key_b:int64 est_jaccard:double")},
    "mutual_information": {
        "empty": (1, "mi:double n:int64"),
        "null": (1, "mi:double n:int64")},
    "ngram_novelty": {
        "empty": (0, None),
        "null": (3,
                    "doc_id:int64 novel_grams:int64 total_grams:int64 "
                    "novelty:double")},
    "normalized_duplicates": {
        "empty": (0, "norm_hash:string keep_id:int64 dup_count:int64"),
        "null": (1, "norm_hash:string keep_id:int64 dup_count:int64")},
    "orders_per_customer_histogram": {
        "empty": (1, "n_orders:int64 n_customers:int64"),
        "null": (1, "n_orders:int64 n_customers:int64")},
    "pack_sequences": {
        "empty": (0, None),
        "null": (3, "doc_id:double shard:double bin:int64 n_tokens:int64")},
    "pareto_share": {
        "empty": (1, "top_share:double n_keys:int64"),
        "null": (1, "top_share:double n_keys:int64")},
    "peak_hourly_rate": {
        "empty": (0, None),
        "null": (0, None)},
    "percentile_rank": {
        "empty": (0, None),
        "null": (0, "event_id:int64 pct_rank:double")},
    "pivot_agg": {
        "empty": (0, None),
        "null": (0, None)},
    "process_micro_batch": {
        "empty": (0,
                    "key:int64 window_start:timestamp[us] n_events:int64 "
                    "value_sum:double"),
        "null": (0,
                    "key:int64 window_start:timestamp[us] n_events:int64 "
                    "value_sum:double")},
    "q10_returned_item_reporting": {
        "empty": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object"),
        "null": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object")},
    "q10_returned_item_reporting_join": {
        "empty": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object"),
        "null": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object")},
    "q10_returned_item_reporting_no_customer": {
        "empty": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object"),
        "null": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object")},
    "q10_returned_item_reporting_no_nation": {
        "empty": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object"),
        "null": (0,
                    "c_custkey:int64 c_name:object revenue:float64 "
                    "c_acctbal:float64 n_name:object")},
    "q1_pricing_summary": {
        "empty": (0,
                    "l_returnflag:string l_linestatus:string sum_qty:double "
                    "sum_base_price:double sum_disc_price:double "
                    "avg_qty:double count_order:int64"),
        "null": (0,
                    "l_returnflag:string l_linestatus:string sum_qty:double "
                    "sum_base_price:double sum_disc_price:double "
                    "avg_qty:double count_order:int64")},
    "q3_shipping_priority": {
        "empty": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64"),
        "null": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64")},
    "q3_shipping_priority_join": {
        "empty": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64"),
        "null": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64")},
    "q3_shipping_priority_no_customer": {
        "empty": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64"),
        "null": (0,
                    "l_orderkey:int64 o_orderdate:datetime64[us] "
                    "revenue:float64")},
    "q5_local_supplier_volume": {
        "empty": (0, "n_name:string revenue:double"),
        "null": (0, "n_name:string revenue:double")},
    "q5_local_supplier_volume_join": {
        "empty": (0, "n_name:string revenue:double"),
        "null": (0, "n_name:string revenue:double")},
    "q5_local_supplier_volume_no_nation": {
        "empty": (0, "n_name:string revenue:double"),
        "null": (0, "n_name:string revenue:double")},
    "q5_local_supplier_volume_no_region": {
        "empty": (0, "n_name:string revenue:double"),
        "null": (0, "n_name:string revenue:double")},
    "q6_forecast_revenue": {
        "empty": (1, "revenue:double n_items:int64"),
        "null": (1, "revenue:double n_items:int64")},
    "revenue_by_segment": {
        "empty": (0, "c_mktsegment:string revenue:double n_orders:int64"),
        "null": (0, "c_mktsegment:string revenue:double n_orders:int64")},
    "revenue_by_segment_join": {
        "empty": (0, "c_mktsegment:string revenue:double n_orders:int64"),
        "null": (0, "c_mktsegment:string revenue:double n_orders:int64")},
    "revenue_by_segment_no_customer": {
        "empty": (0, "c_mktsegment:string revenue:double n_orders:int64"),
        "null": (0, "c_mktsegment:string revenue:double n_orders:int64")},
    "rolling_rows_mean": {
        "empty": (0, None),
        "null": (3, "event_id:int64 rolling_mean:double")},
    "rolling_window_mean": {
        "empty": (0, None),
        "null": (3, "event_id:int64 rolling_mean:double")},
    "rolling_window_min_max": {
        "empty": (0, None),
        "null": (3, "event_id:int64 rolling_min:double rolling_max:double")},
    "rolling_window_sum_count": {
        "empty": (0, None),
        "null": (3, "event_id:int64 rolling_sum:double rolling_n:int64")},
    "rollup_counts": {
        "empty": (0, "lvl:int64 event_type:string day:string n:int64"),
        "null": (0, "lvl:int64 event_type:string day:string n:int64")},
    "running_min_max": {
        "empty": (0, None),
        "null": (3, "event_id:int64 running_min:double running_max:double")},
    "running_sum": {
        "empty": (0, None),
        "null": (3, "event_id:int64 running_sum:double")},
    "session_aggregate": {
        "empty": (0, None),
        "null": (3,
                    "user_id:double session_id:int64 n_events:int64 "
                    "session_start:timestamp[us] session_end:timestamp[us] "
                    "value_sum:double n_values:int64")},
    "session_duration_stats": {
        "empty": (0, None),
        "null": (0, None)},
    "sessionize": {
        "empty": (0, None),
        "null": (3,
                    "user_id:double session_id:int64 n_events:int64 "
                    "session_start:timestamp[us] session_end:timestamp[us]")},
    "share_within_group": {
        "empty": (0, None),
        "null": (0, None)},
    "simhash_near_duplicates": {
        "empty": (0, None),
        "null": (0, None)},
    "spearman_corr": {
        "empty": (1, "spearman_r:double n:int64"),
        "null": (1, "spearman_r:double n:int64")},
    "stream_dedup_micro_batch": {
        "empty": (0, "doc_id:int64 text_hash:string")},
    "tfidf_topk_join": {
        "empty": (0, None),
        "null": (0, None)},
    "tfidf_topk_join_no_text": {
        "empty": (0, None),
        "null": (0, None)},
    "time_to_first_target": {
        "empty": (0, "user_id:int64 seconds_to_target:double"),
        "null": (0, "user_id:int64 seconds_to_target:double")},
    "token_counts_by_group": {
        "empty": (0, "lang:string token:string cnt:int64"),
        "null": (0, "lang:string token:string cnt:int64")},
    "token_doc_frequency": {
        "empty": (0, "token:string df:int64"),
        "null": (0, "token:string df:int64")},
    "top_event_types": {
        "empty": (0, None),
        "null": (0, None)},
    "union_distinct": {
        "empty": (0, None),
        "null": (0, None)},
    "user_activity_span": {
        "empty": (0, None),
        "null": (1,
                    "user_id:double n_events:int64 n_active_days:int64 "
                    "first_ts:timestamp[us] last_ts:timestamp[us]")},
    "user_hour_entropy": {
        "empty": (0, None),
        "null": (0, None)},
    "user_repeat_rate": {
        "empty": (0, None),
        "null": (0, None)},
    "user_value_concentration": {
        "empty": (0, "user_id:int64 max_share:double"),
        "null": (0, "user_id:int64 max_share:double")},
    "value_histogram": {
        "empty": (0, "bin:int64 n:int64"),
        "null": (0, "bin:int64 n:int64")},
    "vocabulary_stats": {
        "empty": (1,
                    "vocab_size:int64 hapax_count:int64 "
                    "total_tokens:int64"),
        "null": (1,
                    "vocab_size:int64 hapax_count:int64 "
                    "total_tokens:int64")},
    "window_rank_fractions": {
        "empty": (0, None),
        "null": (3,
                    "event_id:int64 pct_rank:double cume_dist:double "
                    "bucket:int64")},
    "window_ranks": {
        "empty": (0, None),
        "null": (3,
                    "event_id:int64 row_number:int64 rank:int64 "
                    "dense_rank:int64")},
}


def _observe(out):
    """(rows, "column:type ...") of a Dataset, an Arrow table or a pandas
    frame (pandas dtypes are pinned as their ``str``)."""
    if isinstance(out, pa.Table):
        sch = out.schema
        return out.num_rows, " ".join(
            f"{n}:{t}" for n, t in zip(sch.names, sch.types))
    if hasattr(out, "dtypes"):
        return len(out), " ".join(
            f"{n}:{t}" for n, t in out.dtypes.items())
    ds = out.materialize()
    sch = ds.schema()
    cols = None if sch is None else " ".join(
        f"{n}:{t}" for n, t in zip(sch.names, sch.types))
    return ds.count(), cols


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in sorted(CASES) for kind in ("empty", "null")
    if kind in EXPECTED.get(name, {})])
def test_by_key_empty_and_null_keys(ray_session, large_route, name, kind):
    if name in LARGE:
        large_route()
    assert _observe(CASES[name](kind)) == EXPECTED[name][kind]


def test_stream_dedup_empty_input(ray_session, tmp_path):
    assert _observe(_stream_dedup("empty", tmp_path)) \
        == EXPECTED["stream_dedup_micro_batch"]["empty"]


def test_join_without_matching_keys_is_typed(ray_session):
    """q3 and q10 over fact tables whose keys never meet: the join runs
    and is empty, and the result keeps the typed columns of the empty
    cases pinned above."""
    import engine.relational as rel

    shipped = {"l_orderkey": (pa.int64(), [100, 101, 102]),
               "l_suppkey": (pa.int64(), [1, 2, 3]),
               "l_quantity": (pa.float64(), [1.0, 2.0, 3.0]),
               "l_extendedprice": (pa.float64(), [10.0, 20.0, 30.0]),
               "l_discount": (pa.float64(), [0.05, 0.05, 0.05]),
               "l_returnflag": (pa.string(), ["R", "R", "R"]),
               "l_linestatus": (pa.string(), ["F", "F", "F"]),
               "l_shipdate": (pa.timestamp("us"),
                              [dt.datetime(1998, 7, 1)] * 3)}
    keyed = {"o_orderkey": (pa.int64(), [1, 2, 3]),
             "o_custkey": (pa.int64(), [1, 2, 3]),
             "o_totalprice": (pa.float64(), [5.0, 6.0, 7.0]),
             "o_orderdate": (pa.timestamp("us"),
                             [dt.datetime(1996, 2, 1)] * 3)}
    li, od = _ds("null", shipped), _ds("null", keyed)
    assert _observe(rel.q3_shipping_priority(li, od, customer("null"))) \
        == EXPECTED["q3_shipping_priority"]["null"]
    assert _observe(rel.q10_returned_item_reporting(
        li, od, customer("null"), nation("null"))) \
        == EXPECTED["q10_returned_item_reporting"]["null"]
