"""Shuffle tuning helpers.

Ray Data's sort-based groupby derives its reduce parallelism from the
upstream block count; a partial-aggregate stage that collapses a corpus into
a few small blocks therefore serializes the per-group reduce (measured 10x:
95k-group aggregate 9-14s at 2 blocks vs 1.4s at 64). ``balance`` inserts an
explicit repartition so reduce parallelism tracks the cluster size instead of
the accident of upstream blocking.

Partial datasets are combiner outputs — orders of magnitude smaller than the
corpus — so the extra balancing pass is cheap relative to the corpus scan at
any scale, and it is what sets the reduce width explicitly (the knob a
multi-node deployment would tune to nodes x cores).

``by_key`` is the engine's one key co-partition shape: every keyed
operator that needs whole keys together (windows, sessions, per-group
quantiles, pair dedup) runs through it, so the NULL-key and typed-empty
contracts live in one place.
"""

from __future__ import annotations


#: CPU count assumed outside a Ray session
_DEFAULT_CPUS = 8


def _cluster_cpus(default: int) -> int:
    """CPUs of the running Ray cluster, ``default`` outside a session."""
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", default)) \
            if ray.is_initialized() else default
    except Exception:  # pragma: no cover
        return default


def reduce_blocks() -> int:
    """Coarse partition count P for key shuffles: two per CPU, >= 8."""
    return max(8, 2 * _cluster_cpus(_DEFAULT_CPUS))


def by_key(ds, key: str, fn, *, prep=None, null_keys: str = "one",
           empty, batch_size=None):
    """Co-locate whole keys and run ``fn`` once per coarse partition.

    Rows hash on ``key`` to P = :func:`reduce_blocks` partitions (P
    tracks cluster CPUs) and ONE vectorized pandas UDF runs per partition,
    so per-group overhead is O(P), not O(#keys). Steps:

    1. per batch (pandas): ``prep(df)`` — the caller's projection, filter
       or in-batch combiner — then the NULL-key policy, then the
       partition column ``part = hash64(key) % P``;
    2. one ``groupby("part").map_groups(..., batch_format="pandas")``;
    3. ``fn(frame)`` on each partition frame, ``part`` removed.

    NULL-key contract, one of two families:

    * ``"one"``: NULL keys stay and form ONE partition — hash64 maps every
      NULL spelling to one value. SQL ``PARTITION BY`` / ``GROUP BY``
      semantics; ``fn`` must group them as one key too (``dropna=False``
      or a both-NULL mask, since ``NaN != NaN``).
    * ``"drop"``: rows with a NULL key are dropped before the shuffle —
      the ewma family (its recursive-CTE oracle can never extend a
      NULL-key chain) and every ``WHERE key IS NOT NULL`` mirror.

    Typed-empty contract: Ray never calls ``prep`` on an empty block, but
    ``map_groups`` over an EMPTY dataset hands the UDF a ZERO-COLUMN
    frame. ``fn`` therefore runs only on a non-empty frame that has
    ``key``; otherwise the partition returns a copy of ``empty``, the
    caller's typed empty output frame.
    """
    import numpy as np

    from engine.sketches import hash64

    if null_keys not in ("one", "drop"):
        raise ValueError(f"null_keys must be 'one' or 'drop', "
                         f"not {null_keys!r}")
    P = np.uint64(reduce_blocks())

    def _part(df):
        if prep is not None:
            df = prep(df)
        if null_keys == "drop":
            df = df[df[key].notna()]
        return df.assign(part=(hash64(df[key].to_numpy()) % P)
                         .astype(np.int64))

    def _group(df):
        if key not in df.columns or not len(df):
            return empty.copy()
        return fn(df.drop(columns="part"))

    return ds.map_batches(_part, batch_format="pandas",
                          batch_size=batch_size) \
        .groupby("part").map_groups(_group, batch_format="pandas")


def balance(ds, blocks: int | None = None):
    """Repartition a (small, pre-aggregated) dataset for the following
    groupby's reduce parallelism."""
    return ds.repartition(blocks if blocks is not None else reduce_blocks())


def tree_reduce(parts, merge_block, *, fanout: int = 32,
                driver_limit: int = 64):
    """Distributed tree reduction of a dataset of mergeable partial rows.

    Each round coalesces ~``fanout`` rows per block and applies
    ``merge_block`` (pa.Table -> pa.Table, >=1 merged row per block), so
    the partial count shrinks geometrically and the driver only ever
    iterates the final <= ``driver_limit`` rows — never one row per input
    batch. That is the difference between O(actors) and O(batches) driver
    traffic: at a 10^9-key catalog a partial Bloom is ~1 GB, and batches x
    1 GB OR-merged through one process is a scale-killer (the repartition
    here is coalesce-only — no all-to-all shuffle).

    Returns the final small MATERIALIZED dataset for a driver-side merge.
    """
    cur = parts.materialize()
    n = cur.count()
    while n > driver_limit:
        blocks = max(1, (n + fanout - 1) // fanout)
        cur = cur.repartition(blocks).map_batches(
            merge_block, batch_format="pyarrow",
            batch_size=None).materialize()
        prev, n = n, cur.count()
        if n >= prev:  # merge fn did not shrink: avoid an infinite loop
            break
    return cur


def column_dtype(ds, col: str, default=None):
    """Arrow dtype of ``ds``'s column ``col``, for typed-empty substitution
    on the all-filtered-corpus corner (Ray never calls UDFs on empty
    blocks, so a fully-filtered pipeline yields a SCHEMALESS empty).

    Metadata-only first (never executes the plan); falls back to
    ``fetch_if_missing=True`` — which may execute enough of the plan to
    read one block — only when metadata is absent. Callers invoke this
    lazily, inside the empty-result branch, so the fetch is a corner-case
    cost; the alternative was guessing ``pa.string()`` for an int key and
    returning a WRONG-TYPED empty.
    """
    import pyarrow as pa
    for fetch in (False, True):
        try:
            sch = ds.schema(fetch_if_missing=fetch)
            if sch is None:
                continue
            base = sch.base_schema
            try:
                return base.field(col).type
            except Exception:
                # pandas-block datasets report a PandasBlockSchema
                # (names + numpy dtypes), not an Arrow schema
                i = list(base.names).index(col)
                return pa.from_numpy_dtype(base.types[i])
        except Exception:
            pass
    return default if default is not None else pa.string()


def join_partitions(divisor: int = 2) -> int:
    """Partition count for hash joins (``Dataset.join``).

    Each join partition is backed by a HashShuffleAggregator actor that
    holds its partition in memory — so the count must track cluster CPUs,
    NOT the upstream block count. Over-provisioning aggregators on one node
    over-reserves object-store memory and can deadlock the pipeline
    (observed: two chained 64-partition joins hang on a 32-CPU box, the
    same joins at 8-16 partitions finish in seconds). It never exceeds the
    cluster CPUs either: below 4 CPUs the floor of 4 would start more
    aggregators than the session has CPUs.
    """
    cpus = _cluster_cpus(_DEFAULT_CPUS)
    return min(cpus, max(4, cpus // divisor))


def join_kwargs(num_partitions: int | None = None) -> dict:
    """Sizing arguments for every ``Dataset.join``: ``num_partitions``
    (:func:`join_partitions` unless given) and the aggregators' remote args.

    Ray reserves a CPU share for each aggregator for the whole join. On a
    cluster of fewer than two CPUs the rest is less than the one CPU a map
    task or pool actor asks for, so a join next to an actor stage never
    schedules (TPC-H q5 hung at ``num_cpus=1``). There the aggregators
    reserve no CPU; larger clusters keep Ray's default share.
    """
    return {"num_partitions": num_partitions or join_partitions(),
            "aggregator_ray_remote_args":
                {"num_cpus": 0} if _cluster_cpus(_DEFAULT_CPUS) < 2 else None}
