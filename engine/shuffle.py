"""Shuffle tuning helpers.

Ray Data's sort-based groupby derives its reduce parallelism from the
upstream block count; a partial-aggregate stage that collapses a corpus into
a few small blocks therefore serializes the per-group reduce (measured 10x:
95k-group aggregate 9-14s at 2 blocks vs 1.4s at 64). ``_balance`` inserts an
explicit repartition so reduce parallelism tracks the cluster size instead of
the accident of upstream blocking.

Partial datasets are combiner outputs — orders of magnitude smaller than the
corpus — so the extra balancing pass is cheap relative to the corpus scan at
any scale, and it is what sets the reduce width explicitly (the knob a
multi-node deployment would tune to nodes x cores).

``by_key`` is the engine's one key co-partition shape: every keyed
operator that needs whole keys together (windows, sessions, per-group
quantiles, pair dedup) runs through it, so the NULL-key and typed-empty
contracts live in one place. Its ordered form (``order=[...]``) is the
``PARTITION BY key ORDER BY ...`` shape: each partition frame arrives
sorted by ``[key, *order]``, and :func:`key_starts` finds where each
key's run begins. Both treat NULL keys as ONE key, the same rule as
``hash64`` mapping every NULL spelling to one partition.

``combine`` is the engine's one decomposable-aggregate shape: every
operator whose result merges per-batch partials by key (sums, counts,
min/max — stats, dedup, referential, the relational and text
aggregates) runs through it, and ``finish`` runs a post-step over its
output without losing the typed empty.
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
           order=None, empty, batch_size=None):
    """Co-locate whole keys and run ``fn`` once per coarse partition.

    Rows hash on ``key`` to P = :func:`reduce_blocks` partitions (P
    tracks cluster CPUs) and ONE vectorized pandas UDF runs per partition,
    so per-group overhead is O(P), not O(#keys). Steps:

    1. per batch (pandas): ``prep(df)`` — the caller's projection, filter
       or in-batch combiner — then the NULL-key policy, then the
       partition column ``part = hash64(key) % P``;
    2. one ``groupby("part").map_groups(..., batch_format="pandas")``;
    3. ``fn(frame)`` on each partition frame, ``part`` removed. With
       ``order`` (a list of columns) the frame is first sorted by
       ``[key, *order]`` — stable mergesort, NULLs last in every column,
       index reset — so each key is one contiguous run in ``order``
       order and ``fn`` finds the run starts with :func:`key_starts`.

    NULL-key contract, one of two families:

    * ``"one"``: NULL keys stay and form ONE partition — hash64 maps every
      NULL spelling to one value. SQL ``PARTITION BY`` / ``GROUP BY``
      semantics; ``fn`` must group them as one key too (``dropna=False``
      or :func:`key_starts`, since ``NaN != NaN``).
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
        df = df.drop(columns="part")
        if order is not None:
            df = df.sort_values([key, *order], kind="mergesort") \
                .reset_index(drop=True)
        return fn(df)

    return ds.map_batches(_part, batch_format="pandas",
                          batch_size=batch_size) \
        .groupby("part").map_groups(_group, batch_format="pandas")


def key_starts(keys):
    """Index of the first row of each row's key run in ``keys``, an
    array sorted so that equal keys are contiguous (the key column of a
    :func:`by_key` ``order`` frame). Two NULL keys are equal — NaN, None
    and NaT alike — so all NULL-key rows form one run, as they form one
    ``hash64`` partition. Row ``i`` starts a run where
    ``key_starts(keys)[i] == i``."""
    import numpy as np
    import pandas as pd

    keys = np.asarray(keys)
    null = pd.isna(keys)
    with np.errstate(invalid="ignore"):
        brk = np.r_[True, (keys[1:] != keys[:-1]) & ~(null[1:] & null[:-1])]
    return np.maximum.accumulate(np.where(brk, np.arange(len(keys)), 0))


def _balance(ds):
    """Repartition a (small, pre-aggregated) dataset for the following
    groupby's reduce parallelism."""
    return ds.repartition(reduce_blocks())


def _drop_empty_blocks(ds):
    """A materialized ``ds`` of Arrow blocks without its zero-row ones.
    A sort-based reduce over fewer keys than reduces leaves schemaless
    empty blocks beside the typed ones, and they break a consumer that
    concatenates the blocks."""
    import ray.data
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    if not refs or len(refs) == ds.num_blocks():
        return ds
    return ray.data.from_arrow_refs(refs)


def not_null(arr):
    """Arrow mask: True where ``arr`` holds a value — neither NULL nor
    NaN (pandas ``notna``)."""
    import pyarrow.compute as pc
    return pc.invert(pc.is_null(arr, nan_is_null=True))


#: how the per-batch partial of each ``combine`` op merges across batches
_MERGE = {"sum": "Sum", "count": "Sum", "min": "Min", "max": "Max"}


def combine(ds, keys, aggs, *, derive=None, batch_size=None,
            concurrency=None):
    """Decomposable aggregate: per-batch partials merged by ``keys``.

    ``aggs`` maps each output column to ``(source_column, op)``, ``op``
    one of ``sum``/``min``/``max``/``count`` (``count`` counts non-NULL
    values, SQL ``count(col)``). Steps:

    1. per batch (Arrow): ``derive(batch)`` — the caller's projection or
       filter — then rows with a NULL (or NaN) key are dropped, then ONE
       ``pa.Table.group_by(keys).aggregate(...)``;
    2. :func:`_balance` plus Ray's ``groupby(keys).aggregate(...)``: a
       ``count`` partial merges with Sum, the others with their own op;
       every column comes out under its own name. With no ``keys`` it
       is one global row (no shuffle; NULLs on an empty input).

    NULL-key contract: NULL keys always drop. Every caller's SQL mirror
    groups them away or filters them, and Ray's sort-based groupby
    cannot hold one (it raises ``TypeError`` comparing ``None`` with a
    value once a NULL and a non-NULL key share a reduce).

    Re-combining rows that are already partials gives the same rows, so
    a caller may union carried partial rows (streaming state) or feed
    per-partition partials (a :func:`by_key` output) back in.

    Returns a MATERIALIZED dataset (the result is key-bounded) whose
    blocks all hold rows. It is typed even when empty: the zero-row
    partial of the input schema (``derive`` over a zero-row table) stands
    in, since Ray never calls a UDF on an empty block.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data import aggregate

    keys = [keys] if isinstance(keys, str) else list(keys)

    def _partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:  # a schemaless empty join partition
            return batch
        if derive is not None:
            batch = derive(batch)
        for k in keys:
            keep = not_null(batch.column(k))
            if not pc.all(keep).as_py():
                batch = batch.filter(keep)
        g = batch.group_by(keys, use_threads=False) \
            .aggregate(list(aggs.values()))
        return pa.table([g.column(k) for k in keys]
                        + [g.column(f"{src}_{op}")
                           for src, op in aggs.values()],
                        names=keys + list(aggs))

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size,
                           concurrency=concurrency)
    merges = [getattr(aggregate, _MERGE[op])(col, alias_name=col)
              for col, (_, op) in aggs.items()]
    if keys:
        out = _drop_empty_blocks(
            _balance(parts).groupby(keys).aggregate(*merges).materialize())
    else:
        out = parts.groupby(None).aggregate(*merges).materialize()
    if out.count() == 0:
        sch = _schema(ds)
        if sch is not None:
            return ray.data.from_arrow(
                _partial(sch.empty_table()).slice(0, 0))
    return out


def finish(ds, fn, *, one_block: bool = False):
    """``fn`` (``pa.Table -> pa.Table``) over each block of ``ds``, a
    materialized typed dataset such as :func:`combine`'s output — the
    post-step (mean, std, corr, a dense reindex) of a decomposable
    aggregate. ``one_block`` first coalesces ``ds`` into one block, for
    a post-step that needs every row at once (the result is
    key-bounded). On an empty ``ds``, ``fn`` runs once on its zero-row
    table, so the result stays typed and a global post-step can report
    its SQL empty row (``(NULL, 0)``) — Ray never calls a UDF on an
    empty block.
    """
    import ray.data
    if ds.count() == 0:
        sch = _schema(ds)
        return ds if sch is None else ray.data.from_arrow(
            fn(sch.empty_table()))
    if one_block:
        ds = ds.repartition(1)
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


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


def _arrow_type(t):
    """Arrow type of a pandas-block schema entry; ``object`` (and any
    dtype Arrow cannot map) reads as string."""
    import numpy as np
    import pyarrow as pa
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except Exception:
        return pa.string()


def _schema(ds):
    """Arrow schema of ``ds``, for typed-empty substitution on the
    all-filtered-corpus corner (Ray never calls UDFs on empty blocks, so
    a fully-filtered pipeline yields a SCHEMALESS empty); ``None`` when
    Ray cannot tell.

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
        except Exception:
            continue
        if sch is None:
            continue
        base = sch.base_schema
        if isinstance(base, pa.Schema):
            return base
        # pandas-block datasets report a PandasBlockSchema (names + numpy
        # dtypes), not an Arrow schema
        return pa.schema([(n, _arrow_type(t))
                          for n, t in zip(base.names, base.types)])
    return None


def column_dtype(ds, col: str, default=None):
    """Arrow dtype of ``ds``'s column ``col`` (see :func:`_schema`);
    ``default`` — else ``pa.string()`` — when unknown."""
    import pyarrow as pa
    sch = _schema(ds)
    if sch is not None and col in sch.names:
        return sch.field(col).type
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
