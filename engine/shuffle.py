"""The shuffle shapes: keyed co-partition, decomposable aggregate, join.

One size rule, :data:`SMALL_ROWS`, decides whether an input small enough
for one task (or the driver) to hold skips the shuffle: a ``join`` whose
right side has at most that many rows broadcasts it, and a ``combine``
whose partial rows are at most that many merges them in one task. Both
routes give the same rows; only above the constant does work shuffle.

Ray Data's sort-based groupby derives its reduce parallelism from the
upstream block count; a partial-aggregate stage that collapses a corpus into
a few small blocks therefore serializes the per-group reduce (measured 10x:
95k-group aggregate 9-14s at 2 blocks vs 1.4s at 64). Above
:data:`SMALL_ROWS` partial rows, ``_balance`` inserts an explicit
repartition so reduce parallelism tracks the cluster size instead of the
accident of upstream blocking (the knob a multi-node deployment would tune
to nodes x cores).

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

``join`` is the engine's one join, and its one ``Dataset.join``. It
materializes the right side once. A right side of at most
:data:`SMALL_ROWS` rows ships once through ``ray.put`` with a static
hash index the driver builds, and each left batch looks its keys up
in it; no worker builds anything, per batch or per task (a per-batch
``pa.Table.join`` or ``pc.is_in`` rebuilds a hash table of the whole
right side for every batch, ~10x the lookup), and nothing of the side
outlives the join's dataset. A larger right side takes the hash join,
whose sizing (``join_kwargs``) and NULL-key seed rows keep every join
partition typed. Both routes give pyarrow's ``Table.join`` rows, and
every block of an inner join carries the joined schema, so no caller
picks a route, tests a side for emptiness or repairs a schemaless join
block.
"""

from __future__ import annotations

import numpy as np

#: CPU count assumed outside a Ray session
_DEFAULT_CPUS = 8

#: rows that one task or the driver holds at once: a join's right side up
#: to this size is broadcast, and a combine's partial rows up to this size
#: merge in one task; above it both shuffle
SMALL_ROWS = 2_000_000


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
    A sort-based reduce over fewer keys than reduces, and a map over a
    zero-row block, leave schemaless empty blocks beside the typed ones,
    and they break a consumer that concatenates the blocks."""
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
_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def combine(ds, keys, aggs, *, derive=None, batch_size=None,
            concurrency=None):
    """Decomposable aggregate: per-batch partials merged by ``keys``.

    ``aggs`` maps each output column to ``(source_column, op)``, ``op``
    one of ``sum``/``min``/``max``/``count`` (``count`` counts non-NULL
    values, SQL ``count(col)``). Steps:

    1. per batch (Arrow): ``derive(batch)`` — the caller's projection or
       filter — then rows with a NULL (or NaN) key are dropped, then ONE
       ``pa.Table.group_by(keys).aggregate(...)``;
    2. the partial rows are materialized and merged: a ``count``
       partial merges with sum, the others with their own op; every
       column comes out under its own name, rows sorted by ``keys``. Up
       to :data:`SMALL_ROWS` partial rows merge in ONE task by one Arrow
       ``group_by``; above it, :func:`_balance` plus Ray's
       ``groupby(keys).aggregate(...)``. With no ``keys`` it is one
       global row (no shuffle; NULLs on an empty input).

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

    def _merge(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(
            [(col, _MERGE[op]) for col, (_, op) in aggs.items()])
        return pa.table([g.column(k) for k in keys]
                        + [g.column(f"{col}_{_MERGE[op]}")
                           for col, (_, op) in aggs.items()],
                        names=keys + list(aggs)).sort_by(
                            [(k, "ascending") for k in keys])

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size,
                           concurrency=concurrency).materialize()
    merges = [getattr(aggregate, _MERGE[op].title())(col, alias_name=col)
              for col, (_, op) in aggs.items()]
    if not keys:
        out = parts.groupby(None).aggregate(*merges).materialize()
    elif parts.count() <= SMALL_ROWS:
        out = parts.repartition(1).map_batches(
            _merge, batch_format="pyarrow", batch_size=None).materialize()
    else:
        out = _drop_empty_blocks(
            _balance(parts).groupby(keys).aggregate(*merges).materialize())
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
    import pyarrow as pa
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except Exception:
        return pa.string()


def _schema(ds):
    """Arrow schema of ``ds``, for typed-empty substitution on the
    all-filtered-corpus corner (Ray never calls UDFs on empty blocks, so
    a fully-filtered pipeline yields a SCHEMALESS empty) and for
    :func:`join`'s seed rows; ``None`` when Ray cannot tell.

    Metadata-only first (never executes the plan); falls back to
    ``fetch_if_missing=True`` — which may execute enough of the plan to
    read one block — only when metadata is absent. ``combine`` and
    ``finish`` invoke this lazily, inside the empty-result branch;
    ``join`` pays the fetch once per lazy side, as the emptiness test it
    replaced did. The alternative was guessing ``pa.string()`` for an
    int key and returning a WRONG-TYPED empty.
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


#: the seed-only column that marks the left seed row of a ``left_anti``
_SEED = "__join_seed"


def join(left, right, on: str, how: str = "inner", *, right_on=None,
         num_partitions=None):
    """Join of ``left[on]`` with ``right[right_on or on]``: ``how`` is
    ``"inner"`` or ``"left_anti"``. The engine's one join; it owns the
    route and Ray's join hazards, and gives pyarrow's ``Table.join`` rows:

    * columns: the left columns, then the right non-key columns (the
      right key is dropped, ``right_on`` or not); a duplicate right key
      multiplies rows;
    * NULL keys: a NULL key never matches (SQL), so ``left_anti`` keeps
      every NULL-key left row (NOT EXISTS holds);
    * route: ``right`` is materialized once, which also makes its schema
      free. At most :data:`SMALL_ROWS` right rows take
      :func:`_broadcast_join` (map-only over the left batches); more take
      :func:`_hash_join`.

    A side Ray reports no schema for has no rows (a block with rows
    carries its schema; a map over an empty input does not): an inner
    join with it, and a ``left_anti`` of it, is that empty side; a
    ``left_anti`` against it is ``left``. Otherwise the result is typed
    even when it is empty, and every block of an inner join (zero-row
    ones too) carries the joined schema; a ``left_anti``'s zero-row
    blocks may have none (Ray emits a map over a zero-row block so).

    The left schema comes from :func:`_schema`: free for a read or a
    materialized side, one ``limit(1)`` for a lazy transformed side. A
    hash join's output that is the LEFT side of another join is
    therefore materialized first, or the schema would run its shuffle
    twice (the right side is materialized here).
    """
    if how not in ("inner", "left_anti"):
        raise ValueError(f"how must be 'inner' or 'left_anti', not {how!r}")
    right = right.materialize()
    lsch, rsch = _schema(left), _schema(right)
    if lsch is None or rsch is None:
        return right if lsch is not None and how == "inner" else left
    if right.count() <= SMALL_ROWS:
        return _broadcast_join(left, right, on, right_on or on, how, lsch)
    return _hash_join(left, right, on, right_on, how, lsch, rsch,
                      num_partitions)


def _key_hash(col):
    """``hash64`` of a join key column (Arrow). Integer keys hash as
    int64, so an int32 key meets an equal int64 key (``hash64`` of a
    negative int32 differs from its int64 value's)."""
    import pyarrow as pa
    from engine.sketches import hash64
    if pa.types.is_integer(col.type):
        col = col.cast(pa.int64())
    return hash64(col.to_numpy(zero_copy_only=False))


class _Probe:
    """One left batch joined with the broadcast right side (see
    :func:`_broadcast_join`). Each left key's bucket ``[lo, hi)``
    of right rows comes from the shipped offsets; ``np.repeat`` expands
    the candidate pairs and one Arrow equality keeps the pairs whose keys
    are equal, so a duplicate right key multiplies rows and a hash
    collision never joins. The side is fetched per batch, zero-copy:
    nothing is built in the worker, and nothing outlives the batch."""

    def __init__(self, ref, key: str, rkey: str, cols, anti: bool):
        self._ref, self._key, self._rkey = ref, key, rkey
        self._cols, self._anti = cols, anti

    def __call__(self, b):
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray

        starts, ipc = ray.get(self._ref)
        side = pa.ipc.open_stream(pa.py_buffer(ipc)).read_all()
        col = b.column(self._key)
        shift = np.uint64(64 - (len(starts) - 2).bit_length())
        bucket = (_key_hash(col) >> shift).astype(np.int64)
        lo = starts[bucket]
        n = starts[bucket + 1] - lo
        li = np.repeat(np.arange(len(b)), n)
        ri = np.arange(len(li)) - np.repeat(np.cumsum(n) - n - lo, n)
        # a NULL left key compares NULL, and NaN != NaN: neither matches
        hit = pc.fill_null(pc.equal(col.take(li),
                                    side.column(self._rkey).take(ri)),
                           False).to_numpy(zero_copy_only=False)
        li, ri = li[hit], ri[hit]
        if self._anti:
            keep = np.ones(len(b), bool)
            keep[li] = False
            return b.filter(keep)
        return pa.Table.from_arrays(
            b.take(li).columns + [side.column(c).take(ri)
                                  for c in self._cols],
            names=b.column_names + self._cols)


def _broadcast_join(left, right, on: str, rkey: str, how: str, lsch):
    """:func:`join` of a right side of at most :data:`SMALL_ROWS` rows,
    with no shuffle. The driver drops its NULL-key rows, orders the rest
    by ``hash64(key)`` and ships them once via ``ray.put`` with a static
    hash index: the row offsets of ``2**bits > rows`` buckets of the
    hash's top bits (about one row per bucket). :class:`_Probe` joins
    each left batch through it with no per-batch or per-task build (a
    per-batch ``pa.Table.join`` or ``pc.is_in`` rebuilds a hash table of
    the whole right side for every batch). The rows ship as Arrow IPC
    bytes, which a worker reads zero-copy: Ray's pickled Arrow table is
    rebuilt on every get (6 ms for 1M int64 rows, against 0.08 ms).

    Ray emits a map over a zero-row block as a zero-row block without a
    schema. An inner join's output is therefore materialized and keeps
    only its blocks with rows (or one typed zero-row block), so every
    block carries the joined schema, as on the hash route. A
    ``left_anti``'s output, most often the bulk of the left side
    (dedup survivors), stays lazy behind a typed zero-row block; its
    zero-row blocks may have no schema, as the hash route's seed filter
    leaves them."""
    import pyarrow as pa
    import ray
    import ray.data

    side = pa.concat_tables(
        [t for t in ray.get(right.to_arrow_refs()) if t.num_rows]
        or [_schema(right).empty_table()])
    side = side.filter(not_null(side.column(rkey)))
    h = _key_hash(side.column(rkey))
    shift = np.uint64(64 - max(side.num_rows, 1).bit_length())
    starts = np.r_[0, np.bincount((h >> shift).astype(np.int64),
                                  minlength=2 ** (64 - int(shift))).cumsum()]
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, side.schema) as w:
        w.write_table(side.take(np.argsort(h)))
    cols = [c for c in side.column_names if c != rkey]
    anti = how == "left_anti"
    sch = lsch if anti else pa.schema(
        list(lsch) + [side.schema.field(c) for c in cols])
    typed = ray.data.from_arrow(sch.empty_table())
    out = left.map_batches(
        _Probe(ray.put((starts, np.frombuffer(sink.getvalue(), np.uint8))),
               on, rkey, cols, anti),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    if anti:
        return typed.union(out)
    out = _drop_empty_blocks(out.materialize())
    return out if out.count() else typed


def _hash_join(left, right, on: str, right_on, how: str, lsch, rsch,
               num_partitions):
    """:func:`join` of a right side of more than :data:`SMALL_ROWS` rows:
    Ray's hash join (``Dataset.join``). It owns Ray's join hazards:

    * sizing: :func:`join_kwargs`; a caller's ``num_partitions`` (fewer
      partitions for a small input) never exceeds :func:`join_partitions`;
    * empty sides: each join aggregator learns a side's schema from that
      side's FIRST block, broadcast as zero-row shards. A zero-row first
      block broadcasts nothing, and an aggregator that then gets no row
      of a side cannot join (``ArrowInvalid``). So each side gets one
      NULL-key seed row of its full schema, unioned in FIRST
      (``seed.union(side)``): every aggregator holds both schemas, every
      output block (zero-row ones too) carries the joined schema, and no
      emptiness test runs. A seed after the side still fails when the
      side's first block has no rows; a key-only seed runs, but its
      output blocks mix schemas.
    * NULL keys: no seed ever joins. ``left_anti`` keeps the unmatched
      left seed: a seed-only column (NULL on every real row) marks it and
      a filter drops it, while a real NULL-key left row stays. Ray skips
      that filter on a zero-row block and emits it schemaless, as after
      any map.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    def _seeded(side, sch, *extra):
        seed = pa.table([pa.nulls(1, f.type) for f in sch]
                        + [pa.array([True])] * len(extra),
                        names=sch.names + list(extra))
        return ray.data.from_arrow(seed).union(side)

    anti = how == "left_anti"
    out = _seeded(left, lsch, *([_SEED] if anti else [])).join(
        _seeded(right, rsch), join_type=how, on=(on,),
        right_on=(right_on,) if right_on else None,
        **join_kwargs(num_partitions and min(num_partitions,
                                             join_partitions())))
    if not anti:
        return out
    return out.map_batches(
        lambda b: b.filter(pc.is_null(b.column(_SEED))).drop_columns(_SEED),
        batch_format="pyarrow", zero_copy_batch=True)


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
