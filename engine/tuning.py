"""Stage shaping from the input's own plan: batch size and where the
read runs.

``map_batches`` stage constants (batch_size) are replaced by a derivation
from the dataset's OBSERVED bytes/row — parquet metadata via
``Dataset.size_bytes()``/``count()``, which Ray answers without executing
the read — so a batch x concurrency fits a worker heap at any row width:
wide rows (long text, binary media payloads) get small batches, narrow
rows get large ones. This is the ``ds.stats()`` feedback loop promoted
into the plan: the same target bytes that profiling showed saturates a
worker without over-allocating (VERDICT round-2 item 8).

:func:`map_read` runs a pure read's own ``ReadTask``s inside the mapping
tasks: Ray does not fuse a read with a ``map_batches`` that sets a batch
size, so otherwise every decoded block passes through the object store
between a read task and a map task.

This module is the one place that looks into a Dataset's logical plan.
"""

from __future__ import annotations

#: parquet-encoded -> in-memory expansion guess for mixed text/numeric rows
#: (dictionary + snappy typically compress 3-4x on the test tables)
DECODE_FACTOR = 4.0


def _source_op(ds):
    """The dataset's logical plan root when it has no inputs: a ``Read``
    or an ``InputData``; None for anything derived."""
    try:
        dag = ds._logical_plan.dag
    except AttributeError:  # pragma: no cover - plan introspection changed
        return None
    if dag.input_dependencies or \
            type(dag).__name__ not in ("Read", "InputData"):
        return None
    return dag


def _is_pure_read(ds) -> bool:
    """True only when the dataset is an untransformed read, whose
    ``size_bytes``/``count`` come from file metadata. On anything else
    those calls would EXECUTE the pipeline, so autotuning must refuse."""
    return _source_op(ds) is not None


def _read_tasks(ds, batch_size: int):
    """The datasource's own ``ReadTask``s when ``ds`` is a bare ``Read``
    with Ray's defaults: no legacy reader, no ``concurrency`` and no
    remote args but the context's scheduling strategy; None otherwise
    (then only Ray's read operator honours the read's settings).

    It asks for one task per ``batch_size`` rows of the read's metadata,
    and at least one per cluster CPU: so a task holds about one batch's
    output, as a map task of the generic path does (one task per CPU
    held a whole share of the corpus's violations: +20 % peak RSS on
    the dense benchmark corpus)."""
    op = _source_op(ds)
    if type(op).__name__ != "Read" or op._concurrency is not None \
            or op._datasource.should_create_reader \
            or op._ray_remote_args != {
                "scheduling_strategy": ds.context.scheduling_strategy}:
        return None
    from engine.shuffle import _cluster_cpus
    rows = op.infer_metadata().num_rows or 0
    return op._datasource.get_read_tasks(
        max(1, _cluster_cpus(1), -(-rows // batch_size)))


def batch_slices(tables, batch_size: int):
    """``batch_size``-row slices of a stream of tables, cut across table
    boundaries (the last one may be shorter; tables without rows add
    none); at most one slice plus one table is held."""
    import pyarrow as pa

    buf, n = [], 0
    for t in tables:
        buf.append(t)
        n += t.num_rows
        while n >= batch_size:
            t = pa.concat_tables(buf, promote_options="permissive")
            yield t.slice(0, batch_size)
            buf = [t.slice(batch_size)]
            n -= batch_size
    if n:
        yield pa.concat_tables(buf, promote_options="permissive")


class _ReadThenMap:
    """One task's work: run each item's pickled ``ReadTask`` and ``fn``
    on every ``batch_size``-row slice of the blocks it reads, one output
    table per slice."""

    def __init__(self, fn, batch_size: int):
        self.fn = fn
        self.batch_size = batch_size

    def __call__(self, items):
        import pickle

        from ray.data.block import BlockAccessor

        for blob in items.column("read_task").to_pylist():
            blocks = (BlockAccessor.for_block(b).to_arrow()
                      for b in pickle.loads(blob)())
            for t in batch_slices(blocks, self.batch_size):
                yield self.fn(t)


def map_read(ds, fn, batch_size, concurrency):
    """``ds`` mapped by ``fn`` over pyarrow batches of ``batch_size``
    rows.

    When ``ds`` is a pure read (:func:`_read_tasks`), its read tasks,
    one per batch and at least one per cluster CPU, run inside
    ``from_items(...).map_batches(..., batch_size=1)`` tasks
    (:class:`_ReadThenMap`): there is no Read operator and no decoded
    block passes through the object store, and every read option
    (columns, hive partitions, ``include_paths``, the filesystem) holds
    because Ray's own ``ReadTask`` does the read. Every other input, a
    read with no tasks and ``batch_size=None`` (one batch per block) go
    through ``ds.map_batches``."""
    import ray.cloudpickle
    import ray.data

    tasks = _read_tasks(ds, batch_size) if batch_size is not None else None
    if not tasks:
        return ds.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size,
                              concurrency=concurrency)
    return ray.data.from_items(
        [{"read_task": ray.cloudpickle.dumps(t)} for t in tasks],
        override_num_blocks=len(tasks)).map_batches(
        _ReadThenMap(fn, batch_size), batch_format="pyarrow", batch_size=1,
        concurrency=concurrency)


def autotune_batch_size(ds, *, target_bytes: int = 32 << 20,
                        lo: int = 1024, hi: int = 262144,
                        default: int = 8192) -> int:
    """Batch size targeting ``target_bytes`` of in-memory data per batch.

    Falls back to ``default`` unless the input is a pure read that can
    report metadata-only size/count (guarded — a transformed dataset would
    otherwise execute twice).
    """
    if not _is_pure_read(ds):
        return default
    try:
        nbytes = ds.size_bytes()
        n = ds.count()
    except Exception:  # pragma: no cover - non-metadata inputs
        return default
    if not n or not nbytes:
        return default
    bytes_per_row = nbytes / n * DECODE_FACTOR
    size = int(min(hi, max(lo, target_bytes / bytes_per_row)))
    # Don't starve the cluster: a byte-derived batch that yields fewer
    # than ~2 batches per CPU serializes the stage (measured: 15 tasks on
    # 32 CPUs for a 200k-doc corpus at the 32 MB target). Shrink toward
    # n/(2*cpus), never below ``lo``; inert at scale, where n/(2*cpus)
    # dwarfs the byte-derived size.
    from engine.shuffle import _cluster_cpus
    cpus = _cluster_cpus(0)
    if cpus:
        per_cpu2 = n // (2 * cpus)
        if per_cpu2 >= lo:
            size = min(size, per_cpu2)
    return size
