"""Stats-driven stage tuning.

``map_batches`` stage constants (batch_size) are replaced by a derivation
from the dataset's OBSERVED bytes/row — parquet metadata via
``Dataset.size_bytes()``/``count()``, which Ray answers without executing
the read — so a batch x concurrency fits a worker heap at any row width:
wide rows (long text, binary media payloads) get small batches, narrow
rows get large ones. This is the ``ds.stats()`` feedback loop promoted
into the plan: the same target bytes that profiling showed saturates a
worker without over-allocating (VERDICT round-2 item 8).
"""

from __future__ import annotations

#: parquet-encoded -> in-memory expansion guess for mixed text/numeric rows
#: (dictionary + snappy typically compress 3-4x on the test tables)
DECODE_FACTOR = 4.0


def _is_pure_read(ds) -> bool:
    """True only when the dataset is an untransformed read, whose
    ``size_bytes``/``count`` come from file metadata. On anything else
    those calls would EXECUTE the pipeline, so autotuning must refuse."""
    try:
        dag = ds._logical_plan.dag
        return not dag.input_dependencies and \
            type(dag).__name__ in ("Read", "InputData")
    except Exception:  # pragma: no cover - plan introspection changed
        return False


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
