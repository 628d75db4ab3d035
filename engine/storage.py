"""Storage abstraction: Lance when importable, Parquet-fragment directories
otherwise (SURVEY.md §4 sandbox note; BASELINE.json input_hint names a Lance
table of interleaved documents).

The two layouts expose the same Arrow schema and the same partition-directory
resumability contract, so every pipeline in this repo is written against
``read_table_dataset`` / ``write_table_dataset`` and switches engines by
availability (or explicitly via ``format=``). This container has no ``lance``
module — the Lance path is importable-optional and exercised only for its
graceful fallback here.

:func:`atomic_replace` is the one durable commit for single-file state
(checkpoint manifests and verdicts, drift baseline and meta, streaming
meta and Bloom); directory artifacts use ``streaming._replace_artifact``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import tempfile
from typing import Optional


@contextlib.contextmanager
def atomic_replace(path: str, mode: str = "w"):
    """Yield a file whose contents replace ``path`` only once complete.

    Writes go to a temp file in the same directory, which is flushed,
    fsynced, then ``os.replace``d onto ``path``: a kill mid-write leaves
    the old file (or none), never a torn one, and a failed write removes
    its temp file. Temp names start with ``.`` and end in ``.tmp``, so
    neither manifest globs nor parquet dataset discovery read a leftover
    one.
    """
    d, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def lance_available() -> bool:
    return importlib.util.find_spec("lance") is not None


def resolve_format(fmt: Optional[str] = None) -> str:
    """"lance" | "parquet"; default prefers Lance when importable."""
    if fmt in ("lance", "parquet"):
        if fmt == "lance" and not lance_available():
            raise ImportError(
                "lance requested but the 'lance' module is not installed; "
                "use format='parquet' (identical schema + layout contract)")
        return fmt
    return "lance" if lance_available() else "parquet"


def read_table_dataset(path: str, *, fmt: Optional[str] = None,
                       columns=None, **kwargs):
    """ray.data Dataset from a Lance dataset or a Parquet directory."""
    import ray.data

    fmt = resolve_format(fmt)
    if fmt == "lance":  # pragma: no cover - lance absent in this container
        return ray.data.read_lance(path, columns=columns, **kwargs)
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def write_table_dataset(ds, path: str, *, fmt: Optional[str] = None,
                        partition_cols=None, mode: str = "append", **kwargs):
    fmt = resolve_format(fmt)
    if fmt == "lance":  # pragma: no cover
        return ds.write_lance(path, **kwargs)
    return ds.write_parquet(path, partition_cols=partition_cols, mode=mode,
                            **kwargs)
